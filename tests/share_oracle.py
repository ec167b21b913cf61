"""The encoder and the server step as they ran before the fused pass.

``encode_shares`` stacks each side's data and noise blocks and multiplies
them by the frame's powers with one ``FieldContext.matmul``, and
``server_compute`` multiplies each server's two int64 shares with one
``matmul`` a server.  The library's one encoder, ``protocol._encode``,
forms the same shares, for all servers at once or one server group at a
time; ``protocol.encode_and_multiply`` multiplies them into the same
products, and ``Transcript.shares_f`` and ``shares_g`` derive the same
stacks.  This pair is the oracle their differential test compares them
with.
"""

import numpy as np

from pdmm.grs import ShapeMismatchError
from pdmm.protocol import EvalFrame


def encode_shares(frame: EvalFrame, a_blocks, b_blocks, noise_f, noise_g):
    """Per-server share pair (f_n, g_n) for one instance, placed by ``frame.plan``."""
    plan = frame.plan
    shares = []
    for exps, info, noise_exps, blocks, noise in (
            (plan.alpha, plan.info_alpha, plan.noise_alpha, a_blocks, noise_f),
            (plan.beta, plan.info_beta, plan.noise_beta, b_blocks, noise_g)):
        coeffs = np.stack([*blocks, *noise])
        powers = frame.powers([*(exps[i] for i in info), *noise_exps])
        shares.append(frame.ctx.matmul(powers, coeffs.reshape(len(coeffs), -1))
                      .reshape(frame.n, *coeffs.shape[1:]))
    return tuple(shares)


def server_compute(ctx, shares_f, shares_g) -> np.ndarray:
    """Each server multiplies its two shares, one 2-D ``ctx.matmul`` a server.

    Stacks of other ranks, or whose counts or inner dimensions differ,
    raise ``ShapeMismatchError``.
    """
    f_shape, g_shape = np.shape(shares_f), np.shape(shares_g)
    if len(f_shape) != 3 or len(g_shape) != 3 or (f_shape[0], f_shape[2]) != g_shape[:2]:
        raise ShapeMismatchError(
            f"expected (N, ra, inner) and (N, inner, cb) share stacks, "
            f"got shapes {f_shape} and {g_shape}")
    return np.array([ctx.matmul(f, g) for f, g in zip(shares_f, shares_g)])
