"""Gauss-Jordan elimination as the reference for the structured inverses.

The library never eliminates an N x N matrix: ``sample_frame`` inverts
the generator by interpolation, which also tells a singular one apart,
``decode_classical`` multiplies by that inverse, and ``quantum_transfer``
reads M = [0 I] [G H]^-1 off the generator and its inverse.  These
helpers get the same results the plain way, by
``FieldContext._eliminate``, for the tests to compare against.
"""

import numpy as np

from pdmm.gf import SingularMatrixError


def rank(ctx, a):
    """Rank of a 2-D matrix, by eliminating it; ``ValueError`` naming any other shape."""
    a = ctx.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if a.size == 0:
        return 0
    return ctx._eliminate(a, a.shape[1])[1]


def solve(ctx, a, b):
    """X with A X = B for square A, by eliminating [A | B]."""
    a, b = ctx.asarray(a), ctx.asarray(b)
    n = len(a)
    aug, rank = ctx._eliminate(np.hstack([a, b]), n)
    if rank < n:
        raise SingularMatrixError(f"matrix of rank {rank} < {n}")
    return aug[:, n:]


def transfer(ctx, g, h):
    """M = [0 I] [G H]^-1 for two 2N x N blocks: the last N rows of [G H]^-1."""
    n = g.shape[1]
    return solve(ctx, np.hstack([g, h]), ctx.identity(2 * n))[n:]
