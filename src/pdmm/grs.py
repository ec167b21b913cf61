"""Generalized Reed-Solomon machinery: generators, dual multipliers,
shifted duals, and the symplectic self-orthogonality check.

A GRS generator here is the N x k matrix with rows
``u_i * [a_i^s, a_i^(s+1), ..., a_i^(s+k-1)]`` for a shift s.  The dual
of the k-dimensional code is the (N-k)-dimensional GRS code on the same
points with multipliers given in closed form; stacking two dual
generators block-diagonally yields a symplectic self-orthogonal matrix,
which is what the transfer-matrix construction consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .degree_tables import ExponentPlan
from .gf import FieldContext, _admissible_points, _node_products, _powers

__all__ = [
    "EvalFrame",
    "ShapeMismatchError",
    "shifted_dual_multipliers",
    "grs_generator",
    "sso_check",
]


class ShapeMismatchError(ValueError):
    """Operands have incompatible dimensions."""


def _multipliers(ctx: FieldContext, u, n: int) -> np.ndarray:
    """Multipliers reduced mod p; raises unless there are n of them, all nonzero."""
    u = ctx.asarray(u).ravel()
    if u.size != n:
        raise ShapeMismatchError(f"{u.size} multipliers for {n} points")
    if np.any(u == 0):
        raise ValueError("multipliers must be nonzero")
    return u


def shifted_dual_multipliers(ctx: FieldContext, points, u, l1: int, l2: int) -> np.ndarray:
    """Dual multipliers for a pair of shifted GRS codes.

    The l1-shifted code on u and the l2-shifted code on v are dual when
    v_i = (u_i * a_i^(l1+l2))^-1 * (prod_{j != i} (a_j - a_i))^-1, for
    every split of the N points into a k-dim and an (N-k)-dim code.
    """
    pts = np.array(_admissible_points(np.ravel(points), ctx.p), dtype=np.int64)
    u = _multipliers(ctx, u, pts.size)
    scale = u * _powers(pts, [l1 + l2], ctx.p)[:, 0] % ctx.p
    return ctx._inverse_all(scale * _node_products(pts, ctx.p) % ctx.p)


def grs_generator(ctx: FieldContext, points, u, dim: int, shift: int = 0) -> np.ndarray:
    """N x dim generator with rows u_i * [a_i^shift, ..., a_i^(shift+dim-1)]."""
    vand = ctx.vandermonde(np.ravel(points), range(shift, shift + dim))
    u = _multipliers(ctx, u, len(vand))
    return u[:, None] * vand % ctx.p


def sso_check(ctx: FieldContext, g) -> bool:
    """True iff G^t J G = 0 for the symplectic form J = [[0, I], [-I, 0]]."""
    g = ctx.asarray(g)
    if g.ndim != 2 or g.shape[0] % 2 != 0:
        raise ShapeMismatchError(f"expected a 2N x k matrix, got {g.shape}")
    n = g.shape[0] // 2
    top, bot = g[:n], g[n:]
    # G^t J G = top^t bot - bot^t top
    left = ctx.matmul(top.T, bot)
    right = ctx.matmul(bot.T, top)
    return bool(np.all((left - right) % ctx.p == 0))


@dataclass(frozen=True)
class EvalFrame:
    """Field and evaluation points fixed for one protocol run, and their dual multipliers.

    ``ctx`` is the run's field, the one every protocol stage works over.
    ``points`` are stored reduced mod p and must be nonzero and pairwise
    distinct.  Quantum frames give ``shift``, the start of the plan's
    interference run.  The first instance's column multipliers are all
    ones, so ``v`` is the one vector that makes the ``shift``-shifted GRS
    codes on ones and on ``v`` dual, and the frame computes it.
    Classical frames leave ``shift`` and ``v`` as None.

    ``plan`` is the plan the frame was sampled for, ``generator`` the
    N x N generator on the points and that plan's table exponents, in
    table order, and ``inverse`` its inverse (by Lagrange interpolation
    when those exponents are 0, ..., N - 1, else by elimination).
    ``protocol.sample_frame`` sets all three, and every stage takes its
    plan from the frame: the encoder places blocks by it, the decoders
    read the inverse, and the quantum transfer matrix permutes both.
    Encoding needs the plan and decoding all three.  They play no part
    in equality.
    """

    ctx: FieldContext
    points: tuple[int, ...]
    shift: int | None = None
    v: tuple[int, ...] | None = field(init=False, default=None)
    inverse: np.ndarray | None = field(default=None, compare=False, repr=False)
    plan: ExponentPlan | None = field(default=None, compare=False, repr=False)
    generator: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        pts = tuple(_admissible_points(self.points, self.ctx.p))
        object.__setattr__(self, "points", pts)
        if self.shift is not None:
            v = shifted_dual_multipliers(self.ctx, pts, [1] * len(pts), self.shift, self.shift)
            object.__setattr__(self, "v", tuple(v.tolist()))

    @property
    def n(self) -> int:
        return len(self.points)
