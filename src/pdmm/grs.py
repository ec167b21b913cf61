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

from dataclasses import dataclass

import numpy as np

from .gf import DuplicatePointError, FieldContext, ZeroPointError

__all__ = [
    "EvalFrame",
    "ShapeMismatchError",
    "dual_frame",
    "dual_multipliers",
    "shifted_dual_multipliers",
    "grs_generator",
    "sso_check",
]


class ShapeMismatchError(ValueError):
    """Operands have incompatible dimensions."""


def _check_points(ctx: FieldContext, points) -> np.ndarray:
    pts = ctx.asarray(points).ravel()
    if np.any(pts == 0):
        raise ZeroPointError("evaluation points must be nonzero")
    if len(set(pts.tolist())) != pts.size:
        raise DuplicatePointError("evaluation points must be distinct")
    return pts


def dual_multipliers(ctx: FieldContext, points, u) -> np.ndarray:
    """Column multipliers v making GRS(points, v) the dual of GRS(points, u).

    v_i = u_i^-1 * (prod_{j != i} (a_j - a_i))^-1, so that the k-dim code
    on u and the (n-k)-dim code on v are orthogonal for every split k.
    """
    return shifted_dual_multipliers(ctx, points, u, 0, 0)


def shifted_dual_multipliers(ctx: FieldContext, points, u, l1: int, l2: int) -> np.ndarray:
    """Dual multipliers for a pair of shifted GRS codes.

    The l1-shifted code on u and the l2-shifted code on v are dual when
    v_i = (u_i * a_i^(l1+l2))^-1 * (prod_{j != i} (a_j - a_i))^-1.
    """
    pts = _check_points(ctx, points)
    u = ctx.asarray(u).ravel()
    if u.size != pts.size:
        raise ShapeMismatchError(f"{u.size} multipliers for {pts.size} points")
    if np.any(u == 0):
        raise ValueError("multipliers must be nonzero")
    p = ctx.p
    diffs = (pts[None, :] - pts[:, None]) % p  # diffs[i][j] = a_j - a_i
    v = np.empty_like(pts)
    for i in range(pts.size):
        prod = 1
        for j in range(pts.size):
            if j != i:
                prod = prod * int(diffs[i, j]) % p
        scale = int(u[i]) * pow(int(pts[i]), l1 + l2, p) % p
        v[i] = ctx.inv(scale * prod % p)
    return v


def grs_generator(ctx: FieldContext, points, u, dim: int, shift: int = 0) -> np.ndarray:
    """N x dim generator with rows u_i * [a_i^shift, ..., a_i^(shift+dim-1)]."""
    pts = _check_points(ctx, points)
    u = ctx.asarray(u).ravel()
    vand = ctx.vandermonde(pts.tolist(), range(shift, shift + dim))
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
    """Evaluation points and multipliers fixed for one protocol run.

    ``u`` are the multipliers on the first-instance side; ``v``, when
    present, must satisfy the shifted-dual relation for the recorded
    shifts, making the two half-blocks of the stabilizer generator dual
    codes.  Classical runs leave ``v`` as None.
    """

    ctx: FieldContext
    points: tuple[int, ...]
    u: tuple[int, ...]
    v: tuple[int, ...] | None = None
    shift_l1: int = 0
    shift_l2: int = 0

    def __post_init__(self):
        pts = _check_points(self.ctx, self.points)
        if len(self.u) != pts.size or any(x % self.ctx.p == 0 for x in self.u):
            raise ValueError("u must hold one nonzero multiplier per point")
        if self.v is not None:
            want = shifted_dual_multipliers(
                self.ctx, self.points, self.u, self.shift_l1, self.shift_l2)
            if tuple(int(x) for x in want) != tuple(x % self.ctx.p for x in self.v):
                raise ValueError("v does not satisfy the shifted-dual relation")

    @property
    def n(self) -> int:
        return len(self.points)


def dual_frame(ctx: FieldContext, points, shift: int = 0) -> EvalFrame:
    """Frame with all-ones u and the matching shifted-dual v."""
    u = tuple(1 for _ in points)
    v = shifted_dual_multipliers(ctx, points, u, shift, shift)
    return EvalFrame(ctx=ctx, points=tuple(int(x) % ctx.p for x in points), u=u,
                     v=tuple(int(x) for x in v), shift_l1=shift, shift_l2=shift)
