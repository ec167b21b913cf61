"""Generalized Reed-Solomon machinery: generators, dual multipliers,
shifted duals, and the symplectic self-orthogonality check.

A GRS generator here is the N x k matrix with rows
``u_i * [a_i^s, a_i^(s+1), ..., a_i^(s+k-1)]`` for a shift s.  The dual
of the k-dimensional code is the (N-k)-dimensional GRS code on the same
points with multipliers given in closed form; stacking two dual
generators block-diagonally yields a symplectic self-orthogonal matrix,
which is what the transfer-matrix construction consumes.

This module is GRS math over a ``FieldContext`` only.  The protocol's
evaluation frame, ``protocol.EvalFrame``, forms the same dual
multipliers as ``shifted_dual_multipliers`` from the Fermat pass its
generator inverse already makes, with no node products.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldContext, _admissible_points, _node_products, _powers

__all__ = [
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
    g = np.asarray(g)
    if g.ndim != 2 or g.shape[0] % 2 != 0:
        raise ShapeMismatchError(f"expected a 2N x k matrix, got {g.shape}")
    n = g.shape[0] // 2
    # G^t J G = top^t bot - bot^t top = X - X^t for X = top^t bot; matmul
    # reduces its operands and returns X canonical, so X = X^t is exact
    x = ctx.matmul(g[:n].T, g[n:])
    return bool(np.array_equal(x, x.T))
