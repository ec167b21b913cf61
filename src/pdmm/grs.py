"""Generalized Reed-Solomon machinery: the symplectic self-orthogonality check.

Stacking the generators of two dual GRS codes block-diagonally yields a
symplectic self-orthogonal matrix, which is what the transfer-matrix
construction consumes; ``sso_check`` is the test ``TransferMatrix``
puts each one to.  The codes themselves come from the protocol's
evaluation frame, ``protocol.EvalFrame``: its generator is a column
block of its power table, and its dual multipliers come from the Fermat
pass its generator inverse already makes.

This module is GRS math over a ``FieldContext`` only.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldContext

__all__ = ["ShapeMismatchError", "sso_check"]


class ShapeMismatchError(ValueError):
    """Operands have incompatible dimensions."""


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
