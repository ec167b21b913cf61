"""Transfer matrix standing in for the entangled-servers quantum channel.

N servers each contribute two field symbols (an X operand and a Z
operand); the receiver recovers N symbols through the linear map
M = [0 I] [G H]^-1, where G spans the stabilized directions and must be
symplectic self-orthogonal.  The map is exact for stabilizer-based
protocols, so no state-vector simulation is involved anywhere.
``protocol.quantum_transfer`` builds G, H and M without elimination;
this module holds the map, the laws it is checked against, and its
application.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import FieldContext
from .grs import ShapeMismatchError, sso_check

__all__ = [
    "TransferMatrix",
    "NotSSOError",
    "apply_box",
]


class NotSSOError(ValueError):
    """The stabilizer block fails the symplectic self-orthogonality check."""


@dataclass(frozen=True)
class TransferMatrix:
    """Receiver map m with its stabilizer block g and readout block h.

    Invariants (checked exactly at construction): g is SSO, m g = 0 and
    m h = I.  [g h] must also be invertible, which the checks do not
    show: ``protocol.quantum_transfer`` has it because its g, h and m
    are column and row slices of one block-diagonal matrix and its
    inverse, filled in from the sampled frame's generator and that
    generator's inverse.  Inputs in the column span of g vanish; the
    receiver sees exactly the h-coordinates.
    """

    ctx: FieldContext
    m: np.ndarray
    g: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        if not sso_check(self.ctx, self.g):
            raise NotSSOError("stabilizer block is not symplectic self-orthogonal")
        if np.any(self.ctx.matmul(self.m, self.g) != 0):
            raise AssertionError("transfer law m g = 0 failed")
        if np.any(self.ctx.matmul(self.m, self.h) != self.ctx.identity(self.n)):
            raise AssertionError("transfer law m h = I failed")

    @property
    def n(self) -> int:
        return self.m.shape[0]


def apply_box(tm: TransferMatrix, x) -> np.ndarray:
    """Receive y = m x for a 2N-vector (or a 2N x k batch) of operands."""
    if np.shape(x)[:1] != (2 * tm.n,):
        raise ShapeMismatchError(f"operand shape {np.shape(x)}, expected length {2 * tm.n}")
    return tm.ctx.matmul(tm.m, x)
