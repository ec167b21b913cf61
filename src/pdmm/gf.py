"""Exact arithmetic and linear algebra over a prime field F_p.

Everything downstream (degree tables, GRS duality, transfer matrices,
protocol simulation) runs on top of this module.  Matrices are plain
numpy ``int64`` arrays with entries kept canonically in ``[0, p)``; a
:class:`FieldContext` carries the modulus and provides the operations.

Matrix products run through float64 BLAS and stay exact: a float64 GEMM
of non-negative integers is exact while every sum it forms is at most
2^53 (Dumas, Giorgi and Pernet, FFLAS-FFPACK, ACM TOMS 2008).  So the
inner dimension is cut into chunks of at most 2^53 // (p - 1)^2, and
when (p - 1)^2 >= 2^53 each operand is first split into 16-bit limbs.

The context and all arrays it touches are treated as immutable; every
operation returns fresh arrays, so concurrent use is safe.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "FieldContext",
    "SingularMatrixError",
    "DuplicatePointError",
    "ZeroPointError",
    "is_prime",
    "next_prime",
    "element_of_order",
]


class SingularMatrixError(ValueError):
    """A square system had no unique solution."""


class DuplicatePointError(ValueError):
    """Evaluation points must be pairwise distinct."""


class ZeroPointError(ValueError):
    """Evaluation points must be nonzero."""


# Deterministic Miller-Rabin witnesses, valid for all n < 3,317,044,064,679,887,385,961,981.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with fixed witnesses)."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    n = max(n, 2)
    while not is_prime(n):
        n += 1
    return n


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def element_of_order(order: int, p: int) -> int:
    """Smallest element of multiplicative order exactly ``order`` in F_p.

    Requires ``order`` to divide p - 1.
    """
    if (p - 1) % order != 0:
        raise ValueError(f"order {order} does not divide p-1 = {p - 1}")
    factors = _prime_factors(order)
    for g in range(2, p):
        if pow(g, order, p) != 1:
            continue
        if all(pow(g, order // f, p) != 1 for f in factors):
            return g
    raise ValueError(f"no element of order {order} in F_{p}")


def _admissible_points(points, p: int) -> list[int]:
    """Integer points reduced mod p; raises unless they are nonzero and pairwise distinct."""
    pts = [operator.index(x) % p for x in points]
    if any(x == 0 for x in pts):
        raise ZeroPointError("evaluation points must be nonzero")
    if len(set(pts)) != len(pts):
        raise DuplicatePointError("evaluation points must be distinct")
    return pts


# float64 holds every integer up to 2^53 exactly.
_EXACT = 1 << 53
_LIMB_BITS = 16
_LIMB_MASK = (1 << _LIMB_BITS) - 1
# Output entries per column tile of ``FieldContext.matmul``: 1 MiB of float64.
_TILE = 1 << 17


def _swap_rows(stack: np.ndarray, i: np.ndarray, j: np.ndarray) -> None:
    """Swap row i[s] with row j[s] of every matrix s in the stack, in place."""
    every = np.arange(len(stack))
    row_i = stack[every, i]
    stack[every, i] = stack[every, j]
    stack[every, j] = row_i


@dataclass(frozen=True)
class FieldContext:
    """Prime field F_p with exact matrix algebra.

    The modulus must be an odd prime with p < 2^31 so that single
    products fit comfortably in int64.  Matrix products are float64
    GEMMs over inner chunks whose sums stay within 2^53, where float64
    is exact; when (p - 1)^2 >= 2^53 the operands are split into 16-bit
    limbs first.
    """

    p: int

    def __post_init__(self):
        if self.p < 3 or self.p % 2 == 0:
            raise ValueError(f"modulus must be an odd prime >= 3, got {self.p}")
        if self.p >= 2**31:
            raise ValueError(f"modulus must be < 2^31, got {self.p}")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    # -- scalar arithmetic -------------------------------------------------

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.p

    def sub(self, x: int, y: int) -> int:
        return (x - y) % self.p

    def mul(self, x: int, y: int) -> int:
        return (x * y) % self.p

    def inv(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(x, -1, self.p)

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(x), -e, self.p)
        return pow(x % self.p, e, self.p)

    # -- arrays ------------------------------------------------------------

    def asarray(self, data) -> np.ndarray:
        """Canonicalize to a new int64 array with entries in [0, p)."""
        x = np.array(data, dtype=np.int64)
        # as uint64 a negative entry exceeds 2^63, so one max finds any outside [0, p)
        if x.size and x.view(np.uint64).max() >= self.p:
            x %= self.p
        return x

    def identity(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def matmul(self, a, b) -> np.ndarray:
        """Exact A @ B mod p for a left operand of any rank and a 1-D or 2-D right one.

        The products run as float64 GEMMs, which are exact while every
        partial sum stays at or below 2^53, whatever order the BLAS sums
        in.  Operands become float64 limbs (see ``_limbs``), the inner
        dimension is cut into chunks short enough for that bound, and
        each chunk's product (see ``_limb_product``) is added into an
        int64 result and reduced mod p.  The output is built in column
        tiles of about 1 MiB of float64, so no output-sized float64
        array is ever live.
        """
        a = self.asarray(a)
        b = self.asarray(b)
        if a.shape[-1] != b.shape[0] or b.ndim > 2:
            raise ValueError(f"shape mismatch for matmul: {a.shape} x {b.shape}")
        shape = a.shape[:-1] + b.shape[1:]
        rows, inner, cols = math.prod(a.shape[:-1]), b.shape[0], math.prod(b.shape[1:])
        # Rebinding drops each int64 copy once its float64 limbs exist.
        a = self._limbs(a.reshape(rows, inner))
        b = self._limbs(b.reshape(inner, cols))
        top = self.p - 1 if len(a) == 1 else _LIMB_MASK
        depth = _EXACT // (len(a) * top * top)  # a chunk's widest sum adds len(a) limb products
        width = max(1, _TILE // max(rows, 1))
        out = np.zeros((rows, cols), dtype=np.int64)
        for c in range(0, cols, width):
            acc = out[:, c:c + width]
            for k in range(0, inner, depth):
                acc += self._limb_product([x[:, k:k + depth] for x in a],
                                          [y[k:k + depth, c:c + width] for y in b])
                acc %= self.p
        # [()] turns the 0-d product of two vectors into a scalar, as np.matmul does
        return out.reshape(shape)[()]

    def _limb_product(self, a: list[np.ndarray], b: list[np.ndarray]) -> np.ndarray:
        """Product of two limb lists as int64 below 2^54, congruent to A @ B mod p.

        Each float64 product is exact by the chunk bound.  Limb products
        are combined Horner-style in int64, reduced mod p before each
        16-bit shift so that nothing passes 2^54.
        """
        if len(a) == 1:
            return (a[0] @ b[0]).astype(np.int64)
        (a_hi, a_lo), (b_hi, b_lo) = a, b
        acc = (a_hi @ b_hi).astype(np.int64)
        acc %= self.p
        acc <<= _LIMB_BITS
        acc += (a_hi @ b_lo + a_lo @ b_hi).astype(np.int64)
        acc %= self.p
        acc <<= _LIMB_BITS
        acc += (a_lo @ b_lo).astype(np.int64)
        return acc

    def _limbs(self, x: np.ndarray) -> list[np.ndarray]:
        """Canonical entries as float64 limbs, most significant first.

        One limb, the entries themselves, when (p - 1)^2 < 2^53;
        otherwise their high and low 16-bit halves, each below 2^16
        because p < 2^31.
        """
        if (self.p - 1) ** 2 < _EXACT:
            return [x.astype(np.float64)]
        low = (x & _LIMB_MASK).astype(np.float64)
        return [(x >> _LIMB_BITS).astype(np.float64), low]

    def _eliminate(self, aug: np.ndarray, n: int) -> tuple[np.ndarray, int]:
        """In-place Gauss-Jordan on the first n columns; returns (aug, rank).

        Pivot choice is the lowest row index with a nonzero entry, which
        fixes determinism (arithmetic is exact, so any pivot works).
        """
        p = self.p
        rank = 0
        for col in range(n):
            sub = aug[rank:, col]
            nz = np.nonzero(sub)[0]
            if nz.size == 0:
                continue
            piv = rank + int(nz[0])
            if piv != rank:
                aug[[rank, piv]] = aug[[piv, rank]]
            aug[rank] = aug[rank] * self.inv(int(aug[rank, col])) % p
            hits = np.nonzero(aug[:, col])[0]
            hits = hits[hits != rank]
            if hits.size:
                aug[hits] = (aug[hits] - np.outer(aug[hits, col], aug[rank])) % p
            rank += 1
            if rank == aug.shape[0]:
                break
        return aug, rank

    def mat_rank(self, a) -> int:
        a = self.asarray(a).copy()
        if a.size == 0:
            return 0
        _, rank = self._eliminate(a, a.shape[1])
        return rank

    def batch_rank(self, stack) -> np.ndarray:
        """Rank of every matrix in an (S, r, c) stack, as an int64 array of length S.

        Gauss elimination runs column by column on all S matrices at once.
        Each matrix keeps its own rank; its pivot is the lowest-index
        nonzero row at or below that rank, swapped up to row ``rank``,
        scaled to 1 and subtracted from the rows below it.  Entries stay
        reduced in [0, p), so every product of two is below p^2 < 2^62.
        """
        a = self.asarray(stack)
        if a.ndim != 3:
            raise ValueError(f"expected an (S, r, c) stack, got shape {a.shape}")
        p = self.p
        _, r, c = a.shape
        rank = np.zeros(len(a), dtype=np.int64)
        rows = np.arange(r)
        for col in range(c):
            cand = (rows >= rank[:, None]) & (a[:, :, col] != 0)
            has = cand.any(axis=1)
            if not has.any():
                continue
            # Without a pivot the target row already holds one (rank == r)
            # or is zero in this column, so the update below leaves it as is.
            top = np.minimum(rank, r - 1)
            _swap_rows(a, np.where(has, cand.argmax(axis=1), top), top)
            lead = a[np.arange(len(a)), top, col:]
            lead = lead * self._inverse_all(lead[:, :1]) % p
            factors = np.where(rows > top[:, None], a[:, :, col], 0)
            a[:, :, col:] = (a[:, :, col:] - factors[:, :, None] * lead[:, None, :]) % p
            rank += has
        return rank

    def _inverse_all(self, x: np.ndarray) -> np.ndarray:
        """Elementwise x^(p-2) mod p (Fermat): the inverse of each nonzero entry, 0 for 0."""
        out = np.ones_like(x)
        e = self.p - 2
        while e:
            if e & 1:
                out = out * x % self.p
            x = x * x % self.p
            e >>= 1
        return out

    def mat_solve(self, a, b) -> np.ndarray:
        """Solve A X = B for square A; raises SingularMatrixError otherwise."""
        a = self.asarray(a)
        b = self.asarray(b)
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got {a.shape}")
        if b.ndim == 1:
            b = b.reshape(-1, 1)
        if b.shape[0] != a.shape[0]:
            raise ValueError(f"right-hand side has {b.shape[0]} rows, expected {a.shape[0]}")
        n = a.shape[0]
        aug, rank = self._eliminate(np.hstack([a, b]).copy(), n)
        if rank < n:
            raise SingularMatrixError(f"matrix of rank {rank} < {n}")
        return aug[:, n:]

    def mat_inverse(self, a) -> np.ndarray:
        a = self.asarray(a)
        return self.mat_solve(a, self.identity(a.shape[0]))

    def vandermonde(self, points: Sequence[int], exponents: Sequence[int]) -> np.ndarray:
        """Matrix with entry (i, j) = points[i] ** exponents[j] mod p."""
        pts = _admissible_points(points, self.p)
        exps = list(exponents)
        if len(set(exps)) != len(exps):
            raise ValueError("exponents must be pairwise distinct")
        return np.array([[pow(x, e, self.p) for e in exps] for x in pts], dtype=np.int64)
