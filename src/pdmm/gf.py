"""Exact arithmetic and linear algebra over a prime field F_p.

Everything downstream (degree tables, GRS duality, transfer matrices,
protocol simulation) runs on top of this module.  Matrices are plain
numpy ``int64`` arrays with entries kept canonically in ``[0, p)``; a
:class:`FieldContext` carries the modulus and provides the operations.
Every array operation reads its operands through one intake check:
integer and bool arrays pass, unsigned 64-bit ones reduced mod p
before the int64 cast, and any other non-empty one (float, string,
object) raises ``TypeError`` instead of being truncated.

Matrix products run through float BLAS and stay exact, after
FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM TOMS 2008): a float GEMM of
non-negative integers is exact, and so is the reduction
``x - floor(x / p) * p``, while every value stays at or below 2^(t - 1),
t the significand width.  Each product picks one of three tiers: float32
when the whole inner sum fits 2^23, float64 on the entries in inner
chunks that keep the reduced accumulator plus a chunk within 2^52, and,
when (p - 1)^2 + p > 2^52, float64 limbs.  There the operand with more
entries is read whole, exact since p < 2^31, and only the other is cut
into k limbs of b = ceil(bitlen(p - 1) / k) bits, so a chunk of depth d
takes k GEMMs combined Horner style, exact while
d (p - 1)(2^b - 1) + p 2^b + p <= 2^52: two limbs when one such chunk
holds the whole inner dimension, else three.  Reduction stays in
floating point until one cast into the int64 result.  Products read
int64 operands in place and copy only what is not yet reduced mod p.
One kernel serves every product and hands back its reduced floats:
``matmul`` casts them, and the protocol's servers multiply each group's
stacked shares with it, on a float tier reading the floats their
encoder just formed, with no int64 round trip.  The protocol's
limb-tier encoder cuts its blocks into limbs itself and folds the limb
weights into the powers, so the kernel reads both whole at the Horner
depth: one GEMM and one reduction a column tile instead of k of each.

``mat_inverse`` inverts a square matrix by eliminating [A | I], and
``batch_rank`` ranks a whole stack of matrices at once, by one
elimination on all of them, for the privacy audit.  Power tables
(x_i^(e_j)) come from one run x^0, ..., x^top built by doubling, where
that costs no more products than square-and-multiply, which forms the
rest.  A generator (x_i^(e_j)) on distinct nonzero points is inverted
without eliminating it: Lagrange interpolation gives the inverse when
the exponents are 0, ..., N - 1, read in a fixed number of array steps
off the power run x^0, ..., x^N with one Fermat pass, and when g
exponents below the top one are missing, a g x g system on the master
polynomial's coefficients corrects it in O(N^2 g + g^3) work.  That
g x g matrix is singular exactly when the generator is.  The inversion
hands back the derivative of the master polynomial at the points and
the vector its Fermat pass inverted, from which the protocol's frame
derives its dual multipliers and their inverses.

The context and all arrays it touches are treated as immutable; every
operation returns fresh arrays and writes none of its inputs, so
concurrent use is safe.
"""

from __future__ import annotations

import itertools
import math
import numbers
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


def _index(**values) -> list[int]:
    """Each value read with ``operator.index``, so a numpy integer comes back an int.

    A bool, float, string or other non-integer raises ``TypeError``
    naming the field.  The scalar entry points here, the builders,
    ``ExponentPlan`` and the feasibility search read their integers with
    it before any check compares them.
    """
    read = []
    for name, value in values.items():
        if type(value) is not int:  # a plain int is read as it is
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise TypeError(f"{name} must be an integer, got {name}={value!r}")
            value = operator.index(value)
        read.append(value)
    return read


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with fixed witnesses)."""
    n, = _index(n=n)
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
    n = max(*_index(n=n), 2)
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

    Requires p prime and ``order`` | p - 1.  A small order is found inside
    its subgroup: raising c = 1, 2, ... to the power (p - 1) / order
    lands there, the first such h of exact order generates it, and the
    answer is the least h^k with gcd(k, order) = 1, in O(order) steps.
    A large order is found by testing g = 2, 3, ... directly, where
    about one g in (p - 1) / order lies in the subgroup.
    """
    order, p = _index(order=order, p=p)
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if order < 1 or (p - 1) % order != 0:
        raise ValueError(f"order {order} does not divide p-1 = {p - 1}")
    factors = _prime_factors(order)

    def exact(g):
        return all(pow(g, order // f, p) != 1 for f in factors)

    large = order * order > p - 1
    if large:
        candidates = (g for g in range(2, p) if pow(g, order, p) == 1)
    else:
        candidates = (pow(c, (p - 1) // order, p) for c in range(1, p))
    h = next((g for g in candidates if exact(g)), None)
    if h is None:
        raise ValueError(f"no element of order {order} in F_{p}")
    if large:
        return h
    best, power = 1 if order == 1 else p, 1
    for k in range(1, order):
        power = power * h % p
        if power < best and math.gcd(k, order) == 1:
            best = power
    return best


def _integers(data, p: int) -> np.ndarray:
    """``data`` as an integer or bool array congruent mod p to its int64 cast.

    Field elements are integers, so a float, string or object entry is
    refused with ``TypeError`` rather than truncated.  An empty input
    passes whatever its dtype, since ``np.asarray([])`` is float64.  An
    unsigned 64-bit array is reduced mod p first, since its entries at
    or above 2^63 would wrap negative in the cast.
    """
    x = np.asarray(data)
    if x.dtype.kind not in "biu" and x.size:
        raise TypeError(f"field elements must be integers, got an array of dtype {x.dtype}")
    return x % p if x.dtype.kind == "u" and x.itemsize == 8 else x


def _admissible_points(points, p: int) -> list[int]:
    """Integer points reduced mod p; raises unless they are nonzero and pairwise distinct."""
    pts = [operator.index(x) % p for x in points]
    if any(x == 0 for x in pts):
        raise ZeroPointError("evaluation points must be nonzero")
    if len(set(pts)) != len(pts):
        raise DuplicatePointError("evaluation points must be distinct")
    return pts


# A float type with a t-bit significand (t = 53 for float64, 24 for
# float32) holds every integer up to 2^t, and floor(x / p) is exact on
# the integers up to 2^(t - 1); every sum ``matmul`` forms stays there.
_EXACT = 1 << 52
_EXACT32 = 1 << 23
# Entries of 1 MiB of float64: the protocol's servers multiply their
# shares in groups whose operand and output entries together stay within it.
_TILE = 1 << 17
# Entries from which ``_remainder`` reduces int64 by floor division.  In
# place on a 2-vCPU host, ``%`` against floor division took 0.9 against
# 2.1 us at 35 entries, about the same at 560, 6.0 against 4.4 us at 1260
# and 404 against 161 us at 100,000.
_FLOOR_DIVIDE = 1 << 10


def _groups(stack: int, rows: int, cols: int, inner: int) -> list:
    """Where the protocol's server stage multiplies ``stack`` (rows, inner) x (inner, cols)
    share pairs, group by group.

    Each group's operand and output entries together stay within
    ``_TILE``, so that small matrices share one stacked GEMM.  A group
    is a slice of the stack; a matrix too large to share its group is
    staged alone.
    """
    group = max(1, _TILE // max(rows * inner + inner * cols + rows * cols, 1))
    return [slice(s, s + group) for s in range(0, stack, group)]


def _swap_rows(stack: np.ndarray, i: np.ndarray, j: np.ndarray) -> None:
    """Swap row i[s] with row j[s] of every matrix s in the stack, in place."""
    every = np.arange(len(stack))
    row_i = stack[every, i]
    stack[every, i] = stack[every, j]
    stack[every, j] = row_i


def _limb_geometry(p: int, count: int) -> tuple[int, int]:
    """(bits, depth) of a limb product over F_p whose split operand has ``count`` limbs.

    Each limb holds b = ceil(bitlen(p - 1) / count) bits, so it is at
    most 2^b - 1.  A Horner step adds one limb's GEMM, ``depth`` products
    of a whole entry below p and a limb, to the reduced carry shifted by
    b bits, below p 2^b, and ``_product`` then adds its reduced
    accumulator, below p; the depth keeps all of it within 2^52.
    """
    bits = -(-(p - 1).bit_length() // count)
    return bits, (_EXACT - (p << bits) - p) // ((p - 1) * ((1 << bits) - 1))


def _limbs(x: np.ndarray, count: int, bits: int, dtype,
           out: np.ndarray | None = None) -> Sequence[np.ndarray]:
    """Canonical entries cut into ``count`` limbs of ``bits`` bits, most significant first.

    Limbs are floats of ``dtype``, written into ``out`` of shape
    (count, *x.shape) when it is given.  Else one limb is the entries
    themselves, read in place when they already are ``dtype``.  Each of
    several limbs is at most 2^bits - 1, and the entries, read as int64,
    are the sum of limb j times 2^(bits (count - 1 - j)); ``_limb_geometry``
    bounds the GEMMs of such limbs with a whole operand.
    """
    if count == 1:
        if out is None:
            return [x.astype(dtype, copy=False)]
        out[0] = x
        return out
    if out is None:
        out = [np.empty(x.shape, dtype) for _ in range(count)]
    x = x.astype(np.int64, copy=False)
    # each ufunc casts into its float limb as it goes; the top limb needs no mask
    np.right_shift(x, bits * (count - 1), out=out[0], casting="unsafe")
    for limb, shift in zip(out[1:], range(bits * (count - 2), -1, -bits)):
        np.bitwise_and(x >> shift if shift else x, (1 << bits) - 1, out=limb, casting="unsafe")
    return out


@dataclass(frozen=True)
class FieldContext:
    """Prime field F_p with exact matrix algebra.

    The modulus must be an integer (else ``TypeError``), kept as an
    int, and an odd prime with p < 2^31 (else ``ValueError``) so that single
    products fit comfortably in int64.  Matrix products are float GEMMs
    reduced mod p in floating point (see ``matmul``): float32 when
    inner * (p - 1)^2 + p <= 2^23, else float64 over inner chunks that
    stay within 2^52, with the smaller operand cut into two or three
    limbs when (p - 1)^2 + p > 2^52.
    """

    p: int

    def __post_init__(self):
        if not isinstance(self.p, numbers.Integral):
            raise TypeError(f"modulus p must be an integer, got {self.p!r}")
        object.__setattr__(self, "p", operator.index(self.p))
        if self.p < 3 or self.p % 2 == 0:
            raise ValueError(f"modulus must be an odd prime >= 3, got {self.p}")
        if self.p >= 2**31:
            raise ValueError(f"modulus must be < 2^31, got {self.p}")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    # -- scalar arithmetic -------------------------------------------------

    def inv(self, x: int) -> int:
        x = _index(x=x)[0] % self.p
        if x == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(x, -1, self.p)

    # -- arrays ------------------------------------------------------------

    def asarray(self, data) -> np.ndarray:
        """Canonicalize to a new int64 array with entries in [0, p)."""
        x = _integers(data, self.p).astype(np.int64)
        if not self._is_canonical(x):
            x %= self.p
        return x

    def _is_canonical(self, x: np.ndarray) -> bool:
        """Whether every entry of the int64 array x lies in [0, p)."""
        # as uint64 a negative entry exceeds 2^63, so one max finds any outside [0, p)
        return not x.size or x.view(np.uint64).max() < self.p

    def _canonical(self, data) -> np.ndarray:
        """``data`` as int64 entries in [0, p), read in place when it already is.

        Otherwise the entries are reduced into a new array; the caller's
        array is never written.
        """
        x = _integers(data, self.p).astype(np.int64, copy=False)
        return x if self._is_canonical(x) else x % self.p

    def identity(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def matmul(self, a, b) -> np.ndarray:
        """Exact A @ B mod p, as int64 entries in [0, p).

        A left operand of any rank takes a 1-D or 2-D right one, as
        ``np.matmul`` does; a stack of right operands raises
        ``ValueError``, as any other shape mismatch does.  Operands are
        read in place, never written, and reduced mod p into new arrays
        only when some entry lies outside [0, p).

        The product runs as float GEMMs, exact while every sum stays at
        or below 2^(t - 1), t the significand width, whatever order the
        BLAS sums in; within that bound ``x - floor(x / p) * p`` is exact
        too, so reduction stays in floating point.  One tier is picked
        per call from p and the inner dimension:

        - float32, when inner * (p - 1)^2 + p <= 2^23: one chunk holds
          the whole inner dimension;
        - float64 on the entries, when (p - 1)^2 + p <= 2^52: chunks
          short enough that the reduced accumulator plus one chunk's
          product stays within 2^52;
        - float64 limbs otherwise: the operand with more entries is read
          whole and the other is cut into k limbs of
          b = ceil(bitlen(p - 1) / k) bits, in chunks of depth d with
          d (p - 1)(2^b - 1) + p 2^b + p <= 2^52 (see ``_limb_geometry``
          and ``_limb_product``); k = 2 when such a chunk holds the whole
          inner dimension, else k = 3.  A chunk costs k GEMMs.

        The reduced floats of ``_product`` are cast into the int64 result once.
        """
        a, b = self._canonical(a), self._canonical(b)
        if not (a.ndim > 0 and 0 < b.ndim < 3 and a.shape[-1] == b.shape[0]):
            raise ValueError(f"shape mismatch for matmul: {a.shape} x {b.shape}")
        inner = b.shape[0]
        rows, cols = math.prod(a.shape[:-1]), math.prod(b.shape[1:])
        out = self._product(a.reshape(rows, inner), b.reshape(inner, cols), self._tier(inner))
        # [()] turns the 0-d product of two vectors into a scalar, as np.matmul does
        return out.astype(np.int64).reshape(a.shape[:-1] + b.shape[1:])[()]

    def _tier(self, inner: int) -> tuple:
        """(dtype, count, bits, depth) of a product over F_p with this inner dimension.

        Float32 when inner * (p - 1)^2 + p <= 2^23, one chunk deep; else
        float64 entries in chunks of ``depth`` indices when
        (p - 1)^2 + p <= 2^52; else float64 with the smaller operand cut
        into ``count`` limbs of ``bits`` bits (see ``matmul``).
        """
        p = self.p
        if inner * (p - 1) ** 2 + p <= _EXACT32:
            return np.float32, 1, 0, max(inner, 1)
        if (p - 1) ** 2 + p <= _EXACT:
            return np.float64, 1, 0, (_EXACT - p) // (p - 1) ** 2
        # two limbs when one chunk of them holds the whole inner dimension, else three
        count = 2 if _limb_geometry(p, 2)[1] >= inner else 3
        return np.float64, count, *_limb_geometry(p, count)

    def _product(self, a: np.ndarray, b: np.ndarray, tier: tuple) -> np.ndarray:
        """A @ B mod p on a ``_tier``, for 2-D operands or equal-length stacks of them,
        as reduced floats of the tier's dtype.

        ``a`` and ``b`` hold canonical entries, as int64 or as floats,
        which are exact.  The left operand is cut into ``count`` limbs of
        ``bits`` bits when it has fewer entries, else the right one, and
        the other is read whole, all as ``dtype``: a float operand of
        that dtype is read as it is, any other is cast once.  Limbs are
        cut from int64 entries, cast first when the operand is float.
        Each inner chunk of ``depth`` indices adds to a float
        accumulator, reduced in place after every chunk.

        The whole product is one tile.  Tiling its columns pays only
        when the operand each tile re-reads stays in cache, as in the
        blocking of FFLAS-FFPACK and GotoBLAS (Goto and van de Geijn,
        ACM TOMS 2008), so the one caller that tiles is the limb-tier
        encoder, whose re-read operand is the small folded powers (see
        ``protocol._COLUMN_BYTES``).  Tiles of 2^18 bytes over every
        product ran the two checks of a qf_square(4) ``TransferMatrix``
        (N = 543) as 29 GEMM calls instead of 2, and quantum qf_square(5)
        runs took 0.85 s against 0.42 s untiled, at 351 against 378 MB
        peak RSS (medians over five seeds, 2-vCPU host).
        """
        dtype, count, bits, depth = tier
        if a.size < b.size:
            a, b = _limbs(a, count, bits, dtype), [b.astype(dtype, copy=False)]
        else:
            a, b = [a.astype(dtype, copy=False)], _limbs(b, count, bits, dtype)
        inner, acc = b[0].shape[-2], None
        # an empty inner dimension still takes one chunk, whose product is zero
        for k in range(0, max(inner, 1), depth):
            part = self._limb_product([x[..., k:k + depth] for x in a],
                                      [y[..., k:k + depth, :] for y in b], bits)
            if acc is not None:
                part += acc
            acc = self._reduce(part)
        return acc

    def _limb_product(self, a: list[np.ndarray], b: list[np.ndarray], bits: int) -> np.ndarray:
        """Product of two limb lists, one of them a single limb, as floats congruent to A @ B mod p.

        With W the single limb and L_0, ..., L_(k-1) the other side's
        limbs of ``bits`` bits, most significant first, the product is
        the sum of 2^(bits (k - 1 - j)) W L_j, formed Horner style one
        GEMM at a time: the running sum is reduced, shifted ``bits``
        bits and added to the next limb's GEMM.  One limb each gives the
        GEMM itself.  Over a chunk of depth d each step stays within
        2^52: the shifted sum is below p 2^bits, a GEMM at most
        d (p - 1)(2^bits - 1), and the accumulator ``_product`` adds to the
        result below p.
        """
        acc = None
        for x, y in itertools.product(a, b):
            if acc is None:
                acc = x @ y
            else:
                self._reduce(acc)
                acc *= 1 << bits
                acc += x @ y
        return acc

    def _reduce(self, x: np.ndarray) -> np.ndarray:
        """Reduce integer-valued floats mod p in place, and return them.

        Exact for 0 <= x <= 2^(t - 1): with x = k p + r, the correctly
        rounded x / p lies in [k, k + 1 - 1/p], more than half an ulp
        below k + 1 because (k + 1) p < 2^t, so its floor is k.
        """
        q = x / self.p
        np.floor(q, out=q)
        q *= self.p
        x -= q
        return x

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

    def mat_inverse(self, a) -> np.ndarray:
        """Inverse of a square matrix by elimination on [A | I]; raises SingularMatrixError otherwise."""
        a = self.asarray(a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        n = a.shape[0]
        aug, rank = self._eliminate(np.hstack([a, self.identity(n)]), n)
        if rank < n:
            raise SingularMatrixError(f"matrix of rank {rank} < {n}")
        return aug[:, n:]

    def vandermonde(self, points: Sequence[int], exponents: Sequence[int]) -> np.ndarray:
        """Matrix with entry (i, j) = points[i] ** exponents[j] mod p."""
        pts = _admissible_points(points, self.p)
        exps = [operator.index(e) for e in exponents]
        if len(set(exps)) != len(exps):
            raise ValueError("exponents must be pairwise distinct")
        return _powers(np.array(pts, dtype=np.int64), exps, self.p)

    def _derivative(self, run: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """P'(x_i) = sum_(k>=1) k a_k x_i^(k-1) mod p, for P = sum_k a_k X^k of degree n,
        read off the power run x^0, ..., x^n: one exact float product of the
        run's first n columns with the k a_k (see ``_product``).
        """
        n = coeffs.size - 1
        slopes = np.arange(1, n + 1) * coeffs[1:] % self.p
        return self._product(run[:, :n], slopes[:, None], self._tier(n))[:, 0].astype(np.int64)

    def _vandermonde_inverse(self, x: np.ndarray, exponents: Sequence[int],
                             run: np.ndarray | None = None,
                             scale: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """Inverse of the generator (x_i^(e_j)) on distinct nonzero points x and ascending
        exponents e, with the derivative P'(x_i) and the one inverted vector u.

        The generator takes the coefficients of a polynomial supported on
        the n exponents to its values at the n points, so its inverse
        interpolates.  Lagrange interpolation gives the interpolant of
        degree < n: column i of L holds the coefficients, lowest degree
        first, of L_i(X) = w_i P(X) / (X - x_i), where
        P(X) = prod_k (X - x_k) = sum_k a_k X^k and w_i = 1 / P'(x_i), since
        L_i is 1 at x_i and 0 at every other point.  Everything is read
        off the power run x^0, ..., x^n (``run``, an n x (n + 1) array;
        formed here by ``_power_run`` when None).  P'(x_i) is the run times
        the coefficients k a_k (``_derivative``).  One Fermat pass inverts
        u = (P'(x) x^n c), c = ``scale`` or 1, from which w = u x^n c and
        x^-n = u P'(x) c.  The quotient of P by X - x_i has X^j coefficient
        x_i^-(j+1) sum_(k>j) a_k x_i^k = x_i^(n-1-j) x^-n sum_(k>j) a_k x_i^k,
        so L is the run reversed, times one reversed cumulative sum of the
        a_k x_i^k, times x^-n w = u c (``_lagrange``).  Only the master
        polynomial P is a loop over the points.  Exponents exactly
        0, ..., n - 1 make L the inverse.

        Otherwise g = e_(n-1) + 1 - n exponents below the top one are
        missing, and every interpolant of degree <= e_(n-1) is
        L(X) + P(X) h(X) with deg h < g.  It is supported on the exponents
        when h cancels L's coefficients at the gaps s: C h = -L_s, with
        C[s, l] = a_(s - l) the X^s coefficient of X^l P(X).  So the
        inverse is L's rows at the exponents minus the rows of
        (X^l P(X))_(l < g) at the exponents times C^-1 L_s: O(n^2 g + g^3)
        work, whose only elimination inverts the g x g matrix C.  The
        generator is singular exactly when C is, since a nonzero h with
        C h = 0 gives P h, supported on the exponents and zero at every
        point, and a kernel vector of the generator gives such a
        polynomial; then ``mat_inverse`` raises ``SingularMatrixError``.

        ``x`` holds canonical entries, as many as there are exponents (else
        ``ValueError``), all nonzero (else ``ZeroPointError``: the quotient
        table divides by the points).  A frame hands in its own run and,
        as ``scale``, its x^(2s) column, so that u also gives its dual
        multipliers (see ``protocol.EvalFrame``).
        """
        p = self.p
        n = x.size
        if len(exponents) != n:
            raise ValueError(f"a square generator needs as many points as exponents, "
                             f"got {n} points and {len(exponents)} exponents")
        if not x.all():
            raise ZeroPointError("the interpolation inverse needs nonzero points")
        # P = prod_k (X + y_k) with y = -x mod p, one factor a step.  A step
        # multiplies the bound on the entries by p, so they are reduced only
        # every ``lazy`` steps, when they could next pass p^(lazy + 1) <= 2^62.
        lazy = 62 // p.bit_length() - 1
        master = np.zeros(n + 1, dtype=np.int64)  # a_n .. a_0, highest degree first
        master[0] = 1
        for k, yk in enumerate((p - x).tolist(), 1):
            part = master[1:k + 1]
            part += yk * master[:k]
            if k % lazy == 0:
                master %= p
        master %= p
        coeffs = master[::-1]  # a_0 .. a_n
        if run is None:
            run = _power_run(x, n, p)
        derivative = self._derivative(run, coeffs)
        c = 1 if scale is None else scale
        u = self._inverse_all(derivative * run[:, n] % p * c % p)
        lagrange = _lagrange(run, coeffs, u * c % p, p)
        exps = np.asarray(exponents, dtype=np.int64)
        gaps = _gaps(exps)
        if not gaps.size:
            return lagrange, derivative, u

        def multiples(rows):
            """Entry (e, l): a_(e - l), the X^e coefficient of X^l P(X), for l < g."""
            k = rows[:, None] - np.arange(gaps.size)
            return np.where((k >= 0) & (k <= n), master[n - k.clip(0, n)], 0)

        lagrange = np.vstack([lagrange, np.zeros((gaps.size, n), dtype=np.int64)])
        h = self.matmul(self.mat_inverse(multiples(gaps)), lagrange[gaps])
        return (lagrange[exps] - self.matmul(multiples(exps), h)) % p, derivative, u


def _powers(x: np.ndarray, exponents: Sequence[int], p: int) -> np.ndarray:
    """Matrix with entry (i, j) = x[i] ** exponents[j] mod p, for canonical x.

    When every exponent is >= 0 and the run x^0, ..., x^top of the
    largest one costs no more products than square-and-multiply
    (top + 1 <= |E| bitlen(top)), the columns are gathered from that run
    (``_power_run``); otherwise, for a negative exponent, a lone one such
    as the audit's x^d, or a sparse set, square-and-multiply forms them
    (``_square_and_multiply``).  No check on the points: ``vandermonde``
    makes them admissible, and the privacy audit must see zero and
    repeated points, where both give what Python's ``pow`` gives.
    """
    e = np.array(exponents, dtype=np.int64)
    top = int(e.max(initial=0))
    if e.min(initial=0) >= 0 and top + 1 <= e.size * top.bit_length():
        return _power_run(x, top, p)[:, e]
    return _square_and_multiply(x, e, p)


def _power_run(x: np.ndarray, top: int, p: int) -> np.ndarray:
    """The run x[i] ** k mod p for k = 0, ..., top, as an (x.size, top + 1) array.

    By doubling: with columns [0, w) done, columns [w, 2w) are those
    times x^w, and x^w squared is x^(2w), so log2(top) + 1 steps of
    array products build the run.
    """
    run = np.empty((top + 1, x.size), dtype=np.int64)  # built a power per row, read transposed
    run[0] = 1
    step, width = x, 1  # step = x^width
    while width <= top:
        end = min(2 * width, top + 1)
        np.multiply(run[:end - width], step, out=run[width:end])
        _remainder(run[width:end], p)
        step = step * step % p
        width *= 2
    return run.T


def _square_and_multiply(x: np.ndarray, e: np.ndarray, p: int) -> np.ndarray:
    """x[i] ** e[j] mod p by square-and-multiply on all entries at once, one pass per bit
    of the largest exponent.  A negative exponent is taken mod p - 1, which
    for every nonzero entry gives what Python's ``pow`` gives (a power of
    the inverse).
    """
    e = np.where(e < 0, e % (p - 1), e)
    base = x[:, None]
    out = np.ones((x.size, e.size), dtype=np.int64)
    for bit in range(int(e.max(initial=0)).bit_length()):
        out *= np.where(e >> bit & 1, base, 1)
        out %= p
        base = base * base % p
    return out


def _lagrange(run: np.ndarray, coeffs: np.ndarray, factor: np.ndarray, p: int) -> np.ndarray:
    """The n x n table whose entry (j, i) is x_i^(n-1-j) factor_i sum_(k>j) a_k x_i^k mod p,
    for P = sum_k a_k X^k of degree n and the power run x^0, ..., x^n.

    With ``factor`` = x^-n w it is the Lagrange basis L, since the quotient
    of P by X - x_i has X^j coefficient x_i^-(j+1) sum_(k>j) a_k x_i^k.
    The sums over k > j are one reversed cumulative sum of the terms
    a_k x_i^k, each reduced below p.  It runs in blocks of rows, from the
    top degree down, each taking the reduced sum of the rows above it, so
    a block's arrays stay within ``_TILE`` entries and every sum within
    (rows + 1) p < 2^63.
    """
    n, m = coeffs.size - 1, run.shape[0]
    powers = run.T  # row k: x^k
    table = np.empty((n, m), dtype=np.int64)
    above = np.zeros(m, dtype=np.int64)  # sum over k > hi of a_k x^k, reduced
    rows = max(1, _TILE // max(m, 1))
    for hi in range(n, 0, -rows):  # rows lo <= j < hi
        lo = max(hi - rows, 0)
        terms = _remainder(powers[lo + 1:hi + 1] * coeffs[lo + 1:hi + 1, None], p)
        block = table[lo:hi]
        np.cumsum(terms[::-1], axis=0, out=block[::-1])
        block += above
        above = _remainder(block, p)[0].copy()
        block *= powers[n - hi:n - lo][::-1]
        _remainder(block, p)
        block *= factor
        _remainder(block, p)
    return table


def _remainder(x: np.ndarray, p: int) -> np.ndarray:
    """int64 x reduced mod p in place, and returned.

    From ``_FLOOR_DIVIDE`` entries up as x - floor(x / p) p, which gives
    the values of ``x % p`` faster, since numpy's floor division of int64
    by a scalar runs through libdivide while its remainder does not; on
    smaller arrays, where its three passes cost more calls than they save,
    as ``x % p``.
    """
    if x.size < _FLOOR_DIVIDE:
        return np.remainder(x, p, out=x)
    q = x // p
    q *= p
    x -= q
    return x


def _gaps(exponents: np.ndarray) -> np.ndarray:
    """The non-negative integers below the largest exponent that are not exponents, ascending.

    A mask rather than ``np.setdiff1d``, whose first call imports
    ``numpy.ma`` and adds about 1 MB to a process's peak memory.
    """
    present = np.zeros(exponents.max(initial=-1) + 1, dtype=bool)
    present[exponents] = True
    return np.flatnonzero(~present)
