"""Exponent-vector families and their degree tables.

A code in this library is described by an :class:`ExponentPlan`: the two
exponent vectors ``alpha`` and ``beta`` of the encoding polynomials,
plus the index sets that say which exponents carry data blocks (the rest
carry masking noise).  The outer sum ``alpha(i) + beta(j)`` forms the
degree table; its number of distinct entries is the server count, and
the split between information sums and interference sums drives both
decodability and the quantum feasibility analysis.

Families:

* ``gasp_r`` / ``gasp_rs`` / ``dog_rs`` / ``cat_x``: classical codes with
  data on the low-degree halves of the polynomials.
* ``qf_*``: families designed for two-instance quantum transmission,
  with data on the high-degree halves.
* ``lp_equal`` / ``lp_general``: low-privacy families where one
  polynomial carries more noise terms than the privacy level requires,
  again with data on the high-degree halves.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .gf import _index

__all__ = [
    "ExponentPlan",
    "DegreeTable",
    "DecodabilityReport",
    "ParamOutOfRangeError",
    "NoSolutionError",
    "SideConditionViolatedError",
    "gap_progression",
    "build_gasp_r",
    "build_gasp_rs",
    "build_dog",
    "build_cat",
    "build_qf_square",
    "build_qf_power",
    "build_qf_additive",
    "build_qf_klt",
    "build_qf_kt",
    "build_qf_kt_shift",
    "build_low_privacy",
    "outer_sum",
    "check_decodable",
    "gasp_server_formula",
    "optimal_gasp_r",
    "best_classical_plan",
    "plan_record",
    "parse_plan_record",
]


class ParamOutOfRangeError(ValueError):
    """Family parameters outside the construction's valid range."""


class NoSolutionError(ValueError):
    """No valid cyclic exponent assignment exists for these parameters."""


class SideConditionViolatedError(ParamOutOfRangeError):
    """The low-privacy construction's side condition fails."""


_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class ExponentPlan:
    """Exponent layout of one code, with its degree table.

    ``info_alpha`` / ``info_beta`` index into ``alpha`` / ``beta`` and mark
    the K (resp. L) positions that carry data blocks; the remaining
    positions carry noise.  K, L, T and a given ``modulus_q`` are read
    with ``operator.index`` and kept as ints, so a numpy integer is
    stored as an int; a bool or a non-integer raises ``TypeError``
    naming the field, and so does a non-integer info index.  K < 1,
    L < 1 or T < 0 raises ``ParamOutOfRangeError`` naming the field.
    Exponents are polynomial degrees, so a non-integer or negative one
    raises ``ValueError`` naming its side and the first such value (each
    side is read in one ``operator.index`` pass that keeps its least
    exponent), and so does one whose degree-table sums would not fit in
    int64, the dtype ``outer_sum`` adds in.  ``modulus_q`` is set only
    for cyclic (CAT) plans, whose exponent arithmetic wraps mod q; one
    below 1 or beyond int64 raises ``ValueError``.  ``table`` is the
    plan's ``outer_sum``, built once when the plan is built; it is not an
    argument and plays no part in equality, hashing or ``repr``.  The
    plan's noise sides ``noise_alpha`` and ``noise_beta`` and the privacy
    proof's ``noise_progressions`` are worked out on first use and kept
    (``functools.cached_property``): most plans built are never decoded
    or audited, and one run reads each noise side several times.  No
    kept fact calls a function that ``benchmarks/tracer.py`` counts, so
    a run's traced counts do not depend on whether an earlier run read
    them.  Decodability is not kept: each run checks it.
    """

    family: str
    K: int
    L: int
    T: int
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    info_alpha: tuple[int, ...]
    info_beta: tuple[int, ...]
    params: tuple[tuple[str, int], ...] = ()
    modulus_q: int | None = None
    table: DegreeTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        K, L, T = _index(K=self.K, L=self.L, T=self.T)
        q = None if self.modulus_q is None else _index(modulus_q=self.modulus_q)[0]
        for name, value in (("K", K), ("L", L), ("T", T), ("modulus_q", q)):
            object.__setattr__(self, name, value)
        _require_positive(K=K, L=L)
        if T < 0:
            raise ParamOutOfRangeError(f"need T >= 0, got T={T}")
        for side, vec in (("alpha", self.alpha), ("beta", self.beta)):
            try:
                least = min(map(operator.index, vec), default=0)
            except TypeError:
                fractional = next(e for e in vec if not isinstance(e, numbers.Integral))
                raise ValueError(f"{side} exponents must be integers, got {fractional!r}") from None
            if least < 0:
                negative = next(e for e in vec if e < 0)
                raise ValueError(f"{side} exponents must be non-negative, got {negative}")
        top_a, top_b = max(self.alpha, default=0), max(self.beta, default=0)
        if top_a + top_b > _INT64_MAX:
            side, top = ("alpha", top_a) if top_a >= top_b else ("beta", top_b)
            raise ValueError(f"{side} exponent {top} makes a degree-table sum exceed "
                             f"2**63 - 1, got sum {top_a + top_b}")
        if self.modulus_q is not None and abs(self.modulus_q) > _INT64_MAX:
            raise ValueError(f"modulus_q must fit in int64, got {self.modulus_q}")
        if self.modulus_q is not None and self.modulus_q < 1:
            raise ValueError(f"modulus_q must be >= 1, got {self.modulus_q}")
        if len(self.info_alpha) != K or len(self.info_beta) != L:
            raise ValueError("info index sets must have sizes K and L")
        for name, idx, vec in (("info_alpha", self.info_alpha, self.alpha),
                               ("info_beta", self.info_beta, self.beta)):
            try:
                inside = all(0 <= operator.index(i) < len(vec) for i in idx)
            except TypeError:
                fractional = next(i for i in idx if not isinstance(i, numbers.Integral))
                raise TypeError(f"{name} indices must be integers, got {fractional!r}") from None
            if not inside:
                raise ValueError("info index out of range")
        info_a = [self.alpha[i] for i in self.info_alpha]
        info_b = [self.beta[i] for i in self.info_beta]
        if len(set(info_a)) != len(info_a) or len(set(info_b)) != len(info_b):
            raise ValueError("info exponents must be pairwise distinct")
        object.__setattr__(self, "table", outer_sum(self))

    @functools.cached_property
    def noise_alpha(self) -> tuple[int, ...]:
        """Exponents of alpha carrying noise, in vector order."""
        keep = set(self.info_alpha)
        return tuple(e for i, e in enumerate(self.alpha) if i not in keep)

    @functools.cached_property
    def noise_beta(self) -> tuple[int, ...]:
        """Exponents of beta carrying noise, in vector order."""
        keep = set(self.info_beta)
        return tuple(e for i, e in enumerate(self.beta) if i not in keep)

    @functools.cached_property
    def noise_progressions(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per noise side (alpha, beta), each (d, e0) with T exponents e0 + j*d, j < T.

        A step d is a gap between two exponents, at most (max - min) / (T - 1),
        and e0 is its least start.  Steps ascend and all are kept: which x^d
        are distinct depends on the points.  T <= 1 gives (0, least exponent).
        """
        facts = []
        for noise in (set(self.noise_alpha), set(self.noise_beta)):
            span = max(noise) - min(noise) if noise else 0
            steps = sorted({b - a for a in noise for b in noise
                            if 0 < (b - a) * (self.T - 1) <= span}) if self.T > 1 else (0,)
            runs = ((d, noise.intersection(*({e - j * d for e in noise} for j in range(1, self.T))))
                    for d in steps)
            facts.append(tuple((d, min(starts)) for d, starts in runs if starts))
        return tuple(facts)

    def param(self, name: str) -> int:
        for key, val in self.params:
            if key == name:
                return val
        raise KeyError(name)


@dataclass(frozen=True, eq=False)
class DegreeTable:
    """Outer-sum table of a plan with its information/interference split.

    ``sums`` is the plan's read-only int64 outer sum alpha(i) + beta(j),
    mod q for cyclic plans, and ``outer_sum`` reads every other fact off
    it.  ``exponents`` holds the distinct sums, ascending: this fixed
    total order is the indexing every other module uses, and
    ``n_servers``, the server count N, is their number.  ``info`` lists
    the information sums in row-major (k, l) order: the sum carrying
    block product A_k B_l sits at position k * L + l.  ``interference``
    holds every other distinct sum.  Two tables are equal when their
    sums and their facts are.
    """

    sums: np.ndarray = field(repr=False)
    info: tuple[int, ...]
    interference: frozenset[int]
    exponents: tuple[int, ...]

    @property
    def n_servers(self) -> int:
        return len(self.exponents)

    def _facts(self):
        return self.info, self.interference, self.exponents

    def __eq__(self, other):
        if not isinstance(other, DegreeTable):
            return NotImplemented
        return self._facts() == other._facts() and np.array_equal(self.sums, other.sums)

    def __hash__(self):
        return hash(self._facts())


@dataclass(frozen=True)
class DecodabilityReport:
    ok: bool
    reason: str = ""
    violation: tuple[int, int] | None = None


def gap_progression(length: int, x: int, r: int) -> list[int]:
    """First ``length`` terms of [0..r-1, x..x+r-1, 2x..2x+r-1, ...]."""
    if r < 1 or length < 0:
        raise ParamOutOfRangeError(f"need r >= 1 and length >= 0, got r={r}, length={length}")
    return [i // r * x + i % r for i in range(length)]


def _plan(family, K, L, T, alpha, beta, info_alpha, info_beta, params=(), q=None):
    return ExponentPlan(
        family=family, K=K, L=L, T=T,
        alpha=tuple(alpha), beta=tuple(beta),
        info_alpha=tuple(info_alpha), info_beta=tuple(info_beta),
        params=tuple(params), modulus_q=q,
    )


def _require(cond: bool, msg: str):
    if not cond:
        raise ParamOutOfRangeError(msg)


# ---------------------------------------------------------------------------
# classical families (data on the low-degree half)
# ---------------------------------------------------------------------------

def build_gasp_r(K: int, L: int, T: int, r: int) -> ExponentPlan:
    """Gap additive secure polynomial code with chain length r."""
    K, L, T, r = _index(K=K, L=L, T=T, r=r)
    _require(K >= 1 and L >= 1 and T >= 1, "need K, L, T >= 1")
    _require(1 <= r <= min(K, T), f"need 1 <= r <= min(K, T), got r={r}")
    alpha = list(range(K)) + [K * L + g for g in gap_progression(T, K, r)]
    beta = [K * j for j in range(L)] + list(range(K * L, K * L + T))
    return _plan("gasp_r", K, L, T, alpha, beta,
                 range(K), range(L), params=[("r", r)])


def build_gasp_rs(K: int, L: int, T: int, r: int, s: int) -> ExponentPlan:
    """GASP variant with independent chain lengths on both noise blocks."""
    K, L, T, r, s = _index(K=K, L=L, T=T, r=r, s=s)
    _require(T >= 2, "need T >= 2")
    _require(1 <= r <= min(K, T) and 1 <= s <= min(K, T),
             f"need 1 <= r, s <= min(K, T), got r={r}, s={s}")
    alpha = list(range(K)) + [K * L + g for g in gap_progression(T, K, r)]
    beta = [K * j for j in range(L)] + [K * L + g for g in gap_progression(T, K, s)]
    return _plan("gasp_rs", K, L, T, alpha, beta,
                 range(K), range(L), params=[("r", r), ("s", s)])


def build_dog(K: int, L: int, T: int, r: int, s: int) -> ExponentPlan:
    """Discretely optimized GASP layout with step K + r."""
    K, L, T, r, s = _index(K=K, L=L, T=T, r=r, s=s)
    _require(T >= 2, "need T >= 2")
    _require(1 <= r <= T, f"need 1 <= r <= T, got r={r}")
    _require(1 <= s <= min(K + r, T), f"need 1 <= s <= min(K+r, T), got s={s}")
    alpha = list(range(K)) + [K + g for g in gap_progression(T, K + r, r)]
    beta = [(K + r) * j for j in range(L)] \
        + [(K + r) * (L - 1) + K + g for g in gap_progression(T, K + r, s)]
    return _plan("dog_rs", K, L, T, alpha, beta,
                 range(K), range(L), params=[("r", r), ("s", s)])


def build_cat(K: int, L: int, T: int, x: int | None = None) -> ExponentPlan:
    """Cyclic-addition degree table code over Z_q, q = K*L* + (T-1)^2.

    kappa and lambda are searched independently as the smallest
    non-negative integers making K* and L* coprime with T-1.  The
    multiplier x defaults to 1; any x coprime with q is accepted.  The
    builder verifies that the cyclic table covers all q residues (the
    construction's server count); parameters where the cover fails are
    rejected.
    """
    K, L, T, x = _index(K=K, L=L, T=T, x=1 if x is None else x)
    _require(K >= L >= T >= 2, "need K >= L >= T >= 2")
    t_bar = T - 1
    kappa = 0
    while math.gcd(K + 1 + kappa, t_bar) != 1:
        kappa += 1
    lam = 0
    while math.gcd(L + 1 + lam, t_bar) != 1:
        lam += 1
    k_star = K + 1 + kappa
    l_star = L + 1 + lam
    q = k_star * l_star + t_bar * t_bar
    if math.gcd(x, q) != 1:
        raise ParamOutOfRangeError(f"x={x} must be coprime with q={q}")
    # solve x*t_bar + y*k_star = 0 (mod q); gcd(k_star, q) = gcd(k_star, t_bar^2) = 1
    y = -x * t_bar * pow(k_star, -1, q) % q
    alpha = [(y * i) % q for i in range(K)] + [(x * i + K * y) % q for i in range(T)]
    beta = [(x * i) % q for i in range(L)] + [(y * i - x) % q for i in range(T)]
    plan = _plan("cat_x", K, L, T, alpha, beta, range(K), range(L),
                 params=[("x", x), ("y", y), ("kappa", kappa), ("lambda", lam)], q=q)
    if plan.table.n_servers != q:
        raise NoSolutionError(
            f"cyclic table covers {plan.table.n_servers} of {q} residues for "
            f"(K, L, T) = ({K}, {L}, {T}); construction undefined here")
    return plan


# ---------------------------------------------------------------------------
# quantum families (data on the high-degree half)
# ---------------------------------------------------------------------------

def _qf_plan(name, K, L, T, alpha1, alpha2, beta1, beta2, params):
    alpha = list(alpha1) + list(alpha2)
    beta = list(beta1) + list(beta2)
    info_a = range(len(alpha1), len(alpha))
    info_b = range(len(beta1), len(beta))
    return _plan(name, K, L, T, alpha, beta, info_a, info_b, params=params)


def build_qf_square(n: int) -> ExponentPlan:
    """Two-instance family for K = L = T = n^2; server count 2n^4 + 2n^2 - 1."""
    n, = _index(n=n)
    _require(n >= 2, "need n >= 2")
    m = n * n
    return _qf_plan("qf_square", m, m, m,
                    range(m),
                    range(n**4, n**4 + m),
                    range(m),
                    [(j + 2) * m - 1 for j in range(m)],
                    params=[("n", n)])


def build_qf_power(n: int, k: int, m: int) -> ExponentPlan:
    """K = L = n^k with privacy T = n^m, m >= k >= 2."""
    n, k, m = _index(n=n, k=k, m=m)
    _require(n >= 2 and m >= k >= 2, "need n >= 2 and m >= k >= 2")
    K = n**k
    T = n**m
    alpha2 = range(T + K * K - K, T + K * K)
    beta2 = [2 * T - 1 + j * K for j in range(K)]
    return _qf_plan("qf_power", K, K, T, range(T), alpha2, range(T), beta2,
                    params=[("n", n), ("k", k), ("m", m)])


def build_qf_additive(n: int, k: int, r: int) -> ExponentPlan:
    """K = L = n^k with privacy T = n^k + r, 0 <= r < n^2k - n^k + 1.

    Exponent offsets split the additive excess r evenly between the two
    high-degree blocks; this keeps every information sum clear of the
    interference range while matching the family's server count
    2 n^2k + 2 n^k + 2r - 1.
    """
    n, k, r = _index(n=n, k=k, r=r)
    _require(n >= 2 and k >= 1, "need n >= 2 and k >= 1")
    K = n**k
    _require(0 <= r < K * K - K + 1, f"need 0 <= r < {K * K - K + 1}")
    T = K + r
    alpha2 = range(K * K + r, K * K + r + K)
    beta2 = [2 * K + r - 1 + j * K for j in range(K)]
    return _qf_plan("qf_additive", K, K, T, range(T), alpha2, range(T), beta2,
                    params=[("n", n), ("k", k), ("r", r)])


def build_qf_klt(K: int, T: int) -> ExponentPlan:
    """K >= L = T family; server count 2KT + 2T - 1."""
    K, T = _index(K=K, T=T)
    _require(K >= T >= 1, "need K >= L = T >= 1")
    alpha2 = [(i + 2) * T - 1 for i in range(K)]
    beta2 = range(K * T, K * T + T)
    return _qf_plan("qf_klt", K, T, T, range(T), alpha2, range(T), beta2,
                    params=[("K", K), ("T", T)])


def build_qf_kt(n: int, k: int, ell: int) -> ExponentPlan:
    """K = T = n^k, L = n^ell with k >= ell; server count 2n^(k+ell) + 2n^k - 1."""
    n, k, ell = _index(n=n, k=k, ell=ell)
    _require(n >= 2 and k >= ell >= 1, "need n >= 2 and k >= ell >= 1")
    K = n**k
    L = n**ell
    alpha2 = range(n**(k + ell), n**(k + ell) + K)
    beta2 = [(j + 2) * K - 1 for j in range(L)]
    return _qf_plan("qf_kt", K, L, K, range(K), alpha2, range(K), beta2,
                    params=[("n", n), ("k", k), ("ell", ell)])


def build_qf_kt_shift(n: int, ell: int, r: int) -> ExponentPlan:
    """K = T = n^ell + r, L = n^ell with r > 0."""
    n, ell, r = _index(n=n, ell=ell, r=r)
    _require(n >= 2 and ell >= 1 and r > 0, "need n >= 2, ell >= 1, r > 0")
    m = n**ell
    K = m + r
    alpha2 = [2 * m + r - 1 + i * m for i in range(K)]
    beta2 = range(m * m + r * m + r, m * m + r * m + r + m)
    return _qf_plan("qf_kt_shift", K, m, K, range(K), alpha2, range(K), beta2,
                    params=[("n", n), ("ell", ell), ("r", r)])


# ---------------------------------------------------------------------------
# low-privacy families (K >= L > T, extra noise on one polynomial)
# ---------------------------------------------------------------------------

# Hand-built small cases that fall outside the general side condition.
_LP_HAND_CASES = {
    (2, 2, 1): ((0, 2, 4), (0, 1, 4, 5), (1, 2), (2, 3)),
    (3, 3, 1): ((0, 3, 5, 7), (0, 1, 2, 10, 18, 26), (1, 2, 3), (3, 4, 5)),
}


def build_low_privacy(K: int, L: int, T: int) -> ExponentPlan:
    """Low-privacy family: alpha carries K noise terms (more than T).

    Layout for K = m(L-1) + delta, 0 <= delta < L - 1.  The inequality
    2mL >= delta*L + (m-2)(T-1) + (m-1)L^2 + 6 (it reduces to L + T >= 7
    when K = L) is sufficient for the layout to work; the builder checks
    the operative requirements directly, namely that every information
    sum is collision-free and that the interference run reaches half the
    server count, and also accepts verified parameters outside the
    sufficient region.  Two hand-built cases, (2, 2, 1) and (3, 3, 1),
    are included explicitly.
    """
    K, L, T = _index(K=K, L=L, T=T)
    _require(K >= L > T >= 1, "need K >= L > T >= 1")
    if (K, L, T) in _LP_HAND_CASES:
        alpha, beta, info_a, info_b = _LP_HAND_CASES[(K, L, T)]
        return _plan("lp_equal", K, L, T, alpha, beta, info_a, info_b,
                     params=[("hand", 1)])
    m, delta = divmod(K, L - 1)
    alpha = list(range(K))
    for i in range(1, m + 1):
        start = (i + 1) * K + i * T + i * L * L - (i + 1) * L - 2 * i + 1
        alpha += [start + j for j in range(L - 1)]
    start = (m + 2) * K + (m + 1) * T + (m + 1) * L * L - (m + 2) * L - 2 * m - 1
    alpha += [start + j for j in range(delta)]
    beta = list(range(T)) + [K + T - 2 + (L - 1) * j for j in range(L)]
    family = "lp_equal" if K == L else "lp_general"
    plan = _plan(family, K, L, T, alpha, beta,
                 range(K, 2 * K), range(T, T + L),
                 params=[("m", m), ("delta", delta)])
    from .feasibility import check_feasible  # feasibility imports this module
    if not (check_decodable(plan).ok and check_feasible(plan).feasible):
        raise SideConditionViolatedError(
            f"layout fails verification for (K, L, T) = ({K}, {L}, {T}) with "
            f"m={m}, delta={delta}; the sufficient condition "
            f"2mL >= dL + (m-2)(T-1) + (m-1)L^2 + 6 "
            f"{'also fails' if 2 * m * L < delta * L + (m - 2) * (T - 1) + (m - 1) * L * L + 6 else 'holds'}")
    return plan


# ---------------------------------------------------------------------------
# degree table, decodability, server counts
# ---------------------------------------------------------------------------

def outer_sum(plan: ExponentPlan) -> DegreeTable:
    """Build the degree table alpha(i) + beta(j) (mod q for cyclic plans).

    The sums are one ``np.add.outer`` in int64; ``ExponentPlan`` refuses
    exponents and moduli that would not fit, so no sum wraps.  Every fact
    comes from one sorted pass over a flat copy: each sum that differs
    from its left neighbour is a distinct one, so these are the sorted
    ``exponents`` and their count is N.  ``info`` is a gather at the flat
    indices of the info positions, and ``interference`` is the distinct
    sums less those.  Facts are Python ints.
    ``ExponentPlan`` calls this once, when the plan is built, and keeps
    the result as ``plan.table``; read that instead of calling this again.
    """
    sums = np.add.outer(plan.alpha, plan.beta)
    if plan.modulus_q:
        sums %= plan.modulus_q
    sums.flags.writeable = False
    distinct = _sorted_distinct(sums)
    at_a, at_b = (np.array(idx, dtype=np.intp) for idx in (plan.info_alpha, plan.info_beta))
    info = tuple(sums.take(np.add.outer(at_a * len(plan.beta), at_b).ravel()).tolist())
    return DegreeTable(sums=sums, info=info,
                       interference=frozenset(distinct).difference(info),
                       exponents=tuple(distinct))


def _sorted_distinct(sums: np.ndarray) -> list[int]:
    """The distinct entries of ``sums`` ascending, as Python ints: one sort of a
    flat copy, keeping each value that differs from its left neighbour."""
    flat = np.sort(sums, axis=None)
    first = np.empty(flat.size, dtype=bool)
    first[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    return flat[first].tolist()


def check_decodable(plan: ExponentPlan) -> DecodabilityReport:
    """Check the decodability and privacy conditions on a plan.

    1. every information sum appears exactly once in the whole table;
    2. noise exponents are pairwise distinct within alpha and within beta;
    3. alpha and beta each hold at least T noise exponents, since T
       servers see a side's data in the clear otherwise;
    4. a cyclic plan's table covers all q residues, since its servers are
       the q points of order q.

    Condition 1 counts the flat sums once and walks ``table.info``, whose
    position k * L + l is the pair (info_alpha[k], info_beta[l]) that a
    collision names as ``violation``.  Nothing is kept: ``run_protocol``
    checks once per run.
    """
    q, n = plan.modulus_q, plan.table.n_servers
    if q and n != q:
        return DecodabilityReport(False, f"cyclic table has N = {n} servers, not q = {q}")
    for side, noise in (("alpha", plan.noise_alpha), ("beta", plan.noise_beta)):
        if len(set(noise)) != len(noise):
            return DecodabilityReport(False, f"duplicate noise exponent in {side}")
        if len(noise) < plan.T:
            return DecodabilityReport(
                False, f"{side} has {len(noise)} noise exponents, fewer than T = {plan.T}")
    counts = Counter(plan.table.sums.ravel().tolist())
    for at, v in enumerate(plan.table.info):
        if counts[v] != 1:
            return DecodabilityReport(
                False, f"information sum {v} collides with another table entry",
                violation=(plan.info_alpha[at // plan.L], plan.info_beta[at % plan.L]))
    return DecodabilityReport(True)


def _require_positive(**values: int):
    """Raise ``ParamOutOfRangeError`` naming every value below 1; the caller reads them first."""
    if bad := [f"{name}={v}" for name, v in values.items() if v < 1]:
        raise ParamOutOfRangeError(f"need {', '.join(values)} >= 1, got {', '.join(bad)}")


def _gasp_r_interference(K: int, L: int, T: int, r: int) -> int:
    """Interference set of gasp_r(K, L, T, r), shifted down by KL, as a bitmask.

    Bit i is set iff KL + i is an interference sum.  The information
    sums are exactly 0..KL-1 and every other table entry is at least
    KL, so the interference set is the union of the three noise blocks'
    integer intervals, and each block is a few big-int operations:
    alpha1 x beta2 is one interval of length K + T - 1; alpha2 x beta1
    is chains + L - 2 intervals of length r at stride K, then one of the
    last chain's length ``tail``; alpha2 x beta2, shifted up by KL, is
    chains - 1 intervals of length r + T - 1 at stride K, then one of
    length tail + T - 1.  The set bits count the interference sums and
    the runs of ones are the maximal interference runs, with no table
    materialized.
    """
    chains = -(-T // r)
    tail = T - (chains - 1) * r
    # an alpha2 x beta2 interval reaching the next one's start (r + T - 1
    # >= K) joins it, so clipping its width to K keeps their union
    return ((1 << (K + T - 1)) - 1
            | _chain(K, chains + L - 2, r, tail)
            | _chain(K, chains - 1, min(r + T - 1, K), tail + T - 1) << (K * L))


def _chain(K: int, n: int, width: int, last: int) -> int:
    """Bitmask of n intervals of length width <= K at stride K, then one of length last."""
    # bits 0, K, ..., (n-1)K times 2^width - 1: the intervals, with no carries
    ones = ((1 << (n * K)) - 1) // ((1 << K) - 1)
    return ((1 << width) - 1) * ones | ((1 << last) - 1) << (n * K)


def _best_gasp_r(K: int, L: int, T: int) -> tuple[int, int, int]:
    """(r*, N, interference bitmask) of gasp_r(K, L, T) at its optimal chain length.

    r* has the least server count N = KL + the bitmask's set bits, ties
    going to the smaller r.  The caller validates K, L and T.
    """
    best = None
    for r in range(1, min(K, T) + 1):
        mask = _gasp_r_interference(K, L, T, r)
        n = mask.bit_count()
        if best is None or n < best[1]:
            best = (r, n, mask)
    r, n, mask = best
    return r, K * L + n, mask


def gasp_server_formula(K: int, L: int, T: int, r: int) -> int:
    """Closed-form server count of the gasp_r layout.

    Evaluated from the block structure of the degree table: the low
    block contributes the KL consecutive information sums, and the
    three noise blocks' interference sums form one integer bitmask,
    built from the gap progression without materializing the table;
    N is KL plus its set bits.  ``feasibility.min_feasible_t`` reads
    its interference run off the same bitmask;
    ``tests/test_degree_tables.py`` checks both, N and the run, against
    ``build_gasp_r(...).table`` and a sort-and-merge of the blocks'
    intervals for every r.
    """
    K, L, T, r = _index(K=K, L=L, T=T, r=r)
    _require_positive(K=K, L=L, T=T)
    _require(1 <= r <= min(K, T), f"need 1 <= r <= min(K, T), got r={r}")
    return K * L + _gasp_r_interference(K, L, T, r).bit_count()


def optimal_gasp_r(K: int, L: int, T: int) -> ExponentPlan:
    """gasp_r plan minimizing the server count; ties broken by smaller r."""
    K, L, T = _index(K=K, L=L, T=T)
    _require_positive(K=K, L=L, T=T)
    return build_gasp_r(K, L, T, _best_gasp_r(K, L, T)[0])


def best_classical_plan(K: int, L: int, T: int) -> ExponentPlan:
    """Lowest-server classical plan among gasp_r, gasp_rs, dog_rs and cat_x.

    Ties prefer the earlier family in that order, then smaller (r, s).
    """
    candidates: list[ExponentPlan] = [optimal_gasp_r(K, L, T)]  # reads and checks K, L, T
    if T >= 2:
        for r in range(1, min(K, T) + 1):
            for s in range(1, min(K, T) + 1):
                candidates.append(build_gasp_rs(K, L, T, r, s))
        for r in range(1, T + 1):
            for s in range(1, min(K + r, T) + 1):
                candidates.append(build_dog(K, L, T, r, s))
        if K >= L >= T:
            try:
                candidates.append(build_cat(K, L, T))
            except NoSolutionError:
                pass
    return min(candidates, key=lambda p: p.table.n_servers)


# ---------------------------------------------------------------------------
# plan records
# ---------------------------------------------------------------------------

def plan_record(plan: ExponentPlan) -> str:
    """One-line text record of a plan, reproducible and parseable."""
    params = " ".join(f"{k}={v}" for k, v in plan.params) or "-"
    fields = [
        f"{plan.family} {params} {plan.K} {plan.L} {plan.T}",
        " ".join(map(str, plan.alpha)),
        " ".join(map(str, plan.beta)),
        " ".join(map(str, plan.info_alpha)),
        " ".join(map(str, plan.info_beta)),
        str(plan.modulus_q) if plan.modulus_q else "-",
    ]
    return " | ".join(fields)


def parse_plan_record(line: str) -> ExponentPlan:
    """The plan a ``plan_record`` line describes; a malformed field raises ``ValueError`` naming it."""
    parts = [chunk.strip() for chunk in line.split("|")]
    if len(parts) != 6:
        raise ValueError(f"expected 6 |-separated fields, got {len(parts)}")
    head = parts[0].split()
    if len(head) < 4:
        raise ValueError(f"plan record head must be 'family params K L T', got {parts[0]!r}")

    def integer(name, token):
        try:
            return int(token)
        except ValueError:
            raise ValueError(f"plan record field {name} must be an integer, "
                             f"got {token!r}") from None

    K, L, T = (integer(name, v) for name, v in zip("KLT", head[-3:]))
    params = []
    for kv in head[1:-3]:
        if kv == "-":
            continue
        key, eq, value = kv.partition("=")
        if not eq:
            raise ValueError(f"plan record param {kv!r} must be key=value")
        params.append((key, integer(f"param {key}", value)))
    ints = [tuple(integer(name, v) for v in chunk.split())
            for name, chunk in zip(("alpha", "beta", "info_alpha", "info_beta"), parts[1:5])]
    q = None if parts[5] == "-" else integer("modulus_q", parts[5])
    return ExponentPlan(family=head[0], K=K, L=L, T=T,
                        alpha=ints[0], beta=ints[1],
                        info_alpha=ints[2], info_beta=ints[3],
                        params=tuple(params), modulus_q=q)
