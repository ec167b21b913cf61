"""Quantum-extension feasibility analysis for degree-table plans.

A plan extends to the two-instance quantum protocol when the
interference part of its degree table contains a run of consecutive
integers at least half the server count long: the run supplies the
exponents whose encoded symbols the transfer matrix can stabilize away.
This module computes that run, the feasibility verdicts, the
minimum privacy level T_min for GASP layouts (a galloping search over T
on the gasp_r interference bitmask that starts at the estimate below,
capped at ``t_max``, each answer confirmed on the degree table of the
plan the search ranked), and the quadratic regression estimates of that
minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .degree_tables import (
    ExponentPlan,
    ParamOutOfRangeError,
    _best_gasp_r,
    _require_positive,
    build_gasp_r,
)
from .gf import _index

__all__ = [
    "FeasibilityReport",
    "longest_run",
    "check_feasible",
    "min_feasible_t",
    "t_hat_estimate",
    "feasibility_rows",
]


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    run: tuple[int, ...]
    threshold: int


def longest_run(values: Iterable[int]) -> list[int]:
    """Longest run of consecutive integers; ties go to the smallest start.

    One pass over ``sorted(set(values))`` that tracks where the current
    run starts; a run replaces the best only when strictly longer.
    """
    ordered = sorted(set(values))
    best_start = best_end = start = 0
    for end in range(1, len(ordered) + 1):
        if end == len(ordered) or ordered[end] != ordered[end - 1] + 1:
            if end - start > best_end - best_start:
                best_start, best_end = start, end
            start = end
    return ordered[best_start:best_end]


def _covers_half(run_len: int, n_servers: int) -> tuple[bool, int]:
    """(run_len >= ceil(N / 2), ceil(N / 2)): the quantum feasibility rule."""
    threshold = -(-n_servers // 2)
    return run_len >= threshold, threshold


def check_feasible(plan: ExponentPlan) -> FeasibilityReport:
    """Feasible iff the interference run covers ceil(N / 2) exponents.

    N and the interference set come from the plan's own degree table,
    ``plan.table``.  The report only describes the plan;
    ``protocol.quantum_layout`` is what refuses quantum mode.
    """
    table = plan.table
    run = longest_run(table.interference)
    feasible, threshold = _covers_half(len(run), table.n_servers)
    return FeasibilityReport(feasible, tuple(run), threshold)


def _bitmask_feasible(K: int, L: int, T: int) -> tuple[int, int] | None:
    """(r*, N) of gasp_r(K, L, T) if that plan is quantum feasible, else None,
    read off its interference bitmask.

    r* and N come from ``_best_gasp_r``, which ranks each r by the
    bitmask's set bits alone; the interference run is the bitmask's
    longest run of ones, so no plan or degree table is built.
    The caller validates K, L and T.
    """
    r, n, mask = _best_gasp_r(K, L, T)
    return (r, n) if _covers_half(max(map(len, bin(mask)[2:].split("0"))), n)[0] else None


def min_feasible_t(K: int, L: int, t_max: int = 64) -> int | None:
    """Smallest T <= t_max whose optimal gasp_r plan is feasible, else None.

    Feasibility is judged at the r* plan (minimal server count, smallest
    r on ties), matching how the regression estimates below were fitted,
    and read off the gasp_r interference bitmask (``_bitmask_feasible``).
    This is the T of ``_search_t_min``, which also hands over the r* and
    N of its last passing probe.

    The search starts at the paper's estimate: its first probe is
    ``start = min(max(1, round(t_hat_estimate(K, L))), t_max)`` for
    K >= L, and 1 for K < L.  It then gallops away from ``start`` in the
    direction that probe's verdict gives.  After a pass it probes
    start - 1, start - 2, start - 4, ... until a probe fails or would go
    below 1.  After a failure it probes start + 1, start + 2, start + 4,
    ..., the last probe clipped to ``t_max``, and answers None if the
    probe at ``t_max`` fails.  Otherwise it bisects between the nearest
    failing probe (or 0) and the nearest passing one, so the answer T is
    always a probed pass and, for T > 1, T - 1 is always a probed failure.

    That answer is the smallest feasible T, T_min, whenever every T in
    [T_min, max(2 T_min, round(T_hat))] is feasible ([T_min, 2 T_min]
    for K < L, where there is no estimate).  A passing start is at most
    round(T_hat), so every probe at or above T_min passes; an upward
    gallop's first probe at or above T_min is below 2 T_min - start; and
    every bisection probe lies between two probes already made.  Feasibility is not proven monotone in T, since r*
    moves with T.  The evidence is the test grid alone:
    ``tests/test_feasibility.py`` checks that window for every K <= 24,
    L <= K, and checks this search against a linear scan over T on the
    same bitmask for every K <= 24, L <= K at t_max = 1000.  It also
    checks the search against a loop of ``check_feasible(optimal_gasp_r
    (K, L, T))`` over T for K, L <= 12, and
    ``tests/test_degree_tables.py`` checks the bitmask against each
    plan's ``table`` and ``longest_run``.

    ``t_max``, K and L must be integers, t_max and K, L at least 1; a
    bool, float or string raises ``TypeError`` naming the field and a
    numpy integer is read as an int, so no probe is an int64.  They are
    validated once, before the first probe.
    """
    found = _search_t_min(K, L, t_max)
    return None if found is None else found[0]


def _search_t_min(K: int, L: int, t_max: int) -> tuple[int, int, int] | None:
    """(T_min, r*, N) by ``min_feasible_t``'s search, or None past ``t_max``.

    r* and N are those of the probe that passed at T_min, so nothing is
    ranked again.  Validates ``t_max``, K and L as ``min_feasible_t``
    documents.
    """
    t_max, K, L = _index(t_max=t_max, K=K, L=L)
    if t_max < 1:
        raise ParamOutOfRangeError(f"need t_max >= 1, got t_max={t_max}")
    _require_positive(K=K, L=L, T=1)
    start = min(max(1, round(t_hat_estimate(K, L))), t_max) if K >= L else 1
    step = 1
    if passed := _bitmask_feasible(K, L, start):
        ok = start
        while start - step >= 1 and (below := _bitmask_feasible(K, L, start - step)):
            ok, passed, step = start - step, below, 2 * step
        fail = max(start - step, 0)  # 0 stands for "no T below 1"
    else:
        fail = start
        while True:
            if fail == t_max:
                return None
            probe = min(start + step, t_max)
            if passed := _bitmask_feasible(K, L, probe):
                ok = probe
                break
            fail, step = probe, 2 * step
    while ok - fail > 1:
        mid = (fail + ok) // 2
        if at_mid := _bitmask_feasible(K, L, mid):
            ok, passed = mid, at_mid
        else:
            fail = mid
    return ok, *passed


def t_hat_estimate(K: int, L: int) -> float:
    """Regression estimate of the minimum feasible privacy level.

    Quadratic fit for K = L, bivariate fit for K > L; both are empirical
    fits, not bounds.  ``min_feasible_t`` makes round(T_hat), clipped to
    [1, t_max], its first probe, so a close estimate saves probes; its
    answer stays exact while feasibility is monotone from T_min up to
    round(T_hat).  For K <= 12, 76 of the 78 pairs K >= L have a
    T_min <= 64 (not (12, 11) and (12, 12)), and 62 of those 76 lie
    within +/- 1 of round(T_hat).  The misses: for L = 1, T_min is
    always 1, while T_hat gives 3-8 for K >= 5; for L = 3 and K >= 9,
    T_min exceeds round(T_hat) by 2-3; (12, 4) and (12, 6) fall 2 below.
    K and L are read with ``operator.index``, as every family function
    reads them, so a non-integer raises ``TypeError`` naming it.
    """
    K, L = _index(K=K, L=L)
    if K < L:
        raise ParamOutOfRangeError("estimate requires K >= L")
    if K == L:
        return 0.5 * K * K - 1e-3 * K + 0.772
    return -0.043 * L * L + 0.507 * K * L + 0.18 * K + 0.362 * L - 0.746


def feasibility_rows(k_values: Iterable[int], l_values: Iterable[int] | None = None,
                     t_max: int = 64) -> list[dict]:
    """Rows for the minimum-privacy comparison CSV.

    Columns: K, L, T_min_bruteforce, T_hat, delta.  ``l_values`` defaults
    to L = K (the square grid).  T_min_bruteforce is ``min_feasible_t``'s
    galloping search over T on the gasp_r interference bitmask: an exact
    minimum, not an estimate.  The column keeps its old name because the
    CSV header, the pinned CLI output and the benchmark's reference rows
    all use it.  Every T_min found is
    confirmed on the materialized r* plan, ``build_gasp_r(K, L, T_min,
    r*)``, with r* handed over by the search: ``check_feasible`` must
    pass on its degree table, and that table's N must equal the N the
    search ranked r* by.  Neither verdict reads the bitmask, so no row
    rests on it alone; a disagreement raises ``RuntimeError``.  K and L
    are read as ints, as ``min_feasible_t`` reads them, so the rows hold
    ints and a float T_hat and go into JSON as they are.
    """
    l_values = None if l_values is None else tuple(l_values)  # every K reads all of it
    pairs = ((K, L) for K in k_values for L in (l_values if l_values is not None else [K]))
    rows = []
    for K, L in (_index(K=K, L=L) for K, L in pairs):  # so every row holds ints
        if L > K:
            continue
        t_min = None
        if found := _search_t_min(K, L, t_max):
            t_min = found[0]
            _confirm(K, L, *found)
        t_hat = t_hat_estimate(K, L)
        rows.append({
            "K": K,
            "L": L,
            "T_min_bruteforce": t_min,
            "T_hat": t_hat,
            "delta": None if t_min is None else t_min - round(t_hat),
        })
    return rows


def _confirm(K: int, L: int, T: int, r: int, n: int) -> None:
    """Raise ``RuntimeError`` unless gasp_r(K, L, T, r)'s degree table is feasible with N = n."""
    plan = build_gasp_r(K, L, T, r)
    if not check_feasible(plan).feasible:
        raise RuntimeError(
            f"interference bitmask and degree table disagree: T={T} is not "
            f"feasible for (K, L) = ({K}, {L})")
    if plan.table.n_servers != n:
        raise RuntimeError(
            f"interference bitmask and degree table disagree: gasp_r({K}, {L}, {T}, {r}) "
            f"has N = {plan.table.n_servers} servers, but the search ranked it at N = {n}")
