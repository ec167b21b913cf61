"""Quantum-extension feasibility analysis for degree-table plans.

A plan extends to the two-instance quantum protocol when the
interference part of its degree table contains a run of consecutive
integers at least half the server count long: the run supplies the
exponents whose encoded symbols the transfer matrix can stabilize away.
This module computes that run, the feasibility verdicts, the
minimum privacy level T_min for GASP layouts (a galloping search over T
on the gasp_r interference bitmask, capped at ``t_max``), and the
quadratic regression estimates of that minimum.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable

from .degree_tables import (
    ExponentPlan,
    ParamOutOfRangeError,
    _best_gasp_r,
    _require_positive,
    optimal_gasp_r,
)

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
    """Longest run of consecutive integers; ties go to the smallest start."""
    present = set(values)
    best: list[int] = []
    for v in sorted(present):
        if v - 1 in present:
            continue
        end = v
        while end + 1 in present:
            end += 1
        if end - v + 1 > len(best):
            best = list(range(v, end + 1))
    return best


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


def _bitmask_feasible(K: int, L: int, T: int) -> bool:
    """Quantum feasibility of gasp_r(K, L, T) at r*, read off its interference bitmask.

    N and the interference set come from ``_best_gasp_r``, which ranks
    each r by the bitmask's set bits alone; the interference run is the
    bitmask's longest run of ones, so no plan or degree table is built.
    The caller validates K, L and T.
    """
    _, n, mask = _best_gasp_r(K, L, T)
    return _covers_half(max(map(len, bin(mask)[2:].split("0"))), n)[0]


def min_feasible_t(K: int, L: int, t_max: int = 64) -> int | None:
    """Smallest T <= t_max whose optimal gasp_r plan is feasible, else None.

    Feasibility is judged at the r* plan (minimal server count, smallest
    r on ties), matching how the regression estimates below were fitted,
    and read off the gasp_r interference bitmask (``_bitmask_feasible``).

    The search gallops: it probes T = 1, 2, 4, ..., with the last probe
    clipped to ``t_max``, and answers None if the probe at ``t_max``
    fails.  Otherwise it bisects between the last failing probe and the
    first passing one, so the answer T is always a probed pass and, for
    T > 1, T - 1 is always a probed failure.

    That answer is the smallest feasible T, T_min, whenever every T in
    [T_min, 2 T_min] is feasible: the first probe at or above T_min is
    then below 2 T_min and passes, and every bisection probe lies
    between two probes already made.  Feasibility is not proven monotone
    in T, since r* moves with T.  The evidence is the test grid alone:
    ``tests/test_feasibility.py`` checks that window for every K <= 16,
    L <= K, and checks this search against a linear scan over T on the
    same bitmask for every K <= 24, L <= K at t_max = 1000.  It also
    checks the search against a loop of ``check_feasible(optimal_gasp_r
    (K, L, T))`` over T for K, L <= 12, and
    ``tests/test_degree_tables.py`` checks the bitmask against each
    plan's ``table`` and ``longest_run``.

    ``t_max`` must be an integer of at least 1; a bool, float or string
    raises ``TypeError`` and a numpy integer is read as an int, so no
    probe is an int64.  K and L are validated once, as the search's
    first plan (T = 1).
    """
    if isinstance(t_max, bool) or not isinstance(t_max, numbers.Integral):
        raise TypeError(f"t_max must be an integer, got t_max={t_max!r}")
    t_max = int(t_max)
    if t_max < 1:
        raise ParamOutOfRangeError(f"need t_max >= 1, got t_max={t_max}")
    _require_positive(K=K, L=L, T=1)
    fail, probe = 0, 1  # 0 stands for "no failing probe yet"
    while not _bitmask_feasible(K, L, probe):
        if probe == t_max:
            return None
        fail, probe = probe, min(2 * probe, t_max)
    while probe - fail > 1:
        mid = (fail + probe) // 2
        if _bitmask_feasible(K, L, mid):
            probe = mid
        else:
            fail = mid
    return probe


def t_hat_estimate(K: int, L: int) -> float:
    """Regression estimate of the minimum feasible privacy level.

    Quadratic fit for K = L, bivariate fit for K > L; both are empirical
    fits, not bounds.  For K <= 12, 76 of the 78 pairs K >= L have a
    T_min <= 64 (not (12, 11) and (12, 12)), and 62 of those 76 lie
    within +/- 1 of round(T_hat).  The misses: for L = 1, T_min is
    always 1, while T_hat gives 3-8 for K >= 5; for L = 3 and K >= 9,
    T_min exceeds round(T_hat) by 2-3; (12, 4) and (12, 6) fall 2 below.
    """
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
    confirmed by ``check_feasible`` on the materialized r* plan,
    ``optimal_gasp_r(K, L, T_min)``, so no row rests on the bitmask
    alone; a disagreement raises ``RuntimeError``.
    """
    l_values = None if l_values is None else tuple(l_values)  # every K reads all of it
    rows = []
    for K in k_values:
        for L in (l_values if l_values is not None else [K]):
            if L > K:
                continue
            t_min = min_feasible_t(K, L, t_max=t_max)
            if t_min is not None and not check_feasible(optimal_gasp_r(K, L, t_min)).feasible:
                raise RuntimeError(
                    f"interference bitmask and degree table disagree: T={t_min} is not "
                    f"feasible for (K, L) = ({K}, {L})")
            t_hat = t_hat_estimate(K, L)
            rows.append({
                "K": K,
                "L": L,
                "T_min_bruteforce": t_min,
                "T_hat": t_hat,
                "delta": None if t_min is None else t_min - round(t_hat),
            })
    return rows
