"""Quantum-extension feasibility analysis for degree-table plans.

A plan extends to the two-instance quantum protocol when the
interference part of its degree table contains a run of consecutive
integers at least half the server count long: the run supplies the
exponents whose encoded symbols the transfer matrix can stabilize away.
This module computes that run, the feasibility verdicts, the
minimum privacy level for GASP layouts, and the quadratic
regression estimates of that minimum.
"""

from __future__ import annotations

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


def min_feasible_t(K: int, L: int, t_max: int = 64) -> int | None:
    """Smallest T <= t_max whose optimal gasp_r plan is feasible.

    Feasibility is judged at the r* plan (minimal server count, smallest
    r on ties), matching how the regression estimates below were fitted.
    N and the interference set come from the gasp_r interference
    bitmask, which ranks each r by its set bits alone; the interference
    run, read only at r*, is the bitmask's longest run of ones, so no
    plan or degree table is built.  K and L are validated once, as the
    search's first plan (T = 1).  ``tests/test_degree_tables.py`` checks
    the bitmask against each plan's ``table`` and ``longest_run``;
    ``tests/test_feasibility.py`` checks this function against a loop of
    ``check_feasible(optimal_gasp_r(K, L, T))`` over T.
    """
    if t_max < 1:
        raise ParamOutOfRangeError(f"need t_max >= 1, got t_max={t_max}")
    _require_positive(K=K, L=L, T=1)
    for T in range(1, t_max + 1):
        _, n, mask = _best_gasp_r(K, L, T)
        if _covers_half(max(map(len, bin(mask)[2:].split("0"))), n)[0]:
            return T
    return None


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
    scan over T on the gasp_r interference bitmask.  Every T_min found is
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
