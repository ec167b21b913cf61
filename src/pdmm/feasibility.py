"""Quantum-extension feasibility analysis for degree-table plans.

A plan extends to the two-instance quantum protocol when the
interference part of its degree table contains a run of consecutive
integers at least half the server count long: the run supplies the
exponents whose encoded symbols the transfer matrix can stabilize away.
This module computes that run, the feasibility verdicts, the
brute-force minimum privacy level for GASP layouts, and the quadratic
regression estimates of that minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .degree_tables import (
    ExponentPlan,
    ParamOutOfRangeError,
    gasp_server_formula,
    optimal_gasp_r,
    outer_sum,
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


def check_feasible(plan: ExponentPlan) -> FeasibilityReport:
    """Feasible iff the interference run covers ceil(N / 2) exponents.

    N is the plan's own server count.  The report only describes the
    plan; ``protocol.quantum_layout`` is what refuses quantum mode.
    """
    table = outer_sum(plan)
    run = longest_run(table.interference)
    threshold = -(-table.n_servers // 2)
    return FeasibilityReport(len(run) >= threshold, tuple(run), threshold)


def min_feasible_t(K: int, L: int, t_max: int = 64) -> int | None:
    """Smallest T <= t_max whose optimal gasp_r plan is feasible.

    Feasibility is judged at the r* plan (minimal server count, smallest
    r on ties), matching how the regression estimates below were fitted.
    """
    for T in range(1, t_max + 1):
        plan = optimal_gasp_r(K, L, T)
        if check_feasible(plan).feasible:
            return T
    return None


def t_hat_estimate(K: int, L: int) -> float:
    """Regression estimate of the minimum feasible privacy level.

    Quadratic fit for K = L, bivariate fit for K > L; both are empirical
    fits over the surveyed parameter range, accurate to about +/- 1.
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
    to L = K (the square grid).
    """
    rows = []
    for K in k_values:
        for L in (l_values if l_values is not None else [K]):
            if L > K:
                continue
            t_min = min_feasible_t(K, L, t_max=t_max)
            t_hat = t_hat_estimate(K, L)
            rows.append({
                "K": K,
                "L": L,
                "T_min_bruteforce": t_min,
                "T_hat": t_hat,
                "delta": None if t_min is None else t_min - round(t_hat),
            })
    return rows
