import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmm import feasibility
from pdmm.degree_tables import (
    ParamOutOfRangeError,
    build_cat,
    build_gasp_r,
    build_low_privacy,
    optimal_gasp_r,
    outer_sum,
)
from pdmm.feasibility import (
    FeasibilityReport,
    _bitmask_feasible,
    check_feasible,
    feasibility_rows,
    longest_run,
    min_feasible_t,
    t_hat_estimate,
)


def brute_longest_run(values):
    """Oracle: try every (start, end) window of consecutive integers."""
    values = set(values)
    best = []
    for start in values:
        run = []
        v = start
        while v in values:
            run.append(v)
            v += 1
        if len(run) > len(best):
            best = run
    return best


def test_longest_run_examples():
    assert longest_run({0, 1, 2, 5, 6}) == [0, 1, 2]
    assert longest_run(set()) == []
    data = {4, 5, 6, 7, 10, 11, 12}
    assert longest_run(data) == brute_longest_run(data) == [4, 5, 6, 7]


def test_longest_run_tie_breaks_smallest_start():
    assert longest_run({5, 6, 0, 1, 9}) == [0, 1]


@given(st.sets(st.integers(0, 60), max_size=40))
@settings(max_examples=100, deadline=None)
def test_longest_run_matches_oracle_and_is_maximal(values):
    run = longest_run(values)
    assert len(run) == len(brute_longest_run(values))
    if run:
        assert run[0] - 1 not in values
        assert run[-1] + 1 not in values
        assert set(run) <= values


def test_check_feasible_examples():
    feasible = check_feasible(build_gasp_r(2, 2, 3, 2))
    assert feasible.feasible
    assert feasible.run == tuple(range(4, 13))
    assert feasible.threshold == 7

    blocked = check_feasible(build_gasp_r(2, 2, 1, 1))
    assert not blocked.feasible
    assert len(blocked.run) == 3 and blocked.threshold == 4

    cat = check_feasible(build_cat(2, 2, 2))
    assert cat.feasible
    assert cat.run == (5, 6, 7, 8, 9) and cat.threshold == 5


def test_check_feasible_monotone_under_removal():
    plan = build_gasp_r(2, 2, 3, 2)
    table = outer_sum(plan)
    full = check_feasible(plan)
    assert full.feasible
    # removing interference exponents can only shorten the run
    trimmed = set(table.interference) - {8}
    assert len(longest_run(trimmed)) <= len(full.run)


def test_low_privacy_variant():
    report = check_feasible(build_low_privacy(4, 4, 3))
    assert report.feasible
    assert report.run == tuple(range(0, 23))
    assert report.threshold == 21

    big = check_feasible(build_low_privacy(5, 5, 2))
    assert big.feasible
    assert len(big.run) == 31 and big.threshold == 29

    with pytest.raises(ParamOutOfRangeError):
        build_low_privacy(3, 3, 4)


def test_low_privacy_feasibility_matches_table_minus_info_block():
    # the low-privacy construction's own bookkeeping: the run is taken over
    # the whole table minus the block of information-by-information sums
    built = 0
    for K in range(2, 9):
        for L in range(2, K + 1):
            for T in range(1, L):
                try:
                    plan = build_low_privacy(K, L, T)
                except ParamOutOfRangeError:
                    continue
                built += 1
                everything = {a + b for a in plan.alpha for b in plan.beta}
                info_block = {plan.alpha[i] + plan.beta[j]
                              for i in plan.info_alpha for j in plan.info_beta}
                run = tuple(longest_run(everything - info_block))
                threshold = -(-len(everything) // 2)
                assert check_feasible(plan) == FeasibilityReport(True, run, threshold), \
                    (K, L, T)
    assert built == 43


def test_min_feasible_t_small():
    assert min_feasible_t(2, 2) == 3
    assert min_feasible_t(3, 3) == 5


def test_min_feasible_t_matches_check_feasible_loop():
    # reference: the materialized search, check_feasible at each r* plan
    def reference(K, L, t_max):
        for T in range(1, t_max + 1):
            if check_feasible(optimal_gasp_r(K, L, T)).feasible:
                return T
        return None

    for K in range(1, 13):
        for L in range(1, 13):
            assert min_feasible_t(K, L, t_max=64) == reference(K, L, 64), (K, L)


@pytest.mark.parametrize("args, bad", [
    ((0, 2), "K=0"),
    ((2, 0), "L=0"),
    ((2, 2, 0), "t_max=0"),
])
def test_min_feasible_t_names_the_bad_parameter(args, bad):
    with pytest.raises(ParamOutOfRangeError, match=bad):
        min_feasible_t(*args)


@pytest.mark.parametrize("t_max", [2.5, 3.0, True, "3"])
def test_min_feasible_t_refuses_a_non_integer_cap(t_max):
    with pytest.raises(TypeError, match=r"t_max must be an integer, got t_max="):
        min_feasible_t(2, 2, t_max)


def linear_t_min(K, L, t_max):
    """Oracle: the first T in 1..t_max that passes the same bitmask predicate."""
    return next((T for T in range(1, t_max + 1) if _bitmask_feasible(K, L, T)), None)


def search_mismatches(k_max, t_max):
    """{(K, L): (search, oracle)} over K <= k_max, L <= K where the two differ."""
    mismatches = {}
    for K in range(1, k_max + 1):
        for L in range(1, K + 1):
            got, want = feasibility.min_feasible_t(K, L, t_max), linear_t_min(K, L, t_max)
            if got != want:
                mismatches[K, L] = (got, want)
    return mismatches


def test_min_feasible_t_matches_a_linear_scan_of_the_bitmask():
    # at cap 1000 every pair here has a T_min, (24, 24) the largest
    assert linear_t_min(24, 24, 1000) is not None
    assert search_mismatches(24, 1000) == {}


def test_search_without_bisection_fails_the_linear_scan_comparison(monkeypatch):
    # negative control: answer the first passing probe of 1, 2, 4, ... instead
    def first_passing_probe(K, L, t_max):
        T = 1
        while not _bitmask_feasible(K, L, T):
            if T == t_max:
                return None
            T = min(2 * T, t_max)
        return T

    monkeypatch.setattr(feasibility, "min_feasible_t", first_passing_probe)
    mismatches = search_mismatches(6, 1000)
    assert mismatches[2, 2] == (4, 3)
    assert len(mismatches) > 1


def test_feasibility_is_monotone_over_the_window_the_search_probes():
    # every T the search can probe after its first pass lies in [T_min, 2 T_min]
    for K in range(1, 17):
        for L in range(1, K + 1):
            t_min = linear_t_min(K, L, 1000)
            failing = [T for T in range(t_min, 2 * t_min + 1)
                       if not _bitmask_feasible(K, L, T)]
            assert failing == [], (K, L)


@pytest.mark.parametrize("t_max, want", [(4, None), (5, 5), (6, 5), (7, 5), (64, 5)])
def test_min_feasible_t_at_the_cap_edge(t_max, want):
    # (3, 3) has T_min = 5; cap 7 clips the probe after 4 to 7
    assert min_feasible_t(3, 3, t_max) == want


def test_min_feasible_t_cap_one_and_above_the_default_cap():
    assert [min_feasible_t(K, 1, 1) for K in range(1, 6)] == [1] * 5
    assert min_feasible_t(2, 2, 1) is None
    assert min_feasible_t(12, 12) is None
    assert min_feasible_t(12, 12, 1000) == linear_t_min(12, 12, 1000) == 73
    # caps just below and at T_min = 73: the unclipped probe 128 would pass
    assert min_feasible_t(12, 12, 72) is None
    assert min_feasible_t(12, 12, 73) == 73
    # a numpy cap must not turn the clipped probe (100) into an int64, whose
    # bit shifts overflow
    assert min_feasible_t(12, 12, np.int64(100)) == 73


def test_min_feasible_t_vs_estimate():
    for K in range(2, 7):
        t_min = min_feasible_t(K, K)
        assert t_min is not None
        assert abs(t_min - round(t_hat_estimate(K, K))) <= 1


def test_min_feasible_t_monotone_in_k():
    values = [min_feasible_t(K, 2) for K in range(2, 9)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_min_feasible_t_cap():
    assert min_feasible_t(5, 5, t_max=3) is None


def test_feasible_when_privacy_comparable_to_blocks():
    for K in range(2, 5):
        for L in range(2, 5):
            plan = optimal_gasp_r(K, L, K * L)
            assert check_feasible(plan).feasible


def test_t_hat_values():
    assert t_hat_estimate(2, 2) == pytest.approx(2.77)
    assert t_hat_estimate(4, 4) == pytest.approx(8.768)
    assert t_hat_estimate(4, 2) == pytest.approx(4.582)
    with pytest.raises(ParamOutOfRangeError):
        t_hat_estimate(2, 3)


def test_t_hat_misses_counted_in_its_docstring():
    rows = feasibility_rows(range(1, 13), range(1, 13))
    assert len(rows) == 78
    found = {(r["K"], r["L"]): r["delta"] for r in rows if r["T_min_bruteforce"] is not None}
    assert len(found) == 76 and {(12, 11), (12, 12)}.isdisjoint(found)
    assert sum(abs(delta) <= 1 for delta in found.values()) == 62
    for K in range(1, 13):
        assert min_feasible_t(K, 1) == 1
    assert [round(t_hat_estimate(K, 1)) for K in range(5, 13)] == [3, 4, 4, 5, 6, 6, 7, 8]
    assert [found[K, 3] for K in range(9, 13)] == [2, 2, 2, 3]
    misses = {key for key, delta in found.items() if abs(delta) > 1}
    assert misses == {(K, 1) for K in range(5, 13)} | {(K, 3) for K in range(9, 13)} \
        | {(12, 4), (12, 6)}


def test_feasibility_rows():
    rows = feasibility_rows(range(2, 4))
    assert [row["K"] for row in rows] == [2, 3]
    assert rows[0]["T_min_bruteforce"] == 3
    assert rows[0]["delta"] == 0
    assert set(rows[0]) == {"K", "L", "T_min_bruteforce", "T_hat", "delta"}


def test_feasibility_rows_read_a_one_shot_l_values_for_every_k():
    want = feasibility_rows(range(2, 5), [2, 3])
    assert [(row["K"], row["L"]) for row in want] == [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]
    assert feasibility_rows(range(2, 5), iter([2, 3])) == want
    assert feasibility_rows(range(2, 5), (L for L in (2, 3))) == want


def test_feasibility_rows_match_the_design_sweep_reference_rows():
    # the rows every design_sweep benchmark op is checked against; read only
    path = Path(__file__).parents[1] / "benchmarks" / "design_sweep_rows.json"
    assert feasibility_rows(range(2, 13), range(2, 13)) == json.loads(path.read_text())


def test_feasibility_rows_refuse_a_t_min_the_degree_table_rejects(monkeypatch):
    # min_feasible_t(3, 3) is 5; a search that answered 1 must not reach a row
    monkeypatch.setattr("pdmm.feasibility.min_feasible_t", lambda K, L, t_max: 1)
    with pytest.raises(RuntimeError, match=r"T=1 is not feasible for \(K, L\) = \(3, 3\)"):
        feasibility_rows([3])
