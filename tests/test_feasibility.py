import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmm import feasibility
from pdmm.degree_tables import (
    ParamOutOfRangeError,
    _best_gasp_r,
    build_cat,
    build_gasp_r,
    build_low_privacy,
    gasp_server_formula,
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


def window_longest_run(values):
    """Oracle: every window [lo, hi] of present values, lo ascending, kept only when longer."""
    present = set(values)
    best = []
    for lo in sorted(present):
        for hi in sorted(present):
            if hi - lo + 1 > len(best) and all(v in present for v in range(lo, hi + 1)):
                best = list(range(lo, hi + 1))
    return best


# each a fresh iterable, since a generator is read once
RUN_INPUTS = {
    "empty": lambda: [],
    "single": lambda: [7],
    "equal-length runs": lambda: [9, 10, 11, 0, 1, 2, 5, 6, 7],
    "negatives": lambda: [-5, -4, -3, -1, 0, 1, 2],
    "negative tie": lambda: [-9, -8, 3, 4],
    "duplicates": lambda: [3, 3, 4, 4, 4, 5, 0, 0, 1, 2, 2],
    "frozenset": lambda: frozenset({20, 21, 22, 40, 41, 42, 43, 1}),
    "generator": lambda: (3 * v // 2 for v in range(6)),  # 0 1 3 4 6 7
}


def run_mismatches(run=longest_run):
    return [name for name, values in RUN_INPUTS.items()
            if run(values()) != window_longest_run(values())]


def test_longest_run_matches_the_window_oracle():
    assert run_mismatches() == []
    assert longest_run(RUN_INPUTS["equal-length runs"]()) == [0, 1, 2]
    assert longest_run(RUN_INPUTS["generator"]()) == [0, 1]


def test_a_run_that_sends_ties_to_the_later_start_fails_the_oracle():
    # negative control: the longest run of the negated values, negated back,
    # keeps the tie with the largest start
    def later(values):
        return sorted(-v for v in longest_run(-v for v in values))

    assert later([0, 1, 5, 6]) == [5, 6]
    assert set(run_mismatches(later)) == {"equal-length runs", "negative tie", "generator"}


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


def test_search_that_keeps_a_passing_start_fails_the_linear_scan_comparison(monkeypatch):
    # negative control: answer a passing first probe round(T_hat) without galloping down
    search = feasibility.min_feasible_t

    def passing_start_kept(K, L, t_max):
        start = min(max(1, round(t_hat_estimate(K, L))), t_max)
        return start if _bitmask_feasible(K, L, start) else search(K, L, t_max)

    monkeypatch.setattr(feasibility, "min_feasible_t", passing_start_kept)
    mismatches = search_mismatches(12, 1000)
    assert mismatches[5, 1] == (3, 1)
    assert {(12, 4), (12, 6)} <= set(mismatches)


def test_feasibility_is_monotone_over_the_window_the_search_probes():
    # every T at or above T_min that the search can probe lies in
    # [T_min, max(2 T_min, round(T_hat))]: a passing start is at most round(T_hat)
    for K in range(1, 25):
        for L in range(1, K + 1):
            t_min = linear_t_min(K, L, 1000)
            top = max(2 * t_min, round(t_hat_estimate(K, L)))
            failing = [T for T in range(t_min, top + 1) if not _bitmask_feasible(K, L, T)]
            assert failing == [], (K, L)


def recorded_probes(monkeypatch, K, L, t_max=64):
    """(answer, every T that min_feasible_t passed to _bitmask_feasible, in order)."""
    probes = []

    def probe(K, L, T):
        probes.append(T)
        return _bitmask_feasible(K, L, T)

    monkeypatch.setattr(feasibility, "_bitmask_feasible", probe)
    try:
        return min_feasible_t(K, L, t_max), probes
    finally:
        monkeypatch.undo()


def test_search_probes_design_sweep_grid_within_its_budget(monkeypatch):
    # the grid every design_sweep op sweeps; the search from T = 1 made 628 probes
    total = 0
    for K in range(2, 13):
        for L in range(2, K + 1):
            answer, probes = recorded_probes(monkeypatch, K, L)
            total += len(probes)
            assert all(type(T) is int and 1 <= T <= 64 for T in probes), (K, L)
            if answer is not None:
                assert _bitmask_feasible(K, L, answer) and answer in probes, (K, L)
                assert answer == 1 or answer - 1 in probes, (K, L)
    assert total <= 200


def test_search_starts_at_the_estimate_clipped_to_the_cap(monkeypatch):
    assert round(t_hat_estimate(6, 6)) == 19
    answer, probes = recorded_probes(monkeypatch, 6, 6)
    assert (answer, probes[0]) == (19, 19)
    # a cap below round(T_hat) is the first probe, and a failing cap answers None
    assert recorded_probes(monkeypatch, 6, 6, 10) == (None, [10])
    assert recorded_probes(monkeypatch, 6, 6, 18) == (None, [18])
    answer, probes = recorded_probes(monkeypatch, 6, 6, np.int64(19))
    assert (answer, probes[0]) == (19, 19) and all(type(T) is int for T in probes)
    # T_min above round(T_hat) gallops up, below it gallops down, then both bisect
    assert round(t_hat_estimate(12, 3)) == 20 and round(t_hat_estimate(12, 4)) == 27
    assert recorded_probes(monkeypatch, 12, 3) == (23, [20, 21, 22, 24, 23])
    assert recorded_probes(monkeypatch, 12, 4) == (25, [27, 26, 25, 23, 24])


def test_search_for_k_below_l_starts_at_one(monkeypatch):
    # there is no estimate for K < L, so the search gallops up from T = 1
    with pytest.raises(ParamOutOfRangeError):
        t_hat_estimate(2, 5)
    answer, probes = recorded_probes(monkeypatch, 2, 5)
    assert (answer, probes[0]) == (5, 1)
    for K in range(1, 9):
        for L in range(K + 1, 13):
            assert min_feasible_t(K, L, 1000) == linear_t_min(K, L, 1000), (K, L)


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
    monkeypatch.setattr("pdmm.feasibility._search_t_min",
                        lambda K, L, t_max: (1, 1, gasp_server_formula(K, L, 1, 1)))
    with pytest.raises(RuntimeError, match=r"T=1 is not feasible for \(K, L\) = \(3, 3\)"):
        feasibility_rows([3])


DESIGN_SWEEP_GRID = [(K, L) for K in range(2, 13) for L in range(2, K + 1)]


def confirmed_plans(monkeypatch):
    """The rows of the design_sweep grid, and every plan ``feasibility_rows`` built to confirm them."""
    plans = []

    def build(*args):
        plans.append(build_gasp_r(*args))
        return plans[-1]

    monkeypatch.setattr(feasibility, "build_gasp_r", build)
    return feasibility_rows(range(2, 13), range(2, 13)), plans


def test_the_search_hands_over_the_r_star_it_ranked(monkeypatch):
    rows, plans = confirmed_plans(monkeypatch)
    assert len(plans) == sum(row["T_min_bruteforce"] is not None for row in rows) == 64
    confirmed = {(plan.K, plan.L): plan for plan in plans}
    for K, L in DESIGN_SWEEP_GRID:
        found = feasibility._search_t_min(K, L, 64)
        if found is None:
            assert (K, L) not in confirmed
            continue
        T, r, n = found
        assert (T, (r, n)) == (min_feasible_t(K, L), _best_gasp_r(K, L, T)[:2]), (K, L)
        plan = confirmed[K, L]
        assert (plan.T, plan.param("r"), plan.table.n_servers) == (T, r, n)
        assert plan.table.sums.tolist() == [[a + b for b in plan.beta] for a in plan.alpha]


def test_feasibility_rows_refuse_an_r_star_whose_server_count_differs(monkeypatch):
    # (3, 3): T_min 5 at r* = 3 with N = 27; r = 1 is feasible too, with N = 33
    search = feasibility._search_t_min
    assert search(3, 3, 64) == (5, 3, 27)
    assert check_feasible(build_gasp_r(3, 3, 5, 1)).feasible
    monkeypatch.setattr(feasibility, "_search_t_min",
                        lambda K, L, t_max: (lambda T, r, n: (T, 1, n))(*search(K, L, t_max)))
    with pytest.raises(RuntimeError, match=r"gasp_r\(3, 3, 5, 1\) has N = 33 servers, "
                                           r"but the search ranked it at N = 27"):
        feasibility_rows([3])
