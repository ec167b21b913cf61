import dataclasses
import inspect
import re
from itertools import product

import numpy as np
import pytest

import decodability_oracle
import merge_oracle
import pdmm.degree_tables as dt
from pdmm.degree_tables import (
    DecodabilityReport,
    ExponentPlan,
    NoSolutionError,
    ParamOutOfRangeError,
    SideConditionViolatedError,
    best_classical_plan,
    build_cat,
    build_dog,
    build_gasp_r,
    build_gasp_rs,
    build_low_privacy,
    build_qf_additive,
    build_qf_klt,
    build_qf_kt,
    build_qf_kt_shift,
    build_qf_power,
    build_qf_square,
    check_decodable,
    gap_progression,
    gasp_server_formula,
    optimal_gasp_r,
    outer_sum,
    parse_plan_record,
    plan_record,
)
from pdmm.feasibility import longest_run
from pdmm.protocol import ProtocolConfig, run_protocol


def enum_servers(plan):
    """Independent count: materialize the outer-sum set directly."""
    q = plan.modulus_q
    sums = {a + b for a in plan.alpha for b in plan.beta}
    if q:
        sums = {v % q for v in sums}
    return len(sums)


def test_gap_progression():
    assert gap_progression(5, 4, 2) == [0, 1, 4, 5, 8]
    assert gap_progression(3, 7, 3) == [0, 1, 2]
    assert gap_progression(4, 2, 1) == [0, 2, 4, 6]
    with pytest.raises(ParamOutOfRangeError):
        gap_progression(3, 2, 0)


def loop_gap_progression(length, x, r):
    """Oracle: the first ``length`` terms, appended block by block."""
    out, block = [], 0
    while len(out) < length:
        for i in range(r):
            out.append(block * x + i)
            if len(out) == length:
                break
        block += 1
    return out


def gap_mismatches(progression, xs=range(8)):
    """Grid points (length, x, r), length < 20 and r <= 5, where ``progression`` differs
    from the loop oracle; r > x is included."""
    return [(length, x, r) for r in range(1, 6) for x in xs for length in range(20)
            if progression(length, x, r) != loop_gap_progression(length, x, r)]


def test_gap_progression_matches_the_loop_oracle():
    assert gap_mismatches(gap_progression) == []
    want = r"^need r >= 1 and length >= 0, got r=2, length=-1$"
    with pytest.raises(ParamOutOfRangeError, match=want):
        gap_progression(-1, 3, 2)
    # negative control: blocks of x terms instead of r
    assert gap_mismatches(lambda length, x, r: [i // r * x + i % x for i in range(length)],
                          xs=range(1, 8))


def test_gasp_r_small():
    plan = build_gasp_r(2, 2, 1, 1)
    assert plan.alpha == (0, 1, 4)
    assert plan.beta == (0, 2, 4)
    assert outer_sum(plan).n_servers == 8


def test_gasp_r_exponents_and_count():
    plan = build_gasp_r(2, 2, 3, 2)
    assert plan.alpha == (0, 1, 4, 5, 6)
    assert plan.beta == (0, 2, 4, 5, 6)
    assert outer_sum(plan).n_servers == 13


def test_gasp_optimal_known_counts():
    # closed-form optimum for K = L = T = n^2 is n^4 + 2n^3 + 2n^2 - n - 2
    assert outer_sum(optimal_gasp_r(4, 4, 4)).n_servers == 36
    assert outer_sum(optimal_gasp_r(9, 9, 9)).n_servers == 148


def test_server_formula_examples():
    assert gasp_server_formula(2, 2, 3, 2) == 13
    assert min(gasp_server_formula(4, 4, 4, r) for r in range(1, 5)) == 36
    assert min(gasp_server_formula(9, 9, 9, r) for r in range(1, 10)) == 148


def test_server_formula_matches_enumeration_sample_grid():
    for K, L, T in product(range(1, 7), repeat=3):
        for r in range(1, min(K, T) + 1):
            plan = build_gasp_r(K, L, T, r)
            assert gasp_server_formula(K, L, T, r) == enum_servers(plan), (K, L, T, r)


def mask_runs(interference):
    """``interference``'s bitmask read back as the oracle's (N, merged intervals)."""
    def runs(K, L, T, r):
        mask, kl = interference(K, L, T, r), K * L
        ones = re.finditer("1+", bin(mask)[:1:-1])  # bit i is character i
        return kl + mask.bit_count(), [(kl + m.start(), kl + m.end() - 1) for m in ones]
    return runs


def merge_mismatches(merge):
    """(K, L, T, r) on a grid where ``merge``'s server count, interference
    cover or longest interval (the first on ties, as ``min_feasible_t``
    reads it) differs from the materialized degree table."""
    bad = []
    for K, L, T in product(range(1, 10), range(1, 10), range(1, 16)):
        for r in range(1, min(K, T) + 1):
            table = outer_sum(build_gasp_r(K, L, T, r))
            n, merged = merge(K, L, T, r)
            lo, hi = max(merged, key=lambda iv: iv[1] - iv[0])
            cover = {v for a, b in merged for v in range(a, b + 1)}
            if (n != table.n_servers or cover != table.interference
                    or list(range(lo, hi + 1)) != longest_run(table.interference)):
                bad.append((K, L, T, r))
    return bad


def oracle_mismatches(interference):
    """(K, L, T, r), K, L <= 16 and T <= 40, where ``interference``'s bitmask
    is not the sort-and-merge oracle's cover, shifted down by KL."""
    bad = []
    for K, L, T in product(range(1, 17), range(1, 17), range(1, 41)):
        for r in range(1, min(K, T) + 1):
            kl = K * L
            _, merged = merge_oracle.merge(K, L, T, r)
            cover = sum(((1 << (b - a + 1)) - 1) << (a - kl) for a, b in merged)
            if interference(K, L, T, r) != cover:
                bad.append((K, L, T, r))
    return bad


def test_gasp_r_interference_matches_outer_sum():
    assert merge_mismatches(mask_runs(dt._gasp_r_interference)) == []


def test_gasp_r_interference_matches_merge_oracle():
    assert oracle_mismatches(dt._gasp_r_interference) == []


def mutant(old, new):
    """``_gasp_r_interference`` with one source fragment replaced."""
    source = inspect.getsource(dt._gasp_r_interference)
    assert source.count(old) == 1
    namespace = dict(vars(dt))
    exec(source.replace(old, new), namespace)
    return namespace["_gasp_r_interference"]


@pytest.mark.parametrize("old, new", [
    pytest.param("(1 << (K + T - 1)) - 1", "(1 << (K + T - 2)) - 1",
                 id="alpha1_beta2_one_short"),
    pytest.param("K), tail + T - 1)", "K), r + T - 1)",
                 id="last_alpha2_beta2_chain_as_long_as_r"),
    pytest.param("min(r + T - 1, K)", "r + T - 1",
                 id="unclipped_widths_carry"),  # intervals wider than K overlap
])
def test_gasp_r_interference_gates_catch_a_mutant(old, new):
    bad = mutant(old, new)
    assert merge_mismatches(mask_runs(bad))
    assert oracle_mismatches(bad)


def test_optimal_gasp_r_takes_least_servers_then_smallest_r():
    for K, L, T in product(range(1, 7), repeat=3):
        counts = [outer_sum(build_gasp_r(K, L, T, r)).n_servers
                  for r in range(1, min(K, T) + 1)]
        assert optimal_gasp_r(K, L, T).param("r") == counts.index(min(counts)) + 1


@pytest.mark.parametrize("call, bad", [
    (lambda: optimal_gasp_r(0, 2, 1), "K=0"),
    (lambda: optimal_gasp_r(2, -1, 1), "L=-1"),
    (lambda: optimal_gasp_r(2, 2, 0), "T=0"),
    (lambda: gasp_server_formula(2, 0, 1, 1), "L=0"),
])
def test_gasp_r_entry_points_name_the_bad_parameter(call, bad):
    with pytest.raises(ParamOutOfRangeError, match=bad):
        call()


def test_gasp_rs():
    assert build_gasp_rs(2, 2, 2, 1, 1).alpha == (0, 1, 4, 6)
    assert build_gasp_rs(2, 2, 2, 1, 1).beta == (0, 2, 4, 6)
    plan = build_gasp_rs(2, 2, 2, 2, 2)
    assert plan.alpha == (0, 1, 4, 5) and plan.beta == (0, 2, 4, 5)
    # chain length >= T collapses the noise block to a consecutive run
    wide = build_gasp_rs(3, 2, 2, 2, 2)
    assert wide.beta[-2:] == (6, 7)
    with pytest.raises(ParamOutOfRangeError):
        build_gasp_rs(2, 2, 1, 1, 1)


def test_dog():
    plan = build_dog(2, 2, 2, 1, 1)
    assert plan.alpha == (0, 1, 2, 5)
    assert plan.beta == (0, 3, 5, 8)
    assert build_dog(3, 2, 2, 2, 2).alpha[-2:] == (3, 4)
    # chain length 1 gives an arithmetic progression with step K + r
    s1 = build_dog(3, 3, 3, 2, 1)
    steps = {b - a for a, b in zip(s1.beta[-3:], s1.beta[-2:])}
    assert steps == {5}


def test_cat_hand_case():
    plan = build_cat(2, 2, 2, x=1)
    assert plan.modulus_q == 10
    assert plan.param("y") == 3
    assert plan.alpha == (0, 3, 6, 7)
    assert plan.beta == (0, 1, 9, 2)
    table = outer_sum(plan)
    assert table.n_servers == 10
    assert set(table.info) == {0, 1, 3, 4}


def test_cat_parameters():
    assert build_cat(3, 2, 2).modulus_q == 13  # K* = 4, L* = 3
    plan = build_cat(5, 4, 2)
    assert plan.param("kappa") == 0 and plan.param("lambda") == 0  # T-1 = 1
    with pytest.raises(ParamOutOfRangeError):
        build_cat(2, 2, 2, x=2)  # shares a factor with q = 10
    with pytest.raises(NoSolutionError):
        build_cat(3, 3, 3)  # cyclic table cannot cover all residues here


def test_cat_y_solves_its_congruence_on_grid():
    # gcd(K*, q) = gcd(K*, (T-1)^2) = 1, so y = -x (T-1) / K* mod q always
    # exists; only the cover check rejects parameters
    built = rejected = 0
    for K in range(2, 30):
        for L in range(2, K + 1):
            for T in range(2, L + 1):
                try:
                    plan = build_cat(K, L, T)
                except NoSolutionError:
                    rejected += 1
                    continue
                k_star = K + 1 + plan.param("kappa")
                x, y = plan.param("x"), plan.param("y")
                assert x == 1  # the default multiplier
                assert (x * (T - 1) + y * k_star) % plan.modulus_q == 0, (K, L, T)
                built += 1
    assert (built, rejected) == (1859, 2201)


def test_cat_server_count_is_q_on_grid():
    for K in range(2, 8):
        for L in range(2, K + 1):
            plan = build_cat(K, L, 2)
            assert outer_sum(plan).n_servers == plan.modulus_q


def test_qf_square():
    plan = build_qf_square(2)
    assert plan.alpha == (0, 1, 2, 3, 16, 17, 18, 19)
    assert plan.beta == (0, 1, 2, 3, 7, 11, 15, 19)
    assert plan.info_alpha == (4, 5, 6, 7)
    assert outer_sum(plan).n_servers == 39
    for n in range(2, 7):
        assert outer_sum(build_qf_square(n)).n_servers == 2 * n**4 + 2 * n**2 - 1


def test_qf_power():
    for n, k, m in [(2, 2, 2), (2, 2, 3), (2, 2, 4), (3, 2, 2), (2, 3, 3), (2, 3, 4)]:
        plan = build_qf_power(n, k, m)
        want = 2 * n**(2 * k) + 3 * n**m - n**k - 1
        assert outer_sum(plan).n_servers == want == enum_servers(plan)
    with pytest.raises(ParamOutOfRangeError):
        build_qf_power(2, 3, 2)


def test_qf_additive():
    for n, k in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        top = n**(2 * k) - n**k + 1
        for r in range(0, min(top, 7)):
            plan = build_qf_additive(n, k, r)
            want = 2 * n**(2 * k) + 2 * n**k + 2 * r - 1
            assert outer_sum(plan).n_servers == want, (n, k, r)
            assert check_decodable(plan).ok, (n, k, r)
    with pytest.raises(ParamOutOfRangeError):
        build_qf_additive(2, 1, 3)


def test_qf_klt():
    plan = build_qf_klt(3, 2)
    assert plan.alpha == (0, 1, 3, 5, 7)
    assert plan.beta == (0, 1, 6, 7)
    assert outer_sum(plan).n_servers == 15
    for K in range(2, 9):
        for T in range(1, K + 1):
            assert outer_sum(build_qf_klt(K, T)).n_servers == 2 * K * T + 2 * T - 1


def test_qf_kt():
    plan = build_qf_kt(2, 3, 1)
    assert plan.K == 8 and plan.L == 2 and plan.T == 8
    assert outer_sum(plan).n_servers == 47
    for n, k, ell in [(2, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 1)]:
        want = 2 * n**(k + ell) + 2 * n**k - 1
        assert outer_sum(build_qf_kt(n, k, ell)).n_servers == want


def test_qf_kt_shift():
    for n, ell, r in [(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 2)]:
        plan = build_qf_kt_shift(n, ell, r)
        m = n**ell
        want = 2 * m * m + 2 * r * m + 2 * m + 2 * r - 1
        assert outer_sum(plan).n_servers == want == enum_servers(plan)
        assert check_decodable(plan).ok


def test_low_privacy_hand_cases():
    small = build_low_privacy(2, 2, 1)
    assert small.alpha == (0, 2, 4) and small.beta == (0, 1, 4, 5)
    assert outer_sum(small).n_servers == 10
    bigger = build_low_privacy(3, 3, 1)
    assert bigger.alpha == (0, 3, 5, 7)
    assert bigger.beta == (0, 1, 2, 10, 18, 26)
    assert outer_sum(bigger).n_servers == 22


def test_low_privacy_equal_sides():
    plan = build_low_privacy(4, 4, 3)
    assert plan.alpha == (0, 1, 2, 3, 18, 19, 20, 35)
    assert plan.beta == (0, 1, 2, 5, 8, 11, 14)
    assert outer_sum(plan).n_servers == 42
    assert outer_sum(build_low_privacy(5, 5, 2)).n_servers == 58
    for L, T in [(4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (6, 2), (7, 3)]:
        plan = build_low_privacy(L, L, T)
        assert outer_sum(plan).n_servers == 2 * L * L + L + 3 * T - 3
        assert check_decodable(plan).ok


def test_low_privacy_general():
    plan = build_low_privacy(9, 8, 7)
    m, delta = plan.param("m"), plan.param("delta")
    assert (m, delta) == (1, 2)
    want = 9 * (8 + 3) + (m + 2) * 6 + 64 - 16
    assert outer_sum(plan).n_servers == want == 165
    assert check_decodable(plan).ok


def test_low_privacy_rejections():
    with pytest.raises(ParamOutOfRangeError):
        build_low_privacy(3, 3, 4)  # needs L > T
    with pytest.raises(SideConditionViolatedError):
        build_low_privacy(7, 3, 2)  # interference run too short
    with pytest.raises(SideConditionViolatedError):
        build_low_privacy(9, 4, 3)


def test_outer_sum_examples():
    table = outer_sum(build_gasp_r(2, 2, 1, 1))
    assert set(table.exponents) == {0, 1, 2, 3, 4, 5, 6, 8}
    assert set(table.info) == {0, 1, 2, 3}
    single = ExponentPlan(family="gasp_r", K=1, L=1, T=0,
                          alpha=(0,), beta=(0,), info_alpha=(0,), info_beta=(0,))
    assert outer_sum(single).n_servers == 1
    assert outer_sum(single).sums.tolist() == [[0]]


def test_check_decodable():
    assert check_decodable(build_gasp_r(2, 2, 3, 2)).ok
    # info exponent colliding with a noise exponent breaks condition 1
    collide = ExponentPlan(family="gasp_r", K=2, L=2, T=1,
                           alpha=(0, 1, 1), beta=(0, 2, 4),
                           info_alpha=(0, 1), info_beta=(0, 1))
    assert not check_decodable(collide).ok
    # repeated noise exponents break condition 2
    dup = ExponentPlan(family="gasp_r", K=2, L=2, T=2,
                       alpha=(0, 1, 4, 4), beta=(0, 2, 4, 5),
                       info_alpha=(0, 1), info_beta=(0, 1))
    report = check_decodable(dup)
    assert not report.ok and "alpha" in report.reason


def test_check_decodable_refuses_a_cyclic_table_without_q_servers():
    # sample_frame draws q points of order q, one per residue; before this check
    # the run ended in EvalFrame's internal ShapeMismatchError
    plan = parse_plan_record("x - 1 1 0 | 8 | 2 | 0 | 0 | 11")
    assert check_decodable(plan) == DecodabilityReport(
        False, "cyclic table has N = 1 servers, not q = 11")
    with pytest.raises(ValueError, match="^plan is not decodable: cyclic table has N = 1 servers"):
        run_protocol(ProtocolConfig(plan=plan))
    assert check_decodable(build_cat(2, 2, 2)).ok


def test_constructor_grid_all_decodable():
    plans = []
    for K, L, T in product(range(1, 5), range(1, 5), range(1, 5)):
        for r in range(1, min(K, T) + 1):
            plans.append(build_gasp_r(K, L, T, r))
            if T >= 2:
                plans.append(build_gasp_rs(K, L, T, r, min(K, T)))
    for K, L, T in product(range(2, 5), range(2, 5), range(2, 5)):
        if K >= L >= T:
            try:
                plans.append(build_cat(K, L, T))
            except NoSolutionError:
                pass
        if T >= 2:
            plans.append(build_dog(K, L, T, 1, 1))
    for n in (2, 3):
        plans.append(build_qf_square(n))
        plans.append(build_qf_klt(n + 1, n))
        plans.append(build_qf_kt(n, 2, 1))
        plans.append(build_qf_kt_shift(n, 1, 1))
        plans.append(build_qf_additive(n, 1, 1))
    plans += [build_low_privacy(2, 2, 1), build_low_privacy(3, 3, 1),
              build_low_privacy(4, 4, 3), build_low_privacy(5, 5, 2),
              build_low_privacy(9, 8, 7)]
    assert len(plans) > 200
    for plan in plans:
        assert check_decodable(plan).ok, plan


def test_best_classical_plan():
    best = best_classical_plan(2, 2, 2)
    assert best.family == "cat_x"
    assert outer_sum(best).n_servers == 10
    assert outer_sum(best_classical_plan(3, 2, 2)).n_servers <= 14


def test_best_classical_plan_skips_a_cat_that_cannot_cover():
    with pytest.raises(NoSolutionError, match="covers 22 of 29 residues"):
        build_cat(3, 3, 3)
    best = best_classical_plan(3, 3, 3)
    assert (best.family, best.param("r"), best.table.n_servers) == ("gasp_r", 2, 22)


# One plan from every builder family.
EVERY_FAMILY = [
    build_gasp_r(2, 2, 3, 2), build_gasp_rs(2, 2, 2, 1, 1), build_dog(2, 2, 2, 1, 1),
    build_cat(2, 2, 2, x=3), build_qf_square(2), build_qf_power(2, 2, 3),
    build_qf_additive(2, 1, 1), build_qf_klt(3, 2), build_qf_kt(2, 3, 1),
    build_qf_kt_shift(2, 1, 1), build_low_privacy(4, 4, 3), build_low_privacy(9, 8, 7),
]


def outer_sum_oracle(plan, reduce=True):
    """The degree table from a pure-Python double loop; ``reduce=False`` drops the mod q.

    Every fact is worked out from the row tuples here, not read off ``outer_sum``'s pass.
    """
    q = plan.modulus_q if reduce else None
    if q:
        rows = tuple(tuple((a + b) % q for b in plan.beta) for a in plan.alpha)
    else:
        rows = tuple(tuple(a + b for b in plan.beta) for a in plan.alpha)
    info = tuple(rows[i][j] for i in plan.info_alpha for j in plan.info_beta)
    everything = frozenset().union(*rows)
    return dt.DegreeTable(sums=np.array(rows, dtype=np.int64), info=info,
                          interference=everything.difference(info),
                          exponents=tuple(sorted(everything)))


FACTS = ("sums", "info", "interference", "n_servers", "exponents")


def fact_mismatches(table, oracle):
    """Names of the facts, the sums included, on which two degree tables differ."""
    def read(t, name):
        return t.sums.tolist() if name == "sums" else getattr(t, name)
    return [name for name in FACTS if read(table, name) != read(oracle, name)]


# every family, a cat record with its own multiplier, and the largest sum int64 holds
DIFFERENTIAL_PLANS = EVERY_FAMILY + [
    parse_plan_record("cat_x x=1 y=3 kappa=0 lambda=0 3 2 2 | 0 3 6 9 10 | 0 1 12 2 | 0 1 2 | 0 1 | 13"),
    ExponentPlan(family="hand", K=1, L=1, T=1, alpha=(0, 2**62), beta=(0, 2**62 - 1),
                 info_alpha=(0,), info_beta=(0,)),
]


@pytest.mark.parametrize("plan", DIFFERENTIAL_PLANS, ids=lambda p: p.family)
def test_outer_sum_matches_the_python_loop(plan):
    table = outer_sum(plan)
    assert fact_mismatches(table, outer_sum_oracle(plan)) == []
    assert table == outer_sum_oracle(plan)
    assert all(type(v) is int for row in table.sums.tolist() for v in row)
    assert all(type(v) is int for v in (*table.info, *table.interference, *table.exponents))
    assert not table.sums.flags.writeable


@pytest.mark.parametrize("plan", DIFFERENTIAL_PLANS, ids=lambda p: p.family)
def test_check_decodable_equals_the_row_tuple_check(plan):
    """The flat-sum check gives the row-tuple report on the plan, and on the plan
    with a noise exponent repeating an information exponent on either side, where
    the repeated row or column makes its first information sum collide."""
    i, j = plan.info_alpha[-1], plan.info_beta[0]
    variants = (plan, dataclasses.replace(plan, alpha=plan.alpha + (plan.alpha[i],)),
                dataclasses.replace(plan, beta=plan.beta + (plan.beta[j],)))
    reports = [check_decodable(p) for p in variants]
    assert reports == [decodability_oracle.check(p) for p in variants]
    assert [r.violation for r in reports] == [None, (i, j), (plan.info_alpha[0], j)]


def test_outer_sum_oracle_without_the_modulus_misses_a_cat_table():
    # negative control: the cat plans' sums wrap mod q
    cat = build_cat(2, 2, 2, x=3)
    assert outer_sum(cat) != outer_sum_oracle(cat, reduce=False)
    assert max(outer_sum_oracle(cat, reduce=False).exponents) >= cat.modulus_q
    assert set(fact_mismatches(outer_sum(cat), outer_sum_oracle(cat, reduce=False))) == set(FACTS)


def test_a_dedup_that_drops_the_last_distinct_sum_fails_the_differential(monkeypatch):
    # negative control: a distinct-sum pass that loses the largest sum
    real = dt._sorted_distinct
    monkeypatch.setattr(dt, "_sorted_distinct", lambda sums: real(sums)[:-1])
    for plan in DIFFERENTIAL_PLANS:
        assert {"n_servers", "exponents"} <= set(
            fact_mismatches(outer_sum(plan), outer_sum_oracle(plan))), plan.family


def test_the_server_count_is_read_off_the_exponents():
    table = build_gasp_r(2, 2, 3, 2).table
    assert table.n_servers == len(table.exponents) == 13
    with pytest.raises(TypeError, match="n_servers"):
        dt.DegreeTable(sums=table.sums, info=table.info, interference=table.interference,
                       n_servers=13, exponents=table.exponents)
    with pytest.raises(AttributeError):
        table.n_servers = 12


@pytest.mark.parametrize("plan", EVERY_FAMILY, ids=lambda p: p.family)
def test_plan_carries_its_outer_sum(plan):
    assert plan.table == outer_sum(plan)
    assert parse_plan_record(plan_record(plan)).table == outer_sum(plan)


def test_replaced_plan_builds_its_own_table():
    plan = build_gasp_r(2, 2, 3, 2)
    swapped = dataclasses.replace(plan, info_alpha=(1, 0))
    assert swapped.table == outer_sum(swapped)
    assert swapped.table.info != plan.table.info


def test_plan_identity_ignores_its_table():
    plan = build_gasp_r(2, 2, 3, 2)
    twin = parse_plan_record(plan_record(plan))
    object.__setattr__(twin, "table", build_qf_square(2).table)
    assert twin == plan and hash(twin) == hash(plan)
    assert repr(twin) == repr(plan) and "table" not in repr(plan)


@pytest.mark.parametrize("side", ["alpha", "beta"])
def test_plan_refuses_a_negative_exponent(side):
    fields = dict(family="hand", K=1, L=1, T=1, alpha=(0, 1), beta=(0, 1),
                  info_alpha=(0,), info_beta=(0,))
    ExponentPlan(**fields)
    with pytest.raises(ValueError, match=rf"^{side} exponents must be non-negative, got -3$"):
        ExponentPlan(**{**fields, side: (0, -3)})


@pytest.mark.parametrize("side", ["alpha", "beta"])
def test_plan_names_the_first_bad_exponent_of_a_side(side):
    """The least exponent decides, but the message names the first offender."""
    fields = dict(family="hand", K=1, L=1, T=1, alpha=(0, 1), beta=(0, 1),
                  info_alpha=(0,), info_beta=(0,))
    with pytest.raises(ValueError, match=rf"^{side} exponents must be non-negative, got -1$"):
        ExponentPlan(**{**fields, side: (0, -1, -5)})
    with pytest.raises(ValueError, match=rf"^{side} exponents must be integers, got 0.5$"):
        ExponentPlan(**{**fields, side: (0, -1, 0.5, 2.5)})
    assert ExponentPlan(**{**fields, side: (np.int64(0), True, 2)}).table.n_servers == 4


@pytest.mark.parametrize("side", ["alpha", "beta"])
def test_plan_refuses_a_non_integer_exponent(side):
    """A fractional exponent is refused where the plan is built, naming its
    side, not by a bare TypeError from the run it would reach."""
    fields = dict(family="hand", K=1, L=1, T=1, alpha=(0, 1), beta=(0, 1),
                  info_alpha=(0,), info_beta=(0,))
    for bad in (1.5, 2.0, "1"):
        with pytest.raises(ValueError, match=rf"^{side} exponents must be integers, got {bad!r}$"):
            ExponentPlan(**{**fields, side: (0, bad)})
    # a plan record holds text, and its parser names the same side
    line = {"alpha": "hand - 1 1 1 | 0 1.5 | 0 1 | 0 | 0 | -",
            "beta": "hand - 1 1 1 | 0 1 | 0 1.5 | 0 | 0 | -"}[side]
    with pytest.raises(ValueError, match=f"^plan record field {side} must be an integer, got '1.5'$"):
        parse_plan_record(line)


@pytest.mark.parametrize("alpha, beta, side", [
    ((0, 2**63), (0, 1), "alpha exponent 9223372036854775808"),
    ((0, 1), (5, 2**63 - 1), "beta exponent 9223372036854775807"),
    ((0, 2**62), (0, 2**62), "alpha exponent 4611686018427387904"),
])
def test_plan_refuses_exponents_whose_sums_overflow_int64(alpha, beta, side):
    fields = dict(family="hand", K=1, L=1, T=1, info_alpha=(0,), info_beta=(0,))
    with pytest.raises(ValueError, match=f"^{side} makes a degree-table sum exceed 2"):
        ExponentPlan(alpha=alpha, beta=beta, **fields)
    # the largest sum that fits is kept exactly
    top = ExponentPlan(alpha=(0, 2**62), beta=(0, 2**62 - 1), **fields)
    assert top.table.sums.tolist()[1][1] == 2**63 - 1 and top.table == outer_sum_oracle(top)
    with pytest.raises(ValueError, match="^modulus_q must fit in int64, got 9223372036854775808$"):
        ExponentPlan(alpha=(0, 1), beta=(0, 1), modulus_q=2**63, **fields)
    # a cyclic modulus below 1 would send default_field's search for p = 1 mod q down forever
    for q in (0, -5):
        with pytest.raises(ValueError, match=f"^modulus_q must be >= 1, got {q}$"):
            ExponentPlan(alpha=(0, 1), beta=(0, 1), modulus_q=q, **fields)


@pytest.mark.parametrize("change, message", [
    (dict(info_alpha=(0,)), "info index sets must have sizes K and L"),
    (dict(info_beta=(2,)), "info index out of range"),
    (dict(alpha=(1, 1, 2)), "info exponents must be pairwise distinct"),
    (dict(K=0, info_alpha=()), "need K, L >= 1, got K=0"),
    (dict(L=0, info_beta=()), "need K, L >= 1, got L=0"),
    (dict(T=-1), "need T >= 0, got T=-1"),
])
def test_plan_refuses_bad_info_index_sets(change, message):
    fields = dict(family="hand", K=2, L=1, T=1, alpha=(0, 1, 2), beta=(0, 1),
                  info_alpha=(0, 1), info_beta=(0,))
    ExponentPlan(**fields)
    error = ParamOutOfRangeError if message.startswith("need") else ValueError
    with pytest.raises(error, match=f"^{message}$"):
        ExponentPlan(**{**fields, **change})


def test_plan_record_roundtrip():
    for plan in (build_gasp_r(2, 2, 3, 2), build_cat(2, 2, 2),
                 build_low_privacy(4, 4, 3), build_qf_square(2)):
        line = plan_record(plan)
        assert parse_plan_record(line) == plan
        assert " | " in line


GASP223_RECORD = "gasp_r r=2 2 2 3 | 0 1 4 5 6 | 0 2 4 5 6 | 0 1 | 0 1 | -"


@pytest.mark.parametrize("line, message", [
    # not IndexError, nor int()'s "invalid literal" naming no field
    (GASP223_RECORD.replace("r=2", "r"), "param 'r' must be key=value"),
    (GASP223_RECORD.replace("r=2", "r=two"), "field param r must be an integer, got 'two'"),
    (GASP223_RECORD.replace(" 3 |", " x |"), "field T must be an integer, got 'x'"),
    (GASP223_RECORD.replace("| 0 1 4", "| 0 1.5 4"), "field alpha must be an integer, got '1.5'"),
    (GASP223_RECORD.replace("| 0 2 4", "| 0 y 4"), "field beta must be an integer, got 'y'"),
    (GASP223_RECORD.replace("| 0 1 | -", "| 0 z | -"), "field info_beta must be an integer"),
    (GASP223_RECORD.replace("| -", "| q"), "field modulus_q must be an integer, got 'q'"),
    (GASP223_RECORD.replace("| 0 2 4", "| 0 -2 4"), "beta exponents must be non-negative, got -2"),
    (GASP223_RECORD.replace("| 0 1 | 0 1 |", "| 0 | 0 1 |"), "info index sets must have sizes K and L"),
    (GASP223_RECORD.replace("| 0 1 | -", "| 0 5 | -"), "info index out of range"),
    (GASP223_RECORD.replace("| 0 1 4", "| 0 0 4"), "info exponents must be pairwise distinct"),
    (GASP223_RECORD + " | 7", "expected 6 |-separated fields, got 7"),
    # not ZeroDivisionError in ProtocolConfig.block_dims, nor math.comb's error in the audit
    ("x - 0 2 1 | 2 4 | 10 5 7 8 |  | 0 1 | -", "need K, L >= 1, got K=0"),
    (GASP223_RECORD.replace("r=2 2 2 3", "r=2 2 2 -1"), "need T >= 0, got T=-1"),
    (GASP223_RECORD.replace("r=2 2 2 3", "2 2"), "head must be 'family params K L T'"),
    (GASP223_RECORD.replace("gasp_r r=2 2 2 3", ""), "head must be 'family params K L T', got ''"),
])
def test_malformed_plan_record_names_its_field(line, message):
    assert parse_plan_record(GASP223_RECORD) == build_gasp_r(2, 2, 3, 2)
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_plan_record(line)
