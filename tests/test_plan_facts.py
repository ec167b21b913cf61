"""Facts a run reads off its plan, the one draw per instance, and integer parameters.

A plan keeps its noise sides, worked out on first read.  Every builder
plan with N <= 60 (and a few hand plans that fail ``check_decodable``)
must give the kept facts that a fresh computation gives, and reading
them must not change the plan's equality, hash or repr.  Decodability
is checked per run, off the flat sums, and must give the whole report
(ok, reason, violation) that the row-tuple check gives on every one of
those plans.  ``run_protocol`` cuts each instance's inputs and noise from one
``rng.integers`` call, which must give the values and leave the
generator state that one call per array gives.  Family parameters are
read with ``operator.index``: numpy integers pass as ints, and a bool,
float or string is refused with a ``TypeError`` that names the field.
Each check has a negative control that must fail it.
"""

import dataclasses
import functools
import inspect
import json
from itertools import product

import numpy as np
import pytest

import decodability_oracle
from pdmm import degree_tables, feasibility, protocol
from pdmm.degree_tables import (
    ExponentPlan,
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
    gasp_server_formula,
    optimal_gasp_r,
)
from pdmm.feasibility import feasibility_rows, min_feasible_t, t_hat_estimate

# Undecodable by hand: an information sum collides (3 + 0 = 1 + 2), a
# side has fewer than T noise exponents, a repeated noise exponent, and
# two information sums collide off the diagonal, with the info indices
# after the noise (alpha[1] + beta[2] = alpha[2] + beta[1] = 3).
HAND_PLANS = [
    ExponentPlan(family="hand", K=1, L=1, T=1, alpha=(3, 1), beta=(0, 2),
                 info_alpha=(0,), info_beta=(0,)),
    ExponentPlan(family="hand", K=1, L=1, T=2, alpha=(0, 1, 2), beta=(0, 5),
                 info_alpha=(0,), info_beta=(0,)),
    ExponentPlan(family="hand", K=1, L=1, T=1, alpha=(0, 7, 7), beta=(0, 9),
                 info_alpha=(0,), info_beta=(0,)),
    ExponentPlan(family="hand", K=2, L=2, T=1, alpha=(5, 0, 1), beta=(0, 2, 3),
                 info_alpha=(1, 2), info_beta=(1, 2)),
]

FIELDS = list(inspect.signature(ExponentPlan).parameters)


def rebuilt(plan):
    """A new plan from ``plan``'s fields, so nothing it has worked out is kept."""
    return ExponentPlan(**{name: getattr(plan, name) for name in FIELDS})


def builder_plans():
    """Every builder's plans with N <= 60 for K, L, T, r <= 4 (r, s <= 2 for
    gasp_rs and dog_rs, every argument <= 4 for the qf builders), then the hand plans."""
    small = range(1, 5)
    calls = [(build_qf_klt, args) for args in product(small, repeat=2)]
    calls.append((build_qf_square, (2,)))
    for K, L, T in product(small, repeat=3):
        calls += [(build_cat, (K, L, T)), (build_low_privacy, (K, L, T))]
        calls += [(build_gasp_r, (K, L, T, r)) for r in small]
        calls += [(build, (K, L, T, r, s)) for build in (build_gasp_rs, build_dog)
                  for r, s in product((1, 2), repeat=2)]
    for args in product(small, repeat=3):
        calls += [(build, args) for build in (build_qf_power, build_qf_additive, build_qf_kt,
                                              build_qf_kt_shift)]
    plans = []
    for build, args in calls:
        try:
            plan = build(*args)
        except ValueError:
            continue
        if plan.table.n_servers <= 60:
            plans.append(plan)
    return plans + [rebuilt(plan) for plan in HAND_PLANS]


def kept_facts(plan):
    return plan.noise_alpha, plan.noise_beta


def fresh_facts(plan):
    """The same facts from the plan's fields, nothing kept."""
    return tuple(tuple(e for i, e in enumerate(vec) if i not in info)
                 for vec, info in ((plan.alpha, plan.info_alpha), (plan.beta, plan.info_beta)))


def fact_mismatches(plans):
    return [plan for plan in plans if kept_facts(plan) != fresh_facts(plan)]


def test_kept_facts_equal_fresh_ones_on_every_builder_plan():
    plans = builder_plans()
    assert len(plans) >= 300 and 55 <= max(p.table.n_servers for p in plans) <= 60
    for plan in plans:
        twin = rebuilt(plan)
        shown, hashed = repr(plan), hash(plan)
        kept_facts(plan)
        assert {"noise_alpha", "noise_beta"} <= vars(plan).keys()
        assert plan == twin and hash(plan) == hashed == hash(twin)
        assert repr(plan) == shown == repr(twin) and plan.table == twin.table
    assert fact_mismatches(plans) == []


def test_kept_facts_are_the_same_objects_on_every_read():
    plan = build_qf_klt(5, 3)

    def read():
        return plan.noise_alpha, plan.noise_beta

    assert all(a is b for a, b in zip(read(), read(), strict=True))


@pytest.mark.parametrize("name, wrong", [
    ("noise_alpha", lambda plan: plan.alpha[len(plan.info_alpha):]),
    ("noise_beta", lambda plan: plan.beta[len(plan.info_beta):]),
])
def test_the_comparison_catches_a_wrong_kept_fact(monkeypatch, name, wrong):
    monkeypatch.setattr(ExponentPlan, name, functools.cached_property(wrong), raising=True)
    getattr(ExponentPlan, name).__set_name__(ExponentPlan, name)
    assert fact_mismatches(builder_plans())


def report_mismatches(check):
    """Builder plans on which ``check`` and the row-tuple check give different reports."""
    return [plan for plan in builder_plans() if check(plan) != decodability_oracle.check(plan)]


def test_check_decodable_equals_the_row_tuple_check_on_every_builder_plan():
    plans = builder_plans()
    reports = [check_decodable(plan) for plan in plans]
    assert {report.ok for report in reports} == {False, True}
    assert (1, 2) in {report.violation for report in reports}
    assert report_mismatches(check_decodable) == []


def test_the_report_comparison_catches_a_swapped_violation():
    """A violation reported as (j, i) instead of (i, j) differs on some collision."""
    def swapped(plan):
        report = check_decodable(plan)
        return dataclasses.replace(report, violation=report.violation[::-1]) \
            if report.violation else report

    assert report_mismatches(swapped)


# -- one draw per instance ---------------------------------------------------

PRIMES = (3, 11, 37, 65537, 2_000_000_011, 2**31 - 1)
SHAPES = [
    ((5, 2), (2, 3), (3, 5, 2), (3, 2, 3)),
    ((35, 1), (1, 3), (3, 1, 1), (3, 1, 1)),
    ((0, 4), (4, 0), (0, 2, 4), (2, 4, 0)),  # empty parts
    ((3, 1), (1, 2), (0, 1, 1), (0, 1, 2)),  # no noise
]


def draw_mismatches(draw, p):
    """(seed, shapes) where ``draw`` differs from one ``rng.integers`` call per shape,
    in values or shapes, in the generator state after it, or in the next draw."""
    bad = []
    for seed, shapes in product(range(30), SHAPES):
        one, each = np.random.default_rng(seed), np.random.default_rng(seed)
        got = draw(one, p, *shapes)
        want = [each.integers(0, p, size=shape, dtype=np.int64) for shape in shapes]
        same = all(g.dtype == np.int64 and g.shape == w.shape and np.array_equal(g, w)
                   for g, w in zip(got, want, strict=True))
        same = same and one.bit_generator.state == each.bit_generator.state
        if not (same and np.array_equal(one.integers(0, p, 9), each.integers(0, p, 9))):
            bad.append((seed, shapes))
    return bad


@pytest.mark.parametrize("p", PRIMES)
def test_one_draw_equals_one_call_per_array(p):
    assert draw_mismatches(protocol._draw, p) == []


@pytest.mark.parametrize("p", PRIMES)
def test_the_comparison_catches_two_parts_drawn_in_swapped_order(p):
    def swapped(rng, p, first, second, *rest):
        b, a, *others = protocol._draw(rng, p, second, first, *rest)
        return [a, b, *others]

    bad = draw_mismatches(swapped, p)
    assert {shapes for _, shapes in bad} == set(SHAPES[:2]) | {SHAPES[3]}


# -- integer parameters ------------------------------------------------------

CALLS = [
    (build_gasp_r, (2, 2, 3, 1)), (build_gasp_rs, (2, 2, 3, 1, 2)), (build_dog, (2, 2, 2, 1, 1)),
    (build_cat, (2, 2, 2, 1)), (build_qf_square, (2,)), (build_qf_power, (2, 2, 2)),
    (build_qf_additive, (2, 1, 1)), (build_qf_klt, (3, 2)), (build_qf_kt, (2, 2, 1)),
    (build_qf_kt_shift, (2, 1, 1)), (build_low_privacy, (3, 3, 2)),
    (gasp_server_formula, (2, 2, 3, 1)), (optimal_gasp_r, (2, 2, 3)),
    (best_classical_plan, (2, 2, 2)), (min_feasible_t, (3, 2, 64)), (t_hat_estimate, (3, 2)),
]
BAD = {"float": float, "string": str, "bool": lambda v: True}


def refusal(call, args, at, bad):
    """Whether ``call`` with argument ``at`` replaced by ``bad(value)`` raises the
    ``TypeError`` that names that parameter."""
    name = list(inspect.signature(call).parameters)[at]
    value = bad(args[at])
    try:
        call(*args[:at], value, *args[at + 1:])
    except TypeError as error:
        return str(error) == f"{name} must be an integer, got {name}={value!r}"
    return False


@pytest.mark.parametrize("kind", sorted(BAD))
@pytest.mark.parametrize("call, args", CALLS, ids=lambda c: getattr(c, "__name__", ""))
def test_a_non_integer_parameter_is_refused_naming_it(call, args, kind):
    assert all(refusal(call, args, at, BAD[kind]) for at in range(len(args)))


@pytest.mark.parametrize("call, args", CALLS, ids=lambda c: getattr(c, "__name__", ""))
def test_numpy_integer_parameters_pass_as_ints(call, args):
    want = call(*args)
    got = call(*map(np.int64, args))
    assert got == want and type(got) is type(want)
    if isinstance(got, ExponentPlan):
        assert all(type(v) is int for v in (got.K, got.L, got.T, *dict(got.params).values()))


def test_the_refusal_check_catches_a_dropped_integer_read(monkeypatch):
    """Without the ``operator.index`` read a float reaches the bitmask, whose
    ``TypeError`` names no field, or is accepted."""
    for module in (degree_tables, feasibility):
        monkeypatch.setattr(module, "_index", lambda **values: list(values.values()))
    for call, args in [(min_feasible_t, (3, 2, 64)), (gasp_server_formula, (2, 2, 3, 1)),
                       (build_gasp_r, (2, 2, 3, 1))]:
        assert not all(refusal(call, args, at, float) for at in range(len(args)))
    # t_hat_estimate answers for bools and floats, and a string reaches its arithmetic
    for args in [(True, True), (2.5, 2.5), ("3", "2")]:
        assert not refusal(t_hat_estimate, args, 0, lambda value: value)


def test_feasibility_rows_read_k_and_l_as_ints():
    rows = feasibility_rows([np.int64(3)], [np.int64(2), np.int64(3)])
    assert rows == feasibility_rows([3], [2, 3])
    assert json.loads(json.dumps(rows)) == rows
    for row in rows:
        assert [type(row[key]) for key in ("K", "L", "T_min_bruteforce", "T_hat", "delta")] \
            == [int, int, int, float, int]


@pytest.mark.parametrize("k_values, l_values, name, value", [
    ([2.0], None, "K", 2.0), ([3], ["2"], "L", "2"), ([True], None, "K", True),
    ([3], [np.float64(2)], "L", np.float64(2)),
])
def test_feasibility_rows_refuse_a_non_integer_k_or_l(k_values, l_values, name, value):
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got {name}="):
        feasibility_rows(k_values, l_values)


ONE_BY_ONE = dict(family="hand", K=1, L=1, T=1, alpha=(0, 1), beta=(0, 2),
                  info_alpha=(0,), info_beta=(0,))


@pytest.mark.parametrize("field, value", [
    ("K", 1.5), ("K", True), ("L", "1"), ("T", 1.5), ("T", np.float64(1)),
])
def test_exponent_plan_refuses_non_integer_k_l_t(field, value):
    fields = ONE_BY_ONE
    with pytest.raises(TypeError, match=f"^{field} must be an integer, got {field}="):
        ExponentPlan(**{**fields, field: value})
    numpy = ExponentPlan(**{**fields, field: np.int64(fields[field])})
    assert numpy == ExponentPlan(**fields) and type(getattr(numpy, field)) is int


@pytest.mark.parametrize("field, index", [("info_alpha", (0.0,)), ("info_beta", ("0",))])
def test_exponent_plan_refuses_non_integer_info_indices(field, index):
    fields = ONE_BY_ONE
    with pytest.raises(TypeError, match=f"^{field} indices must be integers, got "):
        ExponentPlan(**{**fields, field: index})
    assert ExponentPlan(**{**fields, field: (np.int64(0),)}) == ExponentPlan(**fields)
