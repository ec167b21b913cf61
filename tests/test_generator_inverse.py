"""The frame's generator inverse against plain elimination.

Every frame inverts its generator, once, into ``frame.inverse``, and
keeps the plan and the generator, its power table's columns at the table
exponents, on the frame too.  ``decode_classical`` multiplies the inverse's info-sum rows
with the responses, and ``quantum_transfer`` reads the transfer matrix
off the generator and its inverse, with no elimination.  Both are
checked against the elimination oracle in ``elimination_oracle.py``:
solving the generator system, and inverting the 2N x 2N stack [G H].
The checks run on every feasible builder plan with N <= 60 of a small
grid, over each plan's default field and over the floor 10007.
"""

import collections
import copy
import dataclasses
import functools
import re
from itertools import product

import numpy as np
import pytest

import elimination_oracle as oracle
from pdmm import protocol
from pdmm.degree_tables import (
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
)
from pdmm.feasibility import check_feasible
from pdmm.gf import FieldContext
from pdmm.grs import ShapeMismatchError
from pdmm.nsumbox import TransferMatrix
from pdmm.protocol import (
    EvalFrame,
    ProtocolConfig,
    decode_classical,
    quantum_transfer,
    run_protocol,
    sample_frame,
)

FLOORS = (None, 10_007)


def builder_plans():
    """One plan per distinct (alpha, beta, info) among the feasible plans with
    N <= 60: K, L, T, r <= 4 and, for gasp_rs and dog_rs, r, s <= 2; qf_klt
    and the other qf builders with every argument <= 4, and qf_square(2)."""
    small = range(1, 5)
    calls = [(build_qf_klt, args) for args in product(small, repeat=2)]
    calls.append((build_qf_square, (2,)))
    for K, L, T in product(small, repeat=3):
        calls += [(build_cat, (K, L, T)), (build_low_privacy, (K, L, T))]
        calls += [(build_gasp_r, (K, L, T, r)) for r in small]
        calls += [(build, (K, L, T, r, s)) for build in (build_gasp_rs, build_dog)
                  for r, s in product((1, 2), repeat=2)]
    for args in product(small, repeat=3):
        calls += [(build, args) for build in (build_qf_power, build_qf_additive,
                                              build_qf_kt, build_qf_kt_shift)]
    plans = {}
    for build, args in calls:
        try:
            plan = build(*args)
        except ValueError:
            continue
        if plan.table.n_servers <= 60 and check_feasible(plan).feasible:
            plans.setdefault((plan.alpha, plan.beta, plan.info_alpha, plan.info_beta), plan)
    return list(plans.values())


@functools.cache
def sampled():
    """(plan, quantum frame) for every grid plan and floor.

    The audit is not under test here, so its cap of 1 subset keeps
    sampling to about one attempt per frame.
    """
    cases = []
    for plan in builder_plans():
        for floor in FLOORS:
            cfg = ProtocolConfig(plan=plan, mode="quantum", seed=1, prime=floor, audit_cap=1)
            frame, _ = sample_frame(cfg, np.random.default_rng(cfg.seed))
            cases.append((plan, frame))
    return cases


def test_sampled_frames_carry_their_generator_inverse():
    cases = sampled()
    assert len({plan.family for plan, _ in cases}) == 12
    assert any(plan.modulus_q for plan, _ in cases)  # a cyclic frame, cat_x
    assert 55 <= max(frame.n for _, frame in cases) <= 60
    for plan, frame in cases:
        ctx = frame.ctx
        gen = ctx.vandermonde(frame.points, plan.table.exponents)
        assert frame.plan is plan and np.array_equal(frame.generator, gen), plan
        assert np.array_equal(ctx.matmul(frame.inverse, gen), ctx.identity(frame.n)), plan


def classical_mismatches(alter=lambda frame: frame):
    """Grid cases where ``decode_classical`` on ``alter(frame)`` differs from
    solving the generator system."""
    rng = np.random.default_rng(0)
    bad = []
    for plan, frame in sampled():
        ctx = frame.ctx
        exps = plan.table.exponents
        responses = rng.integers(0, ctx.p, size=(frame.n, 1, 2))
        coeffs = oracle.solve(ctx, ctx.vandermonde(frame.points, exps),
                              responses.reshape(frame.n, -1))
        want = protocol._assemble(plan, coeffs[[exps.index(e) for e in plan.table.info]], (1, 2))
        if not np.array_equal(decode_classical(alter(frame), responses), want):
            bad.append((plan, frame.ctx.p))
    return bad


def test_classical_decode_matches_solving_the_generator_system():
    assert classical_mismatches() == []


def with_inverse(frame, inverse):
    """A copy of ``frame`` carrying ``inverse``, which a frame never takes from its caller."""
    twin = copy.copy(frame)
    object.__setattr__(twin, "inverse", inverse)
    return twin


def test_differential_check_catches_an_inverse_read_transposed():
    assert classical_mismatches(lambda frame: with_inverse(frame, frame.inverse.T))


def transfer_mismatches(alter=lambda frame, m: m):
    """Grid cases where ``quantum_transfer``'s m, passed through ``alter``,
    differs from eliminating its own [g h]."""
    bad = []
    for plan, frame in sampled():
        tm = quantum_transfer(frame)
        m = alter(frame, tm.m)
        want = oracle.transfer(frame.ctx, tm.g, tm.h)
        if not (m.dtype == want.dtype and np.array_equal(m, want)):
            bad.append((plan, frame.ctx.p))
    return bad


def test_structured_transfer_matches_eliminating_the_stack():
    assert transfer_mismatches() == []


def without_dv_inverse(frame, m):
    """m with D_v^-1 dropped: its right half, the rows of Q^-1 D_v^-1, times D_v."""
    ctx = frame.ctx
    wrong = m.copy()
    wrong[:, frame.n:] = wrong[:, frame.n:] * ctx.asarray(frame.v) % ctx.p
    return wrong


def test_differential_check_catches_a_transfer_without_dv_inverse():
    assert transfer_mismatches(without_dv_inverse)


def test_transfer_laws_catch_a_transfer_without_dv_inverse():
    _, frame = sampled()[0]
    tm = quantum_transfer(frame)
    with pytest.raises(AssertionError, match="transfer law m g = 0 failed"):
        TransferMatrix(frame.ctx, without_dv_inverse(frame, tm.m), tm.g, tm.h)


def test_transfer_laws_catch_any_one_corrupt_entry_of_m():
    _, frame = sampled()[0]
    tm = quantum_transfer(frame)
    for index in np.ndindex(tm.m.shape):
        m = tm.m.copy()
        m[index] = (m[index] + 1) % frame.ctx.p
        with pytest.raises(AssertionError, match="^transfer law m [gh] "):
            TransferMatrix(frame.ctx, m, tm.g, tm.h)


def test_frame_without_a_plan_fails_at_construction():
    _, frame = sampled()[0]
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'plan'"):
        EvalFrame(frame.ctx, frame.points, shift=frame.shift)
    with pytest.raises(TypeError, match="^plan must be an ExponentPlan, got None$"):
        dataclasses.replace(frame, plan=None)
    # the frame derives its generator, inverse and v; none is an argument
    for name in ("generator", "inverse", "v"):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            EvalFrame(frame.ctx, frame.points, frame.plan, frame.shift, **{name: None})


def test_frame_with_mismatched_points_fails_at_construction():
    _, frame = sampled()[0]
    n, p = frame.n, frame.ctx.p
    # plan, generator and inverse play no part in equality or repr
    twin = with_inverse(frame, frame.inverse.T)
    assert twin == frame and repr(twin) == repr(frame)
    spare = next(x for x in range(1, p) if x not in frame.points)
    for points in (frame.points[:-1], (*frame.points, spare)):
        with pytest.raises(ShapeMismatchError, match=re.escape(
                f"expected {n} points for {n} servers, got {len(points)} points")):
            dataclasses.replace(frame, points=points)


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("plan, prime, seed, attempts", [
    (build_low_privacy(3, 3, 2), None, 1, 2),
    (build_dog(2, 2, 2, 1, 1), 60, 0, 7),
])
def test_a_run_inverts_once_per_attempt_and_builds_one_generator(
        monkeypatch, mode, plan, prime, seed, attempts):
    """Every attempt builds one power table, whose columns at the table
    exponents are its generator, and inverts that generator by interpolation;
    after sampling, a run builds no power matrix, since ``encode_and_multiply``
    gathers both instances' powers from the accepted frame's table."""
    calls = collections.Counter()
    for name in ("vandermonde", "_vandermonde_inverse"):
        def counted(self, *args, _name=name, _original=getattr(FieldContext, name)):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(FieldContext, name, counted)
    t = run_protocol(ProtocolConfig(plan=plan, mode=mode, seed=seed, prime=prime))
    assert t.decode_ok and calls["_vandermonde_inverse"] == attempts
    assert calls["vandermonde"] == attempts
