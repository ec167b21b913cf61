"""A frame's point algebra, derived once, against the computations it replaces.

``EvalFrame`` builds one power table per frame and reads everything else
off it and off its generator inverse: the generator and the encoder's
powers are columns of the table, and with u = (P'(x) x^N x^(2s))^-1, the
inverse's one Fermat pass, the dual multipliers are v = (-1)^(N-1) u x^N
and v^-1 = (-1)^(N-1) P'(x) x^(2s), with no second inversion.  These tests
check v against ``shifted_dual_multipliers``, v^-1 against v and against
a Fermat inversion of it, and ``frame.powers`` against
``FieldContext.vandermonde``, with negative controls that drop the sign
and the x^(2s) factor and misorder the column map; check that
``dataclasses.replace`` re-derives the frame; and pin one power table per
``sample_frame`` candidate.
"""

import collections
import copy
import dataclasses
import functools
import re

import numpy as np
import pytest

import lagrange_oracle
from pdmm.degree_tables import ExponentPlan, build_dog
from pdmm.gf import FieldContext, _node_products
from pdmm.grs import shifted_dual_multipliers
from pdmm.protocol import EvalFrame, ProtocolConfig, ResampleExhaustedError, sample_frame
from test_generator_inverse import sampled
from test_lagrange_inverse import gapped_plans

SHIFTS = (0, 1, 3)


def hand_plan(n):
    """A plan with table exponents 0, ..., n - 1: alpha (0, 1), beta 0..n-2."""
    return ExponentPlan(family="hand", K=1, L=1, T=1, alpha=(0, 1), beta=tuple(range(n - 1)),
                        info_alpha=(0,), info_beta=(0,))


@functools.cache
def hand_frames():
    """Quantum frames on seeded points for N = 4..7 and shifts 0, 1, 3, over F_13 and F_10007."""
    frames = []
    for ctx in (FieldContext(13), FieldContext(10_007)):
        rng = np.random.default_rng(ctx.p)
        for n in range(4, 8):
            points = (rng.choice(ctx.p - 1, size=n, replace=False) + 1).tolist()
            frames += [EvalFrame(ctx, points, hand_plan(n), s) for s in SHIFTS]
    return tuple(frames)


@functools.cache
def quantum_frames():
    """Hand frames and the seeded frames of every quantum-feasible builder plan with N <= 40."""
    return hand_frames() + tuple(frame for _, frame in sampled() if frame.n <= 40)


def dual_multipliers(frame):
    """The frame's v recomputed by ``shifted_dual_multipliers``, from its own node products."""
    ones = [1] * frame.n
    return tuple(shifted_dual_multipliers(frame.ctx, frame.points, ones, frame.shift,
                                          frame.shift).tolist())


def dual_mismatches(derive=lambda frame: frame.v):
    """(N, p, shift) of every quantum frame whose ``derive(frame)`` differs from
    ``shifted_dual_multipliers``."""
    return [(frame.n, frame.ctx.p, frame.shift) for frame in quantum_frames()
            if derive(frame) != dual_multipliers(frame)]


def unsigned_v(frame):
    """v without the (-1)^(N-1) sign: w_i x_i^(-2s), from the oracle's Lagrange weights."""
    ctx = frame.ctx
    _, weights = lagrange_oracle.vandermonde_inverse(ctx, ctx.asarray(frame.points),
                                                     frame.plan.table.exponents)
    x_shift = ctx.vandermonde(frame.points, [-2 * frame.shift])[:, 0]
    return tuple((weights * x_shift % ctx.p).tolist())


def test_grid_covers_odd_and_even_n_and_every_shift():
    frames = quantum_frames()
    hands = hand_frames()
    assert {(f.n % 2, f.shift) for f in hands} == {(r, s) for r in (0, 1) for s in SHIFTS}
    sampled_frames = frames[len(hands):]
    assert len(sampled_frames) >= 100
    assert {f.n % 2 for f in sampled_frames} == {0, 1}
    assert {f.shift > 0 for f in sampled_frames} == {False, True}
    assert any(f.plan.modulus_q for f in sampled_frames)


def test_v_from_lagrange_weights_matches_shifted_dual_multipliers():
    assert dual_mismatches() == []


def test_differential_check_catches_v_without_its_sign():
    even = [(f.n, f.ctx.p, f.shift) for f in quantum_frames() if f.n % 2 == 0]
    assert even and dual_mismatches(unsigned_v) == even


def v_inverse_mismatches(frames):
    """(N, p, shift) of every frame whose v^-1 does not invert v, or differs from
    inverting v by Fermat."""
    bad = []
    for frame in frames:
        ctx, v_inv = frame.ctx, frame._v_inv
        v = ctx.asarray(frame.v)
        if not (v_inv.dtype == np.int64 and np.all(v * v_inv % ctx.p == 1)
                and np.array_equal(v_inv, ctx._inverse_all(v))):
            bad.append((frame.n, frame.ctx.p, frame.shift))
    return bad


def test_v_inverse_from_node_products_inverts_v():
    assert v_inverse_mismatches(quantum_frames()) == []


def shifted_frames():
    """(N, p, shift) of every quantum frame with some x_i^(2s) other than 1."""
    return [(f.n, f.ctx.p, f.shift) for f in quantum_frames()
            if np.any(f.ctx.vandermonde(f.points, [2 * f.shift]) != 1)]


def test_differential_check_catches_v_inverse_without_its_power():
    """Node products alone, without x^(2s), invert v only where every x^(2s) is 1."""
    frames = [copy.copy(frame) for frame in quantum_frames()]
    for frame in frames:
        object.__setattr__(frame, "_v_inv", _node_products(frame.ctx.asarray(frame.points),
                                                           frame.ctx.p))
    shifted = shifted_frames()
    assert len(shifted) >= 400 and v_inverse_mismatches(frames) == shifted


def test_differential_check_catches_duals_without_the_shift_power(monkeypatch):
    """Without the x^(2s) column, u = (P'(x) x^N)^-1 gives the unshifted duals:
    v and v^-1 still invert each other, so only the check of v against
    ``shifted_dual_multipliers`` sees it, on exactly the shifted frames."""
    real = EvalFrame.powers

    def no_shift_column(frame, exponents):
        if frame.shift and list(exponents) == [2 * frame.shift]:
            return np.ones((frame.n, 1), dtype=np.int64)
        return real(frame, exponents)

    monkeypatch.setattr(EvalFrame, "powers", no_shift_column)
    assert v_inverse_mismatches([dataclasses.replace(frame) for frame in quantum_frames()]) == []
    assert dual_mismatches(lambda frame: dataclasses.replace(frame).v) == shifted_frames()


def power_mismatches(frames):
    """Frames whose power table gives other columns than ``vandermonde``: at
    the table exponents, at alpha and beta, at the degrees 0, ..., N, and
    at 2 shift for quantum frames."""
    bad = []
    for frame in frames:
        plan, ctx = frame.plan, frame.ctx
        groups = [plan.table.exponents, plan.alpha[::-1], plan.beta, range(frame.n + 1)]
        if frame.shift is not None:
            groups.append([2 * frame.shift])
        wants = [ctx.vandermonde(frame.points, exps) for exps in groups]
        if not (all(got.dtype == want.dtype and np.array_equal(got, want)
                    for got, want in zip(map(frame.powers, groups), wants))
                and np.array_equal(frame.generator, wants[0])):
            bad.append((plan, ctx.p))
    return bad


@functools.cache
def gapped_frames():
    """A classical frame on seeded points for every gapped exponent set with N <= 60,
    redrawn while its generator is singular."""
    frames = []
    for exps, plan in gapped_plans().items():
        if len(exps) > 60:
            continue
        cfg = ProtocolConfig(plan=plan, seed=len(exps), audit_cap=1)
        frames.append(sample_frame(cfg, np.random.default_rng(cfg.seed))[0])
    return frames


def test_powers_match_vandermonde_on_every_builder_plan():
    frames = [frame for _, frame in sampled()] + gapped_frames()
    assert 55 <= max(f.n for f in frames) <= 60 and len(frames) >= 500
    assert power_mismatches(frames) == []


def test_differential_check_catches_a_misordered_column_map():
    """A column map rotated by one reads each exponent's column as the next one's."""
    frames = [copy.copy(frame) for _, frame in sampled()] + \
        [copy.copy(frame) for frame in gapped_frames()]
    for frame in frames:
        width = len(frame._column)
        object.__setattr__(frame, "_column",
                           {e: (j + 1) % width for e, j in frame._column.items()})
    assert frames and len(power_mismatches(frames)) == len(frames)


def test_replacing_the_points_rederives_the_frame():
    """Generator, inverse and v belong to the frame's current points."""
    plan, frame = next((plan, frame) for plan, frame in sampled()
                       if frame.ctx.p > 10_000 and frame.shift and frame.n >= 5)
    cfg = ProtocolConfig(plan=plan, mode="quantum", seed=2, prime=frame.ctx.p, audit_cap=1)
    points = sample_frame(cfg, np.random.default_rng(cfg.seed))[0].points
    assert set(points) != set(frame.points)
    moved = dataclasses.replace(frame, points=points)
    ctx = moved.ctx
    generator = ctx.vandermonde(points, plan.table.exponents)
    assert np.array_equal(moved.generator, generator)
    assert np.array_equal(ctx.matmul(moved.inverse, generator), ctx.identity(moved.n))
    assert moved.v == dual_multipliers(moved) != frame.v


def count_vandermonde(monkeypatch, run):
    """``FieldContext.vandermonde`` calls made while ``run()`` runs."""
    calls = collections.Counter()
    real = FieldContext.vandermonde

    def counted(self, *args):
        calls["vandermonde"] += 1
        return real(self, *args)

    monkeypatch.setattr(FieldContext, "vandermonde", counted)
    run()
    return calls["vandermonde"]


def test_sample_frame_builds_one_power_table_per_candidate(monkeypatch):
    """The exhausted dog_rs(2,2,2,1,1) run tries 64 candidates, one of them
    rank-deficient, and a run accepted at its first candidate builds one table."""
    plan = build_dog(2, 2, 2, 1, 1)

    def exhausted():
        cfg = ProtocolConfig(plan=plan, prime=60, seed=22)
        with pytest.raises(ResampleExhaustedError, match=re.escape(
                "(rejections: rank-deficient generator 1, failed privacy audit 63)")):
            sample_frame(cfg, np.random.default_rng(cfg.seed))

    assert count_vandermonde(monkeypatch, exhausted) == 64
    cfg = ProtocolConfig(plan=plan)
    first = count_vandermonde(monkeypatch, lambda: sample_frame(cfg, np.random.default_rng(0)))
    assert first == 1
