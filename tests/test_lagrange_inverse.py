"""The interpolation inverse of a frame's generator against elimination.

``sample_frame`` inverts every candidate's generator with
``FieldContext._vandermonde_inverse``: Lagrange interpolation, plus a
g x g correction when g exponents below the top one are missing.  It must
agree entry for entry with Gauss-Jordan elimination of the generator
(``mat_inverse``), and raise ``SingularMatrixError`` on exactly the
singular generators.

Plans whose table exponents are exactly 0, 1, ..., N - 1 (plain
Vandermonde generators): every such plan of the feasible builder grid,
the cyclic cat frames and qf_square(3) (N = 179), over each plan's
default field and over the floor 10007.  Their negative controls corrupt
the node products the weights are inverted from.

Plans with gaps: every distinct exponent set of the gasp_r, gasp_rs,
dog_rs and lp plans with K, L, T <= 5 (r, s <= 2 for gasp_rs and dog_rs)
and N <= 80, on seeded draws over each plan's default field, where some
generators are singular, and over 2000000011.  Their negative controls
leave out the gap correction and move one gap up by one.
"""

import functools
from itertools import product

import numpy as np
import pytest

from pdmm import gf
from pdmm.degree_tables import (
    build_cat,
    build_dog,
    build_gasp_r,
    build_gasp_rs,
    build_low_privacy,
    build_qf_square,
)
from pdmm.gf import FieldContext, SingularMatrixError
from pdmm.protocol import ProtocolConfig, default_field, sample_frame
from test_generator_inverse import FLOORS, builder_plans


def is_vandermonde(plan):
    return plan.table.exponents == tuple(range(plan.table.n_servers))


def cat_plans():
    plans = []
    for args in product(range(2, 7), repeat=3):
        try:
            plans.append(build_cat(*args))
        except ValueError:
            continue
    return plans


@functools.cache
def frames():
    """Classical frames of every plan under test.  The audit is not under
    test here, so its cap of 1 subset keeps sampling to about one attempt."""
    plans = [p for p in builder_plans() if is_vandermonde(p)]
    plans += cat_plans() + [build_qf_square(3)]
    out = []
    for plan in plans:
        for floor in FLOORS:
            cfg = ProtocolConfig(plan=plan, seed=1, prime=floor, audit_cap=1)
            out.append(sample_frame(cfg, np.random.default_rng(cfg.seed))[0])
    return out


def lagrange_mismatches():
    """Frames whose Lagrange inverse differs from eliminating the generator."""
    bad = []
    for frame in frames():
        ctx = frame.ctx
        got, _ = ctx._vandermonde_inverse(ctx.asarray(frame.points), frame.plan.table.exponents)
        if not np.array_equal(got, ctx.mat_inverse(frame.generator)):
            bad.append((frame.plan.family, frame.n, ctx.p))
    return bad


def test_grid_covers_every_kind_of_vandermonde_plan():
    fs = frames()
    assert sum(is_vandermonde(p) for p in builder_plans()) == 139
    assert len(cat_plans()) == 23
    assert len(fs) == 2 * (139 + 23 + 1)
    assert sum(bool(f.plan.modulus_q) for f in fs) == 2 * (1 + 23)  # cyclic frames
    assert max(f.n for f in fs) == 179
    assert {f.ctx.p for f in fs if f.n == 179} == {181, 10007}
    assert all(f.inverse.dtype == np.int64 for f in fs)


def test_lagrange_inverse_matches_elimination():
    assert lagrange_mismatches() == []
    # and it is the inverse the sampled frames carry
    for frame in frames():
        ctx = frame.ctx
        assert np.array_equal(frame.inverse, ctx._vandermonde_inverse(
            ctx.asarray(frame.points), frame.plan.table.exponents)[0])


@pytest.mark.parametrize("corrupt", [
    lambda nodes, p: (p - nodes) % p,  # every weight's sign flipped
    lambda nodes, p: np.concatenate([nodes[:1] * 2 % p, nodes[1:]]),  # one node off by 2
], ids=["weights-negated", "one-node-doubled"])
def test_differential_check_catches_corrupt_weights(monkeypatch, corrupt):
    frames()  # sampled with the true inverse
    real = gf._node_products
    monkeypatch.setattr(gf, "_node_products", lambda x, p: corrupt(real(x, p), p))
    assert len(lagrange_mismatches()) == len(frames())


LARGE = FieldContext(2_000_000_011)
# Seeded draws per exponent set over its default field, then over LARGE.
DRAWS = 2


@functools.cache
def gapped_plans():
    """One plan per distinct exponent set with gaps and N <= 80, by exponents."""
    small = range(1, 6)
    calls = []
    for K, L, T in product(small, repeat=3):
        calls.append((build_low_privacy, (K, L, T)))
        calls += [(build_gasp_r, (K, L, T, r)) for r in small]
        calls += [(build, (K, L, T, r, s)) for build in (build_gasp_rs, build_dog)
                  for r, s in product((1, 2), repeat=2)]
    plans = {}
    for build, args in calls:
        try:
            plan = build(*args)
        except ValueError:
            continue
        exps = plan.table.exponents
        if exps != tuple(range(len(exps))) and len(exps) <= 80:
            plans.setdefault(exps, plan)
    return plans


def inverse_or_none(invert, *args):
    try:
        return invert(*args)
    except SingularMatrixError:
        return None


@functools.cache
def gapped_cases():
    """(field, points, exponents, the generator's inverse by elimination or None if singular)."""
    cases = []
    for exps, plan in gapped_plans().items():
        n = len(exps)
        for ctx, draws in ((default_field(plan), DRAWS), (LARGE, 1)):
            rng = np.random.default_rng(n)
            for _ in range(draws):
                points = (rng.choice(ctx.p - 1, size=n, replace=False) + 1).tolist()
                want = inverse_or_none(ctx.mat_inverse, ctx.vandermonde(points, exps))
                cases.append((ctx, points, exps, want))
    return cases


def gapped_mismatches(cases):
    """Cases whose interpolation inverse differs from elimination's, singular verdict included."""
    bad = []
    for ctx, points, exps, want in cases:
        got = inverse_or_none(lambda *args: ctx._vandermonde_inverse(*args)[0],
                              ctx.asarray(points), exps)
        if (got is None) != (want is None) or (got is not None and not np.array_equal(got, want)):
            bad.append((exps, ctx.p, points))
    return bad


def test_gapped_grid_covers_every_family_and_singular_draws():
    plans, cases = gapped_plans(), gapped_cases()
    assert {plan.family for plan in plans.values()} == {
        "gasp_r", "gasp_rs", "dog_rs", "lp_equal", "lp_general"}
    assert len(plans) == 603 and max(map(len, plans)) == 71
    assert max(exps[-1] + 1 - len(exps) for exps in plans) == 32  # gaps
    assert build_dog(2, 2, 2, 1, 1).table.exponents in plans  # about 6% singular over F_17
    singular = [(ctx.p, exps) for ctx, _, exps, want in cases if want is None]
    assert len(singular) >= 40 and all(p < LARGE.p for p, _ in singular)


def test_gap_corrected_inverse_matches_elimination():
    assert gapped_mismatches(gapped_cases()) == []


def _no_correction(self, a):
    """The g x g correction's inverse as zero: L's rows at the exponents, uncorrected."""
    return np.zeros_like(self.asarray(a))


def _first_gap_moved(real):
    def gaps(exponents):
        moved = real(exponents).copy()
        moved[0] += 1
        return moved
    return gaps


@pytest.mark.parametrize("owner, name, mutant", [
    (FieldContext, "mat_inverse", lambda real: _no_correction),
    (gf, "_gaps", _first_gap_moved),
], ids=["gap-correction-left-out", "one-gap-moved"])
def test_differential_check_catches_a_wrong_gap_correction(monkeypatch, owner, name, mutant):
    cases = gapped_cases()[::5]  # elimination's answers, computed before the patch
    monkeypatch.setattr(owner, name, mutant(getattr(owner, name)))
    assert len(gapped_mismatches(cases)) >= 0.9 * len(cases)


@pytest.mark.parametrize("exponents", [(0, 1), (0, 1, 2, 3, 5, 6)])
def test_inverse_refuses_a_point_count_other_than_the_exponent_count(exponents):
    """Not a 4 x 4 "inverse" of a 4 x 2 generator, nor a bare IndexError."""
    ctx = FieldContext(23)
    x = ctx.asarray([1, 2, 3, 4])
    with pytest.raises(ValueError, match=f"^a square generator needs as many points as "
                                         f"exponents, got 4 points and {len(exponents)} "
                                         f"exponents$"):
        ctx._vandermonde_inverse(x, exponents)
    inverse, _ = ctx._vandermonde_inverse(x, (0, 1, 2, 5))
    assert np.array_equal(ctx.matmul(inverse, ctx.vandermonde(x, (0, 1, 2, 5))), ctx.identity(4))
