"""A frame's point algebra, read off one power run, against the Horner oracle.

``EvalFrame`` builds its power table with the doubling run of
``gf._powers`` and hands the run x^0, ..., x^N to
``FieldContext._vandermonde_inverse``, which reads P'(x) off it, inverts
u = (P'(x) x^N c) with one Fermat pass (c = x^(2s) for a quantum frame,
1 for a classical one) and forms the quotient table from one reversed
cumulative sum.  These tests compare the inverse, the Lagrange weights
w = u x^N c, x^-N = u P'(x) c, v and v^-1 with ``lagrange_oracle``, the
synthetic-division implementation they replace, on every builder plan
with N <= 60, gapped and gapless, odd and even N, classical and with
shifts 0, 1 and 3; and both branches of ``_powers`` with Python's
``pow`` on zero and repeated points.  Each negative control must fail:
a suffix sum that starts at k = j, v without (-1)^(N-1), a doubling step
that multiplies by x^(w-1), and a zero point that gets past the
inverse's guard.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lagrange_oracle
from pdmm import gf
from pdmm.gf import FieldContext, ZeroPointError
from pdmm.protocol import EvalFrame
from test_frame_algebra import gapped_frames
from test_generator_inverse import sampled

SHIFTS = (None, 0, 1, 3)


@functools.cache
def frames():
    """Frames on the seeded points of every builder plan with N <= 60, one per shift."""
    bases = [frame for _, frame in sampled()] + gapped_frames()
    return tuple(EvalFrame(base.ctx, base.points, base.plan, shift)
                 for base in bases for shift in SHIFTS)


def parts(frame):
    """The frame's algebra by ``_vandermonde_inverse`` on its run: inverse, w and x^-N."""
    ctx, n = frame.ctx, frame.n
    run = frame.powers(range(n + 1))
    scale = None if frame.shift is None else frame.powers([2 * frame.shift])[:, 0]
    inverse, derivative, u = ctx._vandermonde_inverse(run[:, 1], frame.plan.table.exponents,
                                                      run, scale)
    c = 1 if scale is None else scale
    return inverse, u * run[:, n] % ctx.p * c % ctx.p, u * derivative % ctx.p * c % ctx.p


def mismatches(frames, v_of=lambda frame: frame.v):
    """(position, part) of every frame part that differs from the oracle's."""
    bad = []
    for at, frame in enumerate(frames):
        ctx = frame.ctx
        inverse, weights, x_minus_n = parts(frame)
        want, want_weights = lagrange_oracle.vandermonde_inverse(
            ctx, ctx.asarray(frame.points), frame.plan.table.exponents)
        got = {"inverse": (frame.inverse, want), "direct inverse": (inverse, want),
               "w": (weights, want_weights),
               "x^-N": (x_minus_n, ctx.vandermonde(frame.points, [-frame.n])[:, 0])}
        if frame.shift is not None:
            v, v_inv = lagrange_oracle.dual_pair(ctx, frame.points, want_weights, frame.shift)
            got.update(v=(np.array(v_of(frame)), v), v_inv=(frame._v_inv, v_inv))
        bad += [(at, name) for name, (a, b) in got.items() if not np.array_equal(a, b)]
    return bad


def test_grid_covers_gaps_parities_and_shifts():
    fs = frames()
    assert len(fs) >= 4 * 1000 and 55 <= max(f.n for f in fs) <= 60
    gapless = {f.plan.table.exponents == tuple(range(f.n)) for f in fs}
    assert gapless == {False, True}
    assert {(f.n % 2, f.shift) for f in fs} == {(r, s) for r in (0, 1) for s in SHIFTS}
    assert any(f.plan.modulus_q for f in fs)


def test_point_algebra_matches_the_horner_oracle():
    assert mismatches(frames()) == []


def sums_from_k_equals_j(run, coeffs, factor, p):
    """``gf._lagrange`` with the sums over k >= j instead of k > j."""
    n = coeffs.size - 1
    powers = run.T
    sums = np.cumsum((powers * coeffs[:, None] % p)[::-1], axis=0)[::-1]
    return sums[:n] % p * powers[n - 1::-1] % p * factor % p


def test_differential_check_catches_a_suffix_sum_from_k_equals_j(monkeypatch):
    sample = frames()[::40]
    monkeypatch.setattr(gf, "_lagrange", sums_from_k_equals_j)
    rebuilt = [EvalFrame(f.ctx, f.points, f.plan, f.shift) for f in sample]
    assert {at for at, part in mismatches(rebuilt) if part == "inverse"} == set(range(len(sample)))


def test_differential_check_catches_v_without_its_sign():
    quantum = [f for f in frames()[::5] if f.shift is not None]
    even = {(at, "v") for at, f in enumerate(quantum) if f.n % 2 == 0}
    unsigned = mismatches(quantum, lambda f: f.v if f.n % 2 else [(f.ctx.p - v) % f.ctx.p
                                                                  for v in f.v])
    assert even and set(unsigned) == even


def step_by_x_to_the_w_minus_1(x, top, p):
    """``gf._power_run`` with each doubling step multiplying by x^(w-1) instead of x^w."""
    run = np.empty((top + 1, x.size), dtype=np.int64)
    run[0] = 1
    width = 1
    while width <= top:
        end = min(2 * width, top + 1)
        run[width:end] = run[:end - width] * run[width - 1] % p
        width *= 2
    return run.T


def test_differential_check_catches_a_doubling_step_by_x_to_the_w_minus_1(monkeypatch):
    sample = frames()[::40]
    monkeypatch.setattr(gf, "_power_run", step_by_x_to_the_w_minus_1)
    rebuilt = []
    for f in sample:
        try:
            rebuilt.append(EvalFrame(f.ctx, f.points, f.plan, f.shift))
        except gf.SingularMatrixError:  # a wrong table can make a gapped generator singular
            continue
    assert rebuilt and {at for at, _ in mismatches(rebuilt)} == set(range(len(rebuilt)))
    assert run_mismatches(gf._power_run) == PRIMES


# -- both branches of _powers ---------------------------------------------------

PRIMES = [3, 11, 101, 10_007, 2_000_000_011]


def pow_table(points, exponents, p):
    return [[pow(x, e, p) for e in exponents] for x in points]


def run_mismatches(power_run):
    """Primes where ``power_run`` differs from ``pow`` on zero and repeated points."""
    bad = []
    for p in PRIMES:
        points = [0, 1, p - 1, 2 % p, 2 % p, 0, 5 % p, p - 2]
        if power_run(np.array(points, dtype=np.int64), 40, p).tolist() != \
                pow_table(points, range(41), p):
            bad.append(p)
    return bad


def test_power_run_matches_pow_on_zero_and_repeated_points():
    assert run_mismatches(gf._power_run) == []


@given(st.sampled_from(PRIMES), st.data())
@settings(max_examples=100, deadline=None)
def test_both_branches_match_pow(p, data):
    points = data.draw(st.lists(st.integers(0, min(p - 1, 50)), max_size=8))
    exps = data.draw(st.lists(st.integers(0, 200), min_size=1, max_size=40))
    x, top = np.array(points, dtype=np.int64), max(exps)
    want = pow_table(points, exps, p)
    assert gf._power_run(x, top, p)[:, exps].tolist() == want
    assert gf._square_and_multiply(x, np.array(exps), p).tolist() == want
    assert gf._powers(x, exps, p).tolist() == want


@pytest.mark.parametrize("exponents, branch", [
    (range(36), "_power_run"),  # a frame's dense table
    ([*range(10), 70], "_power_run"),  # 71 <= 11 * bitlen(70)
    ([*range(9), 70], "_square_and_multiply"),  # 71 > 10 * bitlen(70)
    ([3], "_square_and_multiply"),  # the audit's x^d
    ([0, 1, -2], "_square_and_multiply"),  # a negative exponent
    ([], "_square_and_multiply"),
])
def test_powers_takes_the_run_only_where_it_costs_no_more(monkeypatch, exponents, branch):
    taken = []
    for name in ("_power_run", "_square_and_multiply"):
        real = getattr(gf, name)
        monkeypatch.setattr(gf, name, lambda *args, _name=name, _real=real:
                            taken.append(_name) or _real(*args))
    x = np.array([1, 2, 3, 5], dtype=np.int64)
    got = gf._powers(x, exponents, 11)
    assert taken == [branch]
    assert got.tolist() == [[pow(int(v), e, 11) for e in exponents] for v in x]


# -- the zero-point guard ------------------------------------------------------

class Unguarded(np.ndarray):
    """Points whose ``all()`` reports no zero, so a zero point gets past the guard."""

    def all(self, *args, **kwargs):
        return True


def zero_point_case():
    """A field, points 0, 1, ..., 4 and the elimination inverse of their Vandermonde generator."""
    ctx = FieldContext(13)
    x = np.arange(5, dtype=np.int64)
    return ctx, x, ctx.mat_inverse(gf._powers(x, range(5), ctx.p))


def test_a_zero_point_is_refused_by_the_inverse():
    ctx, x, _ = zero_point_case()
    with pytest.raises(ZeroPointError, match="nonzero points"):
        ctx._vandermonde_inverse(x, range(5))


def test_a_zero_point_past_the_guard_gives_a_wrong_inverse():
    """The quotient table divides by the points, so its answer is wrong, not just refused."""
    ctx, x, want = zero_point_case()
    got = ctx._vandermonde_inverse(x.view(Unguarded), range(5))[0]
    assert not np.array_equal(got, want)
    assert not np.asarray(got)[:, 0].any()  # the zero point's column: u = 0^-1 reads as 0
