import contextlib
import dataclasses
import re
import sys
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import scipy.stats

import elimination_oracle as oracle
from pdmm.degree_tables import (
    ExponentPlan,
    NoSolutionError,
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
    optimal_gasp_r,
    outer_sum,
)
from pdmm.feasibility import longest_run
from pdmm.gf import DuplicatePointError, FieldContext, SingularMatrixError, ZeroPointError
from pdmm.grs import ShapeMismatchError, shifted_dual_multipliers
from pdmm import protocol
from pdmm.nsumbox import apply_box
from pdmm.protocol import (
    AuditReport,
    EvalFrame,
    NotFeasibleError,
    ProtocolConfig,
    ResampleExhaustedError,
    decode_classical,
    decode_quantum,
    default_field,
    encode_and_multiply,
    privacy_audit,
    quantum_layout,
    quantum_transfer,
    rate_report,
    run_protocol,
    sample_frame,
    transcript_dump,
)
from share_oracle import server_compute
from test_grs import assert_full_duality

GASP223 = build_gasp_r(2, 2, 3, 2)
# Same exponents, but A_0 rides on alpha[1] = 1 and A_1 on alpha[0] = 0.
GASP223_SWAPPED = dataclasses.replace(GASP223, info_alpha=(1, 0))


def make_frame(plan, mode="classical", prime=None, seed=1):
    cfg = ProtocolConfig(plan=plan, mode=mode, seed=seed, prime=prime)
    frame, audit = sample_frame(cfg, np.random.default_rng(seed))
    return frame.ctx, frame, audit


def scalar_blocks(values):
    return [np.array([[v]], dtype=np.int64) for v in values]


def hand_frame(ctx, points, plan, shift=None):
    """A frame on chosen points, built as ``sample_frame`` builds its candidates."""
    return EvalFrame(ctx, points, plan, shift)


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def test_sample_frame_deterministic():
    ctx1, frame1, _ = make_frame(GASP223, prime=131, seed=7)
    ctx2, frame2, _ = make_frame(GASP223, prime=131, seed=7)
    assert frame1.points == frame2.points
    ctx3, frame3, _ = make_frame(GASP223, prime=131, seed=8)
    assert frame3.points != frame1.points


def test_resample_exhaustion_counts_rejections_by_reason():
    # Every frame drawn for optimal gasp_r(3,3,3) over its default F_29
    # has a full-rank generator and fails the privacy audit.
    with pytest.raises(ResampleExhaustedError) as exc:
        run_protocol(ProtocolConfig(plan=optimal_gasp_r(3, 3, 3), seed=0))
    assert str(exc.value) == ("no admissible frame within 64 attempts over F_29 (rejections: "
                              "rank-deficient generator 0, failed privacy audit 64)")


# Table exponents 0..10 and 13: two gaps, so a generator on distinct points can be singular.
GAPPED = build_dog(2, 2, 2, 1, 1)


def _singular(self, *args):
    raise SingularMatrixError("stub")


@pytest.mark.parametrize("prime, seed, stub, counts", [
    (131, 0, True, "rank-deficient generator 64, failed privacy audit 0"),
    (60, 22, False, "rank-deficient generator 1, failed privacy audit 63"),
], ids=["every-inverse-singular", "real-draws"])
def test_resample_exhaustion_counts_each_rejection(monkeypatch, prime, seed, stub, counts):
    assert GAPPED.table.exponents != tuple(range(GAPPED.table.n_servers))
    if stub:
        monkeypatch.setattr(FieldContext, "_vandermonde_inverse", _singular)
    with pytest.raises(ResampleExhaustedError) as exc:
        make_frame(GAPPED, prime=prime, seed=seed)
    assert str(exc.value).endswith(f"(rejections: {counts})")


def test_singular_generators_are_the_ones_elimination_ranks_deficient():
    """Over F_17, where about 6% of GAPPED's generators are singular,
    replaying each seed's draws with the elimination rank as the generator
    check accepts the same frame as ``sample_frame``."""
    ctx = default_field(GAPPED)
    n, exps = GAPPED.table.n_servers, GAPPED.table.exponents
    assert ctx.p == 17
    deficient = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        for _ in range(protocol._MAX_RESAMPLE):
            points = (rng.choice(ctx.p - 1, size=n, replace=False) + 1).tolist()
            if oracle.rank(ctx, ctx.vandermonde(points, exps)) < n:
                deficient += 1
            elif privacy_audit(GAPPED, ctx, points, rng=rng).ok:
                break
        assert make_frame(GAPPED, seed=seed)[1].points == tuple(points), seed
    assert deficient >= 3


def test_cyclic_frame_failure_names_the_check(monkeypatch):
    failed = AuditReport(ok=False, checked=1, exhaustive=True)
    monkeypatch.setattr(protocol, "privacy_audit", lambda *args, **kwargs: failed)
    with pytest.raises(ResampleExhaustedError,
                       match=r"^no admissible frame within 1 attempt over F_11 \(rejections: "
                             r"rank-deficient generator 0, failed privacy audit 1\)$"):
        make_frame(build_cat(2, 2, 2))


def _no_elimination(self, *args):
    raise AssertionError("eliminated a Vandermonde generator")


@pytest.mark.parametrize("plan", [build_cat(2, 2, 2), build_qf_klt(5, 3)])
@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_vandermonde_generator_is_neither_ranked_nor_eliminated(monkeypatch, plan, mode):
    """Table exponents 0, ..., N - 1 give a plain Vandermonde generator:
    never rank-deficient on distinct points, and inverted by interpolation."""
    assert plan.table.exponents == tuple(range(plan.table.n_servers))
    for name in ("mat_inverse", "_eliminate"):
        monkeypatch.setattr(FieldContext, name, _no_elimination)
    t = run_protocol(ProtocolConfig(plan=plan, mode=mode, seed=2, dims=(plan.K, 2, plan.L)))
    assert t.decode_ok and t.audit.ok


def test_cat_frame_fixed_coset():
    ctx, frame, audit = make_frame(build_cat(2, 2, 2))
    assert ctx.p == 11
    assert frame.points == tuple(pow(2, i, 11) for i in range(10))
    assert audit.ok and audit.exhaustive and audit.checked == 45


def test_default_field_floors():
    assert default_field(GASP223).p == 17  # max(N + 2, top exponent + 2) = 15
    assert default_field(GASP223, 100).p == 101
    assert default_field(build_cat(2, 2, 2)).p == 11
    assert default_field(build_cat(2, 2, 2), 50).p == 61  # next 1 mod 10 prime


def _hosts_frame(plan, p):
    """F_p has N distinct nonzero points, and order-q points for a cyclic plan."""
    return p - 1 >= plan.table.n_servers and (p - 1) % (plan.modulus_q or 1) == 0


def test_default_field_hosts_every_frame():
    # sample_frame raises no field-size error because this always holds
    plans = []
    for K, L, T in product(range(2, 5), repeat=3):
        plans += [optimal_gasp_r(K, L, T), build_gasp_rs(K, L, T, 1, 1),
                  build_dog(K, L, T, 1, 1)]
        if K >= L >= T:
            with contextlib.suppress(NoSolutionError):
                plans.append(build_cat(K, L, T))
        if K >= L > T:
            plans.append(build_low_privacy(K, L, T))
    for n in (2, 3):
        plans += [build_qf_square(n), build_qf_power(n, 2, 3), build_qf_additive(n, 1, 1),
                  build_qf_klt(n + 1, n), build_qf_kt(n, 2, 1), build_qf_kt_shift(n, 1, 1)]
    assert len({plan.family for plan in plans}) == 12
    for plan in plans:
        for floor in (None, 100, 2_000_000_000):
            assert _hosts_frame(plan, default_field(plan, floor).p), (plan, floor)
    assert not _hosts_frame(GASP223, 7)  # 6 nonzero points for 13 servers
    assert not _hosts_frame(build_cat(2, 2, 2), 13)  # 13 - 1 is not a multiple of q = 10


@pytest.mark.parametrize("plan, prime", [
    (GASP223, 131), (build_qf_klt(3, 2), None), (build_cat(2, 2, 2), None),
    (build_cat(2, 2, 2), 50)])
def test_sample_frame_picks_the_run_field(plan, prime):
    _, frame, _ = make_frame(plan, prime=prime)
    assert frame.ctx.p == default_field(plan, prime).p
    assert run(plan, "classical", seed=1, prime=prime).modulus == frame.ctx.p


# K = 2, L = 1, T = 1 with table exponents 0..4: five servers.
FIVE_SERVERS = ExponentPlan(family="gasp_r", K=2, L=1, T=1, alpha=(0, 1, 2), beta=(0, 2),
                            info_alpha=(0, 1), info_beta=(0,))


def test_eval_frame_validation():
    ctx = FieldContext(13)
    pts = (2, 5, 7, 11, 12)
    for s in (0, 1, 3):
        frame = hand_frame(ctx, pts, FIVE_SERVERS, shift=s)
        want = shifted_dual_multipliers(ctx, pts, [1] * len(pts), s, s)
        assert frame.v == tuple(want.tolist()) and frame.n == len(pts)
        assert_full_duality(ctx, pts, [1] * len(pts), frame.v, s, s)
    frame = hand_frame(ctx, pts, FIVE_SERVERS)
    assert frame.v is None
    assert dataclasses.replace(frame, points=(15, 5, 7, 11, 25)).points == (2, 5, 7, 11, 12)
    for shift in (None, 2):
        with pytest.raises(ZeroPointError):
            dataclasses.replace(frame, points=(1, 13, 2, 3, 4), shift=shift)
        with pytest.raises(DuplicatePointError):
            dataclasses.replace(frame, points=(1, 3, 16, 4, 5), shift=shift)


# ---------------------------------------------------------------------------
# encoding and server work
# ---------------------------------------------------------------------------

def test_encode_no_noise_is_plain_evaluation():
    plan = ExponentPlan(family="gasp_r", K=1, L=1, T=0,
                        alpha=(2,), beta=(3,), info_alpha=(0,), info_beta=(0,))
    ctx = FieldContext(11)
    # the one table exponent 2 + 3 makes a one-server plan; evaluate it at 2, then at 3
    for x, f_want, g_want, resp_want in ((2, 5 * 4, 4 * 8, 20 * 32), (3, 5 * 9, 4 * 27, 45 * 108)):
        frame = hand_frame(ctx, (x,), plan)
        f, g, resp = encode_and_multiply(frame, scalar_blocks([5]), scalar_blocks([4]), [], [])
        assert f.ravel().tolist() == [f_want % 11]
        assert g.ravel().tolist() == [g_want % 11]
        assert resp.ravel().tolist() == [resp_want % 11]


def test_encode_single_block_single_noise():
    plan = ExponentPlan(family="gasp_r", K=1, L=1, T=1,
                        alpha=(0, 1), beta=(0, 1), info_alpha=(0,), info_beta=(0,))
    ctx = FieldContext(13)
    frame = hand_frame(ctx, (5, 2, 3), plan)  # table exponents 0, 1, 2: three servers
    f, *_ = encode_and_multiply(frame, scalar_blocks([7]),
                                scalar_blocks([2]), scalar_blocks([3]), scalar_blocks([0]))
    assert f.ravel().tolist() == [(7 + 3 * x) % 13 for x in (5, 2, 3)]


def test_encode_matches_hand_expanded_polynomial():
    ctx, frame, _ = make_frame(GASP223, prime=131, seed=3)
    a = [9, 17]
    nf = [30, 40, 50]
    for plan in (GASP223, GASP223_SWAPPED):
        f, *_ = encode_and_multiply(dataclasses.replace(frame, plan=plan), scalar_blocks(a),
                                    scalar_blocks([1, 2]), scalar_blocks(nf),
                                    scalar_blocks([0, 0, 0]))
        e0, e1 = (plan.alpha[i] for i in plan.info_alpha)  # A_k rides on these
        for srv, x in enumerate(frame.points):
            direct = (a[0] * pow(x, e0, 131) + a[1] * pow(x, e1, 131)
                      + nf[0] * pow(x, 4, 131) + nf[1] * pow(x, 5, 131)
                      + nf[2] * pow(x, 6, 131)) % 131
            assert f[srv, 0, 0] == direct, plan.info_alpha


def test_response_exponent_support():
    # with 1x1 blocks the response is a polynomial supported exactly on
    # the degree table; check coefficients against a convolution oracle
    _, frame, _ = make_frame(GASP223, prime=131, seed=5)
    rng = np.random.default_rng(2)
    a = rng.integers(0, 131, size=2).tolist()
    b = rng.integers(0, 131, size=2).tolist()
    nf = rng.integers(0, 131, size=3).tolist()
    ng = rng.integers(0, 131, size=3).tolist()
    *_, resp = encode_and_multiply(frame, scalar_blocks(a), scalar_blocks(b),
                                   scalar_blocks(nf), scalar_blocks(ng))
    coeff_a = dict(zip(GASP223.alpha, [a[0], a[1], nf[0], nf[1], nf[2]]))
    coeff_b = dict(zip(GASP223.beta, [b[0], b[1], ng[0], ng[1], ng[2]]))
    conv = {}
    for ea, ca in coeff_a.items():
        for eb, cb in coeff_b.items():
            conv[ea + eb] = (conv.get(ea + eb, 0) + ca * cb) % 131
    assert set(conv) == set(outer_sum(GASP223).exponents)
    for srv, x in enumerate(frame.points):
        want = sum(c * pow(x, e, 131) for e, c in conv.items()) % 131
        assert resp[srv, 0, 0] == want


# ``server_compute`` is the oracle of the fused pass's server step, and keeps
# its stack checks, so a malformed stack never reaches a differential test.
@pytest.mark.parametrize("f_shape, g_shape", [
    ((13, 1, 2), (12, 2, 13)),     # share counts differ
    ((13, 1, 2), (13, 3, 13)),     # inner dimensions differ
    ((13, 2), (13, 2, 1)),         # not a stack of matrices
    ((13, 1, 2), (13, 2, 1, 1)),
])
def test_server_compute_refuses_mismatched_stacks(f_shape, g_shape):
    f, g = np.zeros(f_shape, dtype=np.int64), np.zeros(g_shape, dtype=np.int64)
    with pytest.raises(ShapeMismatchError, match=re.escape(f"got shapes {f_shape} and {g_shape}")):
        server_compute(FieldContext(131), f, g)


@pytest.mark.parametrize("x", [1.5, 0.5, float("nan"), "3"])
def test_server_compute_refuses_non_integer_shares(x):
    # an int64 cast would read shares of 1.5 as 1 and return products of 1
    ints = np.ones((2, 1, 1), dtype=np.int64)
    bad = np.full((2, 1, 1), x)
    for f, g in ((bad, ints), (ints, bad)):
        with pytest.raises(TypeError, match="field elements must be integers"):
            server_compute(FieldContext(13), f, g)


@pytest.mark.parametrize("x", [1.5, float("nan"), "3"])
def test_encode_refuses_non_integer_blocks(x):
    # a float cast would read a block of 1.5 as 1.5 and encode garbage
    _, frame, _ = make_frame(GASP223, prime=131)
    ints, bad = scalar_blocks([1, 2, 3]), [np.full((1, 1), x)]
    for a, b in ((bad + ints[:1], ints[:2]), (ints[:2], ints[1:2] + bad)):
        with pytest.raises(TypeError, match="field elements must be integers"):
            encode_and_multiply(frame, a, b, ints, ints)


@pytest.mark.parametrize("x", [1.5, float("nan"), "3"])
def test_decoders_refuse_non_integer_responses(x):
    _, frame, _ = make_frame(GASP223, prime=131)
    bad = np.full((13, 1, 13), x)
    with pytest.raises(TypeError, match="field elements must be integers"):
        decode_classical(frame, bad)
    _, frame, _ = make_frame(GASP223, mode="quantum", prime=131)
    good = np.zeros((13, 1, 13), dtype=np.int64)
    for pair in ((bad, good), (good, bad)):
        with pytest.raises(TypeError, match="field elements must be integers"):
            decode_quantum(frame, pair)


def test_zero_inputs_zero_response():
    _, frame, _ = make_frame(GASP223, prime=131)
    zeros = scalar_blocks([0, 0])
    nf = scalar_blocks([0, 0, 0])
    f, g, resp = encode_and_multiply(frame, zeros, zeros, nf, nf)
    assert not f.any() and not g.any() and not resp.any()


def test_encode_reads_the_plan_from_the_frame():
    _, frame, _ = make_frame(GASP223, prime=131)
    blocks, noise = scalar_blocks([1, 2]), scalar_blocks([3, 4, 5])
    with pytest.raises(TypeError, match="^plan must be an ExponentPlan, got None$"):
        encode_and_multiply(dataclasses.replace(frame, plan=None), blocks, blocks, noise, noise)


# gasp_r(2,2,3,2) takes 2 data and 3 noise blocks per side, all of one shape.
@pytest.mark.parametrize("a, nf, ng, message", [
    ([1], [3, 4, 5], [3, 4, 5], "2 A blocks and 3 noise blocks of one shape, got 1 and 3"),
    ([1, 2], [3, 4], [3, 4, 5], "2 A blocks and 3 noise blocks of one shape, got 2 and 2"),
    ([1, 2], [3, 4, 5], [3, 4, 5, 6], "2 B blocks and 3 noise blocks of one shape, got 2 and 4"),
    ([1, 2], [3, 4, np.zeros((1, 2))], [3, 4, 5],
     r"2 A blocks and 3 noise blocks of one shape, got 2 and 3 shaped \[\(1, 1\), \(1, 2\)\]"),
])
def test_encode_refuses_wrong_block_counts_and_shapes(a, nf, ng, message):
    _, frame, _ = make_frame(GASP223, prime=131)

    def blocks(values):
        return [v if isinstance(v, np.ndarray) else np.array([[v]]) for v in values]

    with pytest.raises(ShapeMismatchError, match="^expected " + message):
        encode_and_multiply(frame, blocks(a), blocks([1, 2]), blocks(nf), blocks(ng))


def test_encode_refuses_blocks_whose_inner_dimensions_differ():
    _, frame, _ = make_frame(GASP223, prime=131)
    a, b = np.ones((5, 1, 2), dtype=np.int64), np.ones((5, 3, 1), dtype=np.int64)
    want = (r"^inner dimensions differ: A blocks shaped \(1, 2\) have 2 columns, "
            r"B blocks shaped \(3, 1\) have 3 rows$")
    with pytest.raises(ShapeMismatchError, match=want):
        encode_and_multiply(frame, a[:2], b[:2], a[2:], b[2:])
    with pytest.raises(ShapeMismatchError, match=r"^expected 2-D blocks, got A blocks shaped \(2,\)"):
        encode_and_multiply(frame, a[:2, 0], b[:2, 0], a[2:, 0], b[2:, 0])


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def run(plan, mode, seed=0, dims=None, prime=None, audit_cap=10_000):
    cfg = ProtocolConfig(plan=plan, dims=dims, mode=mode, seed=seed,
                         prime=prime, audit_cap=audit_cap)
    return run_protocol(cfg)


def test_classical_decode_blocks():
    # the second plan has K != L and ra != cb, so a swapped grid axis shows
    for plan, dims in ((build_gasp_r(2, 2, 1, 1), (4, 2, 4)),
                       (optimal_gasp_r(3, 2, 2), (6, 2, 6))):
        t = run(plan, "classical", seed=3, dims=dims, prime=131)
        assert t.decode_ok
        direct = np.asarray(t.a_inputs[0]) @ np.asarray(t.b_inputs[0]) % t.modulus
        assert np.array_equal(t.decoded[0], direct)


def test_classical_decode_zero_matrix():
    plan = build_gasp_r(2, 2, 1, 1)
    _, frame, _ = make_frame(plan, prime=131, seed=9)
    rng = np.random.default_rng(4)
    a_blocks = scalar_blocks([0, 0])
    b_blocks = scalar_blocks(rng.integers(0, 131, size=2).tolist())
    nf = scalar_blocks(rng.integers(0, 131, size=1).tolist())
    ng = scalar_blocks(rng.integers(0, 131, size=1).tolist())
    *_, resp = encode_and_multiply(frame, a_blocks, b_blocks, nf, ng)
    assert not decode_classical(frame, resp).any()


# Server products for gasp_r(2,2,3,2), N = 13, must be shaped (13, ra, cb).
MALFORMED = [(12, 1, 13), (13, 13), (13, 1, 13, 1)]  # (12, 1, 13): a size N divides
MALFORMED_MATCH = r"^expected 13 server products of one \(N, ra, cb\) shape, got shapes "


@pytest.mark.parametrize("shape", MALFORMED)
def test_classical_decode_refuses_malformed_responses(shape):
    _, frame, _ = make_frame(GASP223, prime=131)
    assert decode_classical(frame, np.zeros((13, 1, 13), dtype=np.int64)).shape == (2, 26)
    with pytest.raises(ShapeMismatchError, match=MALFORMED_MATCH + re.escape(str(shape)) + "$"):
        decode_classical(frame, np.zeros(shape, dtype=np.int64))


@pytest.mark.parametrize("shapes", [
    *[(shape, shape) for shape in MALFORMED],
    ((13, 1, 13), (12, 1, 13)),
    ((13, 1, 13), (13, 13, 1)),  # the sizes agree, the shapes do not
    ((13, 1, 13), (13, 1, 12)),
])
def test_quantum_decode_refuses_malformed_responses(shapes):
    _, frame, _ = make_frame(GASP223, mode="quantum", prime=131)
    good = np.zeros((13, 1, 13), dtype=np.int64)
    assert [d.shape for d in decode_quantum(frame, (good, good))] == [(2, 26), (2, 26)]
    with pytest.raises(ShapeMismatchError, match=MALFORMED_MATCH):
        decode_quantum(frame, [np.zeros(shape, dtype=np.int64) for shape in shapes])


@pytest.mark.parametrize("count", [0, 1, 3])
def test_quantum_decode_refuses_a_response_stack_count_other_than_two(monkeypatch, count):
    _, frame, _ = make_frame(GASP223, mode="quantum", prime=131)
    monkeypatch.setattr(protocol, "quantum_transfer", None)  # no work before the check
    stacks = [np.zeros((13, 1, 13), dtype=np.int64)] * count
    with pytest.raises(ShapeMismatchError,
                       match=f"^expected two response stacks, one per instance, got {count}$"):
        decode_quantum(frame, stacks)


def test_quantum_decode_reads_responses_mod_p():
    # entries below 0 or at least p decode as their canonical residues,
    # and the caller's arrays are not written; at up to 2^57, times v
    # they would overflow int64 unreduced
    _, frame, _ = make_frame(GASP223, mode="quantum", prime=131)
    rng = np.random.default_rng(5)
    pair = [rng.integers(0, 131, size=(13, 2, 3)) for _ in range(2)]
    shifted = [r + 131 * rng.integers(-2**50, 2**50, size=r.shape) for r in pair]
    assert all((r < 0).any() and (r >= 131).any() for r in shifted)
    kept = [r.copy() for r in shifted]
    for want, got in zip(decode_quantum(frame, pair), decode_quantum(frame, shifted)):
        assert np.array_equal(want, got)
    assert all(np.array_equal(r, k) for r, k in zip(shifted, kept))


def z_half_mismatches(monkeypatch, prime):
    """Rows of the Z half ``decode_quantum`` hands the box that differ from
    v r2 mod p, for responses r2 of entries up to p - 1, so products up to (p - 1)^2."""
    _, frame, _ = make_frame(GASP223, mode="quantum", prime=prime)
    ctx, n = frame.ctx, frame.n
    rng = np.random.default_rng(prime)
    r1, r2 = (rng.integers(0, ctx.p, size=(n, 3, 4)) for _ in range(2))
    r2[:, 0] = ctx.p - 1
    seen = []
    monkeypatch.setattr(protocol, "apply_box", lambda tm, ops: seen.append(ops.copy()) or ops)
    decode_quantum(frame, (r1, r2))
    want = ctx.asarray(frame.v)[:, None] * r2.reshape(n, -1) % ctx.p
    return [i for i in range(n) if not np.array_equal(seen[0][n + i], want[i])]


@pytest.mark.parametrize("prime", [131, 2_000_000_011])
def test_quantum_decode_reduces_the_scaled_z_half(monkeypatch, prime):
    assert z_half_mismatches(monkeypatch, prime) == []


def test_z_half_check_catches_a_reduction_by_p_minus_1(monkeypatch):
    real = protocol._remainder
    monkeypatch.setattr(protocol, "_remainder", lambda x, p: real(x, p - 1))
    assert z_half_mismatches(monkeypatch, 131) == list(range(13))


def test_classical_decode_cat():
    t = run(build_cat(2, 2, 2), "classical", seed=2)
    assert t.modulus == 11 and t.rate.n_servers == 10 and t.decode_ok


def test_classical_decode_cat_on_a_large_field():
    # the cyclic frame's order-q generator is found in O(q) steps, not by
    # scanning F_p: this run used to spend over 20 s in element_of_order
    start = time.perf_counter()
    t = run(build_cat(2, 2, 2), "classical", dims=(4, 5, 6), prime=2_000_000_000)
    assert t.modulus == 2_000_000_011 and t.decode_ok and t.audit.ok
    assert time.perf_counter() - start < 5


def test_quantum_decode_gasp():
    t = run(GASP223, "quantum", seed=7, prime=131)
    assert t.decode_ok
    assert t.rate.rate == Fraction(8, 13)
    for dec, a, b in zip(t.decoded, t.a_inputs, t.b_inputs):
        assert np.array_equal(dec, np.asarray(a) @ np.asarray(b) % 131)


def test_quantum_decode_cat_rate():
    t = run(build_cat(2, 2, 2), "quantum", seed=1)
    assert t.decode_ok and t.rate.rate == Fraction(4, 5)
    assert len(t.decoded) == 2


def test_quantum_decode_blocks_and_families():
    for plan, dims in ((build_qf_square(2), (8, 2, 8)), (build_qf_klt(3, 2), (6, 2, 4)),
                       (build_qf_klt(3, 2), (6, 2, 6)), (build_low_privacy(3, 3, 1), (6, 2, 6)),
                       (build_low_privacy(4, 4, 2), (8, 2, 8))):
        t = run(plan, "quantum", seed=5, dims=dims)
        assert t.decode_ok, (plan.family, dims)


def test_quantum_decode_low_privacy_general():
    t = run(build_low_privacy(9, 8, 7), "quantum", seed=3, audit_cap=200)
    assert t.decode_ok and t.rate.rate == Fraction(2 * 72, 165)


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_decode_with_info_indices_out_of_position_order(mode):
    assert check_decodable(GASP223_SWAPPED).ok
    t = run(GASP223_SWAPPED, mode, seed=4, dims=(4, 3, 6), prime=131)
    assert t.decode_ok


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_run_reads_the_table_the_plan_built(monkeypatch, mode):
    plan = build_qf_klt(3, 2)

    def rebuild(_plan):
        raise AssertionError("degree table rebuilt after the plan was built")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pdmm" and getattr(module, "outer_sum", None) is outer_sum:
            monkeypatch.setattr(module, "outer_sum", rebuild)
    t = run(plan, mode, seed=3, dims=(6, 2, 4))
    assert t.decode_ok and t.audit.ok
    with pytest.raises(AssertionError, match="rebuilt"):
        build_qf_klt(3, 2)  # the patch reaches the plan's own build


@pytest.mark.parametrize("plan", [GASP223, GASP223_SWAPPED, build_cat(2, 2, 2),
                                  build_qf_klt(3, 2), build_low_privacy(4, 4, 2)])
def test_quantum_layout_is_run_head_then_info_then_rest(plan):
    table = plan.table
    ce = -(-table.n_servers // 2)
    layout = quantum_layout(plan)
    start = longest_run(table.interference)[0]
    assert layout[:ce] == list(range(start, start + ce))
    assert layout[ce:ce + len(table.info)] == list(table.info)
    rest = layout[ce + len(table.info):]
    assert rest == sorted(rest) and sorted(layout) == sorted(table.exponents)


def test_quantum_layout_of_gasp_puts_the_run_tail_last():
    # the run is 4..12, but only its first ceil(13 / 2) = 7 exponents lead
    assert quantum_layout(GASP223) == [4, 5, 6, 7, 8, 9, 10, 0, 2, 1, 3, 11, 12]
    assert quantum_layout(GASP223_SWAPPED) == [4, 5, 6, 7, 8, 9, 10, 1, 3, 0, 2, 11, 12]


def layout_derivations(monkeypatch):
    """``check_feasible`` calls, and so interference-run derivations, in one quantum run."""
    calls = []
    real = protocol.check_feasible
    monkeypatch.setattr(protocol, "check_feasible", lambda plan: calls.append(plan) or real(plan))
    assert run(GASP223, "quantum", seed=7, prime=131).decode_ok
    return len(calls)


def test_quantum_run_derives_its_layout_once(monkeypatch):
    """``sample_frame``'s gate derives the layout, and the frame carries it
    to ``quantum_transfer``; ``run_protocol`` forms its rate without a gate."""
    assert layout_derivations(monkeypatch) == 1


def test_layout_pin_catches_a_second_gate_and_an_uncarried_layout(monkeypatch):
    """The run's own gate and a transfer matrix that derives the layout
    again, as before the frame carried it, make three derivations."""
    real_sample = protocol.sample_frame

    def gated_then_dropped(cfg, rng):
        rate_report(cfg.plan, cfg.mode)
        frame, audit = real_sample(cfg, rng)
        return dataclasses.replace(frame), audit  # the replaced frame carries no layout

    monkeypatch.setattr(protocol, "sample_frame", gated_then_dropped)
    assert layout_derivations(monkeypatch) == 3


def test_quantum_transfer_refuses_a_classical_frame():
    _, frame, _ = make_frame(GASP223)
    assert frame.v is None
    with pytest.raises(ValueError, match="sample in quantum mode"):
        quantum_transfer(frame)


def test_quantum_requires_feasibility():
    want = r"interference run 3 < 4 for gasp_r\(2,2,1\); quantum mode unavailable"
    with pytest.raises(NotFeasibleError, match=want):
        run(build_gasp_r(2, 2, 1, 1), "quantum")
    with pytest.raises(NotFeasibleError, match=want):
        quantum_layout(build_gasp_r(2, 2, 1, 1))
    with pytest.raises(NotFeasibleError, match=want):
        rate_report(build_gasp_r(2, 2, 1, 1), "quantum")
    # decodability is checked first: this plan is undecodable and infeasible
    collide = ExponentPlan(family="gasp_r", K=2, L=2, T=1,
                           alpha=(0, 1, 1), beta=(0, 2, 4),
                           info_alpha=(0, 1), info_beta=(0, 1))
    with pytest.raises(ValueError, match="plan is not decodable"):
        run(collide, "quantum")


def test_an_undecodable_plan_is_refused_before_any_draw(monkeypatch):
    """No generator is made and no frame sampled for a plan that cannot decode;
    the decodable plan, the control, reaches both."""
    calls = []
    real_rng, real_sample = np.random.default_rng, protocol.sample_frame
    monkeypatch.setattr(protocol.np.random, "default_rng",
                        lambda seed: calls.append("rng") or real_rng(seed))
    monkeypatch.setattr(protocol, "sample_frame",
                        lambda cfg, rng: calls.append("frame") or real_sample(cfg, rng))
    collide = ExponentPlan(family="gasp_r", K=2, L=2, T=1, alpha=(0, 1, 1), beta=(0, 2, 4),
                           info_alpha=(0, 1), info_beta=(0, 1))
    for mode in ("classical", "quantum"):
        with pytest.raises(ValueError, match="^plan is not decodable: "):
            run(collide, mode)
    assert calls == []
    assert run(GASP223, "classical").audit.ok and calls == ["rng", "frame"]


def test_a_noise_side_shorter_than_t_is_refused_up_front():
    """With T = 1 and no beta noise, every server's g share would be B itself."""
    bare = ExponentPlan(family="hand", K=1, L=1, T=1, alpha=(0, 1), beta=(0,),
                        info_alpha=(0,), info_beta=(0,))
    report = check_decodable(bare)
    assert not report.ok and report.reason == "beta has 0 noise exponents, fewer than T = 1"
    with pytest.raises(ValueError, match=r"^plan is not decodable: beta has 0 noise exponents"):
        run_protocol(ProtocolConfig(plan=bare))
    # negative control: one beta noise exponent is enough for T = 1
    masked = dataclasses.replace(bare, beta=(0, 1))
    assert check_decodable(masked).ok and run_protocol(ProtocolConfig(plan=masked)).audit.ok


def test_undecodable_plan_refused_and_actually_breaks():
    # exponent collision: info sum 5 = 4 + 1 also arises as noise 5 + 0
    broken = ExponentPlan(family="gasp_r", K=2, L=2, T=1,
                          alpha=(0, 4, 5), beta=(0, 1, 3),
                          info_alpha=(0, 1), info_beta=(0, 1))
    with pytest.raises(ValueError):
        run(broken, "classical")
    # the refusal is not spurious: decoding that plan garbles the product
    ctx = FieldContext(131)
    frame = hand_frame(ctx, tuple(range(2, 2 + 8)), broken)
    rng = np.random.default_rng(0)
    a = scalar_blocks(rng.integers(1, 131, size=2).tolist())
    b = scalar_blocks(rng.integers(1, 131, size=2).tolist())
    nf = scalar_blocks(rng.integers(1, 131, size=1).tolist())
    ng = scalar_blocks(rng.integers(1, 131, size=1).tolist())
    *_, resp = encode_and_multiply(frame, a, b, nf, ng)
    decoded = decode_classical(frame, resp)
    direct = np.block([[a[0] @ b[0], a[0] @ b[1]],
                       [a[1] @ b[0], a[1] @ b[1]]]) % 131
    assert not np.array_equal(decoded, direct)


def test_quantum_rate_doubles_classical_same_plan():
    for plan in (GASP223, build_cat(2, 2, 2), build_qf_square(2)):
        assert rate_report(plan, "quantum").rate == 2 * rate_report(plan, "classical").rate


def test_interference_isolation():
    plan = GASP223
    ctx, frame, _ = make_frame(plan, mode="quantum", prime=131, seed=6)
    tm = quantum_transfer(frame)
    rng = np.random.default_rng(8)
    x = rng.integers(0, 131, size=(2 * tm.n, 4))
    w = rng.integers(0, 131, size=(tm.n, 4))
    perturbed = (x + ctx.matmul(tm.g, w)) % 131
    assert np.array_equal(apply_box(tm, x), apply_box(tm, perturbed))


@pytest.mark.parametrize("plan", ["gasp", None])
def test_plan_must_be_an_exponent_plan(plan):
    with pytest.raises(TypeError, match="plan must be an ExponentPlan"):
        ProtocolConfig(plan=plan)


def test_dims_must_divide():
    with pytest.raises(ShapeMismatchError):
        ProtocolConfig(plan=GASP223, dims=(3, 1, 2))


@pytest.mark.parametrize("dims", [(-2, 1, 2), (2, 0, 2), (2, 1), (2, 1, 2, 1), (2.0, 1, 2), 5])
def test_dims_must_be_three_positive_ints(dims):
    with pytest.raises(ShapeMismatchError, match="dims"):
        ProtocolConfig(plan=GASP223, dims=dims)


def test_seed_must_be_non_negative():
    with pytest.raises(ValueError, match="seed"):
        ProtocolConfig(plan=GASP223, seed=-1)


@pytest.mark.parametrize("prime", [1e5, "7", -5, 1])
def test_prime_must_be_an_integer_at_least_two(prime):
    with pytest.raises(ValueError, match="prime"):
        ProtocolConfig(plan=GASP223, prime=prime)


@pytest.mark.parametrize("cap", [0, -5])
def test_audit_cap_must_be_positive(cap):
    with pytest.raises(ValueError, match="audit_cap"):
        ProtocolConfig(plan=GASP223, audit_cap=cap)
    ctx = FieldContext(131)
    with pytest.raises(ValueError, match="audit_cap"):
        privacy_audit(GASP223, ctx, list(range(1, 14)), cap=cap)


def test_integer_config_fields_are_stored_as_ints():
    """numpy integers and a dims list are read as ints and a tuple: the config
    hashes, and a numpy prime floor reaches the field search as an int."""
    cfg = ProtocolConfig(plan=GASP223, dims=[2, np.int64(1), 2], seed=np.int64(3),
                         prime=np.int64(2_000_000_000), audit_cap=np.int64(5))
    want = ProtocolConfig(plan=GASP223, dims=(2, 1, 2), seed=3, prime=2_000_000_000,
                          audit_cap=5)
    assert cfg == want and hash(cfg) == hash(want)
    assert all(type(v) is int for v in (cfg.seed, cfg.prime, cfg.audit_cap, *cfg.dims))
    assert transcript_dump(run_protocol(cfg)) == transcript_dump(run_protocol(want))


@pytest.mark.parametrize("field", ["seed", "prime", "audit_cap", "dims"])
def test_a_bool_config_field_is_refused(field):
    value = (True, 1, True) if field == "dims" else True
    with pytest.raises(ShapeMismatchError if field == "dims" else ValueError,
                       match=f"^{field} must be "):
        ProtocolConfig(plan=GASP223, **{field: value})
    if field == "audit_cap":
        with pytest.raises(ValueError, match="^audit_cap must be "):
            privacy_audit(GASP223, FieldContext(131), list(range(1, 14)), cap=True)


# ---------------------------------------------------------------------------
# privacy and rates
# ---------------------------------------------------------------------------

def test_audit_consecutive_noise_always_passes():
    # noise exponents 0..T-1 give classical Vandermonde minors
    plan = ExponentPlan(family="gasp_r", K=1, L=1, T=2,
                        alpha=(4, 0, 1), beta=(4, 0, 1),
                        info_alpha=(0,), info_beta=(0,))
    ctx = FieldContext(13)
    report = privacy_audit(plan, ctx, [1, 2, 3, 4, 5])
    assert report.ok and report.exhaustive and report.checked == 10


def test_audit_exhaustive_gasp():
    ctx, frame, audit = make_frame(GASP223, prime=131, seed=1)
    assert audit.ok and audit.exhaustive and audit.checked == 286
    report = privacy_audit(GASP223, ctx, frame.points)
    assert report.ok and report.failures == ()


def test_audit_duplicated_points_fail():
    ctx = FieldContext(131)
    points = list(range(1, 13)) + [1]  # server 13 repeats server 1
    report = privacy_audit(GASP223, ctx, points)
    assert not report.ok
    assert any(0 in f and 12 in f for f in report.failures)


def test_audit_needs_at_least_t_points():
    ctx = FieldContext(131)
    plan = optimal_gasp_r(2, 2, 3)
    with pytest.raises(ValueError, match="T = 3 points, got 2"):
        privacy_audit(plan, ctx, [1, 2])
    assert privacy_audit(plan, ctx, [1, 2, 3]).checked == 1


def test_audit_at_t_zero_passes_without_working_out_progressions():
    plan = ExponentPlan(family="gasp_r", K=1, L=1, T=0,
                        alpha=(2,), beta=(3,), info_alpha=(0,), info_beta=(0,))
    for points in ([], [4]):
        report = privacy_audit(plan, FieldContext(11), points)
        assert report == AuditReport(ok=True, checked=0, exhaustive=True)
    assert "noise_progressions" not in vars(plan)


def test_audit_sampling_above_cap():
    plan = build_qf_square(2)  # C(39, 4) = 82251, noise exponents 0..3 on both sides
    ctx, frame, audit = make_frame(plan, seed=4)
    assert audit.ok and audit.exhaustive and audit.checked == 82251
    assert audit.method == "proof"


def test_large_quantum_run_proves_its_audit():
    t = run_protocol(ProtocolConfig(plan=build_qf_square(3), mode="quantum", seed=1))
    assert t.decode_ok and t.audit.method == "proof" and t.audit.exhaustive
    assert t.audit.checked == 423793110276910  # C(179, 9)


def test_rate_report_values():
    assert rate_report(optimal_gasp_r(4, 4, 4), "classical").rate == Fraction(16, 36)
    klt = rate_report(build_qf_klt(3, 2), "quantum")
    assert klt.rate == Fraction(4, 5)
    classical = rate_report(optimal_gasp_r(3, 2, 2), "classical")
    assert classical.n_servers == 14
    assert round(klt.rate / classical.rate, 2) == Fraction(187, 100)
    kt = rate_report(build_qf_kt(2, 3, 1), "quantum")
    base = rate_report(optimal_gasp_r(8, 2, 8), "classical")
    assert kt.rate / base.rate == 2


def test_rate_report_rejects_an_unknown_mode():
    with pytest.raises(ValueError) as config:
        ProtocolConfig(plan=GASP223, mode="bogus")
    with pytest.raises(ValueError) as rate:
        rate_report(GASP223, "bogus")
    assert str(rate.value) == str(config.value) == (
        "mode must be classical or quantum, got 'bogus'")


def test_noise_masks_shares_uniformly():
    # fixed inputs, fresh noise: a colluding pair's share tuple should be
    # uniform over F_p x F_p (chi-squared sanity check at 1% significance)
    plan = build_gasp_r(2, 2, 2, 2)
    prime = 13
    ctx, frame, _ = make_frame(plan, prime=prime, seed=2)
    a_blocks = scalar_blocks([5, 9])
    b_blocks = scalar_blocks([3, 4])
    rng = np.random.default_rng(123)
    trials = 10_000
    noise = rng.integers(0, prime, size=(trials, 2))
    # vectorized share of servers 0 and 1, validated against encode_and_multiply
    powers = np.array([[pow(x, e, prime) for e in plan.noise_alpha]
                       for x in frame.points[:2]])
    base = np.array([(a_blocks[0][0, 0] + a_blocks[1][0, 0] * x) % prime
                     for x in frame.points[:2]])
    tuples = (base[None, :] + noise @ powers.T) % prime
    for row in range(3):
        f, *_ = encode_and_multiply(frame, a_blocks, b_blocks,
                                    scalar_blocks(noise[row].tolist()), scalar_blocks([0, 0]))
        assert f[:2, 0, 0].tolist() == tuples[row].tolist()
    counts = np.bincount(tuples[:, 0] * prime + tuples[:, 1], minlength=prime * prime)
    assert scipy.stats.chisquare(counts).pvalue > 0.01


# ---------------------------------------------------------------------------
# transcripts
# ---------------------------------------------------------------------------

def test_transcript_dump_deterministic():
    one = transcript_dump(run(GASP223, "quantum", seed=7, prime=131))
    two = transcript_dump(run(GASP223, "quantum", seed=7, prime=131))
    assert one == two
    assert "verdict decode ok" in one
    assert "rate 8/13" in one
    assert one.splitlines()[0] == "modulus 131"


def test_transcript_contains_all_servers():
    t = run(build_cat(2, 2, 2), "classical", seed=0)
    dump = transcript_dump(t)
    assert sum(line.startswith("response 1 ") for line in dump.splitlines()) == 10
