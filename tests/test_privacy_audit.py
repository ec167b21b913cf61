"""The batched privacy audit against the per-subset loop it replaced.

``loop_audit`` is the audit as it was before the batched rank kernel:
one ``mat_rank`` call per T-subset and side, with ``checked`` counting
the subsets it iterated (above the cap, the distinct ones among the
cap draws, in first-draw order).  It stays here as the reference that
``privacy_audit`` must match report for report.  ``privacy_audit``
also proves some sides without ranking; ``enumerated_audit`` runs it
with that proof switched off, so it ranks every subset.
"""

import math
from itertools import combinations, product

import numpy as np
import pytest

import pdmm.gf as gf
import pdmm.protocol as protocol
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
    optimal_gasp_r,
    outer_sum,
)
from pdmm.gf import FieldContext, next_prime
from pdmm.protocol import AuditReport, privacy_audit


def loop_audit(plan, ctx, points, cap=10_000, rng=None):
    t = plan.T
    n = len(points)
    if t == 0:
        return AuditReport(ok=True, checked=0, exhaustive=True)
    powers = [np.array([[pow(int(x), e, ctx.p) for e in exps] for x in points],
                       dtype=np.int64)
              for exps in (plan.noise_alpha, plan.noise_beta) if exps]
    total = math.comb(n, t)
    exhaustive = total <= cap
    if exhaustive:
        subsets = combinations(range(n), t)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        subsets = dict.fromkeys(tuple(sorted(rng.choice(n, size=t, replace=False).tolist()))
                                for _ in range(cap))
    failures = []
    checked = 0
    for subset in subsets:
        checked += 1
        rows = list(subset)
        for mat in powers:
            if ctx.mat_rank(mat[rows]) != t:
                failures.append(tuple(rows))
                break
        if len(failures) >= 10:
            break
    return AuditReport(ok=not failures, checked=checked,
                       exhaustive=exhaustive, failures=tuple(failures))


PLANS = {
    "gasp_r(3,3,3)": (optimal_gasp_r(3, 3, 3), 29),  # many singular subsets
    "gasp_r(2,2,3)": (optimal_gasp_r(2, 2, 3), 2_000_000_011),
    "cat(2,2,2)": (build_cat(2, 2, 2), 11),
    "qf_klt(5,3)": (build_qf_klt(5, 3), 37),
}


def frames(plan, p, seed=7):
    """Two random frames, one with a repeated point and one with a zero point."""
    n = outer_sum(plan).n_servers
    rng = np.random.default_rng(seed)
    out = [(rng.choice(p - 1, size=n, replace=False) + 1).tolist() for _ in range(2)]
    base = out[0]
    return out + [base[:-1] + [base[1]], [0] + base[1:]]


@pytest.mark.parametrize("name", PLANS)
def test_batched_audit_matches_loop(name):
    plan, p = PLANS[name]
    ctx = FieldContext(p)
    for pts in frames(plan, p):
        assert privacy_audit(plan, ctx, pts) == loop_audit(plan, ctx, pts)


def test_failures_cut_at_first_ten_in_order():
    plan, p = PLANS["gasp_r(3,3,3)"]
    ctx = FieldContext(p)
    pts = frames(plan, p)[0]
    powers = [np.array([[pow(x, e, p) for e in exps] for x in pts])
              for exps in (plan.noise_alpha, plan.noise_beta)]
    singular = [s for s in combinations(range(len(pts)), plan.T)
                if any(ctx.mat_rank(m[list(s)]) < plan.T for m in powers)]
    assert len(singular) > 10
    report = privacy_audit(plan, ctx, pts)
    assert not report.ok and report.failures == tuple(singular[:10])
    # checking stopped at the 10th failure, the 249th subset enumerated
    assert report.checked == list(combinations(range(len(pts)), plan.T)).index(singular[9]) + 1
    assert report.checked == 249 < math.comb(len(pts), plan.T) == 1540


@pytest.mark.parametrize("chunk", [1, 7, 248, 249, 250])
def test_early_stop_report_does_not_depend_on_chunk_size(monkeypatch, chunk):
    plan, p = PLANS["gasp_r(3,3,3)"]
    ctx = FieldContext(p)
    pts = frames(plan, p)[0]
    whole = privacy_audit(plan, ctx, pts)
    monkeypatch.setattr(protocol, "_AUDIT_CHUNK", chunk)
    assert privacy_audit(plan, ctx, pts) == whole


@pytest.mark.parametrize("first, ranked", [(1, 255), (7, 441), (128, 384), (249, 249),
                                           (250, 250), (1024, 1024)])
def test_early_stop_ranks_growing_chunks(monkeypatch, first, ranked):
    """Chunks start at ``_AUDIT_FIRST_CHUNK`` and double up to ``_AUDIT_CHUNK``, so an
    audit whose 10th failure is the 249th subset ranks only the chunks reaching it."""
    plan, p = PLANS["gasp_r(3,3,3)"]
    ctx = FieldContext(p)
    pts = frames(plan, p)[0]
    whole = privacy_audit(plan, ctx, pts)
    sizes = []

    def counted(self, stack, _original=FieldContext.batch_rank):
        sizes.append(len(stack))
        return _original(self, stack)

    monkeypatch.setattr(FieldContext, "batch_rank", counted)
    monkeypatch.setattr(protocol, "_AUDIT_FIRST_CHUNK", first)
    assert privacy_audit(plan, ctx, pts) == whole
    assert sum(sizes) == 2 * ranked  # both noise sides rank each chunk


# Plans whose alpha noise side is general (no arithmetic progression of
# T exponents), so their audits above the cap are sampled.
GENERAL = {
    "gasp_r(3,2,3)": (build_gasp_r(3, 2, 3, 2), 19),  # alpha noise (6, 7, 9)
    "gasp_r(3,3,3)": PLANS["gasp_r(3,3,3)"],
}


@pytest.mark.parametrize("name,cap", [("gasp_r(3,2,3)", 300), ("gasp_r(3,3,3)", 200)])
def test_sampled_audit_matches_loop_and_rng_state(name, cap):
    plan, p = GENERAL[name]
    ctx = FieldContext(p)
    pts = frames(plan, p)[0]
    assert math.comb(len(pts), plan.T) > cap
    rng_new, rng_old = np.random.default_rng(11), np.random.default_rng(11)
    new = privacy_audit(plan, ctx, pts, cap=cap, rng=rng_new)
    old = loop_audit(plan, ctx, pts, cap=cap, rng=rng_old)
    assert new == old and not new.exhaustive and new.method == "sampled"
    assert rng_new.integers(1 << 62) == rng_old.integers(1 << 62)


def test_sampled_audit_that_stops_early_counts_draws_up_to_tenth_failure():
    plan, p = PLANS["gasp_r(3,3,3)"]
    ctx = FieldContext(p)
    pts = frames(plan, p)[0]
    cap = 1000
    new = privacy_audit(plan, ctx, pts, cap=cap, rng=np.random.default_rng(11))
    old = loop_audit(plan, ctx, pts, cap=cap, rng=np.random.default_rng(11))
    assert new == old and not new.exhaustive
    assert len(new.failures) == 10 and new.checked < cap


def test_differential_check_catches_kernel_without_row_swap(monkeypatch):
    monkeypatch.setattr(gf, "_swap_rows", lambda stack, i, j: None)
    assert any(privacy_audit(plan, FieldContext(p), pts)
               != loop_audit(plan, FieldContext(p), pts)
               for plan, p in PLANS.values() for pts in frames(plan, p))


def test_sampled_audit_ranks_each_distinct_draw_once():
    plan = optimal_gasp_r(3, 3, 3)
    p = 100_003
    pts = frames(plan, p)[0]
    cap = 500
    rng, twin = np.random.default_rng(0), np.random.default_rng(0)
    report = privacy_audit(plan, FieldContext(p), pts, cap=cap, rng=rng)
    draws = {tuple(sorted(twin.choice(len(pts), size=plan.T, replace=False).tolist()))
             for _ in range(cap)}
    assert report.ok and report.method == "sampled" and not report.exhaustive
    assert report.checked == len(draws) < cap < math.comb(len(pts), plan.T)
    # all cap draws are still made, so the generator state after the audit is unchanged
    assert rng.integers(1 << 62) == twin.integers(1 << 62)


def enumerated_audit(plan, ctx, points):
    """``privacy_audit`` ranking every T-subset, with the progression proof off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "_progression_proves", lambda *args: False)
        return privacy_audit(plan, ctx, points, cap=math.comb(len(points), plan.T))


def builder_plans():
    """One plan per distinct audit among the builders' plans with K, L, T <= 4
    and C(N, T) <= 2e4, plus qf_klt(5,3) and qf_square(2) (C(39, 4) = 82251).

    Plans with the same noise sides, T and N get the same audit on the
    same frames, so only the first of them is kept.
    """
    small = range(1, 5)
    calls = [(build_qf_klt, args) for args in product(small, repeat=2)]
    for K, L, T in product(small, repeat=3):
        calls += [(build_cat, (K, L, T)), (build_low_privacy, (K, L, T))]
        for r in small:
            calls.append((build_gasp_r, (K, L, T, r)))
            calls += [(build, (K, L, T, r, s)) for build in (build_gasp_rs, build_dog)
                      for s in small]
    for args in product(small, repeat=3):
        calls += [(build, args) for build in (build_qf_power, build_qf_additive,
                                              build_qf_kt, build_qf_kt_shift)]
    grid = []
    for build, args in calls:
        try:
            grid.append(build(*args))
        except ValueError:
            continue
    plans = {}
    for plan in [p for p in grid if max(p.K, p.L, p.T) <= 4
                 and math.comb(p.table.n_servers, p.T) <= 20_000] \
            + [build_qf_klt(5, 3), build_qf_square(2)]:
        plans.setdefault((plan.noise_alpha, plan.noise_beta, plan.T, plan.table.n_servers), plan)
    return list(plans.values())


# Up to this many T-subsets the reference is ``loop_audit``.  Above it,
# a proof is checked against ``enumerated_audit``, which
# ``test_batched_audit_matches_loop`` ties to the loop (the loop ranks
# about 6 subsets per ms, too slow for the 1.5M subsets of proved
# frames), and any other report comes from that same ranking path.
LOOP_MAX = 120


def audit_cases():
    """(plan, p, frame index, report, reference) at cap C(N, T), plan by plan.

    Each plan is audited over the smallest prime p >= N + 2 (F_29 for
    gasp_r(3,3,3), N = 22, whose alpha noise side (9, 10, 12) is
    general) on three frames: distinct points (0), one point repeated
    (2) and a zero point (3).  The reference is None where the report
    came from the ranking path and the loop would be too slow.
    """
    for plan in builder_plans():
        n = plan.table.n_servers
        total = math.comb(n, plan.T)
        p = next_prime(n + 2)
        ctx = FieldContext(p)
        for i in (0, 2, 3):
            pts = frames(plan, p)[i]
            got = privacy_audit(plan, ctx, pts, cap=total)
            if total <= LOOP_MAX:
                ref = loop_audit(plan, ctx, pts, cap=total)
            elif got.method == "proof":
                ref = enumerated_audit(plan, ctx, pts)
            else:
                ref = None
            yield plan, p, i, got, ref


def test_progression_proof_matches_enumeration_on_builder_plans():
    plans = builder_plans()
    assert len(plans) > 500
    assert any(p.noise_alpha == (9, 10, 12) and p.table.n_servers == 22 for p in plans)
    seen = set()
    for plan, p, i, got, ref in audit_cases():
        assert ref is None or got == ref, (plan, p, i)
        seen.add((got.method, got.ok, i))
        if got.method == "proof":
            assert got.ok and got.exhaustive
            assert got.checked == math.comb(plan.table.n_servers, plan.T)
            # two servers sharing a point see the same noise: no proof for T >= 2
            assert i != 2 or plan.T == 1
    # proofs on distinct and zero-point frames, ranked failures on every frame kind
    assert {("proof", True, 0), ("proof", True, 3)} <= seen
    assert {("enumerated", False, i) for i in (0, 2, 3)} <= seen


def test_differential_check_catches_proof_of_any_distinct_exponents(monkeypatch):
    def loose(exps, points, t, p):
        """Wrong: takes distinct exponents and points for a proof, AP or not."""
        xs = [int(x) % p for x in points]
        return len(set(exps)) == len(exps) and 0 not in xs and len(set(xs)) == len(xs)

    monkeypatch.setattr(protocol, "_progression_proves", loose)
    assert any(ref is not None and got != ref for *_, got, ref in audit_cases())


CAT222 = build_cat(2, 2, 2)
CAT222_POINTS = [pow(2, i, 11) for i in range(10)]  # its order-10 coset in F_11


@pytest.mark.parametrize("x", [1.5, np.float64(2.0), "3"])
def test_audit_refuses_a_non_integer_point(x):
    # int(1.5) is 1, the coset's own first point, which the audit would prove private
    with pytest.raises(TypeError):
        privacy_audit(CAT222, FieldContext(11), [x, *CAT222_POINTS[1:]])


def test_audit_reads_integer_points_mod_p_and_fails_zero_and_repeated_ones():
    ctx = FieldContext(11)
    assert privacy_audit(CAT222, ctx, [1 + 11, *CAT222_POINTS[1:]]).method == "proof"
    repeated = privacy_audit(CAT222, ctx, np.array([2, *CAT222_POINTS[1:]]))
    assert not repeated.ok and repeated.failures == ((0, 1),)
    zero = privacy_audit(CAT222, ctx, np.array([0, *CAT222_POINTS[1:]]))
    assert not zero.ok and zero.failures == tuple((0, j) for j in range(1, 10))
