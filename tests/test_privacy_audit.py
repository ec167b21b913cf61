"""The batched privacy audit against the per-subset loop it replaced.

``loop_audit`` is the audit as it was before the batched rank kernel:
one ``mat_rank`` call per T-subset and side, with ``checked`` counting
the subsets it iterated.  It stays here as the reference that
``privacy_audit`` must match report for report.
"""

import math
from itertools import combinations

import numpy as np
import pytest

import pdmm.gf as gf
import pdmm.protocol as protocol
from pdmm.degree_tables import build_cat, build_qf_klt, optimal_gasp_r, outer_sum
from pdmm.gf import FieldContext
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
        subsets = [tuple(sorted(rng.choice(n, size=t, replace=False).tolist()))
                   for _ in range(cap)]
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


@pytest.mark.parametrize("name,cap", [("qf_klt(5,3)", 500), ("gasp_r(3,3,3)", 200)])
def test_sampled_audit_matches_loop_and_rng_state(name, cap):
    plan, p = PLANS[name]
    ctx = FieldContext(p)
    pts = frames(plan, p)[0]
    assert math.comb(len(pts), plan.T) > cap
    rng_new, rng_old = np.random.default_rng(11), np.random.default_rng(11)
    new = privacy_audit(plan, ctx, pts, cap=cap, rng=rng_new)
    old = loop_audit(plan, ctx, pts, cap=cap, rng=rng_old)
    assert new == old and not new.exhaustive and new.checked == cap
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
