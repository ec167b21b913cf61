"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in
the captured output section); all comparisons are exact unless a
tolerance is stated inline.
"""

import contextlib
import csv
import io
import time
from fractions import Fraction
from itertools import product

import numpy as np

import grs_oracle
from pdmm.cli import main as cli_main
from pdmm.degree_tables import (
    build_cat,
    build_dog,
    build_gasp_r,
    build_gasp_rs,
    build_low_privacy,
    build_qf_additive,
    build_qf_klt,
    build_qf_kt,
    build_qf_square,
    gasp_server_formula,
    optimal_gasp_r,
    outer_sum,
)
from pdmm.feasibility import min_feasible_t, t_hat_estimate
from pdmm.gf import FieldContext
from pdmm.grs import sso_check
from pdmm.protocol import (
    ProtocolConfig,
    privacy_audit,
    quantum_transfer,
    rate_report,
    run_protocol,
    sample_frame,
)


def verdict(number, ok, detail=""):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_formula_matches_enumeration():
    start = time.monotonic()
    points = 0
    mismatches = []
    for K, L, T in product(range(1, 11), repeat=3):
        for r in range(1, min(K, T) + 1):
            points += 1
            plan = build_gasp_r(K, L, T, r)
            enum = len({a + b for a in plan.alpha for b in plan.beta})
            if gasp_server_formula(K, L, T, r) != enum:
                mismatches.append((K, L, T, r))
    elapsed = time.monotonic() - start
    verdict(1, not mismatches and elapsed < 30.0,
            f"{points} grid points, {len(mismatches)} mismatches, {elapsed:.1f}s")


def test_criterion_2_known_server_counts():
    checks = {
        "gasp(4,4,4)": (outer_sum(optimal_gasp_r(4, 4, 4)).n_servers, 36),
        # closed form n^4 + 2n^3 + 2n^2 - n - 2 at n = 3
        "gasp(9,9,9)": (outer_sum(optimal_gasp_r(9, 9, 9)).n_servers, 148),
        "qf_square(2)": (outer_sum(build_qf_square(2)).n_servers, 39),
        "qf_klt(3,2)": (outer_sum(build_qf_klt(3, 2)).n_servers, 15),
        "qf_kt(2,3,1)": (outer_sum(build_qf_kt(2, 3, 1)).n_servers, 47),
        "lp_equal(4,3)": (outer_sum(build_low_privacy(4, 4, 3)).n_servers, 42),
    }
    bad = {name: got for name, (got, want) in checks.items() if got != want}
    verdict(2, not bad, ", ".join(f"{k}={v[0]}" for k, v in checks.items())
            + (f"; wrong: {bad}" if bad else ""))


def test_criterion_3_rate_ratios():
    cases = [
        (build_qf_klt(3, 2), (3, 2, 2), "1.87"),
        (build_qf_klt(4, 2), (4, 2, 2), "1.8"),
        (build_qf_klt(6, 2), (6, 2, 2), "1.7"),
        (build_qf_kt(2, 3, 1), (8, 2, 8), "2"),
    ]
    results = []
    ok = True
    for plan, (K, L, T), stated in cases:
        quantum = rate_report(plan, "quantum").rate
        classical = rate_report(optimal_gasp_r(K, L, T), "classical").rate
        ratio = quantum / classical
        if stated == "2":
            good = ratio == 2
        else:
            decimals = len(stated.split(".")[1])
            good = round(float(ratio), decimals) == float(stated)
        ok &= good
        results.append(f"({K},{L},{T})={float(ratio):.4f}~{stated}:{'ok' if good else 'BAD'}")
    verdict(3, ok, " ".join(results))


DECODE_GRID = [
    ("gasp(2,2,3)", build_gasp_r(2, 2, 3, 2)),
    ("gasp(2,2,4)", build_gasp_r(2, 2, 4, 2)),
    ("cat(2,2,2)", build_cat(2, 2, 2)),
    ("qf_square(2)", build_qf_square(2)),
    ("qf_klt(3,2)", build_qf_klt(3, 2)),
    ("qf_klt(4,2)", build_qf_klt(4, 2)),
    ("qf_additive(2,1,1)", build_qf_additive(2, 1, 1)),
    ("lp_equal(4,3)", build_low_privacy(4, 4, 3)),
    ("lp_equal(5,2)", build_low_privacy(5, 5, 2)),
    ("lp_hand(2,2,1)", build_low_privacy(2, 2, 1)),
    ("lp_hand(3,3,1)", build_low_privacy(3, 3, 1)),
]


def grid_dims(plan):
    return [None, (2 * plan.K, 3, 3 * plan.L)]  # 1x1 and 2x3 block shapes


def test_criterion_4_end_to_end_decode():
    start = time.monotonic()
    failures = []
    runs = 0
    for name, plan in DECODE_GRID:
        for dims in grid_dims(plan):
            for mode in ("classical", "quantum"):
                cfg = ProtocolConfig(plan=plan, dims=dims, mode=mode, seed=13,
                                     audit_cap=2000)
                t = run_protocol(cfg)
                runs += 1
                exact = t.decode_ok and all(
                    np.array_equal(dec, np.asarray(a) @ np.asarray(b) % t.modulus)
                    for dec, a, b in zip(t.decoded, t.a_inputs, t.b_inputs))
                if not exact:
                    failures.append((name, dims, mode))
    elapsed = time.monotonic() - start
    verdict(4, not failures and elapsed < 60.0,
            f"{runs} runs exact, {elapsed:.1f}s" + (f"; failed: {failures}" if failures else ""))


def test_criterion_5_transfer_matrix_laws():
    bad = []
    for name, plan in DECODE_GRID:
        cfg = ProtocolConfig(plan=plan, mode="quantum", seed=13, audit_cap=2000)
        frame, _ = sample_frame(cfg, np.random.default_rng(13))
        ctx = frame.ctx
        tm = quantum_transfer(frame)
        laws = (sso_check(ctx, tm.g)
                and not ctx.matmul(tm.m, tm.g).any()
                and np.array_equal(ctx.matmul(tm.m, tm.h), ctx.identity(tm.n)))
        if not laws:
            bad.append(name)
    verdict(5, not bad, f"{len(DECODE_GRID)} transfer matrices"
            + (f"; failed: {bad}" if bad else ""))


def test_criterion_6_duality_laws():
    rng = np.random.default_rng(606)
    primes = [11, 13, 101, 131]
    cases = 0
    bad = 0
    while cases < 200:
        p = primes[cases % 4]
        ctx = FieldContext(p)
        n = int(rng.integers(1, 13))
        if n > p - 1:
            continue
        pts = (rng.choice(p - 1, size=n, replace=False) + 1).tolist()
        u = rng.integers(1, p, size=n).tolist()
        l1 = int(rng.integers(0, 6))
        l2 = int(rng.integers(0, 6))
        v = grs_oracle.dual_multipliers(ctx, pts, u, l1, l2)
        for k in range(n + 1):
            g1 = grs_oracle.generator(ctx, pts, u, k, shift=l1)
            g2 = grs_oracle.generator(ctx, pts, v, n - k, shift=l2)
            if ctx.matmul(g1.T, g2).any():
                bad += 1
                break
        cases += 1
    verdict(6, bad == 0, f"200 seeded frames, {bad} violations")


def test_criterion_7_feasibility_regression():
    mins = {K: min_feasible_t(K, K) for K in range(2, 7)}
    within = all(abs(mins[K] - round(t_hat_estimate(K, K))) <= 1 for K in mins)
    anchored = mins[2] == 3
    monotone = all(mins[K] <= mins[K + 1] for K in range(2, 6))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli_main(["feasibility", "--k-range", "2:6"])
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    csv_ok = (len(rows) == 5
              and list(rows[0]) == ["K", "L", "T_min_bruteforce", "T_hat", "delta"]
              and all(abs(int(r["delta"])) <= 1 for r in rows))
    verdict(7, within and anchored and monotone and csv_ok,
            f"min T {mins}, CSV rows {len(rows)}")


class _DuplicateFirstRng:
    """Yields a duplicated point set on the first draw, then behaves."""

    def __init__(self, seed):
        self.inner = np.random.default_rng(seed)
        self.draws = 0

    def choice(self, *args, **kwargs):
        self.draws += 1
        if self.draws == 1:
            picked = self.inner.choice(*args, **kwargs)
            picked[-1] = picked[0]  # duplicated server point
            return picked
        return self.inner.choice(*args, **kwargs)

    def integers(self, *args, **kwargs):
        return self.inner.integers(*args, **kwargs)


def test_criterion_8_privacy_audit():
    gasp = build_gasp_r(2, 2, 3, 2)
    cfg = ProtocolConfig(plan=gasp, mode="classical", seed=5, prime=131)
    frame, audit = sample_frame(cfg, np.random.default_rng(5))
    ctx = frame.ctx
    gasp_ok = audit.ok and audit.exhaustive and audit.checked == 286

    cat = build_cat(2, 2, 2)
    cat_frame, cat_audit = sample_frame(
        ProtocolConfig(plan=cat, mode="classical", seed=0), np.random.default_rng(0))
    cat_ok = cat_audit.ok and cat_audit.exhaustive and cat_audit.checked == 45

    # a duplicated-point draw must be resampled away, never accepted
    stub = _DuplicateFirstRng(9)
    frame2, audit2 = sample_frame(cfg, stub)
    resampled = stub.draws >= 2 and len(set(frame2.points)) == 13 and audit2.ok
    direct = privacy_audit(gasp, ctx, list(frame.points[:-1]) + [frame.points[0]])
    rejected = not direct.ok
    verdict(8, gasp_ok and cat_ok and resampled and rejected,
            f"gasp 286 subsets:{gasp_ok}, cat 45 subsets:{cat_ok}, "
            f"resampled:{resampled}, duplicate rejected:{rejected}")


def test_criterion_9_schrodinger_cat_replication():
    plan = build_cat(2, 2, 2)
    t = run_protocol(ProtocolConfig(plan=plan, mode="quantum", seed=3))
    structural = (t.modulus == 11
                  and t.rate.n_servers == 10
                  and t.points == tuple(pow(2, i, 11) for i in range(10))
                  and len(t.decoded) == 2
                  and t.decode_ok)
    quantum_rate = t.rate.rate
    classical_best = {}
    classical_best["gasp_r"] = outer_sum(optimal_gasp_r(2, 2, 2)).n_servers
    classical_best["gasp_rs"] = min(
        outer_sum(build_gasp_rs(2, 2, 2, r, s)).n_servers
        for r in (1, 2) for s in (1, 2))
    classical_best["dog_rs"] = min(
        outer_sum(build_dog(2, 2, 2, r, s)).n_servers
        for r in (1, 2) for s in (1, 2))
    classical_best["cat_x"] = outer_sum(plan).n_servers
    best_rate = max(Fraction(4, n) for n in classical_best.values())
    verdict(9, structural and quantum_rate == Fraction(4, 5)
            and quantum_rate > best_rate,
            f"R_Q={quantum_rate}, best classical={best_rate}, "
            f"servers={classical_best}")
