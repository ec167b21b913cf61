"""A run pays its fixed costs once, and no share stack reaches ``matmul``.

One qf_klt(5,3) quantum run (N = 35, the benchmark's ``audit_bound``
plan, proved private by a progression) builds one frame.  Its power table
is one ``_powers`` pass, and the audit's progression check one more: both
noise sides have step 1, and the check forms x^d once per distinct step.
The generator inverse reads P'(x) off the table's power run, so the run
forms no node products, and inverts u = (P'(x) x^N x^(2s)) as the run's
one Fermat inversion, from which the Lagrange weights, the dual
multipliers and their inverses all come; the points are checked by the
frame and by the one ``vandermonde`` call.  Each instance draws its inputs and noise with one
``rng.integers`` call, the transfer matrix's two laws are read off one
product (five ``matmul`` calls in all), and each run checks its plan's
decodability once, since no report is kept on the plan.  The counts
are deterministic, so a stage that goes back to recomputing powers,
point checks, draws or law products, or to keeping a per-run check,
shows here even where its time would hide in the noise.  Each pin
has a negative control that puts the old step back and must miss it.

Servers multiply the float shares their encoder just formed, so no stage
of a run hands ``FieldContext.matmul`` a stack of shares: in a small
cat(2,2,2) quantum run only the quantum decode and the final A B check
reach it, with 2-D operands, and nothing calls ``np.stack``.

``matmul`` builds each product as one tile, so a qf_square(4) quantum
frame's transfer matrix (N = 543) takes two GEMMs, one for its SSO check
and one for the product m [g h] its laws are read off.  The negative
control puts back the column tiles every ``matmul`` built, 2^18 bytes
of floats over all output rows each, which re-read all of m per tile.

A transcript stores no share stacks, and ``transcript_dump`` derives
them once: one frame rebuilt per dump and one encoding per instance.
The negative control reads ``shares_f`` and ``shares_g`` per server, as
the dump read stored stacks, and rebuilds a frame and encodes every
instance on each read.
"""

import collections
import functools
import sys

import numpy as np
import pytest

import share_oracle
from pdmm import degree_tables, gf, protocol
from pdmm.degree_tables import build_cat, build_qf_klt, build_qf_square
from pdmm.grs import sso_check
from pdmm.nsumbox import NotSSOError, TransferMatrix
from pdmm.protocol import ProtocolConfig, run_protocol, sample_frame

BUDGET = {"_powers": 2, "_admissible_points": 2}


def quantum_run(seed=0, plan=None):
    """One qf_klt(5,3) quantum run, its audit proved, both instances decoded."""
    t = run_protocol(ProtocolConfig(plan=plan or build_qf_klt(5, 3), mode="quantum", seed=seed))
    assert t.decode_ok and t.audit.method == "proof" and t.rate.instances == 2
    return t


def kernel_calls(monkeypatch):
    """Calls of each budgeted ``gf`` kernel during one qf_klt(5,3) quantum run.

    Each kernel is wrapped at every ``pdmm`` module that binds it, since
    ``protocol`` imports them by name.
    """
    calls = collections.Counter()
    modules = [module for name, module in sys.modules.items() if name.startswith("pdmm")]
    for name in BUDGET:
        real = getattr(gf, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    quantum_run()
    return calls


def over_budget(calls):
    return {name: calls[name] for name in BUDGET if calls[name] > BUDGET[name]}


def test_a_quantum_run_stays_within_its_kernel_budget(monkeypatch):
    calls = kernel_calls(monkeypatch)
    assert over_budget(calls) == {}
    assert {name for name in BUDGET if calls[name]} == {name for name in BUDGET if BUDGET[name]}


def test_budget_catches_per_instance_encoder_powers(monkeypatch):
    """Encoding from fresh powers, as before the frame kept a table, costs a
    ``vandermonde`` call per side and instance."""
    monkeypatch.setattr(protocol.EvalFrame, "powers",
                        lambda frame, exps: frame.ctx.vandermonde(frame.points, exps))
    calls = kernel_calls(monkeypatch)
    assert over_budget(calls) == {"_powers": calls["_powers"],
                                  "_admissible_points": calls["_admissible_points"]}
    assert calls["_powers"] >= 2 + 4


def test_budget_catches_an_audit_that_forms_a_steps_powers_per_side(monkeypatch):
    """Without its per-step cache the progression check forms x^1 once per
    side, as it did, and the run makes 3 ``_powers`` calls."""
    monkeypatch.setattr(protocol.functools, "cache", lambda function: function)
    assert over_budget(kernel_calls(monkeypatch)) == {"_powers": 3}


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_every_budgeted_kernel_is_counted(monkeypatch, name):
    """A stray call of any one kernel breaks the budget."""
    real = protocol.privacy_audit

    def audit_then_call(plan, ctx, points, **kwargs):
        x = ctx.asarray(points)
        getattr(gf, name)(*{"_powers": (x, [1], ctx.p),
                            "_admissible_points": (points, ctx.p)}[name])
        return real(plan, ctx, points, **kwargs)

    monkeypatch.setattr(protocol, "privacy_audit", audit_then_call)
    assert over_budget(kernel_calls(monkeypatch)) == {name: BUDGET[name] + 1}


def test_a_quantum_run_inverts_by_fermat_once(monkeypatch):
    """u = (P'(x) x^N x^(2s))^-1 is the run's one Fermat pass: the Lagrange
    weights, v and the v^-1 the transfer matrix reads all come from it."""
    calls = []
    real = gf.FieldContext._inverse_all
    monkeypatch.setattr(gf.FieldContext, "_inverse_all",
                        lambda self, x: calls.append(x.shape) or real(self, x))
    quantum_run()
    assert calls == [(35,)]


def generator_calls(monkeypatch):
    """Method calls on the generator one qf_klt(5,3) quantum run makes, by name,
    counted through a wrapped ``np.random.default_rng``."""
    calls = collections.Counter()
    real = np.random.default_rng

    class Counted:
        def __init__(self, seed):
            self._rng = real(seed)

        def __getattr__(self, name):
            method = getattr(self._rng, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return counted

    monkeypatch.setattr(np.random, "default_rng", Counted)
    quantum_run()
    return calls


def test_each_instance_draws_with_one_call(monkeypatch):
    assert generator_calls(monkeypatch) == {"choice": 1, "integers": 2}


def test_draw_pin_catches_one_call_per_array(monkeypatch):
    """One ``rng.integers`` call per input and noise array, as before, is 8."""
    monkeypatch.setattr(protocol, "_draw", lambda rng, p, *shapes: [
        rng.integers(0, p, size=shape, dtype=np.int64) for shape in shapes])
    assert generator_calls(monkeypatch)["integers"] == 8


def matmul_callers(monkeypatch):
    """The ``pdmm`` function that made each ``matmul`` call of one qf_klt(5,3) quantum run."""
    callers = collections.Counter()
    real = gf.FieldContext.matmul

    def matmul(self, a, b):
        callers[sys._getframe(1).f_code.co_name] += 1
        return real(self, a, b)

    monkeypatch.setattr(gf.FieldContext, "matmul", matmul)
    quantum_run()
    return callers


def test_the_transfer_laws_take_one_product(monkeypatch):
    # sso_check, both laws, the box, and the final A B check per instance
    assert matmul_callers(monkeypatch) == {"sso_check": 1, "__post_init__": 1,
                                           "apply_box": 1, "<genexpr>": 2}


def test_matmul_pin_catches_one_product_per_law(monkeypatch):
    def two_products(tm):
        """The laws as they were checked, one product each."""
        if not sso_check(tm.ctx, tm.g):
            raise NotSSOError("stabilizer block is not symplectic self-orthogonal")
        if np.any(tm.ctx.matmul(tm.m, tm.g) != 0):
            raise AssertionError("transfer law m g = 0 failed")
        if np.any(tm.ctx.matmul(tm.m, tm.h) != tm.ctx.identity(tm.n)):
            raise AssertionError("transfer law m h = I failed")

    monkeypatch.setattr(TransferMatrix, "__post_init__", two_products)
    callers = matmul_callers(monkeypatch)
    assert callers["two_products"] == 2 and sum(callers.values()) == 6


def decodability_checks(monkeypatch, keep=lambda check: check):
    """``check_decodable`` calls over two quantum runs on one plan; ``keep``
    wraps the counted check at protocol's binding."""
    calls = []
    real = protocol.check_decodable
    monkeypatch.setattr(protocol, "check_decodable",
                        keep(lambda plan: calls.append(plan) or real(plan)))
    plan = build_qf_klt(5, 3)
    for seed in (0, 1):
        quantum_run(seed, plan)
    return len(calls)


def test_each_run_checks_its_plans_decodability_once(monkeypatch):
    assert protocol.check_decodable is degree_tables.check_decodable
    assert decodability_checks(monkeypatch) == 2


def test_decodability_pin_catches_a_kept_report(monkeypatch):
    """A report cached per plan, as ``ExponentPlan.decodability`` kept it, is one check."""
    assert decodability_checks(monkeypatch, keep=functools.cache) == 1


def matmul_calls(monkeypatch):
    """(operand ranks, stage) of each ``matmul`` call in one small cat(2,2,2) quantum run,
    and the number of ``np.stack`` calls.

    A call's stage is the tuple of ``pdmm`` functions between it and
    ``run_protocol``, innermost first; the final check is a generator
    expression in ``run_protocol`` itself.
    """
    calls, stacks = [], []
    real_matmul, real_stack = gf.FieldContext.matmul, np.stack

    def matmul(self, a, b):
        frame, stage = sys._getframe(1), []
        while frame.f_code is not run_protocol.__code__:
            if frame.f_globals["__name__"].startswith("pdmm"):
                stage.append(frame.f_code.co_name)
            frame = frame.f_back
        calls.append(((np.ndim(a), np.ndim(b)), tuple(stage)))
        return real_matmul(self, a, b)

    monkeypatch.setattr(gf.FieldContext, "matmul", matmul)
    monkeypatch.setattr(np, "stack", lambda *args, **kwargs: stacks.append(1) or real_stack(
        *args, **kwargs))
    t = run_protocol(ProtocolConfig(plan=build_cat(2, 2, 2), dims=(4, 6, 4), mode="quantum"))
    assert t.decode_ok and t.rate.instances == 2
    return calls, len(stacks)


FINAL_CHECK = ("<genexpr>",)


def test_no_stage_multiplies_a_share_stack(monkeypatch):
    calls, stacks = matmul_calls(monkeypatch)
    assert stacks == 0
    assert {ranks for ranks, _ in calls} == {(2, 2)}
    assert all(stage == FINAL_CHECK or "decode_quantum" in stage for _, stage in calls)
    assert [stage for _, stage in calls].count(FINAL_CHECK) == 2  # one per instance


def test_the_pin_catches_the_old_encoder_and_server_pair(monkeypatch):
    """Stacking the blocks, encoding them by ``matmul`` and multiplying the
    int64 shares by ``matmul``, as before the fused pass, trips the pin's
    stack and stage parts; ``matmul`` takes no stack of right operands."""
    def old_pair(frame, *blocks):
        return share_oracle.server_compute(frame.ctx, *share_oracle.encode_shares(frame, *blocks))

    monkeypatch.setattr(protocol, "encode_and_multiply", old_pair)
    calls, stacks = matmul_calls(monkeypatch)
    assert stacks == 4  # one per side and instance
    encoder = [ranks for ranks, stage in calls if "instance" in stage]
    assert set(encoder) == {(2, 2)} and len(encoder) == 2 * (2 + 10)  # sides, then servers


def small_cat_run():
    return run_protocol(ProtocolConfig(plan=build_cat(2, 2, 2), dims=(4, 6, 4), mode="quantum"))


def dump_derivations(monkeypatch, share_lines):
    """(frames built, share encodings run) while ``share_lines`` reads the
    shares of one small cat(2,2,2) quantum run (N = 10, two instances),
    and the lines it returns."""
    t = small_cat_run()
    counts = collections.Counter()
    build, encode = protocol.EvalFrame.__post_init__, protocol._shares
    monkeypatch.setattr(protocol.EvalFrame, "__post_init__",
                        lambda frame, layout: counts.update(["frames"]) or build(frame, layout))
    monkeypatch.setattr(protocol, "_shares",
                        lambda *args: counts.update(["encodings"]) or encode(*args))
    return counts, share_lines(t)


def dumped_share_lines(t):
    return [line for line in protocol.transcript_dump(t).splitlines() if line.startswith("share")]


def share_lines_read_per_server(t):
    """The dump's share lines from ``t.shares_f`` and ``t.shares_g`` read
    per server, as the dump read the stored stacks."""
    return [f"share {side} {m + 1} {srv + 1} " + " ".join(map(str, stacks[m][srv].ravel()))
            for m in range(len(t.a_inputs)) for srv in range(len(t.points))
            for side, stacks in (("f", t.shares_f), ("g", t.shares_g))]


def test_a_dump_derives_each_instances_shares_once(monkeypatch):
    counts, lines = dump_derivations(monkeypatch, dumped_share_lines)
    assert counts == {"frames": 1, "encodings": 2}
    assert len(lines) == 2 * 2 * 10


def test_the_dump_pin_catches_a_property_read_per_server_and_side(monkeypatch):
    want = dumped_share_lines(small_cat_run())
    counts, lines = dump_derivations(monkeypatch, share_lines_read_per_server)
    assert lines == want
    assert counts == {"frames": 2 * 2 * 10, "encodings": 2 * 2 * 10 * 2}


def transfer_gemms(monkeypatch):
    """``_limb_product`` calls, one GEMM each on this frame's tier, while
    ``quantum_transfer`` builds and checks a qf_square(4) frame's transfer matrix."""
    cfg = ProtocolConfig(plan=build_qf_square(4), mode="quantum", seed=0)
    frame, _ = sample_frame(cfg, np.random.default_rng(cfg.seed))
    _, count, _, depth = frame.ctx._tier(2 * frame.n)
    assert frame.n == 543 and count == 1 and depth >= 2 * frame.n  # one limb in one chunk
    calls = []
    real = gf.FieldContext._limb_product
    monkeypatch.setattr(gf.FieldContext, "_limb_product",
                        lambda self, *args: calls.append(1) or real(self, *args))
    protocol.quantum_transfer(frame)
    return len(calls)


def test_a_large_transfer_matrix_takes_two_gemms(monkeypatch):
    assert transfer_gemms(monkeypatch) == 2  # sso_check, then m [g h]


def test_the_transfer_pin_catches_column_tiles_in_matmul(monkeypatch):
    """Each product built in column tiles of 2^18 bytes of floats over all
    its rows, cast into int64 one tile at a time, as every ``matmul`` was."""
    def column_tiled(self, a, b):
        a, b = self._canonical(a), self._canonical(b)
        tier = self._tier(len(b))
        out = np.empty((len(a), b.shape[1]), dtype=np.int64)
        width = max(1, 2**18 // np.dtype(tier[0]).itemsize // max(len(a), 1))
        for c in range(0, b.shape[1], width):
            out[:, c:c + width] = self._product(a, b[:, c:c + width], tier)
        return out

    monkeypatch.setattr(gf.FieldContext, "matmul", column_tiled)
    assert transfer_gemms(monkeypatch) == 29
