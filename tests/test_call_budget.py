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
are deterministic, so a stage that goes back to recomputing powers, node
products, point checks, draws or law products, or to keeping a per-run
check, shows here even where its time would hide in the noise.  Each pin
has a negative control that puts the old step back and must miss it.

Servers multiply the float shares their encoder just formed, so no stage
of a run hands ``FieldContext.matmul`` a stack of shares: in a small
cat(2,2,2) quantum run only the quantum decode and the final A B check
reach it, with 2-D operands, and nothing calls ``np.stack``.
"""

import collections
import functools
import sys

import numpy as np
import pytest

import share_oracle
from pdmm import degree_tables, gf, protocol
from pdmm.degree_tables import build_cat, build_qf_klt
from pdmm.grs import sso_check
from pdmm.nsumbox import NotSSOError, TransferMatrix
from pdmm.protocol import ProtocolConfig, run_protocol

BUDGET = {"_powers": 2, "_node_products": 0, "_admissible_points": 2}


def quantum_run(seed=0, plan=None):
    """One qf_klt(5,3) quantum run, its audit proved, both instances decoded."""
    t = run_protocol(ProtocolConfig(plan=plan or build_qf_klt(5, 3), mode="quantum", seed=seed))
    assert t.decode_ok and t.audit.method == "proof" and t.rate.instances == 2
    return t


def kernel_calls(monkeypatch):
    """Calls of each budgeted ``gf`` kernel during one qf_klt(5,3) quantum run.

    Each kernel is wrapped at every ``pdmm`` module that binds it, since
    ``protocol`` and ``grs`` import them by name.
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


def test_budget_catches_node_products_in_the_frame(monkeypatch):
    """P'(x) from the node products prod_{k != i} (x_k - x_i), as the frame
    formed its weights before it read them off the power run."""
    def from_node_products(self, run, coeffs):
        x, n = run[:, 1], coeffs.size - 1
        nodes = gf._node_products(x, self.p)
        return nodes if n % 2 else (self.p - nodes) % self.p  # (-1)^(N-1)

    monkeypatch.setattr(gf.FieldContext, "_derivative", from_node_products)
    assert over_budget(kernel_calls(monkeypatch)) == {"_node_products": 1}


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
        getattr(gf, name)(*{"_powers": (x, [1], ctx.p), "_node_products": (x, ctx.p),
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
    int64 share stacks, as before the fused pass, trips every part of the pin."""
    def old_pair(frame, *blocks):
        f, g = share_oracle.encode_shares(frame, *blocks)
        return f, g, share_oracle.server_compute(frame.ctx, f, g)

    monkeypatch.setattr(protocol, "encode_and_multiply", old_pair)
    calls, stacks = matmul_calls(monkeypatch)
    assert stacks == 4  # one per side and instance
    encoder = [ranks for ranks, stage in calls if "instance" in stage]
    assert encoder.count((3, 3)) == 2 and len(encoder) == 6
