"""A run computes its point algebra once, and no share stack reaches ``matmul``.

One qf_klt(5,3) quantum run (N = 35, the benchmark's ``audit_bound``
plan, proved private by a progression) builds one frame.  Its power table
is one ``_powers`` pass and the audit's progression check two more; the
generator inverse forms the only node products, from which the dual
multipliers and their inverses come too, and its Lagrange weights are
the run's one Fermat inversion; the points are checked by the frame and by the one
``vandermonde`` call.  The counts are deterministic, so a stage that goes
back to recomputing powers, node products or point checks shows here
even where its time would hide in the noise.

Servers multiply the float shares their encoder just formed, so no stage
of a run hands ``FieldContext.matmul`` a stack of shares: in a small
cat(2,2,2) quantum run only the quantum decode and the final A B check
reach it, with 2-D operands, and nothing calls ``np.stack``.
"""

import collections
import sys

import numpy as np
import pytest

import share_oracle
from pdmm import gf, protocol
from pdmm.degree_tables import build_cat, build_qf_klt
from pdmm.protocol import ProtocolConfig, run_protocol

BUDGET = {"_powers": 3, "_node_products": 1, "_admissible_points": 2}


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
    t = run_protocol(ProtocolConfig(plan=build_qf_klt(5, 3), mode="quantum"))
    assert t.decode_ok and t.audit.method == "proof" and t.rate.instances == 2
    return calls


def over_budget(calls):
    return {name: calls[name] for name in BUDGET if calls[name] > BUDGET[name]}


def test_a_quantum_run_stays_within_its_kernel_budget(monkeypatch):
    calls = kernel_calls(monkeypatch)
    assert over_budget(calls) == {}
    assert all(calls[name] for name in BUDGET)  # each kernel was seen


def test_budget_catches_per_instance_encoder_powers(monkeypatch):
    """Encoding from fresh powers, as before the frame kept a table, costs a
    ``vandermonde`` call per side and instance."""
    monkeypatch.setattr(protocol.EvalFrame, "powers",
                        lambda frame, exps: frame.ctx.vandermonde(frame.points, exps))
    calls = kernel_calls(monkeypatch)
    assert over_budget(calls) == {"_powers": calls["_powers"],
                                  "_admissible_points": calls["_admissible_points"]}
    assert calls["_powers"] >= 3 + 4


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
    """The Lagrange weights are the run's one Fermat pass: the transfer
    matrix reads v^-1 off the frame, formed with v from the node products."""
    calls = []
    real = gf.FieldContext._inverse_all
    monkeypatch.setattr(gf.FieldContext, "_inverse_all",
                        lambda self, x: calls.append(x.shape) or real(self, x))
    t = run_protocol(ProtocolConfig(plan=build_qf_klt(5, 3), mode="quantum"))
    assert t.decode_ok and t.rate.instances == 2
    assert calls == [(35,)]


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
