"""A run computes its point algebra once: a budget of point-kernel calls.

One qf_klt(5,3) quantum run (N = 35, the benchmark's ``audit_bound``
plan, proved private by a progression) builds one frame.  Its power table
is one ``_powers`` pass and the audit's progression check two more; the
generator inverse forms the only node products, from which the dual
multipliers come too; the points are checked by the frame and by the one
``vandermonde`` call.  The counts are deterministic, so a stage that goes
back to recomputing powers, node products or point checks shows here
even where its time would hide in the noise.
"""

import collections
import sys

import pytest

from pdmm import gf, protocol
from pdmm.degree_tables import build_qf_klt
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
