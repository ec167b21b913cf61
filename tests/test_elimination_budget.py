"""Sampling a frame eliminates nothing larger than its g x g gap correction.

``sample_frame`` inverts each candidate's generator by interpolation
(``FieldContext._vandermonde_inverse``), and the only elimination in it
is the inverse of the g x g correction, g the number of exponents missing
below the table's top one: ``_eliminate`` sees [C | I], g x 2g.  The
protocol module names neither ``mat_rank`` nor ``mat_inverse``, and
``FieldContext`` has no ``mat_rank``; the rank by elimination is the
tests' oracle (``elimination_oracle.rank``).
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from pdmm.degree_tables import build_cat, build_dog, build_qf_klt, optimal_gasp_r
from pdmm.gf import FieldContext
from pdmm.protocol import ProtocolConfig, ResampleExhaustedError, sample_frame

PROTOCOL_SOURCE = Path(__file__).parents[1] / "src" / "pdmm" / "protocol.py"
ELIMINATIONS = {"mat_rank", "mat_inverse"}


def named(source):
    """Every name and attribute name that ``source`` reads or calls."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_protocol_names_no_elimination():
    assert not named(PROTOCOL_SOURCE.read_text()) & ELIMINATIONS
    assert not hasattr(FieldContext, "mat_rank")
    # negative controls: the rank check and the second inverse sample_frame had
    assert named("if ctx.mat_rank(gen) != n:\n    pass\n") & ELIMINATIONS == {"mat_rank"}
    assert named("inverse = ctx.mat_inverse(gen)\n") & ELIMINATIONS == {"mat_inverse"}


def gaps(plan):
    exps = plan.table.exponents
    return exps[-1] + 1 - len(exps)


def eliminated_shapes(monkeypatch, run):
    """Shapes of every matrix ``_eliminate`` sees while ``run()`` runs."""
    shapes = []
    real = FieldContext._eliminate

    def recorded(self, aug, n):
        shapes.append(aug.shape)
        return real(self, aug, n)

    with monkeypatch.context() as patch:
        patch.setattr(FieldContext, "_eliminate", recorded)
        run()
    return shapes


def sample(plan, **kwargs):
    cfg = ProtocolConfig(plan=plan, **kwargs)
    try:
        return sample_frame(cfg, np.random.default_rng(cfg.seed))[0]
    except ResampleExhaustedError:
        return None


@pytest.mark.parametrize("plan, kwargs", [
    (build_dog(2, 2, 2, 1, 1), {"prime": 60, "seed": 22}),  # 1 singular, 63 failed audits
    (optimal_gasp_r(3, 3, 3), {}),  # 64 failed audits over F_29
    (optimal_gasp_r(6, 6, 6), {"audit_cap": 1}),
    (build_cat(2, 2, 2), {}),
    (build_qf_klt(5, 3), {"mode": "quantum"}),
], ids=["dog_rs(2,2,2,1,1)", "gasp_r(3,3,3)", "gasp_r(6,6,6)", "cat(2,2,2)", "qf_klt(5,3)"])
def test_sample_frame_eliminates_at_most_g_by_2g(monkeypatch, plan, kwargs):
    g = gaps(plan)
    shapes = eliminated_shapes(monkeypatch, lambda: sample(plan, **kwargs))
    assert all(rows <= g and cols <= 2 * g for rows, cols in shapes), (g, set(shapes))
    # one correction per candidate with gaps, none without
    assert bool(shapes) == (g > 0)


def test_budget_catches_eliminating_the_generator(monkeypatch):
    plan = build_dog(2, 2, 2, 1, 1)
    frame = sample(plan)
    shapes = eliminated_shapes(monkeypatch, lambda: frame.ctx.mat_inverse(frame.generator))
    n = frame.n
    assert shapes == [(n, 2 * n)] and n > gaps(plan) == 2
