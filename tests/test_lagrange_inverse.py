"""The Lagrange inverse of a Vandermonde generator against elimination.

A plan whose table exponents are exactly 0, 1, ..., N - 1 has the plain
Vandermonde generator, and ``sample_frame`` inverts it by Lagrange
interpolation (``FieldContext._vandermonde_inverse``) instead of
Gauss-Jordan elimination.  The two must agree entry for entry, on every
such plan of the feasible builder grid, on the cyclic cat frames and on
qf_square(3) (N = 179), over each plan's default field and over the
floor 10007.  The negative controls corrupt the node products the
weights are inverted from, and the check must catch both.
"""

import functools
from itertools import product

import numpy as np
import pytest

from pdmm import gf
from pdmm.degree_tables import build_cat, build_qf_square
from pdmm.protocol import ProtocolConfig, sample_frame
from test_generator_inverse import FLOORS, builder_plans


def is_vandermonde(plan):
    return plan.table.exponents == tuple(range(plan.table.n_servers))


def cat_plans():
    plans = []
    for args in product(range(2, 7), repeat=3):
        try:
            plans.append(build_cat(*args))
        except ValueError:
            continue
    return plans


@functools.cache
def frames():
    """Classical frames of every plan under test.  The audit is not under
    test here, so its cap of 1 subset keeps sampling to about one attempt."""
    plans = [p for p in builder_plans() if is_vandermonde(p)]
    plans += cat_plans() + [build_qf_square(3)]
    out = []
    for plan in plans:
        for floor in FLOORS:
            cfg = ProtocolConfig(plan=plan, seed=1, prime=floor, audit_cap=1)
            out.append(sample_frame(cfg, np.random.default_rng(cfg.seed))[0])
    return out


def lagrange_mismatches():
    """Frames whose Lagrange inverse differs from eliminating the generator."""
    bad = []
    for frame in frames():
        ctx = frame.ctx
        got = ctx._vandermonde_inverse(ctx.asarray(frame.points))
        if not np.array_equal(got, ctx.mat_inverse(frame.generator)):
            bad.append((frame.plan.family, frame.n, ctx.p))
    return bad


def test_grid_covers_every_kind_of_vandermonde_plan():
    fs = frames()
    assert sum(is_vandermonde(p) for p in builder_plans()) == 139
    assert len(cat_plans()) == 23
    assert len(fs) == 2 * (139 + 23 + 1)
    assert sum(bool(f.plan.modulus_q) for f in fs) == 2 * (1 + 23)  # cyclic frames
    assert max(f.n for f in fs) == 179
    assert {f.ctx.p for f in fs if f.n == 179} == {181, 10007}
    assert all(f.inverse.dtype == np.int64 for f in fs)


def test_lagrange_inverse_matches_elimination():
    assert lagrange_mismatches() == []
    # and it is the inverse the sampled frames carry
    for frame in frames():
        assert np.array_equal(frame.inverse,
                              frame.ctx._vandermonde_inverse(frame.ctx.asarray(frame.points)))


@pytest.mark.parametrize("corrupt", [
    lambda nodes, p: (p - nodes) % p,  # every weight's sign flipped
    lambda nodes, p: np.concatenate([nodes[:1] * 2 % p, nodes[1:]]),  # one node off by 2
], ids=["weights-negated", "one-node-doubled"])
def test_differential_check_catches_corrupt_weights(monkeypatch, corrupt):
    frames()  # sampled with the true inverse
    real = gf._node_products
    monkeypatch.setattr(gf, "_node_products", lambda x, p: corrupt(real(x, p), p))
    assert len(lagrange_mismatches()) == len(frames())
