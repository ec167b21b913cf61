import numpy as np
import pytest

import elimination_oracle as oracle
from pdmm.degree_tables import build_gasp_r
from pdmm.gf import FieldContext
from pdmm.grs import ShapeMismatchError
from pdmm.nsumbox import NotSSOError, TransferMatrix, apply_box
from pdmm.protocol import ProtocolConfig, quantum_transfer, sample_frame


def tiny_box(ctx, g_col, h_col):
    g = np.array(g_col, dtype=np.int64).reshape(2, 1)
    h = np.array(h_col, dtype=np.int64).reshape(2, 1)
    return TransferMatrix(ctx, oracle.transfer(ctx, g, h), g, h)


def test_single_server_boxes():
    ctx = FieldContext(11)
    assert tiny_box(ctx, [1, 0], [0, 1]).m.tolist() == [[0, 1]]
    assert tiny_box(ctx, [0, 1], [1, 0]).m.tolist() == [[1, 0]]


def quantum_fixture(prime=131):
    plan = build_gasp_r(2, 2, 3, 2)
    cfg = ProtocolConfig(plan=plan, mode="quantum", seed=11, prime=prime)
    frame, _ = sample_frame(cfg, np.random.default_rng(cfg.seed))
    return plan, frame.ctx, frame


def test_transfer_laws_on_protocol_frame():
    _, ctx, frame = quantum_fixture()
    tm = quantum_transfer(frame)
    n = tm.n
    assert n == 13
    assert np.all(ctx.matmul(tm.m, tm.g) == 0)
    assert np.all(ctx.matmul(tm.m, tm.h) == ctx.identity(n))
    assert oracle.rank(ctx, tm.m) == n
    assert np.array_equal(tm.m, oracle.transfer(ctx, tm.g, tm.h))


def test_apply_box_kills_stabilized_directions():
    _, ctx, frame = quantum_fixture()
    tm = quantum_transfer(frame)
    rng = np.random.default_rng(5)
    w = rng.integers(0, ctx.p, size=(tm.n, 1))
    z = rng.integers(0, ctx.p, size=(tm.n, 1))
    assert np.all(apply_box(tm, ctx.matmul(tm.g, w)) == 0)
    assert np.array_equal(apply_box(tm, ctx.matmul(tm.h, z)), z % ctx.p)
    mixed = (ctx.matmul(tm.g, w) + ctx.matmul(tm.h, z)) % ctx.p
    assert np.array_equal(apply_box(tm, mixed), z % ctx.p)


def test_apply_box_linearity():
    _, ctx, frame = quantum_fixture()
    tm = quantum_transfer(frame)
    rng = np.random.default_rng(17)
    x1 = rng.integers(0, ctx.p, size=(2 * tm.n, 1))
    x2 = rng.integers(0, ctx.p, size=(2 * tm.n, 1))
    a, b = 3, 8
    combined = apply_box(tm, (a * x1 + b * x2) % ctx.p)
    split = (a * apply_box(tm, x1) + b * apply_box(tm, x2)) % ctx.p
    assert np.array_equal(combined, split)


def test_transfer_matrix_checks_its_laws_at_construction():
    ctx = FieldContext(11)
    g, h = np.array([[1], [0]]), np.array([[0], [1]])
    assert TransferMatrix(ctx, np.array([[0, 1]]), g, h).n == 1
    with pytest.raises(AssertionError, match="transfer law m g = 0 failed"):
        TransferMatrix(ctx, np.array([[1, 1]]), g, h)
    with pytest.raises(AssertionError, match="transfer law m h = I failed"):
        TransferMatrix(ctx, np.array([[0, 2]]), g, h)
    not_sso = np.array([[1, 0], [0, 1], [0, 1], [0, 0]])
    with pytest.raises(NotSSOError):
        TransferMatrix(ctx, np.zeros((2, 4), dtype=np.int64), not_sso, not_sso)


def test_apply_box_shape_check():
    ctx = FieldContext(11)
    tm = tiny_box(ctx, [1, 0], [0, 1])
    with pytest.raises(ShapeMismatchError):
        apply_box(tm, [1, 2, 3])
