import numpy as np
import pytest

from pdmm.degree_tables import build_cat, build_gasp_r, outer_sum
from pdmm.feasibility import longest_run
from pdmm.gf import DuplicatePointError, FieldContext, ZeroPointError, element_of_order
from pdmm.grs import (
    EvalFrame,
    ShapeMismatchError,
    grs_generator,
    shifted_dual_multipliers,
    sso_check,
)
from pdmm.protocol import ProtocolConfig, default_field, sample_frame


def assert_full_duality(ctx, points, u, v, l1=0, l2=0):
    """Oracle: the two generators multiply to zero for every split k."""
    n = len(points)
    for k in range(n + 1):
        g1 = grs_generator(ctx, points, u, k, shift=l1)
        g2 = grs_generator(ctx, points, v, n - k, shift=l2)
        assert np.all(ctx.matmul(g1.T, g2) == 0), f"split k={k}"


def test_dual_multipliers_two_points():
    ctx = FieldContext(5)
    v = shifted_dual_multipliers(ctx, [1, 2], [1, 1], 0, 0)
    assert v.tolist() == [1, 4]
    assert (1 * 1 + 1 * 4) % 5 == 0
    assert_full_duality(ctx, [1, 2], [1, 1], v)


def test_dual_multipliers_single_point():
    ctx = FieldContext(11)
    v = shifted_dual_multipliers(ctx, [7], [3], 0, 0)
    assert v.tolist() == [ctx.inv(3)]  # empty difference product


def test_dual_multipliers_three_points():
    ctx = FieldContext(11)
    v = shifted_dual_multipliers(ctx, [1, 2, 3], [1, 1, 1], 0, 0)
    assert_full_duality(ctx, [1, 2, 3], [1, 1, 1], v)


def test_duplicate_points_rejected():
    ctx = FieldContext(11)
    with pytest.raises(DuplicatePointError):
        shifted_dual_multipliers(ctx, [1, 1], [1, 1], 0, 0)


def test_generator_rejects_a_multiplier_count_that_differs_from_the_points():
    with pytest.raises(ShapeMismatchError, match="2 multipliers for 3 points"):
        grs_generator(FieldContext(13), [1, 2, 3], [1, 1], 2)


def test_generator_rejects_a_zero_multiplier():
    with pytest.raises(ValueError, match="multipliers must be nonzero"):
        grs_generator(FieldContext(13), [1, 2, 3], [1, 0, 1], 2)
    with pytest.raises(ValueError, match="multipliers must be nonzero"):
        grs_generator(FieldContext(13), [1, 2, 3], [1, 13, 1], 2)


def test_shifted_dual_cyclic_points():
    # order-10 coset in F_11, both halves shifted by 5
    ctx = FieldContext(11)
    omega = element_of_order(10, ctx.p)
    assert omega == 2
    pts = [pow(omega, i, 11) for i in range(10)]
    u = [1] * 10
    v = shifted_dual_multipliers(ctx, pts, u, 5, 5)
    g1 = grs_generator(ctx, pts, u, 5, shift=5)
    g2 = grs_generator(ctx, pts, v, 5, shift=5)
    assert np.all(ctx.matmul(g1.T, g2) == 0)


def test_shifted_dual_mixed_shifts():
    ctx = FieldContext(13)
    pts = [1, 2, 3, 4]
    u = [1, 1, 1, 1]
    v = shifted_dual_multipliers(ctx, pts, u, 1, 2)
    g1 = grs_generator(ctx, pts, u, 2, shift=1)
    g2 = grs_generator(ctx, pts, v, 2, shift=2)
    assert np.all(ctx.matmul(g1.T, g2) == 0)
    assert_full_duality(ctx, pts, u, v, 1, 2)


def test_sso_rank_one():
    ctx = FieldContext(11)
    assert sso_check(ctx, np.array([[1], [0]]))


def test_sso_block_diagonal_duals():
    for p in (11, 13, 101):
        ctx = FieldContext(p)
        rng = np.random.default_rng(p)
        for _ in range(5):
            n = int(rng.integers(2, 9))
            pts = (rng.choice(p - 1, size=n, replace=False) + 1).tolist()
            u = (rng.integers(1, p, size=n)).tolist()
            k = int(rng.integers(1, n))
            v = shifted_dual_multipliers(ctx, pts, u, 0, 0)
            m1 = grs_generator(ctx, pts, u, k)
            m2 = grs_generator(ctx, pts, v, n - k)
            g = np.block([[m1, np.zeros((n, n - k), dtype=np.int64)],
                          [np.zeros((n, k), dtype=np.int64), m2]])
            assert sso_check(ctx, g)


def test_sso_false_case():
    ctx = FieldContext(11)
    g = np.array([[1, 0], [0, 1], [0, 1], [0, 0]])
    assert not sso_check(ctx, g)


def test_sso_shape_check():
    ctx = FieldContext(11)
    with pytest.raises(ShapeMismatchError):
        sso_check(ctx, np.zeros((3, 2)))


def test_eval_frame_validation():
    ctx = FieldContext(13)
    pts = (2, 5, 7, 11, 12)
    for s in (0, 1, 3):
        frame = EvalFrame(ctx, pts, shift=s)
        want = shifted_dual_multipliers(ctx, pts, [1] * len(pts), s, s)
        assert frame.v == tuple(want.tolist()) and frame.n == len(pts)
        assert_full_duality(ctx, pts, [1] * len(pts), frame.v, s, s)
    assert EvalFrame(ctx, pts).v is None
    assert EvalFrame(ctx, (15, 3)).points == (2, 3)
    for shift in (None, 2):
        with pytest.raises(ZeroPointError):
            EvalFrame(ctx, (1, 13, 2), shift)
        with pytest.raises(DuplicatePointError):
            EvalFrame(ctx, (1, 3, 16), shift)


@pytest.mark.parametrize("plan", [build_cat(2, 2, 2), build_gasp_r(2, 2, 3, 2)])
def test_sampled_quantum_frame_is_dual_at_its_shift(plan):
    cfg = ProtocolConfig(plan=plan, mode="quantum", seed=1)
    ctx = default_field(plan)
    frame, _ = sample_frame(cfg, ctx, np.random.default_rng(1))
    shift = longest_run(outer_sum(plan).interference)[0]
    assert frame.shift == shift
    assert_full_duality(ctx, frame.points, [1] * frame.n, frame.v, shift, shift)
