import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grs_oracle
from pdmm.degree_tables import build_cat, build_gasp_r, outer_sum
from pdmm.feasibility import longest_run
from pdmm.gf import FieldContext, element_of_order
from pdmm.grs import ShapeMismatchError, sso_check
from pdmm.protocol import ProtocolConfig, sample_frame


def assert_full_duality(ctx, points, u, v, l1=0, l2=0):
    """Oracle: the two generators multiply to zero for every split k."""
    n = len(points)
    for k in range(n + 1):
        g1 = grs_oracle.generator(ctx, points, u, k, shift=l1)
        g2 = grs_oracle.generator(ctx, points, v, n - k, shift=l2)
        assert np.all(ctx.matmul(g1.T, g2) == 0), f"split k={k}"


def test_dual_multipliers_two_points():
    ctx = FieldContext(5)
    v = grs_oracle.dual_multipliers(ctx, [1, 2], [1, 1], 0, 0)
    assert v.tolist() == [1, 4]
    assert (1 * 1 + 1 * 4) % 5 == 0
    assert_full_duality(ctx, [1, 2], [1, 1], v)


def test_dual_multipliers_single_point():
    ctx = FieldContext(11)
    v = grs_oracle.dual_multipliers(ctx, [7], [3], 0, 0)
    assert v.tolist() == [ctx.inv(3)]  # empty difference product


def test_dual_multipliers_three_points():
    ctx = FieldContext(11)
    v = grs_oracle.dual_multipliers(ctx, [1, 2, 3], [1, 1, 1], 0, 0)
    assert_full_duality(ctx, [1, 2, 3], [1, 1, 1], v)


def test_shifted_dual_cyclic_points():
    # order-10 coset in F_11, both halves shifted by 5
    ctx = FieldContext(11)
    omega = element_of_order(10, ctx.p)
    assert omega == 2
    pts = [pow(omega, i, 11) for i in range(10)]
    u = [1] * 10
    v = grs_oracle.dual_multipliers(ctx, pts, u, 5, 5)
    g1 = grs_oracle.generator(ctx, pts, u, 5, shift=5)
    g2 = grs_oracle.generator(ctx, pts, v, 5, shift=5)
    assert np.all(ctx.matmul(g1.T, g2) == 0)


def test_shifted_dual_mixed_shifts():
    ctx = FieldContext(13)
    pts = [1, 2, 3, 4]
    u = [1, 1, 1, 1]
    v = grs_oracle.dual_multipliers(ctx, pts, u, 1, 2)
    g1 = grs_oracle.generator(ctx, pts, u, 2, shift=1)
    g2 = grs_oracle.generator(ctx, pts, v, 2, shift=2)
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
            v = grs_oracle.dual_multipliers(ctx, pts, u, 0, 0)
            m1 = grs_oracle.generator(ctx, pts, u, k)
            m2 = grs_oracle.generator(ctx, pts, v, n - k)
            g = np.block([[m1, np.zeros((n, n - k), dtype=np.int64)],
                          [np.zeros((n, k), dtype=np.int64), m2]])
            assert sso_check(ctx, g)


def test_sso_false_case():
    ctx = FieldContext(11)
    g = np.array([[1, 0], [0, 1], [0, 1], [0, 0]])
    assert not sso_check(ctx, g)


def two_product_sso(ctx, g):
    """Oracle: G^t J G = top^t bot - bot^t top, both products formed, all zero mod p."""
    g = ctx.asarray(g)
    n = len(g) // 2
    top, bot = g[:n], g[n:]
    return bool(np.all((ctx.matmul(top.T, bot) - ctx.matmul(bot.T, top)) % ctx.p == 0))


def symplectic_case(ctx, rng, n, k, perturb):
    """A 2n x k matrix [A; S A], S symmetric, so G^t J G = A^t S A - (A^t S A)^t = 0.

    ``perturb`` adds 1 to one entry, which usually breaks that.  Entries
    are shifted by random multiples of p, so none need be canonical.
    """
    a = rng.integers(0, ctx.p, size=(n, k))
    s = rng.integers(0, ctx.p, size=(n, n))
    g = np.vstack([a, ctx.matmul(s + s.T, a)])
    if perturb and g.size:
        g[rng.integers(2 * n), rng.integers(k)] += 1
    return g + ctx.p * rng.integers(-2, 3, size=g.shape)


@given(st.sampled_from([3, 11, 101, 2_000_000_011]), st.integers(1, 6), st.integers(0, 6),
       st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_sso_check_matches_the_two_product_oracle(p, n, k, perturb, seed):
    ctx = FieldContext(p)
    g = symplectic_case(ctx, np.random.default_rng(seed), n, k, perturb)
    assert sso_check(ctx, g) == two_product_sso(ctx, g)


def sso_mismatches(check):
    """Cases, half of them perturbed, where ``check`` and the oracle disagree."""
    ctx = FieldContext(11)
    rng = np.random.default_rng(0)
    cases = [symplectic_case(ctx, rng, 4, 3, perturb) for perturb in (False, True) * 10]
    assert {two_product_sso(ctx, g) for g in cases} == {True, False}
    return sum(check(ctx, g) != two_product_sso(ctx, g) for g in cases)


def test_sso_oracle_comparison_catches_wrong_checks():
    assert sso_mismatches(sso_check) == 0
    # top^t bot = 0 alone, and X = X without the transpose
    assert sso_mismatches(lambda ctx, g: not ctx.matmul(g[:4].T, g[4:]).any())
    assert sso_mismatches(lambda ctx, g: True)


def test_sso_shape_check():
    ctx = FieldContext(11)
    with pytest.raises(ShapeMismatchError):
        sso_check(ctx, np.zeros((3, 2)))


@pytest.mark.parametrize("plan", [build_cat(2, 2, 2), build_gasp_r(2, 2, 3, 2)])
def test_sampled_quantum_frame_is_dual_at_its_shift(plan):
    cfg = ProtocolConfig(plan=plan, mode="quantum", seed=1)
    frame, _ = sample_frame(cfg, np.random.default_rng(1))
    ctx = frame.ctx
    shift = longest_run(outer_sum(plan).interference)[0]
    assert frame.shift == shift
    assert_full_duality(ctx, frame.points, [1] * frame.n, frame.v, shift, shift)


def loop_dual_multipliers(p, points, u, shift_sum):
    """Scalar reference: v_i = (u_i a_i^s prod_{j != i} (a_j - a_i))^-1, one pow each."""
    out = []
    for i, a in enumerate(points):
        prod = u[i] * pow(a, shift_sum, p) % p
        for j, b in enumerate(points):
            if j != i:
                prod = prod * (b - a) % p
        out.append(pow(prod, -1, p))
    return out


@given(st.sampled_from([3, 11, 101, 10_007, 2_000_000_011, 2**31 - 1]), st.data())
@settings(max_examples=150, deadline=None)
def test_shifted_dual_multipliers_match_loop_oracle(p, data):
    points = data.draw(st.lists(st.integers(1, p - 1), max_size=9, unique=True))
    u = data.draw(st.lists(st.integers(1, p - 1), min_size=len(points), max_size=len(points)))
    l1, l2 = data.draw(st.integers(-5, 20)), data.draw(st.integers(-5, 20))
    v = grs_oracle.dual_multipliers(FieldContext(p), points, u, l1, l2)
    assert v.dtype == np.int64
    assert v.tolist() == loop_dual_multipliers(p, points, u, l1 + l2)
