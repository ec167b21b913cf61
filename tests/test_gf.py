import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmm import gf
from pdmm.gf import (
    DuplicatePointError,
    FieldContext,
    SingularMatrixError,
    ZeroPointError,
    element_of_order,
    is_prime,
    next_prime,
)

F5 = FieldContext(5)
F11 = FieldContext(11)
F13 = FieldContext(13)


def test_scalar_arithmetic_examples():
    assert F11.inv(2) == 6          # 2 * 6 = 12 = 1 mod 11
    assert F5.pow(2, 0) == 1
    assert F5.mul(3, 4) == 2


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        F11.inv(0)


def test_context_validation():
    with pytest.raises(ValueError):
        FieldContext(4)
    with pytest.raises(ValueError):
        FieldContext(2)
    with pytest.raises(ValueError):
        FieldContext(2**31 + 11)


def test_solve_identity():
    x = F5.mat_solve(F5.identity(2), [[3], [4]])
    assert x.tolist() == [[3], [4]]


def test_solve_verified_by_remultiplication():
    a = [[1, 1], [1, 2]]
    b = [[0], [1]]
    x = F5.mat_solve(a, b)
    assert x.tolist() == [[4], [1]]
    assert F5.matmul(a, x).tolist() == b


def test_solve_singular():
    with pytest.raises(SingularMatrixError):
        F5.mat_solve([[1, 2], [2, 4]], [[1], [0]])


def test_rank():
    assert F5.mat_rank([[1, 2], [2, 4]]) == 1
    assert F5.mat_rank(F5.identity(3)) == 3
    assert F5.mat_rank(np.zeros((2, 2))) == 0


def test_vandermonde_examples():
    assert F11.vandermonde([1, 2], [0, 1]).tolist() == [[1, 1], [1, 2]]
    assert F11.vandermonde([2], [0, 1, 2, 3]).tolist() == [[1, 2, 4, 8]]
    assert F13.vandermonde([3, 4, 5], [0, 2]).tolist() == [[1, 9], [1, 3], [1, 12]]


def test_vandermonde_validation():
    with pytest.raises(ZeroPointError):
        F11.vandermonde([0, 1], [0, 1])
    with pytest.raises(DuplicatePointError):
        F11.vandermonde([3, 3], [0, 1])
    with pytest.raises(ValueError):
        F11.vandermonde([1, 2], [1, 1])


@pytest.mark.parametrize("p", [5, 11, 13, 101])
def test_inverse_matrix_roundtrip(p):
    ctx = FieldContext(p)
    rng = np.random.default_rng(p)
    for _ in range(5):
        n = int(rng.integers(1, 6))
        while True:
            a = rng.integers(0, p, size=(n, n))
            if ctx.mat_rank(a) == n:
                break
        assert ctx.matmul(ctx.mat_inverse(a), a).tolist() == ctx.identity(n).tolist()


@pytest.mark.parametrize("p", [11, 101])
def test_consecutive_vandermonde_invertible(p):
    ctx = FieldContext(p)
    rng = np.random.default_rng(3)
    for _ in range(10):
        k = int(rng.integers(1, min(p - 1, 9)))
        points = (rng.choice(p - 1, size=k, replace=False) + 1).tolist()
        v = ctx.vandermonde(points, range(k))
        assert ctx.mat_rank(v) == k


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_arithmetic_closed_and_consistent(x, y):
    p = 101
    ctx = FieldContext(p)
    for val in (ctx.add(x, y), ctx.sub(x, y), ctx.mul(x, y)):
        assert 0 <= val < p
    assert ctx.add(x, y) == (x + y) % p
    assert ctx.mul(x, y) == (x * y) % p
    if x % p:
        assert ctx.mul(ctx.inv(x), x) == 1


def test_matmul_large_modulus_no_overflow():
    p = next_prime(2**31 - 10**5)
    ctx = FieldContext(p)
    a = np.full((1, 100), p - 1, dtype=np.int64)
    b = np.full((100, 1), p - 1, dtype=np.int64)
    assert ctx.matmul(a, b)[0, 0] == 100 % p  # (-1)^2 summed 100 times


def python_int_matmul(a, b, p):
    """Reference A @ B mod p on Python integers, which neither overflow nor round."""
    return np.matmul(np.asarray(a, dtype=object), np.asarray(b, dtype=object)) % p


# 94906249 is the largest prime with (p - 1)^2 < 2^53 and 94906297 the
# next one, so these straddle the switch to 16-bit limbs.
MATMUL_PRIMES = [3, 11, 65537, 94_906_249, 94_906_297, 2_000_000_011, 2**31 - 1]
MATMUL_SHAPES = [
    ((6, 9), (9, 5)),
    ((2, 3, 9), (9, 4)),   # 3-D left operand
    ((4, 9), (9,)),        # 1-D right operand
    ((9,), (9, 3)),
    ((9,), (9,)),
    ((0, 4), (4, 3)),      # empty dimensions
    ((3, 0), (0, 2)),
    ((3, 4), (4, 0)),
]


def one_chunk(p):
    """Inner length of one exact float64 product chunk: 2^53 over the largest sum term."""
    if (p - 1) ** 2 < 2**53:
        return 2**53 // (p - 1) ** 2
    return 2**53 // (2 * (2**16 - 1) ** 2)  # two 16-bit limb products per sum


@pytest.mark.parametrize("p", MATMUL_PRIMES)
def test_matmul_matches_python_integers(p):
    ctx = FieldContext(p)
    rng = np.random.default_rng(p % 997)
    for shape_a, shape_b in MATMUL_SHAPES:
        a = rng.integers(0, p, size=shape_a)
        b = rng.integers(0, p, size=shape_b)
        got = np.asarray(ctx.matmul(a, b))
        want = np.asarray(python_int_matmul(a, b, p))
        assert got.dtype == np.int64 and got.shape == want.shape
        assert got.tolist() == want.tolist()
    # unreduced and negative entries are taken mod p first
    a = rng.integers(-3 * p, 3 * p, size=(4, 7))
    b = rng.integers(-3 * p, 3 * p, size=(7, 2))
    assert ctx.matmul(a, b).tolist() == python_int_matmul(a, b, p).tolist()


@pytest.mark.parametrize("p", MATMUL_PRIMES)
def test_matmul_all_largest_entries(p):
    ctx = FieldContext(p)
    a = np.full((3, 40), p - 1)
    b = np.full((40, 2), p - 1)
    assert ctx.matmul(a, b).tolist() == python_int_matmul(a, b, p).tolist()
    inner = one_chunk(p) + 1
    if inner > 2**21:
        return  # p = 3, 11 or 65537: two chunks would take tens of MB
    a = np.full((1, inner), p - 1)
    b = np.full((inner, 1), p - 1)
    # (p - 1)^2 = 1 mod p, so the product is the inner length mod p
    assert ctx.matmul(a, b).tolist() == [[inner % p]]


@pytest.mark.parametrize("p, exact, low", [
    # all entries p - 1 and no limb split: every product rounds
    (2**31 - 1, 2**64, 2**31 - 2),
    # chunks of about 128 products near 2^53 each: their sums round
    (94_906_249, 2**60, 94_906_249 - 2**20),
])
@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
def test_matmul_with_a_loosened_exactness_bound_is_wrong(monkeypatch, p, exact, low):
    """Negative control: the same kernel with its 2^53 bound raised gives a wrong product."""
    ctx = FieldContext(p)
    rng = np.random.default_rng(1)
    a = rng.integers(low, p, size=(3, 400))
    b = rng.integers(low, p, size=(400, 2))
    want = python_int_matmul(a, b, p).tolist()
    assert ctx.matmul(a, b).tolist() == want
    monkeypatch.setattr(gf, "_EXACT", exact)
    assert ctx.matmul(a, b).tolist() != want


def test_prime_helpers():
    assert is_prime(2) and is_prime(131) and not is_prime(1) and not is_prime(91)
    assert next_prime(14) == 17
    assert next_prime(11) == 11
    assert element_of_order(10, 11) == 2
    with pytest.raises(ValueError):
        element_of_order(7, 11)


def random_stack(ctx, rng, s, r, c):
    """(s, r, c) stack with many zeros and, in every other slice, a planted
    row that is a combination of two others, so ranks vary."""
    p = ctx.p
    a = rng.integers(0, p, size=(s, r, c)) * (rng.random((s, r, c)) < 0.7)
    if r >= 3:
        for k in range(0, s, 2):
            i, j, d = rng.choice(r, size=3, replace=False)
            x, y = (int(v) for v in rng.integers(0, p, size=2))
            a[k, d] = (x * a[k, i] % p + y * a[k, j] % p) % p
    return a


@pytest.mark.parametrize("p", [5, 13, 2_147_483_647])
@pytest.mark.parametrize("r,c", [(3, 3), (2, 5), (5, 2), (4, 6), (6, 4), (1, 1)])
def test_batch_rank_matches_mat_rank(p, r, c):
    ctx = FieldContext(p)
    rng = np.random.default_rng(r * 10 + c)
    stack = random_stack(ctx, rng, 60, r, c)
    stack[:3] = 0
    before = stack.copy()
    ranks = ctx.batch_rank(stack)
    assert np.array_equal(stack, before)
    assert ranks.shape == (60,) and ranks.dtype == np.int64
    assert ranks.tolist() == [ctx.mat_rank(m) for m in stack]
    assert ranks[:3].tolist() == [0, 0, 0]


def test_batch_rank_full_rank_at_largest_modulus():
    # entries near p make every product close to p^2 ~ 2^62
    p = 2_147_483_647
    ctx = FieldContext(p)
    m = np.array([[p - 1, p - 2], [p - 3, p - 1]])
    assert ctx.batch_rank(np.stack([m, m[[0, 0]]])).tolist() == [2, 1]


def test_batch_rank_edge_shapes():
    assert F11.batch_rank(np.zeros((0, 3, 3), dtype=np.int64)).tolist() == []
    assert F11.batch_rank(np.zeros((2, 0, 3), dtype=np.int64)).tolist() == [0, 0]
    assert F11.batch_rank(np.zeros((2, 3, 0), dtype=np.int64)).tolist() == [0, 0]
    with pytest.raises(ValueError, match="stack"):
        F11.batch_rank(F11.identity(3))
