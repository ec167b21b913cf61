import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elimination_oracle as oracle
from pdmm import gf
from pdmm.degree_tables import build_gasp_r
from pdmm.gf import (
    DuplicatePointError,
    FieldContext,
    SingularMatrixError,
    ZeroPointError,
    element_of_order,
    is_prime,
    next_prime,
)
from pdmm.protocol import EvalFrame

F5 = FieldContext(5)
F11 = FieldContext(11)
F13 = FieldContext(13)


def test_scalar_arithmetic_examples():
    assert F11.inv(2) == 6          # 2 * 6 = 12 = 1 mod 11


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


@pytest.mark.parametrize("p", [7.0, 7.5, "7", None])
def test_modulus_must_be_an_integer(p):
    with pytest.raises(TypeError, match=r"^modulus p must be an integer, got " + re.escape(repr(p))):
        FieldContext(p)


def test_modulus_of_an_integer_type_keeps_its_value_errors():
    assert FieldContext(np.int64(7)).p == 7
    with pytest.raises(ValueError, match=r"^modulus 9 is not prime$"):
        FieldContext(np.int64(9))


def numpy_modulus_mismatches():
    """Primes at which a gasp_r(2,2,2,1) frame over ``FieldContext(np.int64(p))``
    differs from the frame over ``FieldContext(p)``, in its modulus type, points,
    generator or inverse."""
    plan = build_gasp_r(2, 2, 2, 1)
    points = tuple(range(1, plan.table.n_servers + 1))
    bad = []
    for p in (17, 2_000_000_011):
        got, want = (EvalFrame(FieldContext(m), points, plan) for m in (np.int64(p), p))
        if not (type(got.ctx.p) is int and got == want
                and np.array_equal(got.generator, want.generator)
                and np.array_equal(got.inverse, want.inverse)):
            bad.append(p)
    return bad


def test_a_frame_over_a_numpy_modulus_equals_the_int_one():
    assert numpy_modulus_mismatches() == []


def test_the_frame_check_catches_a_modulus_kept_as_a_numpy_integer(monkeypatch):
    """Kept unconverted, p reaches ``int.bit_length`` in the generator inverse."""
    real = gf.FieldContext.__post_init__

    def unconverted(self):
        p = self.p
        real(self)
        object.__setattr__(self, "p", p)

    monkeypatch.setattr(gf.FieldContext, "__post_init__", unconverted)
    with pytest.raises(AttributeError, match="has no attribute 'bit_length'"):
        numpy_modulus_mismatches()


# Each call reads one non-integer entry x, which an int64 cast would
# silently turn into a field element: 1.9 into 1, 0.5 into 0, "3" into 3.
NON_INTEGER_CALLS = {
    "matmul_left": lambda x: F13.matmul(np.array([[x]]), np.array([[2]])),
    "matmul_right": lambda x: F13.matmul([[2]], [[x]]),
    "asarray": lambda x: F13.asarray([1, x]),
    "mat_rank": lambda x: oracle.rank(F13, [[x, 0], [0, 1]]),  # the tests' rank by elimination
    "batch_rank": lambda x: F13.batch_rank([[[x, 0], [0, 1]]]),
    "mat_inverse": lambda x: F13.mat_inverse([[x, 0], [0, 1]]),
}


@pytest.mark.parametrize("x", [1.9, 0.5, float("nan"), "3"])
@pytest.mark.parametrize("call", NON_INTEGER_CALLS.values(), ids=NON_INTEGER_CALLS.keys())
def test_non_integer_entries_are_refused(call, x):
    with pytest.raises(TypeError, match=r"^field elements must be integers, got an array of dtype"):
        call(x)


def test_integer_bool_and_empty_operands_are_read():
    assert F13.matmul(np.array([[True]]), np.array([[15]], dtype=np.uint8)).tolist() == [[2]]
    assert F13.asarray(np.array([-1], dtype=np.int8)).tolist() == [12]
    empty = F13.asarray([])  # float64 to numpy, but there is no entry to truncate
    assert empty.dtype == np.int64 and empty.shape == (0,)
    assert F13.matmul(np.zeros((2, 0)), np.zeros((0, 3))).tolist() == [[0] * 3] * 2
    assert oracle.rank(F13, np.zeros((0, 0))) == 0


def test_unsigned_64_bit_entries_are_read_mod_p():
    """Entries at or above 2^63 are reduced mod p, not wrapped negative by the int64 cast."""
    row = np.array([2**64 - 1, 2**63, 5], dtype=np.uint64)  # 4, 8, 5 mod 11
    ones = np.ones(3, dtype=np.uint64)
    square = np.array([[[2**64 - 1, 8], [1, 2]]], dtype=np.uint64)  # [[4, 8], [1, 2]]: rank 1
    assert F11.asarray(row).tolist() == [4, 8, 5]
    assert F11.matmul(row, ones) == 6 and F11.matmul(row[None], ones[:, None]).tolist() == [[6]]
    assert F11.batch_rank(square).tolist() == [1]
    assert row.tolist() == [2**64 - 1, 2**63, 5]  # the caller's array is not written
    # negative control: read through the wrapping cast, 2^64 - 1 is -1 = 10 and 2^63 is 3
    wrapped = row.astype(np.int64)
    assert F11.asarray(wrapped).tolist() == [10, 3, 5]
    assert F11.matmul(wrapped, ones.astype(np.int64)) == 7
    assert F11.batch_rank(square.astype(np.int64)).tolist() == [2]


def test_inverse_identity():
    assert F5.mat_inverse(F5.identity(2)).tolist() == [[1, 0], [0, 1]]


def test_inverse_verified_by_remultiplication():
    a = [[1, 1], [1, 2]]
    x = F5.mat_inverse(a)
    assert x.tolist() == [[2, 4], [4, 1]]
    assert F5.matmul(a, x).tolist() == F5.identity(2).tolist()


def test_inverse_singular():
    with pytest.raises(SingularMatrixError):
        F5.mat_inverse([[1, 2], [2, 4]])


@pytest.mark.parametrize("a, shape", [
    ([1, 2], "(2,)"), ([], "(0,)"), ([[[1]]], "(1, 1, 1)"), ([[1, 2]], "(1, 2)"),
])
def test_inverse_rejects_a_non_square_shape(a, shape):
    with pytest.raises(ValueError, match=rf"^matrix must be square, got shape {re.escape(shape)}$"):
        F5.mat_inverse(a)


@pytest.mark.parametrize("a, shape", [([1, 2], "(2,)"), ([[[1]]], "(1, 1, 1)")])
def test_rank_rejects_a_non_matrix(a, shape):
    with pytest.raises(ValueError, match=rf"^expected a 2-D matrix, got shape {re.escape(shape)}$"):
        oracle.rank(F5, a)


def test_rank():
    assert oracle.rank(F5, [[1, 2], [2, 4]]) == 1
    assert oracle.rank(F5, F5.identity(3)) == 3
    assert oracle.rank(F5, np.zeros((2, 2), dtype=np.int64)) == 0


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
            if oracle.rank(ctx, a) == n:
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
        assert oracle.rank(ctx, v) == k


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_arithmetic_closed_and_consistent(x):
    p = 101
    ctx = FieldContext(p)
    if x % p:
        assert 0 <= ctx.inv(x) < p
        assert ctx.inv(x) * x % p == 1


def test_matmul_large_modulus_no_overflow():
    p = next_prime(2**31 - 10**5)
    ctx = FieldContext(p)
    a = np.full((1, 100), p - 1, dtype=np.int64)
    b = np.full((100, 1), p - 1, dtype=np.int64)
    assert ctx.matmul(a, b)[0, 0] == 100 % p  # (-1)^2 summed 100 times


def python_int_matmul(a, b, p):
    """Reference A @ B mod p on Python integers, which neither overflow nor round."""
    return np.matmul(np.asarray(a, dtype=object), np.asarray(b, dtype=object)) % p


# The tier switches, each straddled by the primes on either side of it:
# 2887 is the largest prime with (p - 1)^2 + p <= 2^23, so float32 takes
# an inner dimension of 1 there and never at 2897; 67108859 is the
# largest with (p - 1)^2 + p <= 2^52, so it is the last on float64
# entries before 16-bit limbs from 67108879.  94906249 and 94906297
# straddled the limb switch while float64 sums reached 2^53.
MATMUL_PRIMES = [3, 11, 2887, 2897, 65537, 67_108_859, 67_108_879, 94_906_249, 94_906_297,
                 2_000_000_011, 2**31 - 1]
MATMUL_SHAPES = [
    ((6, 9), (9, 5)),
    ((2, 3, 9), (9, 4)),   # 3-D left operand
    ((4, 9), (9,)),        # 1-D right operand
    ((9,), (9, 3)),
    ((9,), (9,)),
    ((0, 4), (4, 3)),      # empty dimensions
    ((3, 0), (0, 2)),
    ((3, 4), (4, 0)),
    ((5, 1), (1, 7)),      # one inner index: float32 up to p = 2887
]


def limb_geometry(p, count, exact=2**52):
    """(bits, depth) of a limb product whose smaller operand is cut into ``count`` limbs.

    The limbs hold ceil(bitlen(p - 1) / count) bits, and a chunk is as
    deep as a Horner step allows: depth whole-entry-by-limb products, a
    carry below p shifted by the limb width and an accumulator below p,
    all within ``exact``.
    """
    bits = -(-(p - 1).bit_length() // count)
    return bits, (exact - p * 2**bits - p) // ((p - 1) * (2**bits - 1))


def one_chunk(p):
    """Inner length of one exact product chunk of the tier that p starts on.

    float32 takes the whole inner dimension while inner (p - 1)^2 + p <= 2^23;
    float64 entries take chunks whose sum, plus a reduced accumulator below
    p, stays within 2^52; past that, a product longer than one two-limb
    chunk cuts its smaller operand into three limbs, whose chunks are these.
    """
    if (p - 1) ** 2 + p <= 2**23:
        return (2**23 - p) // (p - 1) ** 2
    if (p - 1) ** 2 + p <= 2**52:
        return (2**52 - p) // (p - 1) ** 2
    return limb_geometry(p, 3)[1]


def test_tier_switch_primes():
    assert [is_prime(p) for p in (2887, 2897, 67_108_859, 67_108_879)] == [True] * 4
    assert one_chunk(2887) == 1 and (2897 - 1) ** 2 + 2897 > 2**23
    assert not any(map(is_prime, range(2888, 2897)))
    assert one_chunk(67_108_859) == 1 and (67_108_879 - 1) ** 2 > 2**52
    assert not any(map(is_prime, range(67_108_860, 67_108_879)))


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
    for inner in (one_chunk(p), one_chunk(p) + 1):
        if inner > 2**21:
            return  # 2897 or 65537: two chunks would take tens of MB
        a = np.full((1, inner), p - 1)
        b = np.full((inner, 1), p - 1)
        # (p - 1)^2 = 1 mod p, so the product is the inner length mod p
        assert ctx.matmul(a, b).tolist() == [[inner % p]]


# Every prime of MATMUL_PRIMES on the limb tier, and one near 2^29.
LIMB_PRIMES = [p for p in MATMUL_PRIMES if (p - 1) ** 2 + p > 2**52] + [536_870_909]


@pytest.mark.parametrize("p", LIMB_PRIMES)
def test_limb_geometry_matches_its_derivation(p):
    assert [gf._limb_geometry(p, count) for count in (2, 3)] == [limb_geometry(p, 2), limb_geometry(p, 3)]


def test_limb_tier_cuts_the_smaller_operand_into_two_or_three_limbs(monkeypatch):
    cuts = []
    real = gf._limbs

    def spy(x, count, bits, dtype):
        cuts.append((x.shape, count, bits))
        return real(x, count, bits, dtype)

    monkeypatch.setattr(gf, "_limbs", spy)
    ctx = FieldContext(2_000_000_011)
    assert [gf._limb_geometry(ctx.p, count) for count in (2, 3)] == [(16, 33), (11, 1099)]
    for (rows, inner), cols in [((13, 5), 40), ((4, 33), 50), ((6, 34), 2), ((8, 512), 8)]:
        ctx.matmul(np.ones((rows, inner), dtype=np.int64), np.ones((inner, cols), dtype=np.int64))
    # the right operand is cut when the two are the same size
    assert cuts == [((13, 5), 2, 16), ((4, 33), 2, 16), ((34, 2), 3, 11), ((512, 8), 3, 11)]


@pytest.mark.parametrize("p", LIMB_PRIMES)
def test_limb_products_of_largest_entries_at_the_chunk_depths(p):
    """All-(p - 1) operands at and one past each limb count's chunk depth.

    The four inner lengths take two limbs in one chunk, three limbs in
    one chunk, three in one full chunk and three in two chunks; each is
    run with the left operand cut into limbs, then the right one.
    """
    ctx = FieldContext(p)
    (_, two), (_, three) = limb_geometry(p, 2), limb_geometry(p, 3)
    for inner in (two, two + 1, three, three + 1):
        for rows, cols in ((1, 2), (2, 1)):
            a = np.broadcast_to(p - 1, (rows, inner))
            b = np.broadcast_to(p - 1, (inner, cols))
            assert ctx.matmul(a, b).tolist() == python_int_matmul(a, b, p).tolist()


@pytest.mark.parametrize("p", LIMB_PRIMES)
@pytest.mark.parametrize("rows, cols", [(2, 7), (7, 2), (4, 4)])  # left smaller, right smaller, equal
def test_limb_products_match_python_integers(p, rows, cols):
    ctx = FieldContext(p)
    rng = np.random.default_rng(p % 983 + rows)
    (_, two), (_, three) = limb_geometry(p, 2), limb_geometry(p, 3)
    for inner in (1, 13, two, two + 1, three + 1):
        a = rng.integers(0, p, size=(rows, inner))
        b = rng.integers(0, p, size=(inner, cols))
        assert ctx.matmul(a, b).tolist() == python_int_matmul(a, b, p).tolist()


@pytest.mark.parametrize("p", LIMB_PRIMES)
def test_limb_products_of_stacks_vectors_and_views(p):
    ctx = FieldContext(p)
    rng = np.random.default_rng(p % 977)
    for inner in (5, limb_geometry(p, 2)[1] + 1):  # two limbs, then three
        a = rng.integers(0, p, size=(3, 4, inner))
        b = rng.integers(0, p, size=(3, inner, 6))
        pair = rng.integers(0, p, size=(2 * inner, 9))
        cases = [
            (b.transpose(0, 2, 1)[:, :2], a[1].T),         # a stack times one matrix
            (a[:, ::-1], b[0, :, ::3]),
            (a, b[0]),
            (a[0], b[0, :, 0]),                            # 1-D operands
            (b[1, :, 0], b[1]),
            (a[1, 0], b[1, :, 2]),
            (pair[::2].T, pair[1::2, ::-1]),               # strided views
        ]
        for x, y in cases:
            got, want = np.asarray(ctx.matmul(x, y)), np.asarray(python_int_matmul(x, y, p))
            assert got.shape == want.shape and got.tolist() == want.tolist()


@pytest.mark.parametrize("p", LIMB_PRIMES)
@pytest.mark.parametrize("count", [2, 3])
def test_one_limb_products_of_largest_folded_rows_and_limbs(p, count):
    """The limb tier's encoder product at its worst: folded powers all p - 1
    times limb columns all 2^b - 1, read whole on one limb at the Horner
    depth of ``count`` limbs, in one chunk and in two."""
    ctx = FieldContext(p)
    bits, depth = limb_geometry(p, count)
    assert gf._limb_geometry(p, count) == (bits, depth)
    for inner in (depth, 2 * depth):
        a = np.full((2, inner), p - 1)
        b = np.full((inner, 3), 2.0**bits - 1)
        got = ctx._product(a, b, (np.float64, 1, 0, depth))
        assert got.tolist() == [[inner * (p - 1) * (2**bits - 1) % p] * 3] * 2


def test_a_one_limb_chunk_past_2_to_the_54_is_wrong():
    """Negative control: one chunk of 131 indices at p = 2^31 - 1 and 16-bit
    limbs.  p - 1 = 2 (2^30 - 1) and 2^16 - 1 are twice an odd number and odd,
    so the all-max sum, 131 (p - 1)(2^16 - 1), is twice an odd number above
    2^54, where float64 holds only multiples of 4; each of the float64 values
    2 or 6 away reduces to another residue, whichever way the GEMM rounds."""
    p = 2**31 - 1
    ctx = FieldContext(p)
    bits, depth = limb_geometry(p, 2)
    inner = 131
    total = inner * (p - 1) * (2**bits - 1)
    assert (bits, depth) == (16, 31) and total > 2**54 and total % 4 == 2
    for near in (total - 6, total - 2, total + 2, total + 6):
        x = np.float64(near)
        assert int(x) == near and int(x - np.floor(x / p) * p) != total % p
    a = np.full((2, inner), p - 1)
    b = np.full((inner, 3), 2.0**bits - 1)
    want = [[total % p] * 3] * 2
    for chunk, right in ((depth, True), (inner, False)):
        got = ctx._product(a, b, (np.float64, 1, 0, chunk))
        assert (got.tolist() == want) == right


@pytest.mark.parametrize("p", MATMUL_PRIMES)
@pytest.mark.parametrize("shape_a, shape_b, tile, groups", [
    # 3*4 + 4*2 + 3*2 = 26 entries a matrix: groups of 2, and 35 ends on a group of 1
    ((3, 4), (4, 2), 60, {0: 0, 1: 1, 2: 1, 35: 18}),
    # 83 entries a matrix: each staged alone
    ((5, 4), (4, 7), 16, {0: 0, 1: 1, 2: 2, 35: 35}),
])
def test_stacked_matmul_matches_the_per_matrix_loop(monkeypatch, p, shape_a, shape_b, tile,
                                                    groups):
    """The server stage's stacked products: one ``_product`` of each
    ``_groups`` part's stacks, cast into int64."""
    ctx = FieldContext(p)
    rng = np.random.default_rng(p % 991)
    monkeypatch.setattr(gf, "_TILE", tile)
    tier = ctx._tier(shape_a[1])
    for stack in (0, 1, 2, 35):
        # unreduced and negative entries are taken mod p first
        a = rng.integers(-3 * p, 3 * p, size=(stack, *shape_a))
        b = rng.integers(-3 * p, 3 * p, size=(stack, *shape_b))
        parts = gf._groups(stack, shape_a[0], shape_b[1], shape_a[1])
        assert len(parts) == groups[stack]
        got = np.empty((stack, shape_a[0], shape_b[1]), dtype=np.int64)
        for part in parts:
            got[part] = ctx._product(ctx.asarray(a[part]), ctx.asarray(b[part]), tier)
        assert got.tolist() == python_int_matmul(a, b, p).tolist()
        assert got.tolist() == [ctx.matmul(x, y).tolist() for x, y in zip(a, b)]
        if stack > 1:
            # negative control: server i's f paired with server i + 1's g
            assert got.tolist() != python_int_matmul(a, np.roll(b, -1, axis=0), p).tolist()


@pytest.mark.parametrize("shape_a, shape_b", [
    ((2, 3, 4), (3, 4, 2)),  # stack lengths differ
    ((2, 3, 4), (2, 5, 2)),  # inner dimensions differ
    ((2, 3, 4), (2, 4, 2)),  # a stack times a stack
    ((3, 4), (2, 4, 2)),     # a matrix times a stack
    ((2, 3, 4, 1), (2, 4, 2)),
    ((2, 4), (5, 2)),
    ((), (1, 1)),
])
def test_matmul_rejects_mismatched_shapes(shape_a, shape_b):
    with pytest.raises(ValueError, match=re.escape(f"shape mismatch for matmul: {shape_a} x {shape_b}")):
        F11.matmul(np.zeros(shape_a, dtype=np.int64), np.zeros(shape_b, dtype=np.int64))


def test_matmul_reads_its_operands_without_writing_or_aliasing_them():
    rng = np.random.default_rng(4)
    a = rng.integers(-30, 30, size=(4, 3, 5))
    b = rng.integers(0, 11, size=(4, 5, 2))
    row = rng.integers(0, 11, size=5)
    for x in (a, b, row):
        x.setflags(write=False)
    cases = [
        (a, b[0]),                                # read-only; a unreduced
        (a[:, ::2, ::-1], b[1, ::-1]),            # non-contiguous views
        (np.broadcast_to(row, (4, 3, 5)), b[2]),  # broadcast
        (a[1].T[::2], np.broadcast_to(row[:3, None], (3, 7))),
        (np.broadcast_to(row, (6, 5)), row),
    ]
    for x, y in cases:
        before = x.copy(), y.copy()
        got = F11.matmul(x, y)
        assert got.tolist() == python_int_matmul(x, y, 11).tolist()
        assert np.array_equal(x, before[0]) and np.array_equal(y, before[1])
        assert not np.shares_memory(got, x) and not np.shares_memory(got, y)
    # canonical int64 input is read in place; any other is reduced into a new array
    assert F11._canonical(b) is b
    assert not np.shares_memory(F11._canonical(a), a)


@pytest.mark.parametrize("p, exact, low", [
    # all entries p - 1 and no limb split: every product rounds
    (2**31 - 1, 2**64, 2**31 - 2),
    # chunks of about 128 products near 2^53 each: their sums round
    (94_906_249, 2**60, 94_906_249 - 2**20),
    # float64 entries in chunks of 256 products near 2^52: sums and floors round
    (67_108_859, 2**60, 67_108_859 - 2**20),
])
@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
def test_matmul_with_a_loosened_exactness_bound_is_wrong(monkeypatch, p, exact, low):
    """Negative control: the same kernel with its float64 bound of 2^52 raised gives
    a wrong product."""
    ctx = FieldContext(p)
    rng = np.random.default_rng(1)
    a = rng.integers(low, p, size=(3, 400))
    b = rng.integers(low, p, size=(400, 2))
    want = python_int_matmul(a, b, p).tolist()
    assert ctx.matmul(a, b).tolist() == want
    monkeypatch.setattr(gf, "_EXACT", exact)
    assert ctx.matmul(a, b).tolist() != want


def test_matmul_with_a_loosened_float32_bound_is_wrong(monkeypatch):
    """Negative control: float32 on sums up to about 2^31 instead of 2^23 rounds."""
    p = 2897
    ctx = FieldContext(p)
    rng = np.random.default_rng(2)
    a = rng.integers(p - 2**10, p, size=(3, 400))
    b = rng.integers(p - 2**10, p, size=(400, 2))
    want = python_int_matmul(a, b, p).tolist()
    assert ctx.matmul(a, b).tolist() == want
    monkeypatch.setattr(gf, "_EXACT32", 2**40)
    assert ctx.matmul(a, b).tolist() != want


def test_matmul_with_a_loosened_limb_bound_is_wrong(monkeypatch):
    """Negative control: limb chunks deeper than the Horner bound allows round.

    At 2^56 the operands still take the limb tier ((p - 1)^2 + p > 2^56),
    and the inner dimension, past one two-limb chunk, cuts the right one
    into three 11-bit limbs, but each chunk spans 16391 indices instead
    of 1023.  Every index of the low limb's GEMM adds x * 2045, odd, since
    the low limb of x = p - 2 is 2045; the last chunk's 3201 indices sum to
    an odd integer above 2^53, which is no float64, and the product comes
    out wrong.
    """
    p = 2**31 - 1
    ctx = FieldContext(p)
    x = p - 2  # 11-bit limbs 511, 2047 and 2045
    inner = 2**21 + 2**12 + 1
    bits, depth = limb_geometry(p, 3, exact=2**56)
    last = inner % depth
    assert (bits, depth, one_chunk(p)) == (11, 16391, 1023) and limb_geometry(p, 2, exact=2**56)[1] < inner
    assert x & 2047 == 2045 and last % 2 and last * x * 2045 > 2**53
    a = np.broadcast_to(x, (1, inner))
    b = np.broadcast_to(x, (inner, 1))
    want = [[inner * x * x % p]]
    assert ctx.matmul(a, b).tolist() == want
    monkeypatch.setattr(gf, "_EXACT", 2**56)
    assert ctx.matmul(a, b).tolist() != want


def test_matmul_with_two_limbs_at_the_three_limb_depth_is_wrong(monkeypatch):
    """Negative control: two 16-bit limbs over a three-limb chunk round.

    At p = 2^31 - 1 a two-limb chunk holds 31 indices and a three-limb
    one 1023.  On all-(p - 1) operands, p - 1 = 2 (2^30 - 1) with high
    limb 32767, the high limb's GEMM over 1023 indices sums to
    1023 (p - 1) 32767: twice an odd number and above 2^54, where
    float64 holds only multiples of 4.
    """
    p = 2**31 - 1
    ctx = FieldContext(p)
    depth = limb_geometry(p, 3)[1]
    assert limb_geometry(p, 2) == (16, 31) and depth == 1023
    assert (p - 1) >> 16 == 32767 and depth * (p - 1) * 32767 > 2**54
    a = np.full((1, depth), p - 1)
    b = np.full((depth, 1), p - 1)
    assert ctx.matmul(a, b).tolist() == [[depth]]  # (p - 1)^2 = 1 mod p
    real = gf._limb_geometry
    monkeypatch.setattr(gf, "_limb_geometry", lambda p, count: (real(p, count)[0], depth))
    assert ctx.matmul(a, b).tolist() != [[depth]]


# gf's scalar entry points, each with an int it takes and its answer
SCALAR_CALLS = {
    "inv": (lambda x: FieldContext(37).inv(x), 5, 15),
    "is_prime": (is_prime, 101, True),
    "next_prime": (next_prime, 100, 101),
    "element_of_order, order": (lambda order: element_of_order(order, 11), 10, 2),
    "element_of_order, p": (lambda p: element_of_order(10, p), 11, 2),
}


@pytest.mark.parametrize("name", SCALAR_CALLS)
def test_scalar_entry_points_read_numpy_integers(name):
    call, arg, want = SCALAR_CALLS[name]
    for x in (arg, np.int64(arg), np.uint32(arg), np.int8(arg)):
        got = call(x)
        assert got == want and type(got) is type(want)


@pytest.mark.parametrize("name", SCALAR_CALLS)
@pytest.mark.parametrize("bad", [2.0, 101.0, "7", None])
def test_scalar_entry_points_refuse_non_integers_by_name(name, bad):
    call, _, _ = SCALAR_CALLS[name]
    field = name.split(", ")[-1] if "," in name else {"inv": "x"}.get(name, "n")
    with pytest.raises(TypeError, match=f"^{field} must be an integer, got {field}=" + re.escape(repr(bad))):
        call(bad)


@pytest.mark.parametrize("name", SCALAR_CALLS)
def test_the_scalar_check_catches_a_numpy_integer_passed_through(monkeypatch, name):
    """Negative control: without ``gf._index`` a numpy integer reaches ``pow``."""
    call, arg, want = SCALAR_CALLS[name]
    assert call(np.int64(arg)) == want
    monkeypatch.setattr(gf, "_index", lambda **values: list(values.values()))
    with pytest.raises(TypeError, match=re.escape("unsupported operand type(s) for ** or pow()")):
        call(np.int64(arg))


def test_prime_helpers():
    assert is_prime(2) and is_prime(131) and not is_prime(1) and not is_prime(91)
    assert next_prime(14) == 17
    assert next_prime(11) == 11
    assert element_of_order(10, 11) == 2
    assert element_of_order(1, 11) == 1
    with pytest.raises(ValueError):
        element_of_order(7, 11)


@pytest.mark.parametrize("order", [2, 4])
def test_element_of_order_refuses_a_composite_modulus(order):
    # both orders divide 9 - 1, but Z/9 is no field: 7 has order 3 there, not 2
    with pytest.raises(ValueError, match="p = 9 is not prime"):
        element_of_order(order, 9)


def test_element_of_order_matches_field_scan():
    def scan(order, p):
        """Reference: the smallest g in 2..p-1 of exact multiplicative order."""
        return next(g for g in range(2, p)
                    if pow(g, order, p) == 1
                    and all(pow(g, d, p) != 1 for d in range(1, order)))

    pairs = 0
    for p in filter(is_prime, range(3, 1200)):
        for order in range(2, p):
            if (p - 1) % order == 0:
                assert element_of_order(order, p) == scan(order, p), (order, p)
                pairs += 1
    assert pairs == 1982


@pytest.mark.parametrize("order", [2_000_000_010, 1_000_000_005, 66_666_667, 30, 10])
def test_element_of_order_on_a_large_field(order):
    # orders near p - 1 take the direct scan, small ones the subgroup walk
    p = 2_000_000_011
    g = element_of_order(order, p)
    factors = (2, 3, 5, 66_666_667)

    def exact(x):
        return pow(x, order, p) == 1 and all(
            pow(x, order // f, p) != 1 for f in factors if order % f == 0)

    assert exact(g)
    if g < 10_000:
        assert not any(exact(c) for c in range(2, g))
    else:
        # 2 is a primitive root mod p (the order p - 1 case), so the
        # subgroup is the powers of 2^((p-1)/order)
        h = pow(2, (p - 1) // order, p)
        assert g == min(x for x in (pow(h, k, p) for k in range(order)) if exact(x))


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
    assert ranks.tolist() == [oracle.rank(ctx, m) for m in stack]
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


# Primes from the smallest field to the largest modulus FieldContext accepts.
PROPERTY_PRIMES = [3, 11, 101, 10_007, 2_000_000_011, 2**31 - 1]


def pow_oracle(points, exponents, p):
    """One Python ``pow`` per entry: the scalar reference for ``vandermonde``."""
    return [[pow(x, e, p) for e in exponents] for x in points]


@given(st.sampled_from(PROPERTY_PRIMES), st.data())
@settings(max_examples=150, deadline=None)
def test_vandermonde_matches_pow_oracle(p, data):
    points = data.draw(st.lists(st.integers(-2**40, 2**40).filter(lambda x: x % p),
                                max_size=8, unique_by=lambda x: x % p))
    exps = data.draw(st.lists(st.integers(-70, 70), max_size=8, unique=True))
    got = FieldContext(p).vandermonde(points, exps)
    assert got.dtype == np.int64 and got.shape == (len(points), len(exps))
    assert got.tolist() == pow_oracle([x % p for x in points], exps, p)


@given(st.sampled_from(PROPERTY_PRIMES), st.data())
@settings(max_examples=150, deadline=None)
def test_unchecked_powers_match_pow_oracle(p, data):
    """The audit's power kernel keeps zero and repeated points: 0^0 = 1."""
    points = data.draw(st.lists(st.integers(0, min(p - 1, 50)), max_size=8))
    exps = data.draw(st.lists(st.integers(0, 2**40), max_size=6))
    got = gf._powers(np.array(points, dtype=np.int64), exps, p)
    assert got.shape == (len(points), len(exps))
    assert got.tolist() == pow_oracle(points, exps, p)


def remainder_mismatches(reduce):
    """Primes at which ``reduce(x, p)`` differs from ``x % p`` on int64 entries
    from 0 to (p - 1)^2, the products of two canonical entries."""
    bad = []
    for p in PROPERTY_PRIMES:
        x = np.random.default_rng(p).integers(0, (p - 1) ** 2, size=1000, endpoint=True)
        x[:2] = 0, (p - 1) ** 2
        if not np.array_equal(reduce(x.copy(), p), x % p):
            bad.append(p)
    return bad


def test_floor_division_remainder_matches_mod():
    assert remainder_mismatches(gf._remainder) == []


def test_remainder_check_catches_a_reduction_by_p_minus_1():
    assert remainder_mismatches(lambda x, p: gf._remainder(x, p - 1)) == PROPERTY_PRIMES
