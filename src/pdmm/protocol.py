"""End-to-end private distributed matrix multiplication simulation.

One run: slice A into K row bands and B into L column bands, mask both
with fresh noise blocks, evaluate the encoding polynomials at the
frame's points to get per-server shares, multiply the shares at each
server, then recover the block products either classically (one product
of the generator inverse with the responses) or through the transfer
matrix built from the same generator and inverse (two independent
instances per download).  All arithmetic is exact, so a decoded product
either equals the true one or the run is reported broken; there is no
tolerance anywhere.

Encoding and the server products: one encoder, ``_encode``, yields each
server group's shares.  Each side's blocks become one float operand,
and ``encode_and_multiply`` multiplies a group's shares in one stacked
GEMM and keeps only the products.  Where that GEMM cuts limbs, from
int64, the operand holds the blocks' limbs and the powers the limb
weights, so all N servers' shares of a side are formed one GEMM a
cache-sized column tile, and a side's blocks are read once; where it
reads whole floats, a group's shares are one GEMM a side whose reduced
floats it reads.  A run stores no share stacks: ``Transcript.shares_f``
and ``shares_g`` derive them on read, through ``_shares``, from the
stored inputs and noise over a frame rebuilt from the transcript.

Runs are deterministic functions of the seed.  Sampling draws points,
inputs, and noise from one seeded generator in a fixed order.  Each
instance draws its inputs and noise with one ``rng.integers`` call, cut
into A, B, the f noise and the g noise in that order (``_draw``): for a
field below 2^32 that one call draws the values, and leaves the
generator in the state, that one call per array would.
``sample_frame`` runs one loop over candidate point sets (a cyclic
plan's single order-q coset, or up to ``_MAX_RESAMPLE`` random draws)
and builds each as an ``EvalFrame``, the one kind of frame.  A frame
computes its point algebra once, from its field, points, plan and
shift: one power table on every exponent a stage reads and the degrees
0, ..., N, the generator as that table's columns at the table
exponents, its inverse by Lagrange interpolation read off the power run
x^0, ..., x^N, with a g x g correction for the g gaps in the exponents,
which rejects a singular generator, and, for a quantum frame, the dual
multipliers and their inverses from the inverse's one Fermat pass.
Then the privacy rank audit runs, and the first candidate that passes
is the run's frame.  No N x N matrix is eliminated or ranked.  A
quantum run derives its interference run once: ``sample_frame`` gates
quantum mode with ``quantum_layout`` before it picks the field, and the
frame carries that layout to ``quantum_transfer``.  Every later
stage works over ``frame.ctx`` and reads the plan and the powers from
the frame: the encoding pass takes just the frame and the blocks, the
decoders just the frame and the server products.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from itertools import combinations, islice

import numpy as np

from .degree_tables import ExponentPlan, check_decodable, plan_record
# benchmarks/test_bench.py reads protocol's binding of longest_run, which runs inside check_feasible
from .feasibility import check_feasible, longest_run  # noqa: F401
from .gf import (
    DuplicatePointError,
    FieldContext,
    SingularMatrixError,
    _admissible_points,
    _groups,
    _index,
    _integers,
    _limbs,
    _powers,
    _remainder,
    element_of_order,
    is_prime,
    next_prime,
)
from .grs import ShapeMismatchError
from .nsumbox import TransferMatrix, apply_box

__all__ = [
    "EvalFrame",
    "ProtocolConfig",
    "Transcript",
    "AuditReport",
    "RateReport",
    "ResampleExhaustedError",
    "NotFeasibleError",
    "default_field",
    "sample_frame",
    "encode_and_multiply",
    "decode_classical",
    "decode_quantum",
    "privacy_audit",
    "quantum_transfer",
    "rate_ratio",
    "rate_report",
    "run_protocol",
    "transcript_dump",
]


class ResampleExhaustedError(RuntimeError):
    """No admissible frame found within the resampling budget."""


class NotFeasibleError(ValueError):
    """The plan's interference run is too short for quantum decoding."""


@dataclass(frozen=True)
class ProtocolConfig:
    """Inputs of one simulation run.

    ``dims`` is (rows_a, inner, cols_b) for the full matrices; rows_a
    must divide into K bands and cols_b into L bands.  ``prime``, an
    integer >= 2 when given, is a floor for the field modulus (the
    default picks the smallest usable prime).  Quantum mode requires the
    plan's feasibility check to pass.  ``seed`` must be non-negative and
    ``audit_cap`` at least 1, so that the privacy audit always checks
    some subsets.  Integer fields refuse a bool and are stored as ints
    (``operator.index``), and ``dims`` as a tuple.
    """

    plan: ExponentPlan
    dims: tuple[int, int, int] | None = None
    mode: str = "classical"
    seed: int = 0
    prime: int | None = None
    audit_cap: int = 10_000

    def __post_init__(self):
        if not isinstance(self.plan, ExponentPlan):
            raise TypeError(f"plan must be an ExponentPlan, got {self.plan!r}")
        _check_mode(self.mode)
        seed, prime = _integer(self.seed), _integer(self.prime)
        if seed is None or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.prime is not None and (prime is None or prime < 2):
            raise ValueError(f"prime must be an integer >= 2 or None, got {self.prime!r}")
        cap = _check_audit_cap(self.audit_cap)
        dims = tuple(map(_integer, self.dims)) if isinstance(self.dims, (tuple, list)) else ()
        if self.dims is not None and not (
                len(dims) == 3 and all(d is not None and d > 0 for d in dims)):
            raise ShapeMismatchError(
                f"dims must be three positive integers (rows_a, inner, cols_b), "
                f"got {self.dims!r}")
        for name, value in (("seed", seed), ("prime", prime), ("audit_cap", cap),
                            ("dims", None if self.dims is None else dims)):
            object.__setattr__(self, name, value)
        self.block_dims  # validates divisibility eagerly

    @property
    def block_dims(self) -> tuple[int, int, int]:
        """Per-block shape (rows of A_k, inner, cols of B_l)."""
        dims = self.dims if self.dims is not None else (self.plan.K, 1, self.plan.L)
        rows_a, inner, cols_b = dims
        if rows_a % self.plan.K or cols_b % self.plan.L:
            raise ShapeMismatchError(
                f"dims {dims} not divisible into {self.plan.K} x {self.plan.L} bands")
        return rows_a // self.plan.K, inner, cols_b // self.plan.L


@dataclass(frozen=True)
class AuditReport:
    """Verdict of ``privacy_audit``.

    ``method`` says how it was reached: "proof" (an arithmetic
    progression of noise exponents covers every T-subset at once),
    "enumerated" (every T-subset ranked) or "sampled" (``checked``
    distinct random T-subsets ranked).  ``exhaustive`` is set for a
    proof and an enumeration.  ``method`` plays no part in equality and
    stays out of ``transcript_dump``.
    """

    ok: bool
    checked: int
    exhaustive: bool
    failures: tuple[tuple[int, ...], ...] = ()
    method: str = field(default="enumerated", compare=False)


@dataclass(frozen=True)
class RateReport:
    rate: Fraction
    n_servers: int
    instances: int


@dataclass(frozen=True)
class Transcript:
    """Everything one run produced, enough to replay or dump it.

    A run stores no share stacks.  ``shares_f`` and ``shares_g`` are
    derived on each read: the run's frame is rebuilt from ``plan``,
    ``modulus``, ``points`` and ``mode`` (a quantum frame's shift is the
    head of ``quantum_layout(plan)``), and ``_shares`` encodes the
    stored inputs and noise again, so the fields alone determine them.
    """

    plan: ExponentPlan
    modulus: int
    mode: str
    seed: int
    points: tuple[int, ...]
    a_inputs: tuple[np.ndarray, ...]
    b_inputs: tuple[np.ndarray, ...]
    noise_f: tuple[np.ndarray, ...]
    noise_g: tuple[np.ndarray, ...]
    responses: tuple[np.ndarray, ...]
    decoded: tuple[np.ndarray, ...]
    decode_ok: bool
    audit: AuditReport
    rate: RateReport

    @property
    def shares_f(self) -> tuple[np.ndarray, ...]:
        """Each instance's (N, ra, inner) int64 f share stack, derived on read."""
        return tuple(f for f, _ in self._share_stacks())

    @property
    def shares_g(self) -> tuple[np.ndarray, ...]:
        """Each instance's (N, inner, cb) int64 g share stack, derived on read."""
        return tuple(g for _, g in self._share_stacks())

    def _share_stacks(self):
        """Yield each instance's (f, g) share stacks, encoded over one rebuilt frame."""
        plan = self.plan
        shift = quantum_layout(plan)[0] if self.mode == "quantum" else None
        frame = EvalFrame(FieldContext(self.modulus), self.points, plan, shift)
        for a, b, noise_f, noise_g in zip(self.a_inputs, self.b_inputs,
                                          self.noise_f, self.noise_g):
            yield _shares(frame, *_bands(plan, a, b), noise_f, noise_g)


# ---------------------------------------------------------------------------
# field and frame selection
# ---------------------------------------------------------------------------

def default_field(plan: ExponentPlan, floor: int | None = None) -> FieldContext:
    """Smallest workable prime field for a plan.

    Cyclic plans need an odd prime p = 1 (mod q) so that order-q points
    exist; other plans take the smallest prime >= max(N + 2,
    largest table exponent + 2, floor).  Either way p - 1 >= N.  When
    that prime is not below 2^31, ``FieldContext``'s bound, a
    ``ValueError`` names the floor and q.
    """
    table = plan.table
    if plan.modulus_q:
        q = plan.modulus_q
        p = max(q + 1, 3, floor or 0)
        p += (-(p - 1)) % q  # align to 1 mod q
        while not is_prime(p):
            p += q
    else:
        p = next_prime(max(table.n_servers + 2, max(table.exponents) + 2, floor or 0))
    if p >= 2**31:
        raise ValueError(f"no field modulus below 2^31 for prime floor {floor} and "
                         f"q = {plan.modulus_q}: the least candidate is {p}")
    return FieldContext(p)


@dataclass(frozen=True)
class EvalFrame:
    """Field, points and plan of one protocol run, and the point algebra derived from them.

    ``sample_frame`` builds a run's frame, and the constructor validates
    it: ``plan`` must be an ``ExponentPlan`` (else ``TypeError``), and
    there must be N = ``plan.table.n_servers`` points (else
    ``ShapeMismatchError``), stored reduced mod p, nonzero and distinct.
    Quantum frames give ``shift``, the start of the plan's interference
    run; classical frames leave it None.  ``sample_frame`` also hands a
    quantum frame the plan's ``quantum_layout``, which ``quantum_transfer``
    reads; it is not a field, so ``dataclasses.replace`` leaves it out and
    ``quantum_transfer`` derives the layout again.

    Everything else is derived from the points, once, when the frame is
    built, so ``dataclasses.replace`` re-derives it.  One
    ``ctx.vandermonde`` call builds the power table x_i^e for every e
    among the table exponents, the degrees 0, ..., N, ``plan.alpha``,
    ``plan.beta`` and, for a quantum frame, 2 ``shift``; ``powers``
    gathers its columns through the frame's exponent -> column map, whose
    entry for a table exponent is also its position in table order, the
    row of ``inverse`` that ``decode_classical`` and ``quantum_transfer``
    read.  ``generator`` is its columns at the table exponents, in table
    order.  The run x^0, ..., x^N, a view of the table when the table
    exponents are 0, ..., N - 1, feeds ``FieldContext._vandermonde_inverse``,
    which gives ``inverse`` and raises ``SingularMatrixError`` for a
    rank-deficient generator.  Neither is eliminated, and neither plays a
    part in equality or repr.

    The first instance's column multipliers are all ones, so ``v`` is the
    one vector that makes the ``shift``-shifted GRS codes on ones and on
    ``v`` dual: v_i = (x_i^(2s) prod_{j != i} (x_j - x_i))^-1
    (MacWilliams and Sloane, ch. 10), where
    prod_{j != i} (x_j - x_i) = (-1)^(N-1) P'(x_i) for P = prod_j (X - x_j).
    The inverse's one Fermat pass inverts u = (P'(x) x^N x^(2s)) for a
    quantum frame, so v = (-1)^(N-1) u x^N, and its inverse, which
    ``quantum_transfer`` reads, is v^-1 = (-1)^(N-1) P'(x) x^(2s), with
    no second inversion.  Classical frames leave ``v`` and ``_v_inv`` None.
    """

    ctx: FieldContext
    points: tuple[int, ...]
    plan: ExponentPlan = field(compare=False, repr=False)
    shift: int | None = None
    layout: InitVar[list[int] | None] = None
    v: tuple[int, ...] | None = field(init=False, default=None)
    generator: np.ndarray = field(init=False, compare=False, repr=False)
    inverse: np.ndarray = field(init=False, compare=False, repr=False)
    _table: np.ndarray = field(init=False, compare=False, repr=False)
    _column: dict[int, int] = field(init=False, compare=False, repr=False)
    _layout: list[int] | None = field(init=False, default=None, compare=False, repr=False)
    _v_inv: np.ndarray | None = field(init=False, default=None, compare=False, repr=False)

    def __post_init__(self, layout):
        if not isinstance(self.plan, ExponentPlan):
            raise TypeError(f"plan must be an ExponentPlan, got {self.plan!r}")
        ctx, table = self.ctx, self.plan.table
        pts = tuple(_admissible_points(self.points, ctx.p))
        n = table.n_servers
        if len(pts) != n:
            raise ShapeMismatchError(f"expected {n} points for {n} servers, got {len(pts)} points")
        # table exponents first, so the generator is a view of the table
        extra = {*range(n + 1), *self.plan.alpha, *self.plan.beta}
        if self.shift is not None:
            extra.add(2 * self.shift)
        exps = [*table.exponents, *sorted(extra.difference(table.exponents))]
        powers = ctx.vandermonde(pts, exps)
        powers.flags.writeable = False
        for name, value in (("points", pts), ("_table", powers),
                            ("_column", {e: j for j, e in enumerate(exps)}),
                            ("_layout", layout), ("generator", powers[:, :n])):
            object.__setattr__(self, name, value)
        run = powers[:, :n + 1] if exps[:n + 1] == [*range(n + 1)] else self.powers(range(n + 1))
        scale = None if self.shift is None else self.powers([2 * self.shift])[:, 0]
        inverse, derivative, u = ctx._vandermonde_inverse(run[:, 1], table.exponents, run, scale)
        object.__setattr__(self, "inverse", inverse)
        if scale is not None:
            v, v_inv = u * run[:, n] % ctx.p, derivative * scale % ctx.p
            if n % 2 == 0:  # (-1)^(N-1) = -1
                v, v_inv = (ctx.p - v) % ctx.p, (ctx.p - v_inv) % ctx.p
            object.__setattr__(self, "v", tuple(v.tolist()))
            object.__setattr__(self, "_v_inv", v_inv)

    @property
    def n(self) -> int:
        return len(self.points)

    def powers(self, exponents) -> np.ndarray:
        """N x len(exponents) matrix x_i^(e_j), gathered from the frame's power table.

        Each exponent must be one the table holds: a table exponent, a
        degree 0, ..., N, one of ``plan.alpha`` or ``plan.beta``, or
        2 ``shift``.
        """
        return self._table[:, [self._column[e] for e in exponents]]


# Random frames tried before giving up on a non-cyclic plan.
_MAX_RESAMPLE = 64
# Why sample_frame rejects a candidate frame.
_RANK_DEFICIENT = "rank-deficient generator"
_AUDIT_FAILED = "failed privacy audit"


def sample_frame(cfg: ProtocolConfig,
                 rng: np.random.Generator) -> tuple[EvalFrame, AuditReport]:
    """Pick the run's field and return the first candidate frame that passes every check.

    In quantum mode ``quantum_layout`` gates the plan first, so an
    infeasible plan raises ``NotFeasibleError`` before any field is
    chosen or any point drawn; the layout's head is the frames' shift,
    and each quantum frame carries the layout.  The field is
    ``default_field(cfg.plan, cfg.prime)`` and becomes
    ``frame.ctx``.  A cyclic plan has one candidate point set, the coset
    of an order-q element; any other plan has up to ``_MAX_RESAMPLE``
    seeded draws, each drawn just before its checks.  Both give
    distinct nonzero points.  Every candidate is built as an
    ``EvalFrame``: one power table, and the N x N generator on all table
    exponents inverted by interpolation, with a g x g correction for the
    g exponents missing below the top one (see
    ``FieldContext._vandermonde_inverse``).  A singular correction means
    a rank-deficient generator, and so does a repeated point, which only
    a caller's own ``rng`` can draw; either rejects the candidate.  Then
    the privacy audit runs, and the first candidate to pass is the run's
    frame.  If none passes, ``ResampleExhaustedError`` counts the
    rejections by check.
    """
    plan = cfg.plan
    layout = quantum_layout(plan) if cfg.mode == "quantum" else None  # the quantum gate
    shift = None if layout is None else layout[0]
    ctx = default_field(plan, cfg.prime)
    n = plan.table.n_servers
    if plan.modulus_q:
        omega = element_of_order(plan.modulus_q, ctx.p)
        candidates = [[pow(omega, i, ctx.p) for i in range(plan.modulus_q)]]
    else:
        candidates = ((rng.choice(ctx.p - 1, size=n, replace=False) + 1).tolist()
                      for _ in range(_MAX_RESAMPLE))
    rejected = dict.fromkeys((_RANK_DEFICIENT, _AUDIT_FAILED), 0)
    for points in candidates:
        try:
            frame = EvalFrame(ctx, tuple(points), plan, shift, layout)
        except (SingularMatrixError, DuplicatePointError):
            rejected[_RANK_DEFICIENT] += 1
            continue
        audit = privacy_audit(plan, ctx, points, cap=cfg.audit_cap, rng=rng)
        if audit.ok:
            return frame, audit
        rejected[_AUDIT_FAILED] += 1
    tries = sum(rejected.values())
    raise ResampleExhaustedError(
        f"no admissible frame within {tries} attempt{'' if tries == 1 else 's'} over "
        f"F_{ctx.p} (rejections: "
        + ", ".join(f"{why} {count}" for why, count in rejected.items()) + ")")


# ---------------------------------------------------------------------------
# encoding, server work, decoding
# ---------------------------------------------------------------------------

# Bytes of each of a limb-tier encoder tile's floats (accumulator, GEMM,
# quotient), over all N rows.  gasp_r(2,2,3)'s 13 servers' shares at
# 128x512x128 over p = 2000000011 took op_p50 17.2-17.4 ms at 2^16 bytes,
# 15.4-17.2 ms at 2^17-2^19, and 19.7-19.8 ms with 1.7 MB more peak RSS
# at 2^20 (6 s runs, 2-vCPU host).
_COLUMN_BYTES = 1 << 18


def encode_and_multiply(frame: EvalFrame, a_blocks, b_blocks, noise_f, noise_g) -> np.ndarray:
    """The servers' products f_n g_n of one instance, an (N, ra, cb) int64 array.

    Each server group's shares (f_n, g_n), as ``_encode`` yields them
    (and with its errors for bad blocks), meet in one stacked GEMM on
    the tier of ``inner``, and only the products are kept: on the float
    tiers the GEMM reads the group's reduced floats, on the limb tier it
    cuts its limbs from the group's int64 rows.
    """
    ctx, products = frame.ctx, None
    for part, f, g in _encode(frame, a_blocks, b_blocks, noise_f, noise_g):
        if products is None:  # the first group gives (ra, inner, cb)
            (_, ra, inner), cb = f.shape, g.shape[2]
            products, = _one_buffer(((frame.n, ra, cb), np.int64))
            server = ctx._tier(inner)
        products[part] = ctx._product(f, g, server)
    return products


def _shares(frame: EvalFrame, a_blocks, b_blocks, noise_f, noise_g) -> tuple[np.ndarray, ...]:
    """Each server's shares (f_n, g_n) of one instance: (N, ra, inner) and (N, inner, cb) int64.

    The groups ``_encode`` yields, cast into two stacks.  No run calls
    it: ``Transcript.shares_f`` and ``shares_g`` derive their stacks by it.
    """
    stacks = None
    for part, f, g in _encode(frame, a_blocks, b_blocks, noise_f, noise_g):
        if stacks is None:
            stacks = [np.empty((frame.n, *x.shape[1:]), dtype=np.int64) for x in (f, g)]
        stacks[0][part], stacks[1][part] = f, g
    return tuple(stacks)


def _encode(frame: EvalFrame, a_blocks, b_blocks, noise_f, noise_g):
    """Per-server shares (f_n, g_n) of one instance, yielded one server group at a time.

    f_n weights the K blocks a_blocks (ra, inner) by point powers at the
    info alpha exponents and noise_f at ``plan.noise_alpha``, placed by
    ``frame.plan``; g_n likewise over beta, for B blocks shaped
    (inner, cb).  Other block counts or shapes raise
    ``ShapeMismatchError``.  The powers are columns of the frame's power
    table (``EvalFrame.powers``), so every instance of a run encodes
    without computing a power.  Blocks must hold integers (else
    ``TypeError``), taken mod p.  Yields (part, f, g) for each group
    ``_groups`` stages the servers' products in: ``part`` slices the N
    servers, and f and g are the group's (group, ra, inner) and
    (group, inner, cb) shares, canonical.

    A side's blocks and its noise blocks each come as an array whose
    first axis runs over the blocks, read as it is, or as a sequence of
    blocks, stacked once by ``np.asarray``; the checks read the stacks'
    shapes, and a ragged sequence raises ``ShapeMismatchError`` listing
    every block's shape.

    Each side's two stacks become one float operand of its encode tier,
    which the powers multiply.  Where the server GEMM on the tier of
    ``inner`` cuts limbs, which it does from int64, the operand holds
    the c limbs of b bits of every block, most significant first, and
    the powers P become [P 2^(b (c - 1)) mod p | ... | P], so all N
    servers' shares of a side are ``FieldContext._product`` calls read
    on one limb at the c-limb depth, one a column tile of
    ``_COLUMN_BYTES`` bytes of floats over all N rows, each one GEMM and
    one reduction, cast into an int64 stack.  The tiles pay because each
    re-reads only the small folded powers.  The operand, read once, is freed
    before the other side's is made; each group's f and g are rows of
    the two stacks.  Otherwise a group's f and g are one product a side,
    the reduced floats the group's server GEMM reads whole, and no stack
    is made; both sides' operands, which every group reads, share one
    allocation (see ``_one_buffer``).
    """
    plan, ctx = frame.plan, frame.ctx
    sides = []
    for side, exps, info, noise_exps, blocks, noise in (
            ("A", plan.alpha, plan.info_alpha, plan.noise_alpha, a_blocks, noise_f),
            ("B", plan.beta, plan.info_beta, plan.noise_beta, b_blocks, noise_g)):
        stacks = [_stack(blocks, ctx.p), _stack(noise, ctx.p)]
        if any(stack is None for stack in stacks):  # ragged: name every block's shape
            shapes = {np.shape(m) for m in (*blocks, *noise)}
        else:
            shapes = {stack.shape[1:] for stack in stacks if len(stack)}
        if (len(blocks), len(noise), len(shapes)) != (len(info), len(noise_exps), 1):
            raise ShapeMismatchError(
                f"expected {len(info)} {side} blocks and {len(noise_exps)} noise blocks of one "
                f"shape, got {len(blocks)} and {len(noise)} shaped {sorted(shapes)}")
        sides.append(([*(exps[i] for i in info), *noise_exps], stacks, *shapes))
    (*_, a_shape), (*_, b_shape) = sides
    if len(a_shape) != 2 or len(b_shape) != 2:
        raise ShapeMismatchError(
            f"expected 2-D blocks, got A blocks shaped {a_shape} and B blocks shaped {b_shape}")
    if a_shape[1] != b_shape[0]:
        raise ShapeMismatchError(
            f"inner dimensions differ: A blocks shaped {a_shape} have {a_shape[1]} columns, "
            f"B blocks shaped {b_shape} have {b_shape[0]} rows")
    tiers = [ctx._tier(len(exps)) for exps, _, _ in sides]
    (ra, inner), cb = a_shape, b_shape[1]
    parts = _groups(frame.n, ra, cb, inner)
    specs = [((count * len(exps), math.prod(shape)), dtype)
             for (exps, _, shape), (dtype, count, _, _) in zip(sides, tiers)]
    if ctx._tier(inner)[1] > 1:  # the server GEMM cuts its limbs from int64 shares
        shares = _one_buffer(*(((frame.n, *shape), np.int64) for *_, shape in sides))
        for (exps, stacks, _), (dtype, count, bits, depth), spec, out in zip(
                sides, tiers, specs, shares):
            powers = frame.powers(exps)
            coeffs = _operand(ctx, *stacks, bits, np.empty(*spec))
            # limb j's weight 2^(bits (count - 1 - j)) folded into the powers: one GEMM a tile
            folded = np.hstack([powers * pow(2, bits * j, ctx.p) % ctx.p
                                for j in reversed(range(count))])
            rows, one_limb = out.reshape(frame.n, -1), (dtype, 1, 0, depth)
            width = max(1, _COLUMN_BYTES // np.dtype(dtype).itemsize // frame.n)
            for c in range(0, rows.shape[1], width):  # each tile re-reads the folded powers
                rows[:, c:c + width] = ctx._product(folded, coeffs[:, c:c + width], one_limb)
            del coeffs  # freed before the next side's operand is made
        for part in parts:
            yield part, shares[0][part], shares[1][part]
        return
    encoders = [(frame.powers(exps), _operand(ctx, *stacks, tier[2], operand), tier, shape)
                for (exps, stacks, shape), tier, operand in zip(sides, tiers, _one_buffer(*specs))]
    for part in parts:  # a group's encoded floats, uncast
        yield part, *(ctx._product(powers[part], coeffs, tier).reshape(-1, *shape)
                      for powers, coeffs, tier, shape in encoders)


def _stack(blocks, p: int) -> np.ndarray | None:
    """Blocks as one array whose first axis runs over them, or None when their shapes differ.

    An array is read as it is; a sequence is stacked by one ``np.asarray``.
    Where that stack is not of an integer kind, as when an int64 block
    and a uint64 block promote to float64, each block is read by
    ``_integers`` (which refuses a non-integer block and reduces a
    uint64 one mod p) and cast to int64 before stacking.
    """
    if isinstance(blocks, np.ndarray):
        return blocks
    try:
        stack = np.asarray(blocks)
    except ValueError:  # numpy refuses a ragged sequence
        return None
    if stack.dtype.kind in "biu" or not stack.size:
        return stack
    return np.array([_integers(block, p).astype(np.int64, copy=False) for block in blocks])


def _operand(ctx: FieldContext, data, noise, bits: int, out: np.ndarray) -> np.ndarray:
    """A side's data and noise stacks written into ``out``, its (count * blocks, entries) floats.

    Rows j * blocks, ..., (j + 1) * blocks - 1 hold limb j of every
    block's canonical entries, most significant first, as ``gf._limbs``
    cuts them; one limb is the entries themselves.  No view of ``out``
    outlives the call, so the caller can free it.
    """
    blocks = len(data) + len(noise)
    limbs = out.reshape(-1, blocks, *data.shape[1:])
    for part, stack in zip((limbs[:, :len(data)], limbs[:, len(data):]), (data, noise)):
        if len(stack):
            _limbs(ctx._canonical(stack), len(limbs), bits, out.dtype, part)
    return out


def _one_buffer(*specs) -> list[np.ndarray]:
    """Arrays of the given (shape, dtype), carved from one allocation, each 8-byte aligned.

    numpy asks the kernel for huge pages on an allocation from 4 MiB up.
    Arrays below that apart but not together would each take a page
    fault per 4 KiB page whenever they are made, as the float-tier
    encoder's two operands and the limb tier's two share stacks are
    once per instance.  The products, which ``encode_and_multiply``
    keeps alone, come from here too, so every share stack and product
    array has one source.
    """
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in specs]
    starts = [0]
    for size in sizes:
        starts.append(starts[-1] + -(-size // 8) * 8)
    buffer = np.empty(starts[-1], dtype=np.uint8)
    return [buffer[at:at + size].view(dtype).reshape(shape)
            for at, size, (shape, dtype) in zip(starts, sizes, specs)]


def _assemble(plan, info_rows, block_shape):
    """Lay the first K*L coefficient rows, in row-major (k, l) order, as the K x L grid."""
    (ra, cb), k, l = block_shape, plan.K, plan.L
    return info_rows[:k * l].reshape(k, l, ra, cb).swapaxes(1, 2).reshape(k * ra, l * cb)


def _block_shape(frame: EvalFrame, *responses) -> tuple[int, int]:
    """The (ra, cb) of server products all shaped (N, ra, cb); else ``ShapeMismatchError``."""
    shape, *others = {np.shape(r) for r in responses}
    if others or len(shape) != 3 or shape[0] != frame.n:
        raise ShapeMismatchError(
            f"expected {frame.n} server products of one (N, ra, cb) shape, got shapes "
            + ", ".join(str(np.shape(r)) for r in responses))
    return shape[1:]


def decode_classical(frame: EvalFrame, responses) -> np.ndarray:
    """Assemble the product from the info-sum coefficients of the responses.

    ``responses`` are the server products ``encode_and_multiply`` returns,
    shaped (N, ra, cb); any other shape raises ``ShapeMismatchError``.
    The coefficients are the info-sum rows of ``frame.inverse``, for
    ``frame.plan``, times the responses, so decoding is one product and
    no elimination.
    """
    plan = frame.plan
    block_shape = _block_shape(frame, responses)
    rows = frame.inverse[[frame._column[e] for e in plan.table.info]]
    flat = np.reshape(responses, (frame.n, -1))
    return _assemble(plan, frame.ctx.matmul(rows, flat), block_shape)


def quantum_layout(plan: ExponentPlan) -> list[int]:
    """Column order of the quantum readout: [run head | info sums | rest].

    The head is the first ceil(N/2) exponents of the interference run, info
    sums are in row-major (k, l) order, and the rest is every other table
    exponent, ascending.  This is the quantum feasibility gate: it raises
    ``NotFeasibleError`` when the interference run is shorter than ceil(N/2).
    """
    feas = check_feasible(plan)
    if not feas.feasible:
        raise NotFeasibleError(
            f"interference run {len(feas.run)} < {feas.threshold} for {plan.family}"
            f"({plan.K},{plan.L},{plan.T}); quantum mode unavailable")
    head = feas.run[:feas.threshold]
    return [*head, *plan.table.info, *sorted(plan.table.interference.difference(head))]


def quantum_transfer(frame: EvalFrame) -> TransferMatrix:
    """Transfer matrix for a quantum frame: dual-scaled run columns stabilized.

    With Q the frame's generator in ``quantum_layout(frame.plan)``
    column order (the layout the frame carries from ``sample_frame``, or
    derived here for a frame built without it), the stabilizer block g
    pairs Q's first floor(N/2) columns (the first instance's multipliers
    are all ones) with the
    first ceil(N/2) columns of D_v Q, D_v = diag of the frame's dual
    multipliers; the readout block h holds the remaining columns.  So g
    and h are columns of B = blockdiag(Q, D_v Q), and M = [0 I] [g h]^-1
    is the rows of B^-1 = blockdiag(Q^-1, Q^-1 D_v^-1) at h's column
    indices.  Each of g, h and M is built from the matching column or
    row slices of Q, D_v Q, Q^-1 and Q^-1 D_v^-1, with zeros elsewhere.
    Q and Q^-1 are ``frame.generator`` and ``frame.inverse`` with their
    columns and rows permuted, and D_v^-1 is the frame's v^-1, formed
    with v and with no inversion (see ``EvalFrame``), so M needs no
    elimination, no inversion and no new generator;
    ``TransferMatrix`` checks its laws.  A classical frame, which has no
    dual multipliers, raises ``ValueError``.
    """
    plan = frame.plan
    if frame.v is None:
        raise ValueError("frame carries no dual multipliers; sample in quantum mode")
    ctx = frame.ctx
    n = frame.n
    layout = quantum_layout(plan) if frame._layout is None else frame._layout
    perm = [frame._column[e] for e in layout]
    q, q_inv = frame.generator[:, perm], frame.inverse[perm]
    vq = ctx.asarray(frame.v)[:, None] * q % ctx.p
    fl, ce = n // 2, -(-n // 2)
    g, h, m = (np.zeros(shape, dtype=np.int64) for shape in ((2 * n, n), (2 * n, n), (n, 2 * n)))
    g[:n, :fl], g[n:, fl:] = q[:, :fl], vq[:, :ce]
    h[:n, :ce], h[n:, ce:] = q[:, fl:], vq[:, ce:]
    m[:ce, :n], m[ce:, n:] = q_inv[fl:], q_inv[ce:] * frame._v_inv % ctx.p
    return TransferMatrix(ctx, m, g, h)


def decode_quantum(frame: EvalFrame, responses_pair) -> tuple[np.ndarray, np.ndarray]:
    """Recover both instances' products from one batch of 2N operands.

    ``frame`` is a quantum frame, and ``responses_pair`` holds the two
    instances' server products, both shaped (N, ra, cb); another number
    of stacks, or other shapes, raise ``ShapeMismatchError``.

    Servers put the first instance on the X slot as it is and the second
    on the Z slot scaled by the frame's dual multipliers v; the receiver
    applies the box and reads the information coordinates of each half,
    which ``quantum_layout`` puts right after the ceil(N/2) run columns.
    """
    if len(responses_pair) != 2:
        raise ShapeMismatchError(f"expected two response stacks, one per instance, "
                                 f"got {len(responses_pair)}")
    ctx = frame.ctx
    block_shape = _block_shape(frame, *responses_pair)
    tm = quantum_transfer(frame)
    n, fl, ce = frame.n, frame.n // 2, -(-frame.n // 2)
    r1, r2 = (ctx._canonical(r).reshape(n, -1) for r in responses_pair)
    # one (2N, ra*cb) operand: the X half as it is, the Z half scaled by v
    ops = np.empty((2 * n, r1.shape[1]), dtype=np.int64)
    ops[:n] = r1
    np.multiply(ctx.asarray(frame.v)[:, None], r2, out=ops[n:])
    _remainder(ops[n:], ctx.p)
    y = apply_box(tm, ops)
    return (_assemble(frame.plan, y[ce - fl:], block_shape),
            _assemble(frame.plan, y[ce:], block_shape))


# ---------------------------------------------------------------------------
# privacy, rates, orchestration
# ---------------------------------------------------------------------------

# Most subsets per batched rank call.  Auditing qf_klt(5,3) over F_37
# (6545 subsets, 2-vCPU host), chunks of 256 took about 20% longer than
# 1024; chunks of 32768 were at most 15% faster but raised the process's
# peak RSS by 3.5 MB instead of 0.9 MB (about 10% of a 36 MB process).
_AUDIT_CHUNK = 1024
# Size of the first chunk, doubled for each later one up to _AUDIT_CHUNK,
# so an audit whose 10th failure comes early ranks few subsets beyond
# it.  Optimal gasp_r(3,3,3)'s default run (64 failing audits over F_29,
# then ResampleExhaustedError) took 0.16-0.19 s from 128 against
# 0.28-0.29 s with every chunk at 1024.
_AUDIT_FIRST_CHUNK = 128


def _check_mode(mode) -> None:
    if mode not in ("classical", "quantum"):
        raise ValueError(f"mode must be classical or quantum, got {mode!r}")


def _integer(value) -> int | None:
    """``value`` read as the plan's fields are (``gf._index``), or None
    for a bool or a non-integer."""
    try:
        return _index(value=value)[0]
    except TypeError:
        return None


def _check_audit_cap(cap) -> int:
    if (read := _integer(cap)) is None or read < 1:
        raise ValueError(f"audit_cap must be an integer >= 1, got {cap!r}")
    return read


def privacy_audit(plan: ExponentPlan, ctx: FieldContext, points,
                  cap: int = 10_000, rng: np.random.Generator | None = None) -> AuditReport:
    """Rank check that noise acts as a one-time pad on any T server views.

    For every T-subset of servers the noise-exponent power matrix must
    have full row rank, separately for the alpha and beta sides, so a
    side with fewer than T noise exponents fails every subset.  A side's
    progression (d, e0) in ``plan.noise_progressions`` gives any T points
    the minor prod x^e0 * V(x^d) (GASP's generalized-Vandermonde argument,
    D'Oliveira, El Rouayheb, Karpuk, IEEE T-IT 2020), nonzero when no x^e0
    is 0 and the x^d are distinct; the x^d are formed once per distinct
    step d over both sides.  If a step passes on each side, the
    report is a proof with ``checked = C(N, T)``, whatever the cap, and
    draws nothing from ``rng``.  Otherwise subsets are ranked: all of them in
    ``itertools.combinations`` order when C(N, T) <= cap, else the
    distinct ones among cap seeded draws, in first-draw order (all cap
    draws are made either way).  Subsets are checked in chunks that
    start small and double up to ``_AUDIT_CHUNK``: each chunk's T-row
    slices of a side's power matrix form one stack whose ranks
    ``FieldContext.batch_rank`` computes at once.  Checking stops
    once 10 failing subsets are found; the report lists the first 10 in
    checking order, and ``checked`` counts the subsets ranked up to and
    including the 10th failure.  A run that finds fewer failures
    reports C(N, T) when enumerated and the number of distinct subsets
    drawn when sampled.  Points are read as integers mod p, zero and
    repeated ones included; a non-integer point raises ``TypeError`` and
    fewer than T points raise ``ValueError``.
    """
    cap = _check_audit_cap(cap)
    t = plan.T
    n = len(points)
    if n < t:
        raise ValueError(f"privacy audit needs at least T = {t} points, got {n}")
    if t == 0:
        return AuditReport(ok=True, checked=0, exhaustive=True)
    total = math.comb(n, t)
    points = np.array([operator.index(x) % ctx.p for x in points], dtype=np.int64)

    @functools.cache
    def distinct(d):
        """Whether the x^d are pairwise distinct; each step's powers are formed once."""
        return d == 0 or len(set(_powers(points, [d], ctx.p).ravel().tolist())) == n

    if all(any((e0 == 0 or points.all()) and distinct(d) for d, e0 in side)
           for side in plan.noise_progressions):
        return AuditReport(ok=True, checked=total, exhaustive=True, method="proof")
    # Unchecked powers rather than FieldContext.vandermonde: a repeated or
    # zero point must show up as a failing subset, not raise before the audit.
    powers = [_powers(points, exps, ctx.p) for exps in (plan.noise_alpha, plan.noise_beta)]
    exhaustive = total <= cap
    if exhaustive:
        subsets = combinations(range(n), t)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        draws = [tuple(sorted(rng.choice(n, size=t, replace=False).tolist()))
                 for _ in range(cap)]
        subsets = dict.fromkeys(draws)
    pending = iter(subsets)
    failures = []
    checked = 0
    size = min(_AUDIT_FIRST_CHUNK, _AUDIT_CHUNK)
    while len(failures) < 10 and (chunk := list(islice(pending, size))):
        size = min(2 * size, _AUDIT_CHUNK)
        rows = np.array(chunk, dtype=np.intp)
        bad = np.zeros(len(rows), dtype=bool)
        for mat in powers:
            bad |= ctx.batch_rank(mat[rows]) < t
        hits = np.flatnonzero(bad)[:10 - len(failures)]
        failures.extend(tuple(row) for row in rows[hits].tolist())
        checked += len(rows) if len(failures) < 10 else int(hits[-1]) + 1
    return AuditReport(ok=not failures, checked=checked, exhaustive=exhaustive,
                       failures=tuple(failures),
                       method="enumerated" if exhaustive else "sampled")


def rate_report(plan: ExponentPlan, mode: str) -> RateReport:
    """Useful block products per downloaded symbol, exact.

    A quantum rate exists only for a plan the protocol will run:
    ``quantum_layout`` gates it and raises ``NotFeasibleError``.
    """
    _check_mode(mode)
    if mode == "quantum":
        quantum_layout(plan)
    return _rate(plan, mode)


def _rate(plan: ExponentPlan, mode: str) -> RateReport:
    """``rate_report`` without its gate, for a run whose frame has passed it."""
    n = plan.table.n_servers
    instances = 2 if mode == "quantum" else 1
    return RateReport(rate=Fraction(instances * plan.K * plan.L, n),
                      n_servers=n, instances=instances)


def rate_ratio(quantum: RateReport, classical: RateReport) -> Fraction:
    """Exact gain of one scheme over another."""
    return quantum.rate / classical.rate


def run_protocol(cfg: ProtocolConfig) -> Transcript:
    """Full deterministic run: sample, encode, compute, decode, verify.

    Each run first calls ``check_decodable`` once, so an undecodable
    plan raises ``ValueError`` before the quantum gate and before any
    draw.  The quantum gate (``sample_frame``'s ``quantum_layout``
    call), the frame and its audit are per run too, and the rate is
    ``rate_report``'s without a second gate.  Each instance draws A, B
    and both noise stacks with one ``rng.integers`` call (see the module
    docstring) before the next instance draws.
    """
    plan = cfg.plan
    report = check_decodable(plan)
    if not report.ok:
        raise ValueError(f"plan is not decodable: {report.reason}")
    rng = np.random.default_rng(cfg.seed)
    frame, audit = sample_frame(cfg, rng)  # gates quantum mode first
    rate = _rate(plan, cfg.mode)
    ctx = frame.ctx
    ra, inner, cb = cfg.block_dims

    def instance():
        a, b, noise_f, noise_g = _draw(rng, ctx.p, (plan.K * ra, inner), (inner, plan.L * cb),
                                       (len(plan.noise_alpha), ra, inner),
                                       (len(plan.noise_beta), inner, cb))
        return a, b, noise_f, noise_g, encode_and_multiply(
            frame, *_bands(plan, a, b), noise_f, noise_g)

    # Each instance draws all its inputs and noise before the next one
    # starts; the transcript fixes that order of rng draws.
    a_in, b_in, nf, ng, resp = zip(*(instance() for _ in range(rate.instances)))

    if cfg.mode == "classical":
        decoded = (decode_classical(frame, resp[0]),)
    else:
        decoded = decode_quantum(frame, resp)
    ok = all(np.array_equal(dec, ctx.matmul(a, b))
             for dec, a, b in zip(decoded, a_in, b_in))
    return Transcript(
        plan=plan, modulus=ctx.p, mode=cfg.mode, seed=cfg.seed,
        points=frame.points,
        a_inputs=a_in, b_inputs=b_in, noise_f=nf, noise_g=ng,
        responses=resp, decoded=decoded,
        decode_ok=ok, audit=audit, rate=rate,
    )


def _bands(plan: ExponentPlan, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views of A's K row bands, shaped (K, ra, inner), and B's L column bands, (L, inner, cb)."""
    inner = a.shape[1]
    return a.reshape(plan.K, -1, inner), b.reshape(inner, plan.L, -1).swapaxes(0, 1)


def _draw(rng: np.random.Generator, p: int, *shapes) -> list[np.ndarray]:
    """int64 arrays of the given shapes, uniform on [0, p), cut from one ``rng.integers`` call.

    For a range below 2^32, numpy's bounded int64 draw takes one 32-bit
    word per accepted value, so the one call gives the values, and leaves
    the generator in the state, that one call per shape, in order, would.
    The arrays are views of the one draw.
    """
    sizes = [math.prod(shape) for shape in shapes]
    flat = rng.integers(0, p, size=sum(sizes), dtype=np.int64)
    parts, at = [], 0
    for shape, size in zip(shapes, sizes):
        parts.append(flat[at:at + size].reshape(shape))
        at += size
    return parts


def transcript_dump(t: Transcript) -> str:
    """Line-oriented text dump suitable for regression snapshots.

    Both sides' share lines of an instance come from one derivation,
    over one rebuilt frame (see ``Transcript``).
    """
    lines = [
        f"modulus {t.modulus}",
        f"mode {t.mode}",
        f"seed {t.seed}",
        f"plan {plan_record(t.plan)}",
        "points " + " ".join(map(str, t.points)),
    ]
    for m, (a, b) in enumerate(zip(t.a_inputs, t.b_inputs), start=1):
        lines.append(f"input A {m} " + " ".join(map(str, a.ravel())))
        lines.append(f"input B {m} " + " ".join(map(str, b.ravel())))
    for m, (f, g) in enumerate(t._share_stacks(), start=1):
        for srv in range(f.shape[0]):
            lines.append(f"share f {m} {srv + 1} " + " ".join(map(str, f[srv].ravel())))
            lines.append(f"share g {m} {srv + 1} " + " ".join(map(str, g[srv].ravel())))
    for m, r in enumerate(t.responses, start=1):
        for srv in range(r.shape[0]):
            lines.append(f"response {m} {srv + 1} " + " ".join(map(str, r[srv].ravel())))
    for m, d in enumerate(t.decoded, start=1):
        lines.append(f"decoded {m} " + " ".join(map(str, d.ravel())))
    lines.append(f"verdict decode {'ok' if t.decode_ok else 'FAIL'}")
    lines.append(f"verdict audit {'ok' if t.audit.ok else 'FAIL'} "
                 f"checked={t.audit.checked} exhaustive={t.audit.exhaustive}")
    lines.append(f"rate {t.rate.instances * t.plan.K * t.plan.L}/{t.rate.n_servers}")
    return "\n".join(lines) + "\n"
