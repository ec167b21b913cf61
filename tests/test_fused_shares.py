"""The encoder and server stage, and the shares a transcript derives, against the int64 oracle.

One encoder, ``protocol._encode``, yields each server group's shares;
``encode_and_multiply`` multiplies them and keeps only the products,
and ``protocol._shares`` casts them into the int64 stacks that
``Transcript.shares_f`` and ``shares_g`` derive on read.  Where the
server stage cuts limbs, the encoder cuts each side's data and noise
blocks once into the limbs of its encode tier, folds the limb weights
into the frame's powers, and forms all N servers' shares of the side
with one ``FieldContext._product`` of the folded powers by the limbs,
read whole, per column tile of ``protocol._COLUMN_BYTES`` bytes, cast
into two share stacks; each group of servers' int64 share rows then
meet in one stacked GEMM.  Where it reads whole floats, a group's
shares are one product a side whose reduced floats its GEMM reads, and
no tile is cut.  ``share_oracle`` multiplies each server's int64 shares
with ``FieldContext.matmul``, as the library did before.  Both must give
the same shares and products, exactly, on every tier an encode or a
server stage can take, with folded rows in one chunk and in two, for
groups of one server, of several and of all servers, and at column
tiles of one column, of a width that divides neither side's rows and of
whole rows, in both modes; the derived shares of a transcript must
equal the oracle's, and a transcript with one noise stack rolled by a
block, or its instances' noise swapped, must not.  A call-budget pin
holds a limb-tier encoder to two products a call, one per side, at
sizes where each side fits one tile, whatever N and the group count,
and per-group encoding goes over it; on a float tier each group's
server GEMM reads its encoder's floats, which the limb tier's path
would not give it.  Six negative controls break the pass: the encoder's
accumulator left unreduced, the limb split skipped, the limb rows
stacked least significant first, the folded powers left unreduced mod
p, and, in the encoder's tile loop, the last column tile dropped and a
tile shifted by one column; each must make the comparison fail.
"""

import dataclasses
import inspect
import textwrap
import weakref

import numpy as np
import pytest

from pdmm import gf, protocol
from pdmm.degree_tables import build_cat, build_gasp_r
from pdmm.gf import FieldContext
from pdmm.protocol import ProtocolConfig, encode_and_multiply, run_protocol, sample_frame
from share_oracle import encode_shares, server_compute

GASP223 = build_gasp_r(2, 2, 3, 2)  # N = 13, five coefficient blocks per side

# name: (plan, prime floor, dims, (encode tier, server tier)), a tier as (dtype, limbs)
CASES = {
    "F11 float32": (build_cat(2, 2, 2), None, (6, 40, 4), (("float32", 1), ("float32", 1))),
    "F65537 float64": (GASP223, 65537, (6, 40, 4), (("float64", 1), ("float64", 1))),
    "float64 chunks of one index": (GASP223, 67108858, (6, 40, 4),
                                    (("float64", 1), ("float64", 1))),
    "limbs": (GASP223, 2_000_000_000, (6, 40, 4), (("float64", 2), ("float64", 3))),
    # ra < cb: the server stage cuts its left operand, f, where "limbs" cuts g
    "limbs, f cut": (GASP223, 2_000_000_000, (2, 40, 12), (("float64", 2), ("float64", 3))),
    "float32 encode, float64 server": (GASP223, 1030, (6, 40, 4), (("float32", 1), ("float64", 1))),
    "float64 encode, float32 server": (build_gasp_r(2, 2, 6, 2), 1030, None,
                                       (("float64", 1), ("float32", 1))),
    "limbs, 1x1 blocks": (GASP223, 2_000_000_000, None, (("float64", 2), ("float64", 2))),
    # 32 blocks a side, more than one two-limb chunk (31 deep at this p) holds
    "limbs, three in the encoder": (build_gasp_r(1, 1, 31, 1), 2**31 - 1, (3, 40, 2),
                                    (("float64", 3), ("float64", 3))),
    # 17 blocks a side: 34 folded two-limb rows, more than one chunk (33 deep at this p) holds
    "limbs, folded rows in two chunks": (build_gasp_r(1, 1, 16, 1), 2_000_000_000, (3, 40, 2),
                                         (("float64", 2), ("float64", 3))),
}
LIMB_CASES = [name for name in CASES if name.startswith("limbs")]
# one case per encode tier, and two folded chunks; a side's shares are rows
# of 3 * 40 and 40 * 2 entries in each
EDGES = ["F11 float32", "F65537 float64", "limbs", "limbs, three in the encoder",
         "limbs, folded rows in two chunks"]
# columns per tile of a side's shares: one, seven (which divides neither 120 nor 80), all
WIDTHS = {"one column": 1, "seven columns": 7, "one tile": 10**6}
# _TILE values: one server per group, a few per group, the default
TILES = {"one server": 1, "four servers": 1000, "default": gf._TILE}


def runs(name, mode, monkeypatch, tile):
    """(frame, blocks, transcript arrays) of each instance of one run of a case, at a ``_TILE``."""
    plan, prime, dims, tiers = CASES[name]
    monkeypatch.setattr(gf, "_TILE", tile)
    cfg = ProtocolConfig(plan=plan, dims=dims, mode=mode, seed=5, prime=prime)
    t = run_protocol(cfg)
    assert t.decode_ok
    frame, _ = sample_frame(cfg, np.random.default_rng(cfg.seed))
    ctx, (ra, inner, cb) = frame.ctx, cfg.block_dims
    stages = [ctx._tier(len(plan.alpha)), ctx._tier(inner)]
    assert len(plan.alpha) == len(plan.beta)
    assert [(np.dtype(dtype).name, count) for dtype, count, *_ in stages] == list(tiers)
    for a, b, nf, ng, *arrays in zip(t.a_inputs, t.b_inputs, t.noise_f, t.noise_g,
                                     t.shares_f, t.shares_g, t.responses):
        blocks = (a.reshape(plan.K, ra, inner), b.reshape(inner, plan.L, cb).swapaxes(0, 1),
                  nf, ng)
        yield frame, blocks, arrays


def column_bytes(frame, columns):
    """``protocol._COLUMN_BYTES`` for tiles of ``columns`` columns of a side's
    shares over all N servers, in the case's encode dtype."""
    return frame.n * columns * np.dtype(frame.ctx._tier(len(frame.plan.alpha))[0]).itemsize


def encoder_tiles(columns):
    """Encoder products of one ``encoded`` call on a limb-tier ``EDGES`` case
    at tiles of ``columns`` columns: a product a tile of each side's 120
    and 80 share columns, in each of its two encodings."""
    return 2 * sum(-(-cols // columns) for cols in (120, 80))


def oracle(frame, blocks):
    f, g = encode_shares(frame, *blocks)
    return f, g, server_compute(frame.ctx, f, g)


def same(got, want):
    return all(x.dtype == np.int64 and np.array_equal(x, y) for x, y in zip(got, want))


def encoded(frame, blocks):
    """The share stacks ``protocol._shares`` derives and the products of
    ``protocol.encode_and_multiply``, both from the one encoder."""
    return (*protocol._shares(frame, *blocks), protocol.encode_and_multiply(frame, *blocks))


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("name", CASES)
def test_fused_pass_matches_the_oracle_on_every_tier(monkeypatch, name, tile, mode):
    count = 0
    for frame, blocks, arrays in runs(name, mode, monkeypatch, TILES[tile]):
        want = oracle(frame, blocks)
        assert same(arrays, want)  # the transcript's derived shares and its responses
        assert same(encoded(frame, blocks), want)
        count += 1
    assert count == (2 if mode == "quantum" else 1)


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("name", CASES)
def test_derived_shares_catch_a_replaced_noise_stack(monkeypatch, name, mode):
    """Negative control of the differential test: a transcript whose first
    instance's f noise is rolled by one block, or, in a quantum run, whose
    instances' g noise is swapped, derives shares the oracle does not give."""
    wants = [oracle(frame, blocks)[:2] for frame, blocks, _ in runs(name, mode, monkeypatch,
                                                                      gf._TILE)]
    plan, prime, dims, _ = CASES[name]
    t = run_protocol(ProtocolConfig(plan=plan, dims=dims, mode=mode, seed=5, prime=prime))
    assert [same(pair, want) for *pair, want in zip(t.shares_f, t.shares_g, wants)] == (
        [True] * len(wants))
    rolled = np.roll(t.noise_f[0], 1, axis=0)
    assert not np.array_equal(rolled, t.noise_f[0])
    bad = dataclasses.replace(t, noise_f=(rolled, *t.noise_f[1:]))
    assert not same(bad.shares_f[:1], [wants[0][0]])
    assert same(bad.shares_g, [g for _, g in wants])  # only the replaced side moves
    if mode == "quantum":
        bad = dataclasses.replace(t, noise_g=t.noise_g[::-1])
        assert not np.array_equal(*bad.noise_g)
        assert [same([g], [want]) for g, (_, want) in zip(bad.shares_g, wants)] == [False] * 2


def test_the_two_chunk_case_folds_more_rows_than_one_chunk_holds(monkeypatch):
    for frame, _, _ in runs("limbs, folded rows in two chunks", "classical", monkeypatch, gf._TILE):
        blocks = len(frame.plan.alpha)
        _, count, _, depth = frame.ctx._tier(blocks)
        assert (blocks, count, depth) == (17, 2, 33) and count * blocks > depth


@pytest.mark.parametrize("tile, groups", [(1, 13), (1000, 4), (gf._TILE, 1)])
def test_the_cases_stage_one_several_or_all_servers_per_group(monkeypatch, tile, groups):
    monkeypatch.setattr(gf, "_TILE", tile)
    assert len(gf._groups(13, 3, 2, 40)) == groups
    assert len(gf._groups(13, 1, 1, 1)) == (13 if tile == 1 else 1)


def test_bulk_sized_shares_take_one_server_per_group():
    cfg = ProtocolConfig(plan=build_cat(2, 2, 2), dims=(128, 1024, 128), mode="quantum", seed=2)
    ra, inner, cb = cfg.block_dims
    assert len(gf._groups(10, ra, cb, inner)) == 10
    t = run_protocol(cfg)
    frame, _ = sample_frame(cfg, np.random.default_rng(cfg.seed))
    for m in range(2):
        blocks = (t.a_inputs[m].reshape(2, ra, inner),
                  t.b_inputs[m].reshape(inner, 2, cb).swapaxes(0, 1), t.noise_f[m], t.noise_g[m])
        assert same((t.shares_f[m], t.shares_g[m], t.responses[m]), oracle(frame, blocks))


@pytest.mark.parametrize("name", ["F11 float32", "F65537 float64", "limbs"])
def test_blocks_outside_zero_to_p_are_taken_mod_p(monkeypatch, name):
    for frame, blocks, arrays in runs(name, "classical", monkeypatch, gf._TILE):
        p = frame.ctx.p
        # one entry of one block per side moved by a multiple of p, up or down
        shifted = [[x.copy() for x in side] for side in blocks]
        shifted[0][0][0, 0] += 3 * p
        shifted[3][-1][-1, -1] -= p * 2**30
        assert same(encoded(frame, shifted), arrays)
        assert same(encoded(frame, [np.asarray(side, dtype=np.uint64) + p
                                    for side in blocks]), arrays)


@pytest.mark.parametrize("name", ["F11 float32", "F65537 float64", "limbs"])
def test_a_block_list_may_mix_int64_and_uint64_blocks(monkeypatch, name):
    """One ``np.asarray`` over such a list promotes it to float64, which must
    not reach the integer check: each block is read as ``_integers`` reads it."""
    for frame, blocks, arrays in runs(name, "classical", monkeypatch, gf._TILE):
        p = np.uint64(frame.ctx.p)
        mixed = [[x.astype(np.uint64) + p if i % 2 else x for i, x in enumerate(side)]
                 for side in blocks]
        assert all(len(side) > 1 for side in mixed)
        assert np.asarray(mixed[0]).dtype == np.float64
        assert same(encoded(frame, mixed), arrays)
        mixed[0][0] = mixed[0][0].astype(np.float64)
        with pytest.raises(TypeError, match="^field elements must be integers, got an array "
                                            "of dtype float64$"):
            encode_and_multiply(frame, *mixed)


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("name", EDGES)
def test_column_tiles_match_the_oracle_at_their_edges(monkeypatch, name, width, mode):
    for frame, blocks, arrays in runs(name, mode, monkeypatch, gf._TILE):
        assert [side[0].size for side in blocks[:2]] == [120, 80]
        want = oracle(frame, blocks)
        with monkeypatch.context() as tiles:
            tiles.setattr(protocol, "_COLUMN_BYTES", column_bytes(frame, WIDTHS[width]))
            calls = product_calls(tiles)
            assert same(encoded(frame, blocks), want)
            if name.startswith("limbs"):  # 400, 60 and 4 encoder products
                assert [a.ndim for a in calls].count(2) == encoder_tiles(WIDTHS[width])


def product_calls(monkeypatch) -> list:
    """The left operand of each ``FieldContext._product`` call from here on:
    2-D for an encoder product, 3-D for a server group's stacks."""
    calls, real = [], FieldContext._product
    monkeypatch.setattr(FieldContext, "_product",
                        lambda self, a, *rest: calls.append(a) or real(self, a, *rest))
    return calls


def per_group_encoding(monkeypatch, groups):
    """Each side's shares formed by one product per server group, each
    re-reading the side's blocks."""
    real = FieldContext._product

    def product(self, a, b, tier):
        if a.ndim == 3:  # a server stage
            return real(self, a, b, tier)
        return np.concatenate([real(self, a[part], b, tier) for part in groups])

    monkeypatch.setattr(FieldContext, "_product", product)


@pytest.mark.parametrize("name, tile, groups", [
    ("limbs", gf._TILE, 1),
    ("limbs", 1000, 4),
    ("limbs", 1, 13),
    ("limbs, three in the encoder", 1000, 16),
])
def test_each_limb_tier_call_encodes_with_two_products(monkeypatch, name, tile, groups):
    for frame, blocks, arrays in runs(name, "quantum", monkeypatch, tile):
        (_, ra, inner), (_, _, cb) = blocks[0].shape, blocks[1].shape
        parts = gf._groups(frame.n, ra, cb, inner)
        assert len(parts) == groups
        with monkeypatch.context() as counted:
            calls = product_calls(counted)
            got = encode_and_multiply(frame, *blocks)
            assert [a.ndim for a in calls].count(2) == 2
            assert [a.ndim for a in calls].count(3) == groups
            assert same((*protocol._shares(frame, *blocks), got), arrays)
        with monkeypatch.context() as counted:  # negative control: encoding per group
            calls = product_calls(counted)
            per_group_encoding(counted, parts)
            got = encode_and_multiply(frame, *blocks)
            assert [a.ndim for a in calls].count(2) == 2 * groups  # over the pin if groups > 1
            assert same((*protocol._shares(frame, *blocks), got), arrays)


ENCODE_SOURCE = textwrap.dedent(inspect.getsource(protocol._encode))


def encoder_with(monkeypatch, *replacements):
    """``protocol._encode``, which both of its consumers read, with each
    (old, new) source fragment replaced, each found once, reading
    ``protocol``'s globals."""
    source = ENCODE_SOURCE
    for old, new in replacements:
        assert source.count(old) == 1
        source = source.replace(old, new)
    namespace = dict(vars(protocol))
    exec(source, namespace)
    monkeypatch.setattr(protocol, "_encode", namespace["_encode"])


def all_servers_encoded_first(monkeypatch):
    """The encoder taking the limb tier's path on every tier, where its
    encode tier has one limb, so the fold leaves the powers as they are."""
    encoder_with(monkeypatch, ("ctx._tier(inner)[1] > 1", "True"))


@pytest.mark.parametrize("name, tile, groups", [
    ("F11 float32", gf._TILE, 1),
    ("F11 float32", 1000, 3),
    ("F65537 float64", 1, 13),
    ("float32 encode, float64 server", 1000, 4),
])
def test_a_float_tier_server_reads_the_floats_its_group_encoded(monkeypatch, name, tile,
                                                                 groups):
    for frame, blocks, arrays in runs(name, "quantum", monkeypatch, tile):
        (_, ra, inner), (_, _, cb) = blocks[0].shape, blocks[1].shape
        assert len(gf._groups(frame.n, ra, cb, inner)) == groups
        # the negative control takes the limb tier's path: two encoder products,
        # then int64 rows of the share stacks in each server GEMM
        for broken, encoders, kind in ((False, 2 * groups, "f"), (True, 2, "i")):
            with monkeypatch.context() as counted:
                if broken:
                    all_servers_encoded_first(counted)
                calls = product_calls(counted)
                got = protocol.encode_and_multiply(frame, *blocks)
                servers = [a for a in calls if a.ndim == 3]
                assert (len(calls) - len(servers), len(servers)) == (encoders, groups)
                assert {a.dtype.kind for a in servers} == {kind}, broken
                assert same((*protocol._shares(frame, *blocks), got), arrays)


def test_server_limbs_are_cut_from_the_int64_rows(monkeypatch):
    """In the limb tier each side's data and noise stacks are cut once into
    two limbs, and the powers, with the limb weights folded in, are read
    whole; the server stage cuts its limbs from the int64 share rows the
    encoder wrote, not from floats."""
    cut, carved = [], []
    for module in (gf, protocol):
        monkeypatch.setattr(module, "_limbs", lambda x, count, *rest, real=module._limbs,
                            at=module.__name__: cut.append((at, x, count)) or real(x, count, *rest))
    monkeypatch.setattr(protocol, "_one_buffer", lambda *specs, real=protocol._one_buffer:
                        carved.append(real(*specs)) or carved[-1])
    for name, stack in (("limbs", 1), ("limbs, f cut", 0)):
        for frame, blocks, arrays in runs(name, "classical", monkeypatch, gf._TILE):
            cut.clear()
            carved.clear()
            got = encode_and_multiply(frame, *blocks)
            assert same([got], arrays[2:])
            p, plan, (a, b, nf, ng) = frame.ctx.p, frame.plan, blocks
            # per side its data and noise stacks, then its folded powers; then one share stack
            assert [(at, count) for at, _, count in cut] == (
                [("pdmm.protocol", 2)] * 2 + [("pdmm.gf", 1)]) * 2 + [("pdmm.gf", 3)]
            assert [x.dtype for _, x, _ in cut] == [np.int64] * 7
            assert [x.shape for _, x, _ in cut[:6]] == [
                a.shape, nf.shape, (frame.n, 2 * len(plan.alpha)),
                b.shape, ng.shape, (frame.n, 2 * len(plan.beta))]
            for (_, folded, _), exps, info, noise in (
                    (cut[2], plan.alpha, plan.info_alpha, plan.noise_alpha),
                    (cut[5], plan.beta, plan.info_beta, plan.noise_beta)):
                powers = frame.powers([*(exps[i] for i in info), *noise])
                assert np.array_equal(folded, np.hstack([powers * 2**16 % p, powers]))
            (shares, (products,)) = carved  # the two share stacks, then the products
            assert np.shares_memory(cut[6][1], shares[stack])
            assert not np.shares_memory(products, shares[0]) and products is got
            assert same(protocol._shares(frame, *blocks), arrays)


def test_a_limb_tier_encoder_frees_each_side_operand_before_the_next(monkeypatch):
    """A limb-tier side's operand, c times its blocks, is freed before the
    other side's is made, so at most one is alive; the control keeps a
    reference to the first and must see it alive at the second."""
    (frame, blocks, arrays), = runs("limbs", "classical", monkeypatch, gf._TILE)
    real = protocol._operand
    for keep in (False, True):
        refs, kept, alive = [], [], []

        def operand(ctx, data, noise, bits, out):
            alive.append([ref() is not None for ref in refs])
            refs.append(weakref.ref(out))
            kept.extend([out] * keep)
            return real(ctx, data, noise, bits, out)

        with monkeypatch.context() as watched:
            watched.setattr(protocol, "_operand", operand)
            got = encode_and_multiply(frame, *blocks)
            assert alive == [[], [keep]]
            assert same((*protocol._shares(frame, *blocks), got), arrays)


def unreduced(monkeypatch):
    """The encoder casts its GEMMs' accumulator into the shares without reducing it."""
    real = FieldContext._product

    def product(self, a, b, tier):
        if a.ndim == 3:  # a server stage
            return real(self, a, b, tier)
        reduce = FieldContext._reduce
        FieldContext._reduce = lambda self, x: x
        try:
            return real(self, a, b, tier)
        finally:
            FieldContext._reduce = reduce

    monkeypatch.setattr(FieldContext, "_product", product)


def no_limb_split(monkeypatch):
    """Every operand of a product is read whole, whatever the tier."""
    monkeypatch.setattr(gf, "_limbs", lambda x, count, bits, dtype: [x.astype(dtype)])


def least_significant_first(monkeypatch):
    """The encoder stacks its limb rows least significant first."""
    real = protocol._limbs

    def cut(x, count, bits, dtype, out):
        out[...] = real(x, count, bits, dtype, out)[::-1].copy()
        return out

    monkeypatch.setattr(protocol, "_limbs", cut)


def unreduced_fold(monkeypatch):
    """The encoder leaves its folded powers P 2^(b j) unreduced mod p."""
    encoder_with(monkeypatch, ("pow(2, bits * j, ctx.p) % ctx.p", "pow(2, bits * j, ctx.p)"))


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("mutant, names", [
    (unreduced, list(CASES)),
    (no_limb_split, LIMB_CASES),
    (least_significant_first, LIMB_CASES),
    (unreduced_fold, LIMB_CASES),
])
def test_the_comparison_catches_a_broken_pass(monkeypatch, mutant, names):
    for name in names:
        for tile in (1, gf._TILE):
            for frame, blocks, arrays in runs(name, "classical", monkeypatch, tile):
                assert same(arrays, oracle(frame, blocks))
                with monkeypatch.context() as broken:
                    mutant(broken)
                    assert not same(encoded(frame, blocks), arrays), (name, tile)


def poisoned(monkeypatch) -> list:
    """Every array ``_one_buffer`` carves starts filled with -1, which is no
    field element, so an entry the pass never writes shows.  Returns the
    (shape, dtype) of each array carved from here on."""
    real, carved = protocol._one_buffer, []

    def one_buffer(*specs):
        arrays = real(*specs)
        for x in arrays:
            x.fill(-1)
            carved.append((x.shape, x.dtype))
        return arrays

    monkeypatch.setattr(protocol, "_one_buffer", one_buffer)
    return carved


@pytest.mark.parametrize("old, new", [
    pytest.param("range(0, rows.shape[1], width)", "range(0, rows.shape[1] - width, width)",
                 id="last_tile_dropped"),
    pytest.param("ctx._product(folded, coeffs[:, c:c + width], one_limb)",
                 "np.roll(ctx._product(folded, coeffs[:, c:c + width], one_limb), 1, -1)",
                 id="tile_shifted_by_one_column"),
])
def test_the_tile_edges_catch_a_dropped_or_shifted_tile(monkeypatch, old, new):
    for name in EDGES:
        limbs = name.startswith("limbs")
        for width in ("seven columns", "one tile"):
            for frame, blocks, arrays in runs(name, "classical", monkeypatch, gf._TILE):
                with monkeypatch.context() as broken:
                    # set before ``encoder_with`` copies protocol's globals
                    broken.setattr(protocol, "_COLUMN_BYTES", column_bytes(frame, WIDTHS[width]))
                    carved = poisoned(broken)
                    # the unmutated copy passes, so the mutation is what fails; only
                    # the limb tier's encoder runs the tile loop
                    for fragment, caught in ((old, False), (new, limbs)):
                        encoder_with(broken, (old, fragment))
                        calls = product_calls(broken)
                        got = encoded(frame, blocks)
                        assert same(got, arrays) != caught, (name, width, fragment)
                        if limbs and not caught:  # 60 tiles at seven columns, 4 at one tile
                            assert [a.ndim for a in calls].count(2) == encoder_tiles(
                                WIDTHS[width])
                    # the poison reaches the limb tier's share stacks; a float tier makes none
                    stacks = {(x.shape, x.dtype) for x in arrays[:2]}
                    assert (stacks <= set(carved)) == limbs, name
