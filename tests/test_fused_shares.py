"""The fused encode-and-product pass against the encoder and server step it replaces.

``encode_and_multiply`` forms a group of servers' shares by one GEMM per
side, casts them into the share stacks, and hands the same reduced floats
to the group's server GEMM.  ``share_oracle`` multiplies int64 stacks with
``FieldContext.matmul`` as the library did before.  Both must give the
same shares and products, exactly, on every tier an encode or a server
stage can take, for groups of one server, of several and of all servers,
in both modes.  Two negative controls break the pass, one by leaving the
encoder's accumulator unreduced and one by skipping the limb split, and
each must make the comparison fail.
"""

import numpy as np
import pytest

from pdmm import gf
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
}
# _TILE values: one server per group (and one column per tile), a few per group, the default
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


def oracle(frame, blocks):
    f, g = encode_shares(frame, *blocks)
    return f, g, server_compute(frame.ctx, f, g)


def same(got, want):
    return all(x.dtype == np.int64 and np.array_equal(x, y) for x, y in zip(got, want))


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("name", CASES)
def test_fused_pass_matches_the_oracle_on_every_tier(monkeypatch, name, tile, mode):
    count = 0
    for frame, blocks, arrays in runs(name, mode, monkeypatch, TILES[tile]):
        want = oracle(frame, blocks)
        assert same(arrays, want)
        assert same(encode_and_multiply(frame, *blocks), want)
        count += 1
    assert count == (2 if mode == "quantum" else 1)


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
        assert same(encode_and_multiply(frame, *shifted), arrays)
        assert same(encode_and_multiply(frame, *(np.asarray(side, dtype=np.uint64) + p
                                                 for side in blocks)), arrays)


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
        assert same(encode_and_multiply(frame, *mixed), arrays)
        mixed[0][0] = mixed[0][0].astype(np.float64)
        with pytest.raises(TypeError, match="^field elements must be integers, got an array "
                                            "of dtype float64$"):
            encode_and_multiply(frame, *mixed)


def test_server_limbs_are_cut_from_the_int64_rows(monkeypatch):
    """In the limb tier the whole operand is the encoder's float tile, and the
    cut one is read from the share rows just written, not cast back from floats."""
    cut = []
    real = gf._limbs
    monkeypatch.setattr(gf, "_limbs", lambda x, *args: cut.append(x.dtype) or real(x, *args))
    for name in ("limbs", "limbs, f cut"):
        for frame, blocks, arrays in runs(name, "classical", monkeypatch, gf._TILE):
            cut.clear()
            assert same(encode_and_multiply(frame, *blocks), arrays)
            assert cut == [np.int64] * 3  # the powers of each side, then one share stack


def unreduced(monkeypatch):
    """The encoder hands on its GEMMs' accumulator without reducing it."""
    real = FieldContext._product

    def product(self, a, b, tier, out=None, ints=None):
        if out is not None:  # a server stage
            return real(self, a, b, tier, out, ints)
        reduce = FieldContext._reduce
        FieldContext._reduce = lambda self, x: x
        try:
            return real(self, a, b, tier)
        finally:
            FieldContext._reduce = reduce

    monkeypatch.setattr(FieldContext, "_product", product)


def no_limb_split(monkeypatch):
    """Every operand is read whole, whatever the tier."""
    monkeypatch.setattr(gf, "_limbs", lambda x, count, bits, dtype: [x.astype(dtype)])


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("mutant, names", [
    (unreduced, list(CASES)),
    (no_limb_split, ["limbs", "limbs, f cut", "limbs, 1x1 blocks"]),
])
def test_the_comparison_catches_a_broken_pass(monkeypatch, mutant, names):
    for name in names:
        for tile in (1, gf._TILE):
            for frame, blocks, arrays in runs(name, "classical", monkeypatch, tile):
                assert same(arrays, oracle(frame, blocks))
                with monkeypatch.context() as broken:
                    mutant(broken)
                    assert not same(encode_and_multiply(frame, *blocks), arrays), (name, tile)
