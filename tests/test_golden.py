"""Golden transcripts: the dump of a fixed-seed run must not change.

The digests below were recorded before the degree-table facts were
consolidated into ``outer_sum``, those over the two large primes
before ``FieldContext.matmul`` moved to float64 products, and the
``onelimb`` and ``float32`` cases before it reduced in floating point
and gained a float32 tier; a refactor of the plan, feasibility,
protocol or field layers must leave every byte of these dumps as it
was.  ``lp443-quantum`` was re-recorded when the
privacy audit learned to prove progression sides (its sampled audit had
drawn from the run's generator), and ``gaspr333-sampled`` was recorded
when a sampled audit started counting distinct subsets.
"""

import hashlib

import pytest

from pdmm.degree_tables import (
    build_cat,
    build_gasp_r,
    build_low_privacy,
    build_qf_klt,
    optimal_gasp_r,
    outer_sum,
)
from pdmm.protocol import ProtocolConfig, run_protocol, transcript_dump

GOLDEN = [
    ("cat222-classical", lambda: build_cat(2, 2, 2),
     dict(mode="classical", seed=2),
     "524d3c472cd25a08f50b4e3198a06e29be7b2621b325d371347c97e70ee3430f"),
    ("cat222-quantum", lambda: build_cat(2, 2, 2),
     dict(mode="quantum", seed=1),
     "9396b3f9a736e55a50bfed82caa3b3850e8ee01d9707e63be706960ba73ed4a5"),
    # x = 3: the information sum 9 + 3 = 12 wraps to 2 mod q = 10
    ("cat222x3-classical", lambda: build_cat(2, 2, 2, x=3),
     dict(mode="classical", seed=0, dims=(4, 2, 2)),
     "4b08cf2006ef3188b8d8113b27d6c6e4482a2d7f3925be34b0adac98411f4662"),
    ("cat222x3-quantum", lambda: build_cat(2, 2, 2, x=3),
     dict(mode="quantum", seed=6, dims=(4, 2, 2)),
     "c6bbd9a07e484e215edbeea5c35773282782a92ec52d33dd2e9f62a0ba235d3a"),
    ("gasp223-classical", lambda: build_gasp_r(2, 2, 3, 2),
     dict(mode="classical", seed=4, dims=(4, 3, 6), prime=131),
     "90cb4f517a48a278f95a3f09f624461ba1cc61925b7c3f9f3a8e1085012302e4"),
    ("qfklt32-quantum", lambda: build_qf_klt(3, 2),
     dict(mode="quantum", seed=5),
     "cdfa6ab1c2e11e1b7fb11cc1d82dcb97a106e356825c7b18676e110c4efc5b0b"),
    # C(42, 3) = 11480 > 500, but the noise exponents (0, 1, 2, 3) and
    # (0, 1, 2) prove the audit, so no subsets are sampled and the dump
    # is the one an exhaustive audit gives (next case)
    ("lp443-quantum", lambda: build_low_privacy(4, 4, 3),
     dict(mode="quantum", seed=3, audit_cap=500),
     "8c485f13254d595f800ff57afcd4db559a2892593c553f5eedcd264a085f5970"),
    # recorded when this audit still ranked all 11480 subsets
    ("lp443-quantum-exhaustive", lambda: build_low_privacy(4, 4, 3),
     dict(mode="quantum", seed=3, audit_cap=11480),
     "8c485f13254d595f800ff57afcd4db559a2892593c553f5eedcd264a085f5970"),
    # alpha noise (9, 10, 12) holds no progression of 3: a sampled audit
    ("gaspr333-sampled", lambda: optimal_gasp_r(3, 3, 3),
     dict(mode="classical", seed=0, prime=100_000, audit_cap=500),
     "f60c590f10cd61708bca8283c7fc6c45a468b91bafe3fab44875d3a209f342c6"),
    # p = 2000000011: (p - 1)^2 > 2^53, so products split into 16-bit limbs
    ("gaspr223opt-classical-limbs", lambda: optimal_gasp_r(2, 2, 3),
     dict(mode="classical", seed=7, dims=(4, 6, 6), prime=2_000_000_000),
     "bf39e8511fcdd7815cabcc53980680f15917115c1e596e9e78632e9c6e158350"),
    ("gaspr223opt-quantum-limbs", lambda: optimal_gasp_r(2, 2, 3),
     dict(mode="quantum", seed=7, dims=(4, 6, 6), prime=2_000_000_000),
     "e7f5e2375a985bcb18a99786af0948d2654bdf4913a8561711e41c195992a956"),
    # p = 94906249, the largest prime with (p - 1)^2 < 2^53: one float64
    # product covered a single inner index, so inner size 3 spanned 3
    # chunks; since reduction moved to floating point it runs on limbs
    ("gasp223-quantum-chunked", lambda: build_gasp_r(2, 2, 3, 2),
     dict(mode="quantum", seed=4, dims=(4, 3, 6), prime=94_906_249),
     "814ff97325838b586fafc47af855bc80abbc4dafd744c95f5094527a426ed2f1"),
    # p = 67108859, the largest prime with (p - 1)^2 + p <= 2^52: one
    # float64 chunk per inner index on the entries themselves
    ("gasp223-quantum-onelimb", lambda: build_gasp_r(2, 2, 3, 2),
     dict(mode="quantum", seed=4, dims=(4, 3, 6), prime=67_108_859),
     "fbef41b37ae124f5ea2d4fbad2db85c9eabf5af909af0ce3c2151e40e289da5e"),
    # p = 2887, the largest prime with (p - 1)^2 + p <= 2^23: the server
    # products, with inner size 1, run in float32
    ("gasp223-quantum-float32", lambda: build_gasp_r(2, 2, 3, 2),
     dict(mode="quantum", seed=4, dims=(4, 1, 6), prime=2887),
     "0742094ebe98e68be7cd2758cc93668c4a0a5991f20031f63b5a98ad28e2f8e5"),
]


@pytest.mark.parametrize("name, build, kwargs, digest", GOLDEN,
                         ids=[case[0] for case in GOLDEN])
def test_transcript_dump_is_byte_identical(name, build, kwargs, digest):
    t = run_protocol(ProtocolConfig(plan=build(), **kwargs))
    assert t.decode_ok and t.audit.ok
    assert hashlib.sha256(transcript_dump(t).encode()).hexdigest() == digest


def test_info_sums_row_major_and_reduced_mod_q():
    plan = build_cat(2, 2, 2, x=3)
    assert plan.modulus_q == 10
    assert (plan.alpha[1], plan.beta[1]) == (9, 3)
    table = outer_sum(plan)
    # (k, l) = (0, 0), (0, 1), (1, 0), (1, 1); the last sum 9 + 3 wraps
    assert table.info == (0, 3, 9, 2)
    assert table.info == tuple(table.table[i][j]
                               for i in plan.info_alpha for j in plan.info_beta)
