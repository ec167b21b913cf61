"""Golden transcripts: the dump of a fixed-seed run must not change.

The digests below were recorded before the degree-table facts were
consolidated into ``outer_sum``, and those over the two large primes
before ``FieldContext.matmul`` moved to float64 products; a refactor of
the plan, feasibility, protocol or field layers must leave every byte of
these dumps as it was.
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
    ("lp443-quantum", lambda: build_low_privacy(4, 4, 3),
     dict(mode="quantum", seed=3, audit_cap=500),
     "4219c3d5645d4ef8db331f4873b8602066707d351419f1301df05869692c23be"),
    # p = 2000000011: (p - 1)^2 > 2^53, so products split into 16-bit limbs
    ("gaspr223opt-classical-limbs", lambda: optimal_gasp_r(2, 2, 3),
     dict(mode="classical", seed=7, dims=(4, 6, 6), prime=2_000_000_000),
     "bf39e8511fcdd7815cabcc53980680f15917115c1e596e9e78632e9c6e158350"),
    ("gaspr223opt-quantum-limbs", lambda: optimal_gasp_r(2, 2, 3),
     dict(mode="quantum", seed=7, dims=(4, 6, 6), prime=2_000_000_000),
     "e7f5e2375a985bcb18a99786af0948d2654bdf4913a8561711e41c195992a956"),
    # p = 94906249, the largest prime with (p - 1)^2 < 2^53: one float64
    # product covers a single inner index, so inner size 3 spans 3 chunks
    ("gasp223-quantum-chunked", lambda: build_gasp_r(2, 2, 3, 2),
     dict(mode="quantum", seed=4, dims=(4, 3, 6), prime=94_906_249),
     "814ff97325838b586fafc47af855bc80abbc4dafd744c95f5094527a426ed2f1"),
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
    assert table.info_sums == frozenset(table.info)
    assert table.info == tuple(table.table[i][j]
                               for i in plan.info_alpha for j in plan.info_beta)
