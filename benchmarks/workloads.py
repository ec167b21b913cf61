"""The benchmark's four workloads and the independent checks of their outputs.

Building a workload (``make``) is the set-up the benchmark times: it
builds the plan and the template config.  ``speed`` names the host-speed
kernel (see hostspeed.py) of the kind of work that dominates the op.
``op(seed)`` is one timed operation, ``check(result)`` returns ``None`` or the reason the result
is wrong, and ``corrupt(result, seed)`` returns a copy with one value
changed, which ``check`` must reject (the negative control).

The product check does not use ``pdmm.gf``: it recomputes ``A B mod p``
from the transcript's inputs with float64 GEMMs on 16-bit limbs, which
are exact for p < 2^31 and inner sizes below 2^21.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from pathlib import Path

import numpy as np

from pdmm import degree_tables, feasibility, protocol

REFERENCE_ROWS = Path(__file__).with_name("design_sweep_rows.json")

_LIMB = 16
_MAX_INNER = 1 << (53 - 2 * _LIMB)


def exact_matmul_mod(a, b, p: int) -> np.ndarray:
    """Exact ``a @ b mod p`` for entries in [0, p), p < 2^31.

    Each operand splits into a low and a high 16-bit limb.  A limb
    product is below 2^32, so a dot product over fewer than 2^21 terms
    stays below 2^53 and every float64 GEMM is exact whatever order the
    BLAS sums in.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if not 2 < p < 2**31:
        raise ValueError(f"modulus {p} outside (2, 2^31)")
    if a.shape[-1] != b.shape[0] or a.shape[-1] >= _MAX_INNER:
        raise ValueError(f"unsupported shapes {a.shape} x {b.shape}")
    for x in (a, b):
        if x.size and (x.min() < 0 or x.max() >= p):
            raise ValueError("operand entries must lie in [0, p)")
    mask = (1 << _LIMB) - 1
    a_lo, a_hi = (a & mask).astype(np.float64), (a >> _LIMB).astype(np.float64)
    b_lo, b_hi = (b & mask).astype(np.float64), (b >> _LIMB).astype(np.float64)

    def limb_product(x, y):
        return (x @ y).astype(np.int64) % p

    high = limb_product(a_hi, b_hi)
    mid = (limb_product(a_hi, b_lo) + limb_product(a_lo, b_hi)) % p
    low = limb_product(a_lo, b_lo)
    return (high * ((1 << 2 * _LIMB) % p) % p
            + mid * ((1 << _LIMB) % p) % p + low) % p


class ProtocolWorkload:
    """One op is one ``run_protocol`` call with a fresh seed on a fixed plan."""

    def __init__(self, plan, mode: str, speed: str, dims=None, prime=None):
        self.config = protocol.ProtocolConfig(plan=plan, dims=dims, mode=mode, prime=prime)
        self.speed = speed

    def op(self, seed: int):
        return protocol.run_protocol(dataclasses.replace(self.config, seed=seed))

    def check(self, tr) -> str | None:
        if not tr.decode_ok:
            return "transcript reports decode_ok False"
        if not tr.audit.ok:
            return f"privacy audit failed on {tr.audit.failures}"
        subsets = math.comb(len(tr.points), self.config.plan.T)
        if not tr.audit.exhaustive or tr.audit.checked != subsets:
            return (f"audit checked {tr.audit.checked} subsets "
                    f"(exhaustive={tr.audit.exhaustive}), expected all {subsets}")
        instances = 2 if self.config.mode == "quantum" else 1
        if len(tr.decoded) != instances or len(tr.a_inputs) != instances:
            return f"expected {instances} decoded instances, got {len(tr.decoded)}"
        for m, (dec, a, b) in enumerate(zip(tr.decoded, tr.a_inputs, tr.b_inputs), 1):
            want = exact_matmul_mod(a, b, tr.modulus)
            if dec.shape != want.shape or not np.array_equal(dec, want):
                return f"decoded product {m} differs from the exact A B mod {tr.modulus}"
        return None

    def corrupt(self, tr, seed: int):
        rng = random.Random(seed)
        bad = tr.decoded[0].copy()
        i, j = rng.randrange(bad.shape[0]), rng.randrange(bad.shape[1])
        bad[i, j] = (bad[i, j] + 1) % tr.modulus
        return dataclasses.replace(tr, decoded=(bad,) + tr.decoded[1:])


class SweepWorkload:
    """One op is ``feasibility_rows`` over every (K, L) in 2..k_max, in seeded order.

    The rows must equal the reference rows recorded next to this file.
    """

    speed = "python"

    def __init__(self, k_max: int):
        ks = range(2, k_max + 1)
        self.grid = [(K, L) for K in ks for L in ks]
        reference = {(r["K"], r["L"]): r for r in json.loads(REFERENCE_ROWS.read_text())}
        self.expected = {kl: reference[kl] for kl in self.grid if kl[1] <= kl[0]}

    def op(self, seed: int) -> list[dict]:
        order = list(self.grid)
        random.Random(seed).shuffle(order)
        rows = []
        for K, L in order:
            rows.extend(feasibility.feasibility_rows([K], [L]))
        return rows

    def check(self, rows) -> str | None:
        got = {(r["K"], r["L"]): r for r in rows}
        if len(got) != len(rows) or got.keys() != self.expected.keys():
            return f"rows cover {sorted(got)}, expected {sorted(self.expected)}"
        for kl, row in got.items():
            if row != self.expected[kl]:
                return f"row {kl} is {row}, reference {self.expected[kl]}"
        return None

    def corrupt(self, rows, seed: int) -> list[dict]:
        rows = [dict(r) for r in rows]
        row = rows[random.Random(seed).randrange(len(rows))]
        row["T_min_bruteforce"] = (row["T_min_bruteforce"] or 0) + 1
        return rows


def make(name: str, small: bool = False):
    """Build a workload; ``small`` shrinks it for the self-tests."""
    if name == "audit_bound":
        K, T = (3, 2) if small else (5, 3)
        return ProtocolWorkload(degree_tables.build_qf_klt(K, T), "quantum",
                                "elimination")
    if name == "bulk_product":
        dims = (8, 16, 8) if small else (256, 1024, 256)
        return ProtocolWorkload(degree_tables.build_cat(2, 2, 2), "quantum", "product",
                                dims=dims)
    if name == "wide_modulus":
        dims = (4, 16, 4) if small else (128, 512, 128)
        return ProtocolWorkload(degree_tables.optimal_gasp_r(2, 2, 3), "classical",
                                "product", dims=dims, prime=2_000_000_000)
    if name == "design_sweep":
        return SweepWorkload(5 if small else 12)
    raise ValueError(f"unknown workload {name!r}")
