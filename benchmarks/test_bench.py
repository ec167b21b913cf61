"""Self-tests of the benchmark, at reduced sizes:

    python -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", run.NAMES)
def test_small_workload_passes_and_corruption_is_caught(name):
    workload = workloads.make(name, small=True)
    assert hostspeed.HostSpeed(workload.speed).sample() > 0
    result = workload.op(7)
    assert workload.check(result) is None
    assert workload.check(workload.corrupt(result, 7)) is not None


def test_corrupted_ops_count_as_failed():
    inner = workloads.make("wide_modulus", small=True)

    class Corrupting:
        def op(self, seed):
            return inner.corrupt(inner.op(seed), seed)

        check = staticmethod(inner.check)

    tally = run.Tally(Corrupting(), hostspeed.HostSpeed(inner.speed))
    ops = run.timed_phase(tally, run.op_seeds(1), 0.0)
    assert tally.attempted == len(ops) == run.MIN_OPS
    assert tally.failed == tally.attempted
    assert not any(op.ok for op in ops)


def test_exact_product_matches_python_integers():
    rng = np.random.default_rng(0)
    for p in (11, 65537, 2_000_000_011, 2**31 - 1):
        a = rng.integers(0, p, size=(5, 300), dtype=np.int64)
        b = rng.integers(0, p, size=(300, 4), dtype=np.int64)
        want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T]
                for row in a]
        assert workloads.exact_matmul_mod(a, b, p).tolist() == want


def test_exact_product_rejects_unreduced_operands():
    with pytest.raises(ValueError):
        workloads.exact_matmul_mod(np.array([[11]]), np.array([[1]]), 11)


def test_tracer_wraps_import_sites_and_restores_originals():
    from pdmm import feasibility, protocol
    from pdmm.gf import FieldContext

    def bound():
        return (protocol.longest_run, feasibility.longest_run, protocol.run_protocol,
                FieldContext.matmul)

    before = bound()
    t = tracer.Tracer()
    t.install()
    try:
        assert all(now is not was for now, was in zip(bound(), before))
        workloads.make("audit_bound", small=True).op(3)
        record = t.take()
    finally:
        restored = t.restore()
    assert restored
    assert all(getattr(owner, name) is original for owner, name, original in restored)
    assert all(now is was for now, was in zip(bound(), before))
    # run_protocol reaches longest_run only through protocol's own binding
    assert record["feasibility.longest_run.calls"] > 0
    assert record["protocol.sample_frame.attempts"] == 1


@pytest.mark.parametrize("name", run.NAMES)
def test_traced_counts_repeat_for_the_same_seed(name):
    workload = workloads.make(name, small=True)
    t = tracer.Tracer()
    t.install()
    try:
        first, second = [(workload.op(11), t.take())[1] for _ in range(2)]
    finally:
        t.restore()
    assert {n: first[n] for n in tracer.COUNT_METRICS} == \
        {n: second[n] for n in tracer.COUNT_METRICS}
    assert any(first[n] for n in tracer.COUNT_METRICS)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", tracer.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == list(table)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_reports_every_metric(trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "wide_modulus",
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    lines = out.stdout.strip().splitlines()
    env = json.loads(lines[-2])["env"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + env["ops"]["untraced"] + env["ops"]["traced"] \
        + env["ops"]["replayed"]
    table = tracer.PER_LAYER if trace else run.END_TO_END
    assert {name: unit for name, unit, _ in table} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
