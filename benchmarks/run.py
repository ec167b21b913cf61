#!/usr/bin/env python3
"""Benchmark of pdmm: one workload per process, one op at a time.

    python3 benchmarks/run.py --workload audit_bound --seed 1 --seconds 20 --trace 0

Load is a closed loop with one caller: the next op starts when the
previous one has returned and been checked.  Each op takes a fresh seed
from a stream fixed by ``--seed``.  Every op is checked outside the
timed region (see workloads.py), and a corrupted copy of the first op's
output must be rejected by the same check.

Times are reported at reference host speed: each op is bracketed by a
host-speed kernel and its wall time is scaled by the kernel's reference
over measured time (see hostspeed.py); raw wall medians go to the
environment line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half
the time untraced and half traced (see tracer.py), then reports the
per-layer metrics as per-op medians.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it stamps the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"

NAMES = ("audit_bound", "bulk_product", "wide_modulus", "design_sweep")

# (name, unit, better) of every end-to-end metric, in report order.
END_TO_END = (
    ("op_p50_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("ok_frac", "fraction", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

SETUP_SAMPLES = 11
# Fewest ops in a timed phase; per-layer counts are medians over the
# first MIN_OPS traced ops, so they do not depend on how fast ops ran.
MIN_OPS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
LIMITS = ("shared host, other load not controlled, so times are scaled to reference "
          "host speed by a fixed kernel run around each op; no page-cache dropping and "
          "no CPU pinning; the only tuning is the BLAS/OpenMP thread cap of this process")


class Op(NamedTuple):
    seed: int
    wall: float  # seconds
    scale: float  # host-speed factor measured around the op
    ok: bool
    record: dict | None  # per-layer metrics when traced

    @property
    def seconds(self) -> float:
        """Op time at reference host speed."""
        return self.wall * self.scale


class Tally:
    """Runs and checks ops; every op run counts as attempted."""

    def __init__(self, workload, speed):
        self.workload = workload
        self.speed = speed
        self.attempted = 0
        self.failed = 0

    def run(self, seed: int, tracer=None):
        """One op, timed alone, then checked; returns (Op, result or None)."""
        self.attempted += 1
        before = self.speed.sample()
        start = time.perf_counter()
        try:
            result = self.workload.op(seed)
        except Exception:  # a raising op is a failed op; the run goes on
            result = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        record = tracer.take() if tracer is not None else None
        scale = self.speed.scale([before, self.speed.sample()])
        reason = "op raised" if result is None else self.workload.check(result)
        if reason is not None:
            self.failed += 1
            print(f"op seed {seed} failed: {reason}", file=sys.stderr)
        return Op(seed, elapsed, scale, reason is None, record), result


def op_seeds(seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(63)


def timed_phase(tally: Tally, seeds, seconds: float, tracer=None) -> list[Op]:
    """Ops until ``seconds`` of wall time have passed, and at least MIN_OPS."""
    ops = []
    deadline = time.perf_counter() + seconds
    while len(ops) < MIN_OPS or time.perf_counter() < deadline:
        ops.append(tally.run(next(seeds), tracer)[0])
    return ops


def traced_phase(tally: Tally, seeds, seconds: float, untraced: list[Op]):
    """Per-layer metrics and whether the trace checks held."""
    from tracer import COUNT_METRICS, Tracer, summarize

    tracer = Tracer()
    tracer.install()
    try:
        ops = timed_phase(tally, seeds, seconds, tracer)
        replay, _ = tally.run(ops[0].seed, tracer)
    finally:
        restored = tracer.restore()
    ok = True
    changed = [n for n in COUNT_METRICS if replay.record[n] != ops[0].record[n]]
    if changed:
        ok = False
        print(f"counts differ between two traced runs of seed {ops[0].seed}: {changed}",
              file=sys.stderr)
    if not restored or any(getattr(owner, name) is not original
                           for owner, name, original in restored):
        ok = False
        print("tracer did not restore every wrapped name", file=sys.stderr)
    metrics = summarize([op.record for op in ops], MIN_OPS)
    metrics["trace.overhead_frac"] = (
        statistics.median(op.seconds for op in ops)
        / statistics.median(op.seconds for op in untraced) - 1)
    return metrics, ok, len(ops)


def setup_probe(name: str) -> None:
    """Child process: time importing pdmm and building the workload.

    numpy, a dependency outside pdmm whose import time swings by 2x on a
    shared host, is loaded before the clock starts.  Prints the time and
    the host-speed factor sampled around it.
    """
    sys.path.insert(0, str(SRC))
    from hostspeed import HostSpeed

    speed = HostSpeed("python")  # importing is interpreter work
    before = speed.sample()
    start = time.perf_counter()
    import workloads

    workloads.make(name)
    elapsed = time.perf_counter() - start
    print(elapsed, speed.scale([before, speed.sample(), speed.sample()]))


def measure_setup(name: str) -> tuple[float, float]:
    """Median set-up time over fresh processes: (at reference speed, wall)."""
    scaled, wall = [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, str(Path(__file__)), "--setup-probe", name],
                             capture_output=True, text=True, check=True, timeout=120)
        elapsed, scale = map(float, out.stdout.split()[-2:])
        scaled.append(elapsed * scale)
        wall.append(elapsed)
    return statistics.median(scaled), statistics.median(wall)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "pdmm" / "__init__.py").is_file():
        print(f"no pdmm sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    import numpy
    import workloads
    from hostspeed import HostSpeed
    from tracer import PER_LAYER

    workload = workloads.make(args.workload)
    setup_s, setup_wall_s = (None, None) if args.trace else measure_setup(args.workload)
    seeds = op_seeds(args.seed)
    tally = Tally(workload, HostSpeed(workload.speed))

    _, result = tally.run(next(seeds))
    control_ok = (result is not None
                  and workload.check(workload.corrupt(result, args.seed)) is not None)
    if not control_ok:
        print("negative control: a corrupted output was not rejected", file=sys.stderr)
    del result

    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = timed_phase(tally, seeds, budget)
    trace_ok, traced_ops = True, 0
    if args.trace:
        metrics, trace_ok, traced_ops = traced_phase(tally, seeds, budget, untraced)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        times = [op.seconds for op in untraced]
        metrics = {
            "op_p50_ms": statistics.median(times) * 1e3,
            "ops_per_s": sum(op.ok for op in untraced) / sum(times),
            "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {name: unit for name, unit, _ in END_TO_END}

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "python": platform.python_version(),
        "numpy": numpy.__version__, "blas_thread_cap": nproc,
        "ops": {"warmup": 1, "untraced": len(untraced), "traced": traced_ops,
                "replayed": 1 if args.trace else 0},
        "setup_samples": 0 if args.trace else SETUP_SAMPLES,
        "host_speed_kernel": workload.speed,
        "host_speed_scale_p50": statistics.median(op.scale for op in untraced),
        "raw_op_p50_ms": statistics.median(op.wall for op in untraced) * 1e3,
        "raw_setup_s": setup_wall_s,
        "load": "closed loop, one caller, one op at a time, one process per workload",
        "limits": LIMITS,
    }
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": tally.failed == 0 and control_ok and trace_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
