"""Outside-in tracing of pdmm for the benchmark's traced run.

``Tracer.install`` wraps every public function of the six library
modules at every ``pdmm`` module that binds it (``protocol`` imports
``outer_sum``, ``longest_run``, ``apply_box`` and others by name, so
patching only the defining module would miss those calls), and every
public ``FieldContext`` method on the class.  A span is one call of a
wrapped name; its self time is its duration minus the time of wrapped
calls made inside it.  ``restore`` puts every original object back.

Nothing in ``src/`` is changed: the wrappers live only in the traced
process and only between ``install`` and ``restore``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import time
from collections import Counter

import numpy as np

MODULES = ("gf", "degree_tables", "feasibility", "grs", "nsumbox", "protocol")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("protocol.privacy_audit.self_ms", "ms", "lower"),
    ("protocol.privacy_audit.subsets", "count", "higher"),
    ("protocol.privacy_audit.subsets_per_s", "1/s", "higher"),
    ("gf.mat_rank.ms", "ms", "lower"),
    ("gf.mat_rank.calls", "count", "lower"),
    ("gf.matmul.ms", "ms", "lower"),
    ("gf.matmul.calls", "count", "lower"),
    ("gf.matmul.macs", "count", "lower"),
    ("gf.matmul.bytes", "B", "lower"),
    ("gf.matmul.gmacs_per_s", "GMAC/s", "higher"),
    ("protocol.server_compute.self_ms", "ms", "lower"),
    ("protocol.encode_shares.self_ms", "ms", "lower"),
    ("protocol.run_protocol.self_ms", "ms", "lower"),
    ("gf.mat_solve.ms", "ms", "lower"),
    ("gf.mat_solve.calls", "count", "lower"),
    ("protocol.decode_classical.self_ms", "ms", "lower"),
    ("protocol.decode_quantum.self_ms", "ms", "lower"),
    ("protocol.quantum_transfer.self_ms", "ms", "lower"),
    ("nsumbox.build_transfer.self_ms", "ms", "lower"),
    ("nsumbox.apply_box.ms", "ms", "lower"),
    ("grs.shifted_dual_multipliers.ms", "ms", "lower"),
    ("grs.shifted_dual_multipliers.calls", "count", "lower"),
    ("protocol.sample_frame.self_ms", "ms", "lower"),
    ("protocol.sample_frame.attempts", "count", "lower"),
    ("protocol.sample_frame.accept_ratio", "ratio", "higher"),
    ("protocol.default_field.ms", "ms", "lower"),
    ("gf.vandermonde.ms", "ms", "lower"),
    ("gf.vandermonde.calls", "count", "lower"),
    ("degree_tables.outer_sum.ms", "ms", "lower"),
    ("degree_tables.outer_sum.calls", "count", "lower"),
    ("degree_tables.check_decodable.ms", "ms", "lower"),
    ("degree_tables.optimal_gasp_r.self_ms", "ms", "lower"),
    ("degree_tables.gasp_server_formula.ms", "ms", "lower"),
    ("feasibility.longest_run.ms", "ms", "lower"),
    ("feasibility.longest_run.calls", "count", "lower"),
    ("feasibility.check_feasible.self_ms", "ms", "lower"),
    ("feasibility.min_feasible_t.self_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# Counts that must repeat exactly for the same op seed.
COUNT_METRICS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "B"))


def _count_matmul(counts, args, result):
    a_shape, b_shape = np.shape(args[1]), np.shape(args[2])
    a_size, b_size = math.prod(a_shape), math.prod(b_shape)
    counts["gf.matmul.macs"] += a_size * math.prod(b_shape[1:])
    out_size = result.size if result is not None else 0
    counts["gf.matmul.bytes"] += 8 * (a_size + b_size + out_size)


def _count_subsets(counts, args, result):
    if result is not None:
        counts["protocol.privacy_audit.subsets"] += result.checked


# Counters kept at a span, run after each call with its positional
# arguments (``self`` first for methods) and result (None if it raised).
_HOOKS = {
    "gf.matmul": _count_matmul,
    "protocol.privacy_audit": _count_subsets,
}


class Tracer:
    """Per-span calls, total and self time, plus the counters above."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[float] = []  # child time of each open span
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        from pdmm.gf import FieldContext

        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}  # id -> (span name, function)
        for short in MODULES:
            mod = importlib.import_module(f"pdmm.{short}")
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (f"{short}.{name}", obj)
        wrappers = {key: self._wrap(span, fn) for key, (span, fn) in originals.items()}
        sites = [mod for name, mod in sorted(sys.modules.items())
                 if name == "pdmm" or name.startswith("pdmm.")]
        for mod in sites:
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[1] is obj:
                    self._patch(mod, name, wrappers[id(obj)])
        for name, obj in list(vars(FieldContext).items()):
            if not name.startswith("_") and inspect.isfunction(obj):
                self._patch(FieldContext, name, self._wrap(f"gf.{name}", obj))

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def restore(self) -> list[tuple[object, str, object]]:
        """Put every original back; returns the (owner, name, original) restored."""
        restored = []
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
            restored.append((owner, name, original))
        return restored

    def _wrap(self, span, fn):
        stats = self.spans.setdefault(span, [0, 0.0, 0.0])
        stack, active, counts = self._stack, self._active, self.counts
        hook = _HOOKS.get(span)
        clock = time.perf_counter
        counts_attempts = span == "gf.vandermonde"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_attempts and active["protocol.sample_frame"]:
                counts["protocol.sample_frame.attempts"] += 1
            active[span] += 1
            stack.append(0.0)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                child = stack.pop()
                active[span] -= 1
                if stack:
                    stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if hook is not None:
                    hook(counts, args, result)

        return traced

    # -- per-op records ----------------------------------------------------

    def take(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since the last take; resets."""
        def span(name, field):
            return self.spans.get(name, (0, 0.0, 0.0))[field]

        out = {}
        for name, _, _ in PER_LAYER:
            base, _, kind = name.rpartition(".")
            if kind == "ms":
                out[name] = span(base, 1) * 1e3
            elif kind == "self_ms":
                out[name] = span(base, 2) * 1e3
            elif kind == "calls":
                out[name] = span(base, 0)
            elif name in COUNT_METRICS:
                out[name] = self.counts[name]
        audit_s = span("protocol.privacy_audit", 1)
        matmul_s = span("gf.matmul", 1)
        attempts = out["protocol.sample_frame.attempts"]
        out["protocol.privacy_audit.subsets_per_s"] = (
            out["protocol.privacy_audit.subsets"] / audit_s if audit_s else 0.0)
        out["gf.matmul.gmacs_per_s"] = (
            out["gf.matmul.macs"] / matmul_s / 1e9 if matmul_s else 0.0)
        out["protocol.sample_frame.accept_ratio"] = (
            span("protocol.sample_frame", 0) / attempts if attempts else 0.0)
        for stats in self.spans.values():
            stats[:] = [0, 0.0, 0.0]
        self.counts.clear()
        return out


def summarize(records: list[dict[str, float]], count_ops: int) -> dict[str, float]:
    """Per-op medians; counts come from the first ``count_ops`` records only,
    so that two traced runs with the same seed report identical counts."""
    out = {}
    for name, _, _ in PER_LAYER:
        if name == "trace.overhead_frac":
            continue
        rows = records[:count_ops] if name in COUNT_METRICS else records
        out[name] = statistics.median(r[name] for r in rows)
    return out
