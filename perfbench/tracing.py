"""Spans around the benchmark's calls into the library, and the per-layer
metrics derived from them.

Tracing is a separate invocation (``--trace 1``).  Every call the benchmark
makes into a public library function goes through :meth:`Tracer.wrap` and
becomes a span: name, start, end, parent span and operation id.  Spans stay in
memory and are written out once, when the run ends.  A span's self time is
its duration minus the time its child spans cover.  With tracing off the
workloads call the library functions directly, so the untraced run pays
nothing.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# Which end-to-end metric each per-layer metric is expected to move, and on
# which workload.  A later performance change states its prediction against
# these names.  Every per-layer metric in BENCHMARK.json has an entry here.
MOVES = {
    "feasibility.matching_precheck.calls": "ops_per_s on decide",
    "feasibility.matching_precheck.s": "p50_ms on decide",
    "feasibility.matching_precheck.hits": "p50_ms on decide (a hit skips the LP)",
    **{
        f"feasibility.lp.{kind}.{c}": (
            "ops_per_s and p95_ms on decide" if c == "q6l3" else "p50_ms on decide"
        )
        for kind in ("calls", "s")
        for c in ("q4l3", "q3l4", "q5l3", "q6l3")
    },
    "feasibility.lp.infeasible": "ops_per_s on decide",
    "feasibility.check.s": "p50_ms on codec",
    "oracle.enumerate_feasible.s": "setup_s on decide and codec",
    "oracle.build_repository.s": "setup_s on decide and codec",
    "synthesis.eulerian_string.s": "p95_ms, ops_per_s and peak_rss_mb on codec",
    "synthesis.eulerian_string.symbols": "p95_ms on codec",
    "core.profile_of.s": "p95_ms on codec",
    "core.profile_of.symbols": "p95_ms on codec",
    "core.rank_of.s": "p50_ms on codec",
    "encoder.encode_b.calls": "ops_per_s on codec",
    "encoder.encode_b.s": "p50_ms on codec",
    "encoder.decode_b.s": "p50_ms on codec",
    "encoder.max_entry_bits": "p50_ms on codec (bigint width)",
    "channel.perturb.s": "p95_ms on codec (DropNoise readouts)",
    "channel.perturb.reads": "p95_ms on codec",
    "channel.perturb.additive.s": "p50_ms on codec",
    "channel.rank_decode.s": "p50_ms on codec",
    "channel.readout_ok": "none: a statistic of the DropNoise readouts",
    "channel.ties": "none: a statistic of the DropNoise readouts",
    "channel.rank_errors": "none: a statistic of the DropNoise readouts",
    "codes.kendall_tau.calls": "ops_per_s on codec",
    "codes.kendall_tau.s": "p50_ms on codec",
}


class Tracer:
    """In-memory span recorder.

    ``spans`` holds ``(name, start, end, parent, op)`` tuples, where
    ``parent`` is the index of the enclosing span or -1.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.op: str | int = "setup"
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)

        return traced

    def operation(self, name: str, fn):
        """Wrap one workload operation: a root span with its own op id."""
        span = self.wrap(name, fn)

        def traced(op_id, *args):
            self.op = op_id
            try:
                return span(op_id, *args)
            finally:
                self.op = "setup"

        return traced

    def self_times(self) -> dict[str, list]:
        """``{name: [calls, total self seconds]}`` over every span."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name][0] += 1
            out[name][1] += end - start - child
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                },
                fh,
            )


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``<layer>.calls`` is a call count and ``<layer>.s`` the mean self time of
    one call.  ``extra`` holds the counters and ratios the workload recorded.
    """
    out: dict[str, float] = {}
    for name, (calls, seconds) in tracer.self_times().items():
        if name.startswith("feasibility.lp."):
            layer, cls = name.rsplit(".", 1)
            out[f"{layer}.calls.{cls}"] = calls
            out[f"{layer}.s.{cls}"] = seconds / calls
        else:
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = seconds / calls
    out.update(extra)
    return out
