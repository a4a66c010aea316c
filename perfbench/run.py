"""profilerank benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {decide,codec} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The line before it is a JSON report with the run's context, sample counts and
checks.  Reports and traces are also written to ``.perfbench_out/``.

A run goes through the seed's inputs in order, over again, until
``--seconds`` have passed and every input has had its turn (see
``workloads.closed_loop``).  Every timing is scaled to the reference machine
speed that ``reference.Clock`` samples around it; the report holds the raw
figures too.  End-to-end metrics: ``setup_s`` is the median over
SETUP_REPEATS repeats of the library import time (the median of
IMPORT_PROBES fresh interpreters) plus one in-process set-up (repository build and input generation), each made
after the previous one is released.  ``p50_ms`` and ``p95_ms`` are over
per-operation latencies: a decision or a message round trip.  ``ops_per_s``
is the operations completed per second of operation time.  The output checks
are never timed.  A traced run (``--trace 1``)
reports per-layer metrics instead and, when an untraced report for the same
workload and seed exists, its overhead.  A decide run whose verdict digest
differs from that of an earlier run of the same seed in ``.perfbench_out/``
counts one more failed operation.
"""

from time import perf_counter

T0 = perf_counter()  # before any import the benchmark pays for

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports the library)
from reference import Clock  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

IMPORT_S = perf_counter() - T0
SETUP_REPEATS = 3
IMPORT_PROBES = 3
# The library imports workloads.py makes, timed in a fresh interpreter.
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, 'src'); "
    "from profilerank import channel, codes, core, encoder, feasibility, oracle, synthesis; "
    "print(time.perf_counter() - t)"
)


def quantile(values, p):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(p * 100) - 1]


def import_seconds() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout)


def setup(name: str, lib, seed: int):
    """Time the library import and the workload's set-up SETUP_REPEATS times.
    A set-up starts after the previous one is released, so peak RSS counts
    one, and every set-up must make the same inputs.  Returns the inputs, the
    raw import and set-up seconds of each repeat, the scale from raw to
    reference seconds of each repeat, and the repository build seconds."""
    make = workloads.WORKLOADS[name][0]
    clock = Clock()
    imports, times, scales, builds, digests = [], [], [], [], set()
    state = None
    for _ in range(SETUP_REPEATS):
        clock.burst(20)
        start = perf_counter()
        imports.append(statistics.median(import_seconds() for _ in range(IMPORT_PROBES)))
        state = None
        gc.collect()
        made = perf_counter()
        state, build_s = make(lib, seed)
        end = perf_counter()
        clock.burst(20)
        times.append(end - made)
        scales.append(clock.scale(start, end))
        if build_s is not None:
            builds.append(build_s)
        digests.add(workloads.state_digest(state))
    if len(digests) != 1:
        raise RuntimeError("set-up is not deterministic for this seed")
    return state, imports, times, scales, builds


def earlier_digests(workload: str, seed: int) -> dict[str, str]:
    """Verdict digests of the stored reports of this workload and seed."""
    found = {}
    for path in workloads.OUT.glob(f"{workload}-seed{seed}-trace?.json"):
        digest = json.loads(path.read_text())["report"].get("verdict_digest")
        if digest is not None:
            found[path.name] = digest
    return found


def per_class(classes, latencies) -> dict:
    by_class: dict[str, list[float]] = {}
    for cls, lat in zip(classes, latencies):
        by_class.setdefault(cls, []).append(lat)
    return {
        cls: {"n": len(v), "median_ms": statistics.median(v) * 1e3}
        for cls, v in sorted(by_class.items())
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    tracer = Tracer() if args.trace else None
    lib = workloads.Library(tracer)
    state, imports, setup_times, setup_scales, builds = setup(args.workload, lib, args.seed)
    run = workloads.WORKLOADS[args.workload][1](lib, state, args.seconds, bool(args.trace))

    raw = run.latencies
    lat = [
        x * run.clock.scale(start, start + x) for start, x in zip(run.starts, raw)
    ]
    p95 = quantile(lat, 0.95)
    ops_per_s = len(lat) / sum(lat)
    setup_s = statistics.median(
        (i + s) * k for i, s, k in zip(imports, setup_times, setup_scales)
    )
    mismatched = {
        name: digest
        for name, digest in earlier_digests(args.workload, args.seed).items()
        if digest != run.details.get("verdict_digest", digest)
    }
    if mismatched:
        run.failed += 1
        print(f"verdict digest {run.details['verdict_digest']} differs from the earlier "
              f"runs of this seed: {mismatched}", file=sys.stderr)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "jobs": workloads.JOBS,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "samples": len(lat),
        "samples_beyond_p95": sum(1 for x in lat if x > p95),
        "passes": len(lat) / run.pass_size,
        "reference_samples": len(run.clock.samples),
        "reference_median_s": statistics.median(run.clock.samples),
        "raw": {
            "setup_s": statistics.median(i + s for i, s in zip(imports, setup_times)),
            "ops_per_s": len(raw) / sum(raw),
            "p50_ms": statistics.median(raw) * 1e3,
            "p95_ms": quantile(raw, 0.95) * 1e3,
        },
        "repo_build_s": builds,
        "setup_repeats_s": setup_times,
        "setup_scales": setup_scales,
        "import_repeats_s": imports,
        "import_s": IMPORT_S,  # this process's own imports
        "ops_per_s": ops_per_s,
        "fail_frac": run.failed / len(lat),
        "per_class": per_class(run.classes, lat),
        **run.details,
    }
    if args.trace:
        wanted = spec["per_layer"]
        measured = layer_metrics(tracer, run.counts)
        untraced = workloads.OUT / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.exists():
            base = json.loads(untraced.read_text())["report"]["ops_per_s"]
            report["trace_overhead"] = {
                "untraced_ops_per_s": base,
                "traced_ops_per_s": ops_per_s,
                "slowdown_frac": base / ops_per_s - 1,
            }
        else:
            report["trace_overhead"] = f"unknown: run --trace 0 --seed {args.seed} first"
    else:
        wanted = spec["end_to_end"]
        measured = {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            "p50_ms": statistics.median(lat) * 1e3,
            "p95_ms": p95 * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    # A layer the workload never calls reads 0; every end-to-end metric is measured.
    value = (lambda name: measured.get(name, 0)) if args.trace else measured.__getitem__
    metrics = {m["name"]: {"value": value(m["name"]), "unit": m["unit"]} for m in wanted}
    result = {
        "correct": run.failed == 0,
        "attempted": len(lat),
        "failed": run.failed,
        "metrics": metrics,
    }

    workloads.OUT.mkdir(exist_ok=True)
    stem = workloads.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({"report": report, "result": result}))
    if tracer:
        tracer.write(stem.with_name(stem.name + "-spans.json"))
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
