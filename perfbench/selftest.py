"""Self-test of the benchmark harness at toy size.

    python3 perfbench/selftest.py

Runs every workload briefly, with one-block passes, traced and untraced, and
checks the output schema against BENCHMARK.json and that the traced decide
run repeats the untraced run's verdict digest.  Then it corrupts one output on
purpose (one entry of one encoded vector in codec, one entry of one feasible
vector in decide, one decide verdict that changes between passes, one stored
verdict digest) and checks that the run reports exactly one failed operation.
Last, it checks that the benchmark fails without a result when the library
is missing.  Reports go to ``.perfbench_out/selftest/``.  Exits 0 when every
check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads
from tracing import MOVES

from profilerank.encoder import ScaledVector
from profilerank.feasibility import FeasibleVector, Verdict

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REPORT_KEYS = {"seed", "nproc", "python", "platform", "jobs", "samples", "samples_beyond_p95"}
failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def bench(workload: str, trace: int, library=workloads.Library, seed=3, seconds=0.2):
    """One in-process run; returns (report, result)."""
    saved = workloads.Library
    workloads.Library = library
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)])
    finally:
        workloads.Library = saved
    lines = out.getvalue().strip().splitlines()
    expect(code == 0, f"{workload} trace={trace}: exit code 0")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_schema(workload: str, trace: int, report: dict, result: dict) -> None:
    tag = f"{workload} trace={trace}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{tag}: attempted")
    expect(isinstance(result["failed"], int), f"{tag}: failed is a whole number")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    expect([m["name"] for m in wanted] == list(metrics), f"{tag}: metric names")
    expect(
        all(
            metrics[m["name"]]["unit"] == m["unit"]
            and isinstance(metrics[m["name"]]["value"], (int, float))
            for m in wanted
        ),
        f"{tag}: metric units and numeric values",
    )
    if not trace:
        expect(all(v["value"] > 0 for v in metrics.values()), f"{tag}: end-to-end metrics nonzero")
    expect(REPORT_KEYS <= set(report), f"{tag}: run context recorded")
    expect(result["correct"] and result["failed"] == 0, f"{tag}: outputs correct")


class CorruptCodec(workloads.Library):
    """encode_b returns one vector with one entry changed."""

    def __init__(self, tracer=None):
        super().__init__(tracer)
        encode_b, calls = self.encode_b, []

        def corrupted(info, repo):
            vec = encode_b(info, repo)
            calls.append(info)
            if len(calls) == 2:
                entries = list(vec.entries)
                entries[1] += 1  # word 0..01 joins two different nodes
                vec = ScaledVector(vec.params, tuple(entries))
            return vec

        self.encode_b = corrupted


class CorruptDecide(workloads.Library):
    """decide returns one feasible verdict with one entry changed."""

    def __init__(self, tracer=None):
        super().__init__(tracer)
        decide, done = self.decide, []

        def corrupted(perm, **kwargs):
            verdict = decide(perm, **kwargs)
            if verdict.feasible and not done:
                done.append(perm)
                entries = list(verdict.vector.entries)
                entries[1] += 1
                verdict = Verdict(True, vector=FeasibleVector(perm.params, tuple(entries)))
            return verdict

        self.decide = corrupted


class CorruptRepeat(workloads.Library):
    """decide calls the first order it finds feasible infeasible when it
    sees that order again in the next pass."""

    def __init__(self, tracer=None):
        super().__init__(tracer)
        decide, feasible = self.decide, []

        def corrupted(perm, **kwargs):
            verdict = decide(perm, **kwargs)
            if verdict.feasible and not feasible:
                feasible.append(perm)
            elif feasible == [perm]:
                feasible.append(perm)
                verdict = Verdict(False, witness="changed between passes")
            return verdict

        self.decide = corrupted


def main() -> int:
    run.SETUP_REPEATS = 1
    workloads.DECIDE_PASS_BLOCKS = workloads.CODEC_PASS_BLOCKS = 1
    workloads.OUT = run.ROOT / ".perfbench_out" / "selftest"
    shutil.rmtree(workloads.OUT, ignore_errors=True)
    workloads.OUT.mkdir(parents=True)
    names = [m["name"] for m in SPEC["per_layer"]]
    expect(sorted(names) == sorted(MOVES), "every per-layer metric names what it moves")
    expect([w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the workloads")
    digests = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            report, result = bench(workload, trace)
            check_schema(workload, trace, report, result)
            if workload == "decide":
                digests.append(report["verdict_digest"])
    expect(len(set(digests)) == 1, "decide: traced run repeats the verdict digest")

    for workload, library in (("codec", CorruptCodec), ("decide", CorruptDecide)):
        _, result = bench(workload, 0, library)
        expect(
            not result["correct"] and result["failed"] == 1,
            f"{workload}: one corrupted output counts as one failed operation",
        )
    report, result = bench("decide", 0, CorruptRepeat, seed=4, seconds=3)
    expect(
        report["passes"] >= 2 and not result["correct"] and result["failed"] == 1,
        "decide: a verdict that changes between passes counts as one failed operation",
    )
    stale = workloads.OUT / "decide-seed5-trace1.json"
    stale.write_text(json.dumps({"report": {"verdict_digest": "0" * 16}}))
    _, result = bench("decide", 0, seed=5)
    expect(
        not result["correct"] and result["failed"] == 1,
        "decide: a digest unlike an earlier run's of the seed counts as one failed operation",
    )

    bare = workloads.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(Path(__file__).parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "codec", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without the library the benchmark fails and prints no result")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
