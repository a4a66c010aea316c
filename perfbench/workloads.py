"""The two workloads: inputs made from a seed, one operation each, and the
checks on every output.

Each workload is one caller in one process, in a closed loop: the next
operation starts when the previous one returns.  The only parallelism is the
library's own fork fan-out inside ``oracle``, run with ``jobs=JOBS``.  Every
input is made before timing starts; the library receives only those inputs.
A run goes through a seed's inputs in order, over again, so every run of a
seed does the same work in the same order, however far it gets.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from profilerank import channel, codes, core, encoder, feasibility, oracle, synthesis
from profilerank.channel import AdditiveNoise, DropNoise, TieFailure
from profilerank.core import Params, ProfileVector, RankPermutation
from reference import Clock

JOBS = 2
OUT = Path(__file__).resolve().parent.parent / ".perfbench_out"  # reports, traces
BASE = Params(3, 2)
# The SHA-256 trailer Repository.save writes for the repository built from the
# 30240 realizable (3,2) orders.
REPO_SHA256 = "ab436259092f2d125f7237a37d9f71e05b5c393e8d7b0bd6e1a91adfaa52f789"

# decide: 23 of every 25 orders (92%) come from the 3-50 ms LP classes and 2
# (8%) from (6,3), whose 216-word LPs take 0.06-0.3 s, so p50_ms falls on the
# former and p95_ms on the latter.  (4,4) and (3,5) LPs take 0.25-1.9 s: a run
# fits only about 40 of them, too few for a p95_ms that repeats from seed to
# seed.  (5,4) and larger are left out too: one (5,4) decision takes 8-12 s.
DECIDE_BLOCK = ((4, 3),) * 8 + ((3, 4),) * 8 + ((5, 3),) * 7 + ((6, 3),) * 2
DECIDE_PASS_BLOCKS = 30  # 750 decisions, 60 at (6,3): a pass takes 12-17 s on 2 vCPUs

# codec: 7% witness-scale (5,2) messages (about 84k symbols) put p95_ms on
# Eulerian synthesis; small (3,2)/(4,2) witnesses and encoder-only messages,
# whose witnesses are too long to build, put p50_ms on the encoders.
CODEC_BLOCK = (
    ((5, 2),) * 7 + ((3, 2),) * 5 + ((4, 2),) * 5 + ((3, 3),) * 17 + ((4, 3),) * 17
    + ((3, 4),) * 17 + ((5, 3),) * 16 + ((4, 4),) * 16
)
CODEC_PASS_BLOCKS = 20  # 2000 messages: a pass takes 10-17 s on 2 vCPUs
DROP_RATE = 0.01

GOLDEN = (math.sqrt(5) - 1) / 2


def class_name(params: Params) -> str:
    return f"q{params.q}l{params.ell}"


class Library:
    """The library entry points the workloads call.

    With a tracer every entry point records a span under its module name;
    without one they are the library functions themselves.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        wrap = tracer.wrap if tracer else (lambda name, fn: fn)
        self.enumerate_feasible = wrap("oracle.enumerate_feasible", oracle.enumerate_feasible)
        self.build_repository = wrap("oracle.build_repository", oracle.build_repository)
        self.encode_b = wrap("encoder.encode_b", encoder.encode_b)
        self.decode_b = wrap("encoder.decode_b", encoder.decode_b)
        self.rank_of = wrap("core.rank_of", core.rank_of)
        self.profile_of = wrap("core.profile_of", core.profile_of)
        self.check = wrap("feasibility.check", feasibility.FeasibleVector.check)
        self.decide = feasibility.decide
        self.matching_precheck = wrap(
            "feasibility.matching_precheck", feasibility.matching_precheck
        )
        # decide without its pre-check (the LP and the vector check), one span
        # name per size class.
        self.lp = {
            c: wrap(f"feasibility.lp.{class_name(Params(*c))}", feasibility.decide)
            for c in set(DECIDE_BLOCK)
        }
        self.eulerian_string = wrap("synthesis.eulerian_string", synthesis.eulerian_string)
        self.perturb = wrap("channel.perturb", channel.perturb)
        self.perturb_additive = wrap("channel.perturb.additive", channel.perturb)
        self.rank_decode = wrap("channel.rank_decode", channel.rank_decode)
        self.kendall_tau = wrap("codes.kendall_tau", codes.kendall_tau)


@dataclass
class Run:
    """What one workload run measured and checked."""

    latencies: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)  # perf_counter at each start
    clock: Clock = field(default_factory=Clock)
    pass_size: int = 0  # items in one pass over the inputs
    classes: list[str] = field(default_factory=list)
    failed: int = 0
    counts: Counter = field(default_factory=Counter)  # per-layer counters
    details: dict = field(default_factory=dict)


def build_repo(lib: Library):
    """The encoders' repository, as decide and codec set it up; returns it
    with the seconds build_repository took."""
    census = lib.enumerate_feasible(BASE, jobs=JOBS)
    start = perf_counter()
    repo = lib.build_repository(census, jobs=JOBS)
    return repo, perf_counter() - start


def repository_failures(repo) -> int:
    """1 if the set-up built another repository than the known one, else 0:
    the SHA-256 trailer Repository.save writes must be REPO_SHA256."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "repository.txt"
    repo.save(path)
    digest = path.read_text().splitlines()[-1].removeprefix("sha256=")
    if digest == REPO_SHA256:
        return 0
    print(f"repository sha256 {digest}, expected {REPO_SHA256}", file=sys.stderr)
    return 1


def state_digest(state) -> str:
    """Digest of a workload's set-up; equal set-ups have equal digests."""
    return hashlib.sha256(repr(state).encode()).hexdigest()


def weyl(rng: random.Random):
    """Evenly spread points in [0, 1) from a random start: every prefix of
    the stream covers the interval about uniformly."""
    x = rng.random()
    while True:
        yield x
        x = (x + GOLDEN) % 1.0


def shuffled_blocks(block, blocks: int, rng: random.Random):
    for _ in range(blocks):
        order = list(block)
        rng.shuffle(order)
        yield from order


def closed_loop(op, items, seconds: float, run: Run, check, params_of, block: int) -> None:
    """Run ``op`` on the items, in order and over again, until ``seconds``
    have passed and every item has had its turn.

    The run stops at a multiple of ``block`` items, so every size class
    keeps its share of the operations.  Only the operation is timed; the
    reference clock samples the machine between operations.  ``check`` sees
    the operation's index, its item and its result and returns whether the
    output is correct; an exception counts as a failed operation.
    ``params_of`` gives an item's size class.
    """
    run.pass_size = len(items)
    run.clock.burst(10)
    deadline = perf_counter() + seconds
    i = 0
    while i < len(items) or i % block or perf_counter() < deadline:
        item = items[i % len(items)]
        run.classes.append(class_name(params_of(item)))
        start = perf_counter()
        try:
            result = op(i, item)
        except Exception as exc:  # counted as a failed operation, loop goes on
            result = exc
        latency = perf_counter() - start
        run.starts.append(start)
        run.latencies.append(latency)
        try:
            ok = not isinstance(result, Exception) and check(i, item, result)
        except Exception as exc:
            ok, result = False, exc
        if not ok:
            run.failed += 1
            if run.failed <= 3:
                print(f"operation {i} failed: {result!r:.300}", file=sys.stderr)
                if isinstance(result, Exception):
                    traceback.print_exception(result)
        run.clock.after(latency)
        i += 1
    run.clock.burst(10)


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------

def realizes(entries, perm: RankPermutation) -> bool:
    """Independent check of a feasible verdict: entries positive, strictly
    increasing along the order, and in-flow equal to out-flow at every
    node of the overlap graph."""
    q, ell = perm.params.q, perm.params.ell
    if len(entries) != q**ell:
        return False
    ranked = [entries[i] for i in perm.order]
    if ranked[0] <= 0 or any(a >= b for a, b in zip(ranked, ranked[1:])):
        return False
    nodes = q ** (ell - 1)
    for u in range(nodes):
        inflow = sum(entries[s * nodes + u] for s in range(q))
        outflow = sum(entries[u * q + s] for s in range(q))
        if inflow != outflow:
            return False
    return True


def decide_setup(lib: Library, seed: int):
    """Encoder outputs at the decide classes, each with k random adjacent
    swaps, k uniform in [0, q^ell]."""
    repo, build_s = build_repo(lib)
    rng = random.Random(seed)
    spread = {c: weyl(rng) for c in sorted(set(DECIDE_BLOCK))}
    items = []
    for q, ell in shuffled_blocks(DECIDE_BLOCK, DECIDE_PASS_BLOCKS, rng):
        params = Params(q, ell)
        vec = lib.encode_b(encoder.random_info_b(q, ell, rng), repo)
        start = lib.rank_of(vec.entries, params).order
        order = list(start)
        for _ in range(int(next(spread[(q, ell)]) * (params.word_count + 1))):
            j = rng.randrange(len(order) - 1)
            order[j], order[j + 1] = order[j + 1], order[j]
        items.append((RankPermutation(params, tuple(order)), tuple(order) == start))
    return (repo, items), build_s


def run_decide(lib: Library, state, seconds: float, traced: bool) -> Run:
    repo, items = state
    run = Run(failed=repository_failures(repo),
              details={"unswapped": sum(unswapped for _, unswapped in items)})
    paths: list[str] = []  # verdict path of every decision: F, P or L
    first: dict[int, str] = {}  # verdict path of each item in its first pass

    def op(i, item):
        perm = item[0]
        if not traced:
            return lib.decide(perm)
        # The same work decide does inside, split so the pre-check and the
        # LP get spans of their own.
        witness = lib.matching_precheck(perm)
        if witness is not None:
            return feasibility.Verdict(False, witness=witness.describe())
        return lib.lp[(perm.params.q, perm.params.ell)](perm, use_precheck=False)

    def check(i, item, verdict):
        perm, unswapped = item
        if verdict.feasible:
            path, ok = "F", realizes(verdict.vector.entries, perm)
        elif feasibility.matching_precheck(perm) is not None:
            path, ok = "P", not unswapped  # an encoder output is always realizable
            run.counts["feasibility.matching_precheck.hits"] += 1
        else:
            path, ok = "L", not unswapped
            run.counts["feasibility.lp.infeasible"] += 1
        paths.append(path)
        # The decider is exact: every later pass repeats the first, verdict by verdict.
        repeated = first.setdefault(i % len(items), path) == path
        return ok and repeated

    if traced:
        op = lib.tracer.operation("bench.decide", op)
    closed_loop(op, items, seconds, run, check, lambda item: item[0].params,
                len(DECIDE_BLOCK))
    verdicts = "".join(first[j] for j in sorted(first))
    run.details.update(
        verdict_digest=hashlib.sha256(verdicts.encode()).hexdigest()[:16],
        verdict_counts=dict(sorted(Counter(verdicts).items())),
        run_counts=dict(sorted(Counter(paths).items())),
    )
    return run


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------

def codec_setup(lib: Library, seed: int):
    repo, build_s = build_repo(lib)
    rng = random.Random(seed)
    items = [
        (encoder.random_info_b(q, ell, rng), Params(q, ell), rng.getrandbits(64),
         rng.getrandbits(64))
        for q, ell in shuffled_blocks(CODEC_BLOCK, CODEC_PASS_BLOCKS, rng)
    ]
    return (repo, items), build_s


@dataclass
class Message:
    vec: encoder.ScaledVector
    clean: RankPermutation
    witness: bytes | None
    witness_profile: ProfileVector | None
    drop: RankPermutation | TieFailure | None
    drop_tau: int | None
    noisy: RankPermutation | TieFailure
    tau: int | None
    decoded: encoder.InfoVecB


def run_codec(lib: Library, state, seconds: float, traced: bool) -> Run:
    repo, items = state
    run = Run(failed=repository_failures(repo))
    counts = run.counts

    def op(i, item):
        info, params, drop_seed, noise_seed = item
        vec = lib.encode_b(info, repo)
        lib.check(vec.to_feasible())
        clean = lib.rank_of(vec.entries, params)
        witness = witness_profile = drop = drop_tau = None
        if params.ell == 2:
            witness = lib.eulerian_string(ProfileVector(params, vec.entries))
            witness_profile = lib.profile_of(witness, params)
            drop = lib.rank_decode(
                lib.perturb(witness_profile, DropNoise(DROP_RATE), drop_seed)
            )
            if not isinstance(drop, TieFailure):
                drop_tau = lib.kendall_tau(clean.order, drop.order)
        # Noise below half the smallest gap can never swap two counts.
        ranked = sorted(vec.entries)
        gap = min(b - a for a, b in zip(ranked, ranked[1:]))
        noisy = lib.rank_decode(
            lib.perturb_additive(
                ProfileVector(params, vec.entries), AdditiveNoise((gap - 1) // 2), noise_seed
            )
        )
        tau = None if isinstance(noisy, TieFailure) else lib.kendall_tau(clean.order, noisy.order)
        decoded = lib.decode_b(vec, repo)
        return Message(vec, clean, witness, witness_profile, drop, drop_tau, noisy, tau, decoded)

    def check(i, item, msg):
        info = item[0]
        counts["encoder.max_entry_bits"] = max(
            counts["encoder.max_entry_bits"], max(msg.vec.entries).bit_length()
        )
        ok = msg.noisy == msg.clean and msg.tau == 0 and msg.decoded == info
        if msg.witness is not None:
            ok = ok and msg.witness_profile.counts == msg.vec.entries
            counts["synthesis.eulerian_string.symbols"] += len(msg.witness)
            counts["core.profile_of.symbols"] += len(msg.witness)
            counts["channel.perturb.reads"] += len(msg.witness)
            if isinstance(msg.drop, TieFailure):
                counts["channel.ties"] += 1
            elif msg.drop_tau == 0:
                counts["channel.readout_ok"] += 1
            else:
                counts["channel.rank_errors"] += 1
        return ok

    if traced:
        op = lib.tracer.operation("bench.codec", op)
    closed_loop(op, items, seconds, run, check, lambda item: item[1], len(CODEC_BLOCK))
    return run


WORKLOADS = {
    "decide": (decide_setup, run_decide),
    "codec": (codec_setup, run_codec),
}
