"""The benchmark harness against the library it drives.

``perfbench/workloads.py`` calls the library's public API and checks every
output; these tests run its two workloads on a few seeded items, so a change
that breaks the harness fails here rather than in a benchmark run.
"""

import importlib
import random
from pathlib import Path

import pytest

from profilerank.core import Params, RankPermutation, rank_of
from profilerank.encoder import encode_b, random_info_b

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module("workloads")
    monkeypatch.setattr(module, "OUT", tmp_path)
    return module


def test_decide_workload_checks_every_verdict(workloads, repo):
    rng = random.Random(7)
    items = []
    for q, ell in [(4, 3), (3, 4)] * 3:
        params = Params(q, ell)
        start = rank_of(encode_b(random_info_b(q, ell, rng), repo).entries, params).order
        order = list(start)
        for _ in range(rng.randint(0, params.word_count)):
            j = rng.randrange(len(order) - 1)
            order[j], order[j + 1] = order[j + 1], order[j]
        items.append((RankPermutation(params, tuple(order)), tuple(order) == start))
    run = workloads.run_decide(workloads.Library(), (repo, items), 0, False)
    assert run.failed == 0
    assert len(run.latencies) == len(workloads.DECIDE_BLOCK)  # one whole block


def test_codec_workload_checks_every_message(workloads, repo):
    rng = random.Random(8)
    items = [
        (random_info_b(q, ell, rng), Params(q, ell), rng.getrandbits(64), rng.getrandbits(64))
        for q, ell in [(3, 2), (4, 2), (3, 3), (4, 3)]
    ]
    run = workloads.run_codec(workloads.Library(), (repo, items), 0, False)
    assert run.failed == 0
    assert len(run.latencies) == len(workloads.CODEC_BLOCK)


def test_setup_builds_the_known_repository(workloads):
    # the harness's own set-up call, with the arguments it passes
    repo, _ = workloads.build_repo(workloads.Library())
    assert workloads.repository_failures(repo) == 0
