"""Desk-scale noise on profile vectors and rank-order recovery.

The storage channel returns a possibly perturbed count histogram; rank
readout survives any noise that never lets two counts cross.  The two noise
models here are deliberately simple knobs (uniform additive shifts and
per-read drops), each fully determined by an explicit seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence, Union

from .core import ProfileVector, RankPermutation, TieError, fan_out, rank_of, split_range


@dataclass(frozen=True)
class AdditiveNoise:
    """Each count moves by a uniform integer in [-magnitude, magnitude]."""

    magnitude: int

    def apply(self, counts: Sequence[int], rng: random.Random) -> list[int]:
        m = self.magnitude
        if m < 0:
            raise ValueError("magnitude must be nonnegative")
        return [max(0, c + rng.randint(-m, m)) for c in counts]

    def label(self) -> str:
        return f"additive:{self.magnitude}"


@dataclass(frozen=True)
class DropNoise:
    """Each counted read is independently lost with the given rate."""

    rate: float

    def apply(self, counts: Sequence[int], rng: random.Random) -> list[int]:
        """Kept reads per count, each a Binomial(c, 1 - rate) draw.

        Only the rarer outcome (drop if rate <= 1/2, else keep) is sampled,
        by skipping geometric runs of the other one, so a count costs
        O(c * min(rate, 1 - rate) + 1) draws.  Rates 0 and 1 draw nothing.
        """
        rate = self.rate
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must lie in [0, 1]")
        rare = min(rate, 1.0 - rate)
        if rare == 0.0:
            return [c if rate == 0.0 else 0 for c in counts]
        log_common = math.log1p(-rare)
        out = []
        for c in counts:
            hits, left = 0, c
            while True:
                # reads of the common outcome before the next rare one
                gap = math.log(1.0 - rng.random()) / log_common
                if gap >= left:
                    break
                left -= int(gap) + 1
                hits += 1
            out.append(c - hits if rare == rate else hits)
        return out

    def label(self) -> str:
        return f"drop:{self.rate}"


NoiseModel = Union[AdditiveNoise, DropNoise]


def perturb(p: ProfileVector, model: NoiseModel, seed: int) -> ProfileVector:
    rng = random.Random(seed)
    return ProfileVector(p.params, tuple(model.apply(p.counts, rng)))


@dataclass(frozen=True)
class TieFailure:
    """Rank readout failed: these word groups share a count."""

    groups: tuple[tuple, ...]


def rank_decode(p: ProfileVector) -> RankPermutation | TieFailure:
    """Rank order of the counts, or the collisions preventing one."""
    try:
        return rank_of(p)
    except TieError as err:
        return TieFailure(err.groups)


@dataclass(frozen=True)
class TrialRow:
    noise: str
    trials: int
    successes: int
    ties: int
    rank_errors: int

    def to_text(self) -> str:
        return "\t".join(
            str(v)
            for v in (self.noise, self.trials, self.successes, self.ties, self.rank_errors)
        )


def _trial_block(args) -> tuple[int, int, int]:
    p, model, seed, mi, trials = args
    clean = rank_of(p)
    successes = ties = errors = 0
    for trial in trials:
        noisy = perturb(p, model, seed=(seed * 1_000_003 + mi) * 1_000_003 + trial)
        got = rank_decode(noisy)
        if isinstance(got, TieFailure):
            ties += 1
        elif got == clean:
            successes += 1
        else:
            errors += 1
    return successes, ties, errors


def simulate(
    p: ProfileVector,
    models: Sequence[NoiseModel],
    trials: int,
    seed: int,
    jobs: int | None = None,
) -> list[TrialRow]:
    """Monte-Carlo recovery sweep; ``jobs=None`` uses every core.

    Trial k of model m draws from a generator seeded by (master seed, m, k),
    so results are reproducible and independent of how trials are split
    across workers.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    rank_of(p)  # fail fast on a tied clean profile
    pieces = split_range(trials, jobs)
    tasks = [(p, m, seed, mi, piece) for mi, m in enumerate(models) for piece in pieces]
    parts = fan_out(_trial_block, tasks, jobs)
    rows = []
    for mi, model in enumerate(models):
        mine = parts[mi * len(pieces) : (mi + 1) * len(pieces)]
        # the zero row keeps the sums defined when trials == 0 left no pieces
        successes, ties, errors = (sum(col) for col in zip((0, 0, 0), *mine))
        rows.append(TrialRow(model.label(), trials, successes, ties, errors))
    return rows
