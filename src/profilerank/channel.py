"""Desk-scale noise on profile vectors and rank-order recovery.

The storage channel returns a possibly perturbed count histogram; rank
readout survives any noise that never lets two counts cross.  The two noise
models here are deliberately simple knobs (uniform additive shifts and
per-read drops), each fully determined by an explicit seed.

Drop noise keeps each read of a count independently, so the kept reads of a
count c are one exact binomial draw.  The sampler draws the rarer outcome:
Devroye's geometric method while c*p < 10 (L. Devroye, *Non-Uniform Random
Variate Generation*, 1986, ch. X), Hormann's transformed rejection with
squeeze (BTRS; W. Hormann, "The generation of binomial random variates",
*J. Stat. Comput. Simul.* 46, 1993) above it, the method CPython 3.12+
ships as ``random.binomialvariate``.  Counts above ``BINOMIAL_CHUNK`` reads
are drawn as a sum of draws of at most that many reads, so a count costs
O(1 + c / BINOMIAL_CHUNK) uniform draws at any rate.
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
        """Each count plus ``rng.randint(-m, m)``, clamped at zero.

        The shift is drawn inline the way ``randint`` draws it: k-bit
        samples, k the bit length of the 2m+1 outcomes, until one falls
        below 2m+1.  So the draws, and the generator's state after them,
        are those of ``randint``.
        """
        m = self.magnitude
        if m < 0:
            raise ValueError("magnitude must be nonnegative")
        width = 2 * m + 1
        bits = width.bit_length()
        getrandbits = rng.getrandbits
        out = []
        for c in counts:
            r = getrandbits(bits)
            while r >= width:
                r = getrandbits(bits)
            c += r - m
            out.append(c if c > 0 else 0)
        return out

    def label(self) -> str:
        return f"additive:{self.magnitude}"


# The most reads one binomial draw takes.  The BTRS acceptance test compares
# lgamma terms near c*log(c); up to 2^31 reads their float error stays near
# 1e-5, while beyond it the test would lose the precision it needs.
BINOMIAL_CHUNK = 1 << 31


def _binomial(n: int, p: float, random) -> int:
    """One Binomial(n, p) draw, for 0 < p <= 1/2 and n <= BINOMIAL_CHUNK,
    from the uniform draws of ``random``."""
    if n * p < 10.0:
        # Geometric method: successes are separated by geometric runs of
        # trials, O(n p + 1) draws.  1 - random() lies in (0, 1].
        log_q = math.log2(1.0 - p)
        hits = trials = 0
        while True:
            trials += math.floor(math.log2(1.0 - random()) / log_q) + 1
            if trials > n:
                return hits
            hits += 1
    # BTRS: a uniform u is transformed into a candidate k, accepted at once
    # inside the squeeze and otherwise by the exact log-pmf ratio test.
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    h = None
    while True:
        u = random() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:  # u = -1/2 maps to k = -infinity: rejected
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = 1.0 - random()
        if us >= 0.07 and v <= vr:
            return k
        if h is None:
            alpha = (2.83 + 5.1 / b) * spq
            lpq = math.log(p / (1.0 - p))
            m = math.floor((n + 1) * p)  # the mode
            h = math.lgamma(m + 1) + math.lgamma(n - m + 1)
        v *= alpha / (a / (us * us) + b)
        if math.log(v) <= h - math.lgamma(k + 1) - math.lgamma(n - k + 1) + (k - m) * lpq:
            return k


@dataclass(frozen=True)
class DropNoise:
    """Each counted read is independently lost with the given rate."""

    rate: float

    def apply(self, counts: Sequence[int], rng: random.Random) -> list[int]:
        """Kept reads per count, each a Binomial(c, 1 - rate) draw.

        Each count takes one exact Binomial(c, min(rate, 1 - rate)) draw of
        the rarer outcome (drop if rate <= 1/2, else keep), split into
        draws of at most ``BINOMIAL_CHUNK`` reads, so it costs
        O(1 + c / BINOMIAL_CHUNK) uniform draws.  Rates 0 and 1 draw
        nothing.
        """
        rate = self.rate
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must lie in [0, 1]")
        rare = min(rate, 1.0 - rate)
        if rare == 0.0:
            return [c if rate == 0.0 else 0 for c in counts]
        chunk = BINOMIAL_CHUNK
        uniform = rng.random
        out = []
        for c in counts:
            full, rest = divmod(c, chunk)
            hits = _binomial(rest, rare, uniform)
            for _ in range(full):
                hits += _binomial(chunk, rare, uniform)
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
