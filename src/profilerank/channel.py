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
ships as ``random.binomialvariate``.  From 2^31 reads on, BTRS's log-pmf
ratio comes from Stirling's series written without cancellation, so one
draw stays exact up to ``BINOMIAL_CHUNK`` = 2^52 reads.  Larger counts are
drawn as a sum of draws of at most that many reads, so a count costs
O(1 + c / BINOMIAL_CHUNK) uniform draws at any rate.

``simulate`` runs its trials in one serial pass: trial k of model m draws
from a generator seeded by (master seed, m, k).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence, Union

from .core import ProfileVector, RankPermutation, TieError, rank_of


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


# The most reads one binomial draw takes: below 2^52, n and k are exact as
# floats, and so is BTRS's candidate k.
BINOMIAL_CHUNK = 1 << 52

# From this many reads on, BTRS's log-pmf ratio comes from ``_log_pmf_ratio``.
# Below it the lgamma differences, whose float error is near 1e-5 at 2^31,
# are kept as they are, so no smaller draw moves for any seed.
_STIRLING_READS = 1 << 31

# Below this argument lgamma differences are accurate to about 1e-9; above
# it, the Stirling term that ``_stirling_rest`` drops is below 1e-18.
_LGAMMA_BELOW = 1 << 20


def _stirling_rest(x: int, y: int) -> float:
    """ln x! - ln y! - d*ln(x), d = x - y, for naturals x >= 1 and y.

    Stirling's series to its 1/(12x) term, with x ln x - y ln y written as
    y*log1p(d/y) + d*ln(x), so that nothing of size x ln x cancels: what is
    left is about -d^2 / (2y)."""
    d = x - y
    if x < _LGAMMA_BELOW or y < _LGAMMA_BELOW:
        return math.lgamma(x + 1) - math.lgamma(y + 1) - d * math.log(x)
    t = math.log1p(d / y)
    return y * t - d + 0.5 * t + (1 / x - 1 / y) / 12


def _log_pmf_ratio(n: int, p: float, m: int, k: int) -> float:
    """ln(b(k) / b(m)) for the Binomial(n, p) pmf b and 1 <= m < n.

    The sum ln m! - ln k! + ln (n-m)! - ln (n-k)! + (k-m) ln(p/(1-p)) with
    each log-factorial difference from ``_stirling_rest``, and their d*ln
    terms folded into one logarithm near ln 1.  Each difference alone is
    near d*ln(m), some 10^10 at 2^52 reads, where a float is 2e-6 apart; the
    sum stays within about 1e-7 of the exact value there."""
    d = m - k
    return (
        _stirling_rest(m, k)
        + _stirling_rest(n - m, n - k)
        + d * math.log(m * (1.0 - p) / ((n - m) * p))
    )


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
        if n < _STIRLING_READS:
            ratio = h - math.lgamma(k + 1) - math.lgamma(n - k + 1) + (k - m) * lpq
        else:
            ratio = _log_pmf_ratio(n, p, m, k)
        if math.log(v) <= ratio:
            return k


@dataclass(frozen=True)
class DropNoise:
    """Each counted read is independently lost with the given rate."""

    rate: float

    def apply(self, counts: Sequence[int], rng: random.Random) -> list[int]:
        """Kept reads per count, each a Binomial(c, 1 - rate) draw.

        Each count takes one exact Binomial(c, min(rate, 1 - rate)) draw of
        the rarer outcome (drop if rate <= 1/2, else keep), split into
        draws of at most ``BINOMIAL_CHUNK`` = 2^52 reads, so it costs
        O(1 + c / BINOMIAL_CHUNK) uniform draws: a few per count below 2^52
        reads.  Rates 0 and 1 draw nothing.
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


def simulate(
    p: ProfileVector,
    models: Sequence[NoiseModel],
    trials: int,
    seed: int,
) -> list[TrialRow]:
    """Monte-Carlo recovery sweep, one row per noise model.

    Trial k of model m draws from a generator seeded by (master seed, m, k),
    so every trial is reproducible on its own.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    clean = rank_of(p)  # fails fast on a tied clean profile
    rows = []
    for mi, model in enumerate(models):
        successes = ties = errors = 0
        for trial in range(trials):
            noisy = perturb(p, model, seed=(seed * 1_000_003 + mi) * 1_000_003 + trial)
            got = rank_decode(noisy)
            if isinstance(got, TieFailure):
                ties += 1
            elif got == clean:
                successes += 1
            else:
                errors += 1
        rows.append(TrialRow(model.label(), trials, successes, ties, errors))
    return rows
