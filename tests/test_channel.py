import math
import random

import pytest

from profilerank import channel
from profilerank.channel import (
    AdditiveNoise,
    DropNoise,
    TieFailure,
    TrialRow,
    perturb,
    rank_decode,
    simulate,
)
from profilerank.core import Params, ProfileVector, RankPermutation

P32 = Params(3, 2)
STORAGE = ProfileVector(P32, (2, 4, 10, 6, 12, 14, 8, 16, 18))
CHANNEL_ORDER = RankPermutation.from_text("00,01,10,20,02,11,12,21,22")


def test_zero_noise_is_identity():
    assert perturb(STORAGE, AdditiveNoise(0), seed=1).counts == STORAGE.counts


def test_perturb_is_deterministic_per_seed():
    a = perturb(STORAGE, AdditiveNoise(3), seed=7)
    b = perturb(STORAGE, AdditiveNoise(3), seed=7)
    c = perturb(STORAGE, AdditiveNoise(3), seed=8)
    assert a.counts == b.counts
    assert a.counts != c.counts


def test_perturb_clamps_at_zero():
    tiny = ProfileVector(P32, (1, 0, 2, 1, 0, 0, 1, 2, 2))
    noisy = perturb(tiny, AdditiveNoise(5), seed=3)
    assert all(c >= 0 for c in noisy.counts)


@pytest.mark.parametrize("m", [0, 1, 7, 2**70])
def test_additive_noise_draws_what_randint_draws(m):
    for seed in range(5):
        rng = random.Random(seed)
        counts = [rng.randrange(3 * m + 3) for _ in range(40)] + [0, m, m + 1]
        got, want = random.Random(100 + seed), random.Random(100 + seed)
        shifted = AdditiveNoise(m).apply(counts, got)
        assert shifted == [max(0, c + want.randint(-m, m)) for c in counts]
        assert got.getstate() == want.getstate()


def test_drop_noise_never_increases():
    noisy = perturb(STORAGE, DropNoise(0.3), seed=5)
    assert all(n <= c for n, c in zip(noisy.counts, STORAGE.counts))
    assert perturb(STORAGE, DropNoise(0.0), seed=5).counts == STORAGE.counts


@pytest.mark.parametrize("c", [3, 1000])
@pytest.mark.parametrize("rate", [0.01, 0.3, 0.7, 0.99])
def test_drop_noise_is_binomial(rate, c):
    # kept reads of a count c follow Binomial(c, 1 - rate); compare the sample
    # mean and variance with five standard errors of each for this sample size
    samples = 2000
    kept = DropNoise(rate).apply([c] * samples, random.Random(17))
    mean = sum(kept) / samples
    var = sum((k - mean) ** 2 for k in kept) / (samples - 1)
    p = 1 - rate
    true_mean, true_var = c * p, c * p * (1 - p)
    excess_kurtosis = (1 - 6 * p * (1 - p)) / true_var
    assert abs(mean - true_mean) < 5 * math.sqrt(true_var / samples)
    assert abs(var - true_var) < 5 * true_var * math.sqrt((2 + excess_kurtosis) / samples)


def _chi_square(samples, n, p):
    """Pearson's statistic of ``samples`` against the exact Binomial(n, p)
    pmf, over bins of expected count >= 5 (tails merged into their
    neighbours), with its degrees of freedom."""
    pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    seen = [0] * (n + 1)
    for k in samples:
        seen[k] += 1
    bins, expected, observed = [], 0.0, 0
    for k in range(n + 1):
        expected += len(samples) * pmf[k]
        observed += seen[k]
        if expected >= 5:
            bins.append([expected, observed])
            expected, observed = 0.0, 0
    bins[-1][0] += expected
    bins[-1][1] += observed
    stat = sum((o - e) ** 2 / e for e, o in bins)
    return stat, len(bins) - 1


@pytest.mark.parametrize(
    "c, rate, chunk",
    [
        (20, 0.3, None),  # geometric method: c * 0.3 = 6 < 10
        (20, 0.7, None),
        (200, 0.3, None),  # BTRS: c * 0.3 = 60
        (200, 0.7, None),
        (500, 0.03, None),  # BTRS near its threshold: 15
        (200, 0.3, 64),  # three BTRS chunks of 64 and a geometric one of 8
        (200, 0.7, 64),
    ],
)
def test_drop_noise_matches_the_exact_binomial_pmf(c, rate, chunk, monkeypatch):
    # kept reads ~ Binomial(c, 1 - rate); the chi-square statistic must stay
    # below its mean plus seven standard deviations, a tail of about 1e-6
    if chunk is not None:
        monkeypatch.setattr(channel, "BINOMIAL_CHUNK", chunk)
    kept = DropNoise(rate).apply([c] * 20000, random.Random(c + int(100 * rate)))
    stat, df = _chi_square(kept, c, 1 - rate)
    assert stat < df + 7 * math.sqrt(2 * df)


class _CountingRandom(random.Random):
    """A generator that counts its uniform draws."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()


@pytest.mark.parametrize("rate", [0.3, 0.5, 0.7])
def test_drop_noise_draws_a_bounded_number_of_uniforms(rate):
    # one BTRS draw per count: about 2.4 uniforms, where skipping geometric
    # runs of the common outcome took c * min(rate, 1 - rate) of them
    rng = _CountingRandom(4)
    kept = DropNoise(rate).apply([10**6] * 100, rng)
    assert rng.calls <= 400
    assert abs(sum(kept) / 100 - 10**6 * (1 - rate)) < 500


def test_drop_noise_extreme_rates_are_exact():
    counts = [0, 1, 7, 10**30]
    rng = random.Random(0)
    assert DropNoise(0.0).apply(counts, rng) == counts
    assert DropNoise(1.0).apply(counts, rng) == [0, 0, 0, 0]
    with pytest.raises(ValueError):
        DropNoise(1.5).apply(counts, rng)


def test_drop_noise_is_deterministic_per_seed():
    big = ProfileVector(P32, tuple(1000 * c for c in STORAGE.counts))
    for rate in (0.01, 0.5, 0.9):
        a = perturb(big, DropNoise(rate), seed=21)
        assert a == perturb(big, DropNoise(rate), seed=21)
        assert a != perturb(big, DropNoise(rate), seed=22)


def test_channel_figure_error_pattern_decodes():
    # the worked channel example: two counts move, the rank order survives
    noisy = ProfileVector(P32, (2, 4, 10, 6, 13, 14, 8, 16, 17))
    decoded = rank_decode(noisy)
    assert isinstance(decoded, RankPermutation)
    assert decoded.order == CHANNEL_ORDER.order


def test_rank_decode_reports_ties():
    tied = ProfileVector(P32, (1, 1, 2, 3, 4, 5, 6, 7, 8))
    out = rank_decode(tied)
    assert isinstance(out, TieFailure)
    assert ((0, 0), (0, 1)) in out.groups


def test_ties_above_ten_symbols_are_counted():
    # a tie at q = 11 is a TieFailure, not a crash in the tie message
    p = ProfileVector(Params(11, 1), tuple(range(1, 12)))
    out = rank_decode(ProfileVector(p.params, (1, 1, *range(3, 12))))
    assert isinstance(out, TieFailure) and out.groups == (((0,), (1,)),)
    (row,) = simulate(p, [AdditiveNoise(3)], 5, seed=1, jobs=1)
    assert row.ties > 0
    assert row.successes + row.ties + row.rank_errors == 5


def test_small_noise_always_recovers():
    # every pairwise gap in the storage profile is >= 2, so +-0-noise of
    # magnitude 0 and any perturbation below half the gap keeps the order
    rng = random.Random(0)
    for seed in range(30):
        noisy = perturb(STORAGE, AdditiveNoise(0), seed=seed)
        assert rank_decode(noisy).order == CHANNEL_ORDER.order


def test_gap_based_recovery_guarantee():
    spread = ProfileVector(P32, tuple(10 * c for c in (1, 2, 5, 3, 6, 7, 4, 8, 9)))
    # minimal pairwise gap is 10; noise < 5 can never flip an order
    for seed in range(20):
        noisy = perturb(spread, AdditiveNoise(4), seed=seed)
        assert rank_decode(noisy).order == CHANNEL_ORDER.order


def test_gap_based_recovery_over_random_realizable_profiles():
    # quantified version: any realizable integer profile, scaled so every
    # pairwise gap exceeds twice the noise magnitude, always decodes cleanly
    from profilerank.feasibility import decide

    rng = random.Random(13)
    magnitude = 3
    found = 0
    while found < 15:
        order = tuple(rng.sample(range(9), 9))
        perm = RankPermutation(P32, order)
        verdict = decide(perm)
        if not verdict.feasible:
            continue
        found += 1
        base = verdict.vector.to_profile()
        spread = base.scaled(2 * magnitude + 1)
        for seed in range(5):
            noisy = perturb(spread, AdditiveNoise(magnitude), seed=seed)
            assert rank_decode(noisy).order == order


def test_simulate_rows_and_monotonicity():
    rows = simulate(STORAGE, [AdditiveNoise(m) for m in (0, 1, 6)], trials=60, seed=11)
    assert [r.noise for r in rows] == ["additive:0", "additive:1", "additive:6"]
    assert all(r.trials == 60 for r in rows)
    assert all(r.successes + r.ties + r.rank_errors == 60 for r in rows)
    assert rows[0].successes == 60  # zero noise always succeeds
    assert rows[0].successes >= rows[1].successes >= rows[2].successes


def test_simulate_reproducible():
    a = simulate(STORAGE, [AdditiveNoise(2)], trials=40, seed=3)
    b = simulate(STORAGE, [AdditiveNoise(2)], trials=40, seed=3)
    assert a == b


def test_simulate_split_independent():
    models = [AdditiveNoise(1), AdditiveNoise(3), DropNoise(0.2)]
    serial = simulate(STORAGE, models, trials=45, seed=5, jobs=1)
    parallel = simulate(STORAGE, models, trials=45, seed=5, jobs=2)
    assert serial == parallel
    assert [r.noise for r in serial] == ["additive:1", "additive:3", "drop:0.2"]
    assert sum(r.ties + r.rank_errors for r in serial) > 0  # the noise did bite


@pytest.mark.parametrize("jobs", [1, 2])
def test_simulate_zero_trials(jobs):
    models = [AdditiveNoise(1), DropNoise(0.5)]
    rows = simulate(STORAGE, models, trials=0, seed=1, jobs=jobs)
    assert rows == [TrialRow(m.label(), 0, 0, 0, 0) for m in models]


def test_simulate_rejects_negative_trials():
    with pytest.raises(ValueError, match="trials"):
        simulate(STORAGE, [AdditiveNoise(1)], trials=-5, seed=1, jobs=1)


@pytest.mark.parametrize("jobs", [0, -1])
def test_simulate_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs"):
        simulate(STORAGE, [AdditiveNoise(1)], trials=10, seed=1, jobs=jobs)
