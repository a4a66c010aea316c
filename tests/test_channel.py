import hashlib
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from bruteforce import additive_readout_probability, drop_readout_probability
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
from profilerank.encoder import encode_b, random_info_b

P32 = Params(3, 2)
STORAGE = ProfileVector(P32, (2, 4, 10, 6, 12, 14, 8, 16, 18))
# 27 distinct counts 2, 6, ..., 106, four apart, in a scrambled word order
SPACED33 = ProfileVector(Params(3, 3), tuple(4 * (7 * i % 27) + 2 for i in range(27)))
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


_PMF_ROWS = [
    # (c, rate, chunk, stirling): ``stirling`` lowers the read count from
    # which BTRS takes the Stirling-series test to that many reads, and the
    # lgamma floor under the series to 16
    (20, 0.3, None, None),  # geometric method: c * 0.3 = 6 < 10
    (20, 0.7, None, None),
    (200, 0.3, None, None),  # BTRS: c * 0.3 = 60
    (200, 0.7, None, None),
    (500, 0.03, None, None),  # BTRS near its threshold: 15
    (200, 0.3, 64, None),  # three BTRS chunks of 64 and a geometric one of 8
    (200, 0.7, 64, None),
    (200, 0.3, None, 100),  # the series for every candidate k >= 16
    (200, 0.7, None, 100),
    (500, 0.03, None, 100),  # the mode, 15, below the floor: lgamma for it
    (600, 0.3, 256, 200),  # two series chunks of 256 and an lgamma one of 88
]


@pytest.mark.parametrize(
    "c, rate, chunk, stirling",
    _PMF_ROWS,
    ids=[f"{c}-{r}-{k}" + (f"-stirling{s}" if s else "") for c, r, k, s in _PMF_ROWS],
)
def test_drop_noise_matches_the_exact_binomial_pmf(c, rate, chunk, stirling, monkeypatch):
    # kept reads ~ Binomial(c, 1 - rate); the chi-square statistic must stay
    # below its mean plus seven standard deviations, a tail of about 1e-6
    if chunk is not None:
        monkeypatch.setattr(channel, "BINOMIAL_CHUNK", chunk)
    if stirling is not None:
        monkeypatch.setattr(channel, "_STIRLING_READS", stirling)
        monkeypatch.setattr(channel, "_LGAMMA_BELOW", 16)
    kept = DropNoise(rate).apply([c] * 20000, random.Random(c + int(100 * rate)))
    stat, df = _chi_square(kept, c, 1 - rate)
    assert stat < df + 7 * math.sqrt(2 * df)


def _stirling_log_factorial(x: int) -> Decimal:
    """ln x! to about 40 digits for x >= 2^20, by Stirling's series to its
    1/(1260 x^5) term."""
    x = Decimal(x)
    pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
    return (
        (x + Decimal("0.5")) * x.ln() - x + (2 * pi).ln() / 2
        + 1 / (12 * x) - 1 / (360 * x**3) + 1 / (1260 * x**5)
    )


@pytest.mark.parametrize("bits", [32, 41, 52])
def test_log_pmf_ratio_is_precise_up_to_the_chunk(bits):
    # BTRS's acceptance test from 2^31 reads on: ln(b(k) / b(m)) for
    # candidates k within 8 sigma of the mode m, against the log-factorial
    # differences and ln(p / (1 - p)) at 60 digits.  lgamma differences are
    # off by about 1e-5 at 2^31 reads and by tens at 2^52
    n = 1 << bits
    rng = random.Random(bits)
    with localcontext() as ctx:
        ctx.prec = 60
        for p in (0.5, 0.3, 0.01):
            m = math.floor((n + 1) * p)
            sigma = math.sqrt(n * p * (1 - p))
            lpq = Decimal(p).ln() - (1 - Decimal(p)).ln()
            at_m = _stirling_log_factorial(m) + _stirling_log_factorial(n - m)
            for _ in range(200):
                k = m + round(rng.uniform(-8, 8) * sigma)
                at_k = _stirling_log_factorial(k) + _stirling_log_factorial(n - k)
                want = at_m - at_k + (k - m) * lpq
                got = channel._log_pmf_ratio(n, p, m, k)
                assert abs(Decimal(got) - want) < Decimal("5e-7"), (bits, p, k)


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


def test_drop_noise_on_encoder_scale_counts_takes_a_few_uniforms_per_count(repo):
    # the 64 counts of a (4,3) encoder vector, up to 41 bits: one BTRS draw
    # each, about 2.3 uniforms, where draws of at most 2^31 reads took about
    # 36,000 a trial
    counts = encode_b(random_info_b(4, 3, random.Random(6)), repo).entries
    assert len(counts) == 64 and max(counts).bit_length() == 41
    for rate in (0.01, 0.3, 0.5, 0.8):
        rng = _CountingRandom(11)
        for _ in range(10):
            kept = DropNoise(rate).apply(counts, rng)
            assert all(0 <= k <= c for k, c in zip(kept, counts))
        assert rng.calls <= 4 * 64 * 10, rate


def _pinned_counts() -> list[int]:
    rng = random.Random(2027)
    return [0, 1, 2, 3, 10, 33, (1 << 31) - 1] + [
        rng.getrandbits(b) for b in range(1, 32) for _ in range(4)
    ]


def test_drop_draws_below_two_to_the_31_are_pinned():
    # every count below 2^31 reads keeps the lgamma test it has always had,
    # so its draws for a seed never move
    digest = hashlib.sha256()
    counts = _pinned_counts()
    for rate in (0.01, 0.3, 0.5, 0.8, 0.999):
        for seed in range(3):
            digest.update(repr(DropNoise(rate).apply(counts, random.Random(seed))).encode())
    assert digest.hexdigest() == (
        "2704fd65de20a5f542565c7044cd04225420f6d12f0a4c3d7b1af8f355aafa28"
    )


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
    (row,) = simulate(p, [AdditiveNoise(3)], 5, seed=1)
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


def test_readout_reference_matches_enumeration():
    # the chain sum against every joint outcome of three counts, additive +-1
    counts = (0, 2, 3)
    shifts = [(a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)]
    clean = sum(
        max(0, counts[0] + a) < counts[1] + b < counts[2] + c for a, b, c in shifts
    )
    assert additive_readout_probability(counts, 1) == Fraction(clean, 27)
    assert drop_readout_probability(counts, 0.0) == 1.0


def _binomial_tails(n: int, p: float, s: int) -> tuple[float, float]:
    """P(X <= s) and P(X >= s) for X ~ Binomial(n, p)."""
    if p in (0.0, 1.0):
        point = n * int(p)
        return float(s >= point), float(s <= point)
    pmf = [
        math.exp(
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p)
        )
        for k in range(n + 1)
    ]
    return sum(pmf[: s + 1]), sum(pmf[s:])


@pytest.mark.parametrize(
    "profile, levels, rates",
    [(STORAGE, (1, 2, 3, 6), (0.05, 0.2, 0.5)), (SPACED33, (1, 2, 3, 4), (0.01, 0.02, 0.05, 0.1))],
    ids=["q3l2", "q3l3"],
)
def test_simulate_rows_match_the_exact_readout_probability(profile, levels, rates):
    # each row's successes against the exact chance of a clean readout: a
    # two-sided binomial bound at 1e-6, half in each tail
    trials = 2000
    models = [AdditiveNoise(m) for m in levels] + [DropNoise(r) for r in rates]
    exact = [float(additive_readout_probability(profile.counts, m)) for m in levels] + [
        drop_readout_probability(profile.counts, r) for r in rates
    ]
    rows = simulate(profile, models, trials, seed=2027)
    for row, p in zip(rows, exact):
        assert row.trials == trials
        low, high = _binomial_tails(trials, p, row.successes)
        assert min(low, high) > 5e-7, (row, p)


@pytest.mark.parametrize("seed", [1, 2])
def test_simulate_zero_trials(seed):
    models = [AdditiveNoise(1), DropNoise(0.5)]
    rows = simulate(STORAGE, models, trials=0, seed=seed)
    assert rows == [TrialRow(m.label(), 0, 0, 0, 0) for m in models]


def test_simulate_rejects_negative_trials():
    with pytest.raises(ValueError, match="trials"):
        simulate(STORAGE, [AdditiveNoise(1)], trials=-5, seed=1)


def test_simulate_rejects_more_trials_than_seed_streams(monkeypatch):
    # trial 1,000,003 of model 0 would replay trial 0 of model 1: refused
    # before any draw, and the limit itself still runs
    def no_draw(*args, **kwargs):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(channel, "perturb", no_draw)
    with pytest.raises(ValueError, match="trials must be at most 1000003"):
        simulate(STORAGE, [AdditiveNoise(1), AdditiveNoise(2)], trials=1_000_004, seed=1)
    with pytest.raises(AssertionError, match="a trial was drawn"):
        simulate(STORAGE, [AdditiveNoise(1)], trials=1_000_003, seed=1)
