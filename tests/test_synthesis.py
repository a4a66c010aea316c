import random
from fractions import Fraction

import pytest

from profilerank.core import Params, ProfileVector, RankPermutation, profile_of, rank_of
from profilerank.encoder import encode_b, random_info_b
from profilerank.feasibility import FeasibleVector, decide
from profilerank.synthesis import (
    check_connectivity,
    eulerian_runs,
    eulerian_string,
    markov_generate,
    markov_matrix,
    normalized,
    verify,
)

P32 = Params(3, 2)
CHANNEL_PROFILE = ProfileVector(P32, (1, 2, 5, 3, 6, 7, 4, 8, 9))
CHANNEL_ORDER = "00,01,10,20,02,11,12,21,22"


def _random_profile(rng, params, length):
    x = tuple(rng.randrange(params.q) for _ in range(length))
    return profile_of(x, params)


# -- integerization: FeasibleVector.to_profile -------------------------------

def test_integerize_scales_by_lcm():
    chi = FeasibleVector.from_text("q=3 ell=1\n0 3/2\n1 7/3\n2 23/6\n")
    assert chi == FeasibleVector(Params(3, 1), (9, 14, 23), 6)
    assert chi.to_profile().counts == (9, 14, 23)


def test_integerize_leaves_integers_alone():
    chi = FeasibleVector(P32, CHANNEL_PROFILE.counts)
    assert chi.to_profile() == CHANNEL_PROFILE


def test_integerize_preserves_rank_order():
    rng = random.Random(0)
    found = 0
    while found < 10:
        order = tuple(rng.sample(range(9), 9))
        verdict = decide(RankPermutation(P32, order))
        if not verdict.feasible:
            continue
        found += 1
        out = verdict.vector.to_profile()
        assert rank_of(out).order == order
        FeasibleVector(P32, out.counts).check()


# -- connectivity and the Eulerian walk ---------------------------------------

def test_connectivity_full_support():
    assert check_connectivity(CHANNEL_PROFILE)


def test_connectivity_single_loop():
    p = ProfileVector(P32, (5, 0, 0, 0, 0, 0, 0, 0, 0))
    assert check_connectivity(p)


def test_connectivity_two_disjoint_loops():
    p = ProfileVector(P32, (1, 0, 0, 0, 1, 0, 0, 0, 0))
    assert not check_connectivity(p)


def test_connectivity_rejects_zero_profile():
    with pytest.raises(ValueError):
        check_connectivity(ProfileVector(P32, (0,) * 9))


def test_connectivity_rejects_unbalanced_profile():
    with pytest.raises(ValueError):
        check_connectivity(ProfileVector(P32, (1, 2, 3, 4, 5, 6, 7, 8, 9)))


def _reference_connectivity(p):
    """Strong connectivity by two walks from one active node, forward and
    backward, over the support edges prefix -> suffix of every counted word."""
    fwd, back = {}, {}
    for w, c in zip(p.params.words(), p.counts):
        if c:
            fwd.setdefault(w[:-1], []).append(w[1:])
            back.setdefault(w[1:], []).append(w[:-1])
    active = fwd.keys() | back.keys()
    start = min(active)
    for adj in (fwd, back):
        seen, stack = {start}, [start]
        while stack:
            for v in adj.get(stack.pop(), ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if seen != active:
            return False
    return True


def test_connectivity_matches_two_direction_walk():
    # Sums of one to three circular strings, each over a random subset of
    # the alphabet, are balanced profiles; disjoint supports disconnect them.
    rng = random.Random(17)
    outcomes = []
    for params in (P32, Params(2, 3), Params(3, 3), Params(4, 2), Params(2, 4)):
        for _ in range(120):
            counts = [0] * params.word_count
            for _ in range(rng.randint(1, 3)):
                symbols = rng.sample(range(params.q), rng.randint(1, params.q))
                x = [rng.choice(symbols) for _ in range(rng.randint(1, 12))]
                counts = [a + b for a, b in zip(counts, profile_of(x, params).counts)]
            p = ProfileVector(params, tuple(counts))
            outcomes.append(check_connectivity(p))
            assert outcomes[-1] == _reference_connectivity(p)
    assert 0 < outcomes.count(False) < len(outcomes)


def test_eulerian_profile_round_trip_exact():
    x = eulerian_string(CHANNEL_PROFILE)
    assert len(x) == 45
    assert profile_of(x, P32).counts == CHANNEL_PROFILE.counts


def test_eulerian_doubled_profile():
    x = eulerian_string(CHANNEL_PROFILE.scaled(2))
    assert len(x) == 90
    assert profile_of(x, P32).counts == (2, 4, 10, 6, 12, 14, 8, 16, 18)


def test_eulerian_three_cycle():
    p = profile_of("012", Params(3, 2))
    x = eulerian_string(p)
    assert tuple(x) in {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def test_eulerian_window_one():
    p = ProfileVector(Params(3, 1), (2, 1, 3))
    assert eulerian_string(p) == bytes((0, 0, 1, 2, 2, 2))


@pytest.mark.parametrize(
    "p",
    [
        ProfileVector(Params(3, 1), (2, 1, 3)),
        ProfileVector(Params(2, 1), (0, 4)),
        ProfileVector(Params(2, 2), (0, 5, 5, 0)),  # the closing lap repeats
        ProfileVector(Params(2, 2), (4, 0, 0, 0)),
        ProfileVector(Params(2, 3), (0, 0, 0, 0, 0, 0, 0, 1)),
        CHANNEL_PROFILE,
        CHANNEL_PROFILE.scaled(7),
    ],
)
def test_eulerian_runs_expand_to_exactly_the_witness(p):
    runs = eulerian_runs(p)
    assert all(s and k > 0 for s, k in runs)
    assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))
    assert sum(len(s) * k for s, k in runs) == p.total()
    assert b"".join(s * k for s, k in runs) == eulerian_string(p)
    assert profile_of(eulerian_string(p), p.params) == p


def test_eulerian_is_deterministic():
    assert eulerian_string(CHANNEL_PROFILE) == eulerian_string(CHANNEL_PROFILE)


def test_eulerian_random_profiles_round_trip():
    rng = random.Random(1)
    for params in (P32, Params(3, 3), Params(2, 3), Params(4, 2)):
        for _ in range(10):
            p = _random_profile(rng, params, rng.randint(3, 60))
            if not check_connectivity(p):
                continue
            assert profile_of(eulerian_string(p), params).counts == p.counts


def _reference_eulerian(p):
    """Symbol-by-symbol Hierholzer walk taking the smallest remaining
    out-edge: the definition ``eulerian_string`` must reproduce."""
    q, ell = p.params.q, p.params.ell
    if ell == 1:
        return bytes(s for s, c in enumerate(p.counts) for _ in range(c))
    remaining = list(p.counts)
    nodes = p.params.node_count
    start = min(w // q for w, c in enumerate(remaining) if c)
    ptr = [0] * nodes
    stack, trail = [start], []
    while stack:
        u = stack[-1]
        while ptr[u] < q and remaining[u * q + ptr[u]] == 0:
            ptr[u] += 1
        if ptr[u] < q:
            remaining[u * q + ptr[u]] -= 1
            stack.append((u * q + ptr[u]) % nodes)
        else:
            trail.append(stack.pop())
    trail.reverse()
    return bytes(u // q ** (ell - 2) for u in trail[:-1])


def _cycle_sum_profile(rng, params):
    """Sum of scaled profiles of a few short cycles: balanced, with large
    multiplicities, so the walk repeats whole laps."""
    total = [0] * params.word_count
    for _ in range(rng.randint(1, 5)):
        x = [rng.randrange(params.q) for _ in range(rng.randint(1, 12))]
        k = rng.choice((1, 2, 3, 7, 50, 1000, 10**6))
        total = [a + k * c for a, c in zip(total, profile_of(x, params).counts)]
    return ProfileVector(params, tuple(total))


def test_eulerian_matches_reference_walk():
    rng = random.Random(3)
    checked = 0
    while checked < 400:
        params = Params(rng.randint(2, 6), rng.randint(1, 3))
        p = _cycle_sum_profile(rng, params)
        if p.total() > 10**6 or not check_connectivity(p):
            continue
        checked += 1
        x = eulerian_string(p)
        assert x == _reference_eulerian(p), (params, p.counts)
        runs = eulerian_runs(p)
        assert sum(len(s) * k for s, k in runs) == p.total()
        assert b"".join(s * k for s, k in runs) == x
        assert all(s and k > 0 for s, k in runs)


def test_eulerian_runs_of_encoder_vector_stay_few(repo):
    info = random_info_b(4, 3, random.Random(4))
    vec = encode_b(info, repo)
    p = ProfileVector(Params(4, 3), vec.entries)
    runs = eulerian_runs(p)
    assert sum(len(s) * k for s, k in runs) == sum(vec.entries)
    assert len(runs) <= 300
    assert max(vec.entries).bit_length() > 30  # far too long to expand here


def test_verify_pipeline():
    perm = RankPermutation.from_text(CHANNEL_ORDER)
    assert verify(eulerian_string(CHANNEL_PROFILE), perm)
    assert not verify("000", perm)


def test_full_pipeline_decide_integerize_synthesize():
    rng = random.Random(2)
    found = 0
    while found < 10:
        order = tuple(rng.sample(range(9), 9))
        perm = RankPermutation(P32, order)
        verdict = decide(perm)
        if not verdict.feasible:
            continue
        found += 1
        x = eulerian_string(verdict.vector.to_profile())
        assert verify(x, perm)


# -- the random-walk generator -------------------------------------------------

def test_markov_matrix_uniform_rows():
    s = tuple(Fraction(1, 9) for _ in range(9))
    m = markov_matrix(s, P32)
    for row in m.rows:
        assert [p for _, p in row] == [Fraction(1, 3)] * 3
    assert m.is_stationary(s)


def test_markov_matrix_stationary_on_channel_profile():
    s = normalized(CHANNEL_PROFILE)
    m = markov_matrix(s, P32)
    assert m.is_stationary(s)
    for row in m.rows:
        assert sum(p for _, p in row) == 1


def test_markov_matrix_rejects_unbalanced():
    bad = tuple(Fraction(c, 45) for c in (1, 2, 3, 4, 5, 6, 7, 8, 9))
    with pytest.raises(ValueError):
        markov_matrix(bad, P32)


def test_markov_matrix_rejects_zero_entry():
    s = [Fraction(1, 8)] * 9
    s[0] = Fraction(0)
    s[8] = Fraction(2, 8)
    with pytest.raises(ValueError):
        markov_matrix(tuple(s), P32)


def test_markov_matrix_row_rejects_a_word_of_the_wrong_length():
    m = markov_matrix(normalized(CHANNEL_PROFILE), P32)
    assert m.row((0, 2)) == m.rows[2]
    for w in ((2,), (0, 0, 2)):
        with pytest.raises(ValueError, match="does not have length 2"):
            m.row(w)


def test_markov_matrix_names_a_node_above_ten_symbols():
    # uniform at (11, 3), then eps moved from word (0,10,10) to (0,10,0):
    # node (0,10) still balances, (10,0) and (10,10) do not
    params = Params(11, 3)
    s = [Fraction(1, params.word_count)] * params.word_count
    eps = Fraction(1, 2 * params.word_count)
    s[params.index((0, 10, 0))] += eps
    s[params.index((0, 10, 10))] -= eps
    with pytest.raises(ValueError, match=r"^flow violated at node \(10,0\): "):
        markov_matrix(s, params)


def test_synthesis_takes_every_byte_alphabet():
    p = ProfileVector(Params(256, 1), tuple(range(1, 257)))
    assert profile_of(eulerian_string(p), p.params) == p
    big = Params(257, 1)
    with pytest.raises(ValueError, match="^byte-string synthesis supports q <= 256, got q=257$"):
        eulerian_runs(ProfileVector(big, tuple(range(1, 258))))
    with pytest.raises(ValueError, match="^byte-string synthesis supports q <= 256, got q=257$"):
        markov_generate([Fraction(1, 257)] * 257, big, 10**6, seed=0)


def test_markov_generate_reproducible():
    s = normalized(CHANNEL_PROFILE)
    a = markov_generate(s, P32, 500, seed=42)
    b = markov_generate(s, P32, 500, seed=42)
    c = markov_generate(s, P32, 500, seed=43)
    assert a == b
    assert len(a) == 500
    assert a != c


def test_markov_generate_degenerate_length():
    s = normalized(CHANNEL_PROFILE)
    assert len(markov_generate(s, P32, 1, seed=0)) == 1


def test_markov_generate_frequencies_track_target():
    # moderate length here; the million-step criterion runs in acceptance
    s = normalized(CHANNEL_PROFILE)
    x = markov_generate(s, P32, 200_000, seed=0)
    p = profile_of(x, P32)
    for count, target in zip(p.counts, s):
        assert abs(count / len(x) / float(target) - 1) < 0.05
