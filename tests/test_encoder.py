import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from profilerank.codes import PermCode, PrecodedInfoB
from profilerank.core import (
    PackedRows,
    Params,
    all_words,
    homo_image,
    homo_preimages,
    rank_of,
    word_index,
)
from profilerank.encoder import (
    BASE_COUNT,
    InfoVecA,
    InfoVecB,
    NotACodeword,
    Repository,
    ScaledVector,
    StageA,
    _lift_layer,
    _window_plan,
    choose_y,
    count_lower_bound,
    decode_a,
    decode_b,
    encode_a,
    encode_b,
    extend_vector,
    info_a_from_text,
    info_a_to_text,
    info_b_from_text,
    info_b_to_text,
    interleave,
    layer_domain,
    length_bounds,
    random_info_a,
    random_info_b,
    random_layer,
    rate_lower_bound,
)
from profilerank.feasibility import FeasibleVector

# Window-length-2 entries in word order: pair (a, b) at index a*q + b.
EQ3 = (1, 2, 5, 3, 6, 7, 4, 8, 9)
PI4 = (2, 3, 4, 1)
T4 = (0, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0)
EXPECTED4 = (
    20, 40, 100, 48,
    61, 120, 140, 51,
    81, 160, 180, 83,
    46, 52, 84, 44,
)


# -- interleave / choose_y ----------------------------------------------------

def test_interleave_worked_example():
    merged = interleave(T4, (11, 12, 13, 21), (5, 10, 15, 20, 25, 30, 35, 40, 45))
    assert merged == [5, 10, 11, 12, 13, 15, 20, 21, 25, 30, 35, 40, 45]


def test_interleave_degenerate_patterns():
    assert interleave((0, 0, 0), (), ("a", "b", "c")) == ["a", "b", "c"]
    assert interleave((1, 1), ("x", "y"), ()) == ["x", "y"]


def test_interleave_rejects_length_mismatch():
    with pytest.raises(ValueError):
        interleave((1, 0), ("a", "b"), ())


def test_choose_y_worked_example():
    sx = sorted(5 * e for e in EQ3)
    assert choose_y(PI4, T4, sx) == [12, 13, 21, 11]


def test_choose_y_trailing_ones():
    # all new values above the maximum, dealt by rank
    j = 4
    t = (0,) * 9 + (1,) * 4
    sx = [5 * v for v in (1, 2, 3, 4, 5, 6, 7, 8, 9)]
    assert choose_y((1, 2, 3, 4), t, sx) == [46, 47, 48, 49]
    assert choose_y((4, 3, 2, 1), t, sx) == [49, 48, 47, 46]


def test_choose_y_leading_ones_anchor_at_one():
    t = (1, 1, 1, 1) + (0,) * 9
    sx = [5 * v for v in (1, 2, 3, 4, 5, 6, 7, 8, 9)]
    assert choose_y((1, 2, 3, 4), t, sx) == [1, 2, 3, 4]


# -- the alphabet recursion ---------------------------------------------------

def test_extend_matrix_worked_example():
    assert extend_vector(EQ3, PI4, T4) == EXPECTED4


def test_extend_matrix_output_order():
    order = rank_of(EXPECTED4, Params(4, 2)).to_text()
    assert order == "00,01,33,30,03,13,31,10,20,23,32,02,11,12,21,22"


def test_encode_a_base_case_returns_repository_matrix(repo):
    info = InfoVecA(61)
    assert encode_a(info, repo) == ScaledVector(Params(3, 2), repo.vector(61))
    assert repo.vector(61) == EQ3  # minimal-entry realization of the worked order


def test_encode_a_outputs_validate(repo):
    rng = random.Random(0)
    for q in (4, 5):
        for _ in range(40):
            info = random_info_a(q, rng)
            vec = encode_a(info, repo)
            assert vec.params == Params(q, 2)
            vec.check()


def test_encode_a_order_preservation(repo):
    # restricting the grown order to old words reproduces the previous order
    rng = random.Random(1)
    for _ in range(20):
        info = random_info_a(5, rng)
        prev = encode_a(InfoVecA(info.base, info.stages[:-1]), repo)
        cur = encode_a(info, repo)
        p_prev = prev.params
        cur_vals = [cur.entries[word_index(w, 5)] for w in p_prev.words()]
        assert rank_of(prev.entries, p_prev).order == rank_of(cur_vals, p_prev).order


def test_decode_a_round_trip(repo):
    rng = random.Random(2)
    for q in (3, 4, 5, 6):
        for _ in range(30):
            info = random_info_a(q, rng)
            assert decode_a(encode_a(info, repo), repo) == info


def test_decode_a_worked_example(repo):
    info = InfoVecA(61, (StageA(PI4, T4),))
    assert encode_a(info, repo).entries == EXPECTED4
    assert decode_a(FeasibleVector(Params(4, 2), EXPECTED4), repo) == info


def test_decode_a_rejects_non_codeword(repo):
    with pytest.raises(NotACodeword):
        decode_a(FeasibleVector(Params(3, 2), (1, 2, 3, 4, 5, 6, 7, 8, 9)), repo)
    broken = EXPECTED4[:-1] + (45,)
    with pytest.raises(NotACodeword):
        decode_a(FeasibleVector(Params(4, 2), broken), repo)


def test_decode_a_rejects_window_length_other_than_two(repo):
    # the first nine entries are a repository vector, the rest arbitrary
    v33 = FeasibleVector(Params(3, 3), repo.vector(1) + tuple(range(100, 118)))
    for vec in (v33, FeasibleVector(Params(3, 1), (1, 2, 3))):
        with pytest.raises(NotACodeword, match="window length 2"):
            decode_a(vec, repo)
    with pytest.raises(NotACodeword, match="q >= 3"):
        decode_a(FeasibleVector(Params(2, 2), (1, 2, 3, 4)), repo)


def test_rank_level_injectivity_alphabet(repo):
    rng = random.Random(3)
    seen = {}
    for _ in range(250):
        info = random_info_a(4, rng)
        order = rank_of(encode_a(info, repo).entries, Params(4, 2)).order
        if info in seen:
            continue
        for other, other_order in seen.items():
            if other != info:
                assert other_order != order
        seen[info] = order


# -- the window recursion -----------------------------------------------------

def test_layer_domain_size():
    for q in (3, 4):
        for i in (3, 4):
            expected = q ** (i - 1) - 2 * q ** (i - 2) + q ** (i - 3)
            assert len(layer_domain(q, i)) == expected
    assert layer_domain(3, 3) == [(1, 1), (1, 2), (2, 1), (2, 2)]


# every class the decide and codec benchmarks draw messages at
BENCH_CLASSES = [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (3, 4), (5, 3), (6, 3), (4, 4)]
# three messages a class at seed 2029: their reprs and texts, then the
# generator's state after them; the benchmark's inputs rest on these draws
RANDOM_INFO_B_DIGEST = "7c41e87c92ced6320b033cbebde3d10b6c9d0971de6292272fa4c469e49d26d6"


def test_random_messages_match_pinned_digest():
    digest = hashlib.sha256()
    for q, ell in BENCH_CLASSES:
        rng = random.Random(2029)
        for _ in range(3):
            info = random_info_b(q, ell, rng)
            digest.update(repr(info).encode())
            digest.update(info_b_to_text(info).encode())
        digest.update(repr(rng.getstate()).encode())
    assert digest.hexdigest() == RANDOM_INFO_B_DIGEST


# -- seeded messages against the stdlib calls they draw like ---------------
# random_info_a, random_layer and random_info_b as they were written on
# random.Random's shuffle, sample and randint: the library draws from
# getrandbits directly and must give the same messages and leave the same
# generator state.

def stdlib_info_a(q, rng):
    stages = []
    for j in range(4, q + 1):
        pi = list(range(1, j + 1))
        rng.shuffle(pi)
        positions = rng.sample(range(j * j - j + 1), j)
        t = tuple(1 if k in positions else 0 for k in range(j * j - j + 1))
        stages.append(StageA(tuple(pi), t))
    return InfoVecA(rng.randint(1, BASE_COUNT), tuple(stages))


def stdlib_layer(q, i, rng):
    layer = {}
    for u in _window_plan(q, i).keys:
        perm = list(range(q))
        rng.shuffle(perm)
        layer[u] = tuple(perm)
    return layer


def stdlib_info_b(q, ell, rng):
    return InfoVecB(
        stdlib_info_a(q, rng), tuple(stdlib_layer(q, i, rng) for i in range(3, ell + 1))
    )


SAMPLER_SEEDS = (0, 1, 2029, 2**40 + 7)


@pytest.mark.parametrize("q", range(3, 13))
def test_random_info_a_draws_what_shuffle_sample_and_randint_draw(q):
    # stages j <= 9 take sample's pool path, j >= 10 its set path
    for seed in SAMPLER_SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(4):
            assert random_info_a(q, ours) == stdlib_info_a(q, theirs)
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("q", range(3, 12))
def test_random_layer_draws_what_shuffle_draws(q):
    for i in (3, 4):
        for seed in SAMPLER_SEEDS:
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(2):
                assert random_layer(q, i, ours) == stdlib_layer(q, i, theirs)
            assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("q", range(3, 12))
def test_random_info_b_draws_what_the_stdlib_calls_draw(q):
    for ell in (2, 3, 4):
        for seed in SAMPLER_SEEDS:
            ours, theirs = random.Random(seed), random.Random(seed)
            info = random_info_b(q, ell, ours)
            assert info == stdlib_info_b(q, ell, theirs)
            assert ours.getstate() == theirs.getstate()
            info.check()


@pytest.mark.parametrize("q,ell", [(3, 3), (4, 3), (3, 4), (5, 3), (4, 4)])
def test_precoded_sample_draws_what_the_stdlib_calls_draw(q, ell):
    top = PermCode.full(range(q))
    space = PrecodedInfoB(q, ell, top)
    for seed in SAMPLER_SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        layers = [stdlib_layer(q, i, theirs) for i in range(3, ell)]
        layers.append({u: theirs.choice(top.codewords) for u in _window_plan(q, ell).keys})
        expected = InfoVecB(stdlib_info_a(q, theirs), tuple(layers))
        assert space.sample(ours) == expected
        assert ours.getstate() == theirs.getstate()


class _Bits:
    """A bare generator: getrandbits and nothing else."""

    def __init__(self, seed):
        self.getrandbits = random.Random(seed).getrandbits


class _CountingRandom(random.Random):
    """Keeps its own getrandbits, so _randbelow draws through it."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("q,ell", [(4, 3), (11, 2), (5, 3)])
def test_random_messages_need_only_getrandbits(q, ell):
    # any object with getrandbits serves; one backed by a seeded Random
    # gives that Random's message, and a subclass with its own getrandbits
    # sees the same calls the stdlib calls make
    assert random_info_b(q, ell, _Bits(11)) == random_info_b(q, ell, random.Random(11))
    ours, theirs = _CountingRandom(12), _CountingRandom(12)
    assert random_info_b(q, ell, ours) == stdlib_info_b(q, ell, theirs)
    assert ours.calls == theirs.calls > 0


def test_encode_b_window_two_delegates(repo):
    rng = random.Random(4)
    info = random_info_b(4, 2, rng)
    sv = encode_b(info, repo)
    assert sv.params == Params(4, 2)
    assert sv == encode_a(info.base, repo)


def test_scaled_vector_is_a_feasible_vector(repo):
    sv = encode_b(random_info_b(3, 3, random.Random(8)), repo)
    assert isinstance(sv, FeasibleVector)
    assert sv.to_feasible() is sv
    plain = FeasibleVector(sv.params, sv.entries)
    # dataclass equality compares the class too; the entries are what agree
    assert sv != plain and sv.entries == plain.entries
    assert decode_b(plain, repo) == decode_b(sv, repo)


def test_encode_b_outputs_validate(repo):
    rng = random.Random(5)
    for q, ell in ((3, 3), (3, 4), (4, 3)):
        for _ in range(15):
            sv = encode_b(random_info_b(q, ell, rng), repo)
            sv.to_feasible().check()


def test_encode_b_interior_preimages_follow_layer(repo):
    rng = random.Random(6)
    for _ in range(10):
        info = random_info_b(3, 3, rng)
        sv = encode_b(info, repo)
        for w in layer_domain(3, 3):
            vals = [sv.entries[word_index(v, 3)] for v in homo_preimages(w, 3)]
            ranks = [sorted(vals).index(v) for v in vals]
            assert tuple(ranks) == info.layers[0][w]


def test_encode_b_order_preservation_through_homomorphism(repo):
    rng = random.Random(7)
    for _ in range(10):
        info = random_info_b(3, 3, rng)
        prev = encode_b(InfoVecB(info.base, ()), repo)
        cur = encode_b(info, repo)
        q = 3
        for a in all_words(q, 3):
            for b in all_words(q, 3):
                ia, ib = word_index(homo_image(a, q), q), word_index(homo_image(b, q), q)
                if ia == ib:
                    continue
                ca, cb = cur.entries[word_index(a, q)], cur.entries[word_index(b, q)]
                assert (ca < cb) == (prev.entries[ia] < prev.entries[ib])


def test_decode_b_round_trip(repo):
    rng = random.Random(8)
    for q, ell in ((3, 3), (3, 4), (4, 3), (3, 2)):
        for _ in range(15):
            info = random_info_b(q, ell, rng)
            assert decode_b(encode_b(info, repo), repo) == info


def test_decode_b_rejects_tampering(repo):
    rng = random.Random(9)
    sv = encode_b(random_info_b(3, 3, rng), repo)
    entries = list(sv.entries)
    entries[0] += 1
    with pytest.raises(NotACodeword):
        decode_b(ScaledVector(sv.params, tuple(entries)), repo)


def test_decode_b_rejects_window_one(repo):
    # window length 1 has no alphabet part to read
    with pytest.raises(NotACodeword, match="window length"):
        decode_b(FeasibleVector(Params(3, 1), (1, 2, 3)), repo)


@pytest.mark.parametrize("q, ell", [(3, 2), (4, 3)])
def test_decoders_refuse_a_fractional_vector(repo, q, ell):
    # the codeword's entries over a denominator of 7: the numerators alone
    # are the codeword, so a decoder that reads only them accepts it
    codeword = encode_b(random_info_b(q, ell, random.Random(q)), repo)
    fractional = FeasibleVector(codeword.params, codeword.entries, 7)
    decoders = [decode_b, decode_a] if ell == 2 else [decode_b]
    for decode in decoders:
        with pytest.raises(NotACodeword, match="encoder outputs have integer entries"):
            decode(fractional, repo)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_decode_a_is_decode_b_at_window_two(repo, q):
    rng = random.Random(20 + q)
    for _ in range(10):
        info = random_info_b(q, 2, rng)
        vec = encode_b(info, repo)
        assert decode_a(vec, repo) == decode_b(vec, repo).base == info.base
        for _ in range(5):
            entries = list(vec.entries)
            entries[rng.randrange(len(entries))] += rng.choice((-2, -1, 1, 2, q))
            corrupted = ScaledVector(vec.params, tuple(entries))
            for decode in (decode_a, decode_b):
                with pytest.raises(NotACodeword):
                    decode(corrupted, repo)


def test_rank_level_injectivity_window(repo):
    rng = random.Random(10)
    seen = {}
    for _ in range(120):
        info = random_info_b(3, 3, rng)
        order = rank_of(encode_b(info, repo).entries, Params(3, 3)).order
        key = (info.base, tuple(sorted(info.layers[0].items())))
        if key in seen:
            continue
        assert order not in set(seen.values())
        seen[key] = order


# -- the window recursion against a per-word reference --------------------------
# The reference recomputes the adjacent-sum structure and every correction
# weight per word, the way the recursion is stated; the encoder reads the same
# data from a table built once per (q, i).

def _reference_lift(entries, layer, q, i):
    scale = q ** (q * q)
    out = [0] * (q**i)
    for v in all_words(q, i):
        w = homo_image(v, q)
        base = scale * 2 * entries[word_index(w, q)]
        head, tail = w[0], w[-1]
        mid = w[1:-1]
        v0 = v[0]
        delta = 0
        if head != 0 and tail != 0:
            delta = layer[w][v0] * q ** (q * q - (head + tail * q + 1))
        elif head == 0 and tail != 0:
            for mu in range(1, q):
                u = (mu,) + mid + (tail,)
                delta -= layer[u][(mu + v0) % q] * q ** (q * q - (mu + tail * q + 1))
        elif head != 0 and tail == 0:
            for tau in range(1, q):
                u = (head,) + mid + (tau,)
                delta -= layer[u][v0] * q ** (q * q - (head + tau * q + 1))
        else:
            for mu in range(1, q):
                for tau in range(1, q):
                    u = (mu,) + mid + (tau,)
                    delta += layer[u][(mu + v0) % q] * q ** (
                        q * q - (mu + tau * q + 1)
                    )
        out[word_index(v, q)] = base + delta
    return out


def _reference_encode_b(info, repo):
    q = info.q
    entries = encode_a(info.base, repo).entries
    for offset, layer in enumerate(info.layers):
        entries = _reference_lift(entries, layer, q, 3 + offset)
    return tuple(entries)


def _reference_decode_b(entries, q, ell, repo):
    scale = q ** (q * q)
    entries = list(entries)
    layers = []
    for i in range(ell, 2, -1):
        prev = [0] * (q ** (i - 1))
        layer = {}
        for u in all_words(q, i - 1):
            vals = [entries[word_index(v, q)] for v in homo_preimages(u, q)]
            halves = {(val + scale) // (2 * scale) for val in vals}
            assert len(halves) == 1
            prev[word_index(u, q)] = halves.pop()
            if u[0] != 0 and u[-1] != 0:
                assert len(set(vals)) == q
                order = sorted(range(q), key=lambda k: vals[k])
                ranks = [0] * q
                for pos, k in enumerate(order):
                    ranks[k] = pos
                layer[u] = tuple(ranks)
        layers.append(layer)
        entries = prev
    base = decode_a(FeasibleVector(Params(q, 2), tuple(entries)), repo)
    return InfoVecB(base, tuple(reversed(layers)))


@pytest.mark.parametrize(
    "q,ell,count",
    [(3, 3, 4), (3, 4, 4), (4, 3, 4), (4, 4, 3), (5, 3, 3), (5, 4, 2),
     (6, 3, 3), (6, 4, 1), (3, 5, 2)],
)
def test_window_recursion_matches_per_word_reference(repo, q, ell, count):
    rng = random.Random(1000 * q + ell)
    for _ in range(count):
        info = random_info_b(q, ell, rng)
        sv = encode_b(info, repo)
        assert sv.entries == _reference_encode_b(info, repo)
        decoded = decode_b(sv, repo)
        assert decoded == _reference_decode_b(sv.entries, q, ell, repo) == info


# -- the grouped lift against a term-by-term lift -------------------------------
# The term-by-term lift gives every word of length i its image's index and one
# (interior word, selector, weight) tuple per correction term, and sums them
# word by word.  The encoder's plan groups the same terms by their shape and
# reads them from one flat list of weighted layer values.

def _term_plan(q, i):
    weight = {
        (a, b): q ** (q * q - (a + b * q + 1)) for a in range(1, q) for b in range(1, q)
    }
    words = []
    for v in all_words(q, i):
        w = homo_image(v, q)
        head, tail = w[0], w[-1]
        mid = w[1:-1]
        v0 = v[0]
        if head != 0 and tail != 0:
            terms = [(w, v0, weight[head, tail])]
        elif head == 0 and tail != 0:
            terms = [
                ((mu,) + mid + (tail,), (mu + v0) % q, -weight[mu, tail])
                for mu in range(1, q)
            ]
        elif head != 0 and tail == 0:
            terms = [
                ((head,) + mid + (tau,), v0, -weight[head, tau]) for tau in range(1, q)
            ]
        else:
            terms = [
                ((mu,) + mid + (tau,), (mu + v0) % q, weight[mu, tau])
                for mu in range(1, q)
                for tau in range(1, q)
            ]
        words.append((word_index(w, q), terms))
    return words


def _term_lift(entries, layer, q, i):
    scale2 = 2 * q ** (q * q)
    return tuple(
        scale2 * entries[src] + sum(wt * layer[u][sel] for u, sel, wt in terms)
        for src, terms in _term_plan(q, i)
    )


LIFT_CLASSES = ((3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (5, 3))


@pytest.mark.parametrize("q,ell", LIFT_CLASSES)
def test_grouped_lift_matches_term_by_term_lift(repo, q, ell):
    rng = random.Random(50 * q + ell)
    for _ in range(4):
        info = random_info_b(q, ell, rng)
        entries = encode_a(info.base, repo).entries
        for offset, layer in enumerate(info.layers):
            i = 3 + offset
            lifted = _lift_layer(entries, layer, q, i)
            assert lifted == _term_lift(entries, layer, q, i)
            # the lift is linear: any entries, signs and sizes will do
            noise = [rng.randrange(-(2**80), 2**80) for _ in entries]
            assert _lift_layer(noise, layer, q, i) == _term_lift(noise, layer, q, i)
            entries = lifted
        assert encode_b(info, repo).entries == entries


def test_each_window_plan_is_built_once(repo):
    _window_plan.cache_clear()
    rng = random.Random(17)
    for q, ell in LIFT_CLASSES * 3:
        info = random_info_b(q, ell, rng)
        assert decode_b(encode_b(info, repo), repo) == info
    built = {(q, i) for q, ell in LIFT_CLASSES for i in range(3, ell + 1)}
    info = _window_plan.cache_info()
    assert info.misses == info.currsize == len(built) == 6


# sha256 over the vector text of encode_b for the seeded messages below: it
# pins the exact outputs of both recursions, which only the worked 4x4
# example above pins otherwise.
ENCODE_B_DIGEST = "c457a26e9cba1ccda4fcb51d9e5b5c910e5ac44efb383eb45deb76c43126bde6"
PINNED_CLASSES = (
    (3, 2, 40), (4, 2, 40), (5, 2, 30), (6, 2, 20),
    (3, 3, 20), (4, 3, 15), (3, 4, 10), (5, 3, 10), (4, 4, 5),
)


def test_encode_b_outputs_match_pinned_digest(repo):
    digest = hashlib.sha256()
    for q, ell, count in PINNED_CLASSES:
        rng = random.Random(100 * q + ell)
        for _ in range(count):
            digest.update(encode_b(random_info_b(q, ell, rng), repo).to_text().encode())
    assert digest.hexdigest() == ENCODE_B_DIGEST


@pytest.mark.parametrize("q, ell", [(4, 2), (5, 3)])
def test_each_stage_is_checked_once(repo, monkeypatch, q, ell):
    # encode_b checks its message once; decode_b's re-encode works on stages
    # that _shrink built valid and checks none
    checks = []
    check = StageA.check
    monkeypatch.setattr(StageA, "check", lambda stage: checks.append(stage) or check(stage))
    info = random_info_b(q, ell, random.Random(17))
    vec = encode_b(info, repo)
    assert checks == list(info.base.stages)
    checks.clear()
    assert decode_b(vec, repo) == info
    assert checks == []


def test_decode_b_rejects_every_unit_change_of_one_entry(repo):
    sv = encode_b(random_info_b(4, 3, random.Random(13)), repo)
    for idx in range(len(sv.entries)):
        for step in (-1, 1):
            entries = list(sv.entries)
            entries[idx] += step
            with pytest.raises(NotACodeword):
                decode_b(ScaledVector(sv.params, tuple(entries)), repo)


def test_decode_b_rejections_name_the_failed_check(repo):
    q = 4
    sv = encode_b(random_info_b(q, 3, random.Random(15)), repo)
    scale = q ** (q * q)
    pre = [word_index(v, q) for v in homo_preimages((1, 2), q)]  # an interior node

    def rejected(change, message):
        entries = list(sv.entries)
        change(entries)
        with pytest.raises(NotACodeword, match=message):
            decode_b(ScaledVector(sv.params, tuple(entries)), repo)

    rejected(lambda e: e.__setitem__(pre[0], e[pre[0]] + 2 * scale), "base value")
    rejected(lambda e: e.__setitem__(pre[0], e[pre[1]]), "distinct")
    rejected(lambda e: e.__setitem__(pre[0], e[pre[0]] + 1), "encoder output")


# -- calculators ---------------------------------------------------------------

def test_count_lower_bound_values():
    assert count_lower_bound(Params(3, 2)) == BASE_COUNT
    assert count_lower_bound(Params(3, 3)) == 30240 * 6**4
    assert count_lower_bound(Params(3, 3)) == 39191040
    assert count_lower_bound(Params(4, 2)) == 30240 * 24 * 715
    assert count_lower_bound(Params(4, 2)) == 30240 * math.factorial(4) * math.comb(13, 4)


def test_rate_lower_bound_spot_values():
    assert round(rate_lower_bound(Params(3, 3)), 4) == 0.0805
    assert round(rate_lower_bound(Params(5, 5)), 4) == 0.0944
    assert round(rate_lower_bound(Params(10, 10)), 4) == 0.0590


def test_length_bounds_window_two():
    b = length_bounds(Params(3, 2), 16)
    assert b.max_entry_pairs == 16
    assert b.length_pairs == 144
    b4 = length_bounds(Params(4, 2), 16)
    assert b4.max_entry_pairs == 640  # one unrolling of the 2q(q+1) recursion
    assert b4.length_pairs == 16 * 640


def test_length_bounds_window_three():
    b = length_bounds(Params(3, 3), 16)
    assert b.max_entry == 16 * 3 * 3**9
    assert b.length == Fraction(16 * 3 * 27**10, 18)


def test_encoder_outputs_within_length_bounds(repo):
    rng = random.Random(11)
    from profilerank.oracle import compute_c3

    c3 = compute_c3(repo)
    for q, ell in ((3, 2), (4, 2), (3, 3)):
        bounds = length_bounds(Params(q, ell), c3)
        for _ in range(10):
            sv = encode_b(random_info_b(q, ell, rng), repo)
            if ell == 2:
                assert max(sv.entries) <= bounds.max_entry_pairs
                assert sum(sv.entries) <= bounds.length_pairs
            else:
                assert max(sv.entries) <= bounds.max_entry
                assert sum(sv.entries) <= bounds.length


# -- repository and text formats ------------------------------------------------

@settings(max_examples=5, deadline=None)
@example(changes=[])
@given(
    st.lists(
        st.tuples(st.integers(0, BASE_COUNT - 1), st.integers(0, 8), st.integers(0, 255)),
        max_size=5,
    )
)
def test_repository_save_load_round_trip(repo, tmp_path_factory, changes):
    # The session repository with a few entries replaced by any natural
    # number a packed row holds.
    data = bytearray(repo.vectors.data)
    for row, col, value in changes:
        data[row * 9 + col] = value
    edited = Repository(PackedRows(data, 9))
    path = tmp_path_factory.mktemp("repo") / "repo.txt"
    edited.save(path)
    assert Repository.load(path) == edited


@pytest.mark.parametrize("value", [256, 2**70])
def test_repository_load_refuses_an_entry_above_a_byte(repo, tmp_path, value):
    path = tmp_path / "repo.txt"
    repo.save(path)
    lines = path.read_text().splitlines()[:-1]
    row = lines[3].split()
    row[4] = str(value)
    lines[3] = " ".join(row)
    _rewrite_with_trailer(path, lines)
    with pytest.raises(ValueError, match="line 4 has an entry above 255"):
        Repository.load(path)


@pytest.mark.parametrize(
    "respace",
    [
        lambda tokens: "  " + "\t ".join(tokens) + " ",
        lambda tokens: "  ".join(tokens),
        lambda tokens: " ".join(tokens) + " ",
        lambda tokens: " " + " ".join(tokens),
        lambda tokens: "\t".join(tokens),
        lambda tokens: " ".join(["0" + tokens[0]] + tokens[1:]),
    ],
    ids=["tabs", "double-spaced", "trailing-blank", "leading-blank", "tab-separated", "zero-padded"],
)
def test_repository_load_refuses_rows_save_never_writes(repo, tmp_path, respace):
    # the same nine naturals, written otherwise than save writes them, under
    # a fresh checksum
    path = tmp_path / "repo.txt"
    repo.save(path)
    lines = path.read_text().splitlines()[:-1]
    lines[1] = respace(lines[1].split())
    _rewrite_with_trailer(path, lines)
    with pytest.raises(ValueError, match="line 2 is not written as save writes a row"):
        Repository.load(path)
    # a row that is also wrong otherwise keeps its own diagnostic
    lines[1] = respace(["256"] + lines[2].split()[1:])
    _rewrite_with_trailer(path, lines)
    with pytest.raises(ValueError, match="line 2 has an entry above 255"):
        Repository.load(path)


def test_repository_save_matches_its_rows(repo, tmp_path):
    # the streamed file: header, one line per row, then the sha256 of both
    path = tmp_path / "repo.txt"
    repo.save(path)
    text = path.read_text()
    body, trailer = text[: text.rindex("sha256=")], text.splitlines()[-1]
    assert body == f"f32={BASE_COUNT}\n" + "".join(
        " ".join(map(str, vec)) + "\n" for vec in repo.vectors
    )
    assert trailer == "sha256=" + hashlib.sha256(body.encode()).hexdigest()


def test_repository_validate_refuses_swapped_rows(repo, tmp_path):
    # two rows swapped under a fresh checksum: every row is still a
    # realizable vector, but rows 2 and 3 no longer realize the 2nd and 3rd
    # orders, which the encoders rely on
    path = tmp_path / "repo.txt"
    repo.save(path)
    lines = path.read_text().splitlines()[:-1]
    lines[2], lines[3] = lines[3], lines[2]
    _rewrite_with_trailer(path, lines)
    swapped = Repository.load(path)
    with pytest.raises(ValueError, match="entry 3 does not realize a later rank order"):
        swapped.validate()


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda vec: vec[:4] + vec[:1] + vec[5:], "pairwise distinct"),
        (lambda vec: [0 if e == min(vec) else e for e in vec], "all be >= 1"),
        (lambda vec: vec[:1] + [vec[1] + 100] + vec[2:], "flow violated at node 0"),
    ],
    ids=["tie", "zero", "unbalanced"],
)
def test_repository_validate_names_the_entry_at_fault(repo, tmp_path, mutate, message):
    # entry 5 with a tie (the loop words 00 and 11, so it stays balanced), a
    # zero, or out of balance (word 01 leaves node 0), under a fresh
    # checksum: the file loads, and validate names the entry
    path = tmp_path / "repo.txt"
    repo.save(path)
    lines = path.read_text().splitlines()[:-1]
    lines[5] = " ".join(map(str, mutate(list(repo.vector(5)))))
    _rewrite_with_trailer(path, lines)
    broken = Repository.load(path)
    with pytest.raises(ValueError, match=f"^repository entry 5: .*{message}"):
        broken.validate()


@pytest.mark.parametrize(
    "zeroed, message",
    [
        (5, "repository entry 5: entries must all be >= 1"),
        (7, "repository entry 7: entries must all be >= 1"),
        (8, "repository entry 7 does not realize a later rank order than entry 6"),
    ],
)
def test_repository_validate_names_the_first_entry_at_fault(repo, tmp_path, zeroed, message):
    # entries 6 and 7 swapped, so entry 7's order is not above entry 6's,
    # and one entry zeroed in its rank order: validate names the first entry
    # at fault, and for one entry its vector before its order
    path = tmp_path / "repo.txt"
    repo.save(path)
    lines = path.read_text().splitlines()[:-1]
    lines[6], lines[7] = lines[7], lines[6]
    vec = list(map(int, lines[zeroed].split()))
    lines[zeroed] = " ".join(str(0 if e == min(vec) else e) for e in vec)
    _rewrite_with_trailer(path, lines)
    broken = Repository.load(path)
    with pytest.raises(ValueError, match=f"^{message}$"):
        broken.validate()


def test_repository_load_rejects_corruption(repo, tmp_path):
    path = tmp_path / "repo.txt"
    repo.save(path)
    lines = path.read_text().splitlines()
    lines[5] = "9 9 9 9 9 9 9 9 9"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        Repository.load(path)


def _rewrite_with_trailer(path, rows):
    """Write repository rows under a freshly computed sha256 trailer."""
    body = "\n".join(rows) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    path.write_text(body + f"sha256={digest}\n")


def test_repository_load_rejects_wrong_row_width(repo, tmp_path):
    path = tmp_path / "repo.txt"
    repo.save(path)
    lines = path.read_text().splitlines()[:-1]
    lines[1] = " ".join(lines[1].split()[:7])
    _rewrite_with_trailer(path, lines)
    with pytest.raises(ValueError, match="7 entries"):
        Repository.load(path)


@pytest.mark.parametrize("token", ["1_0", "+2", "\uff13", "-4", "5.0"])
def test_repository_load_takes_ascii_digits_only(repo, tmp_path, token):
    # int() would read each of these tokens as a number
    path = tmp_path / "repo.txt"
    repo.save(path)
    lines = path.read_text().splitlines()[:-1]
    row = lines[1].split()
    row[2] = token
    lines[1] = " ".join(row)
    _rewrite_with_trailer(path, lines)
    with pytest.raises(ValueError, match="repository entry"):
        Repository.load(path)


def test_repository_load_rejects_wrong_row_count(repo, tmp_path):
    path = tmp_path / "repo.txt"
    repo.save(path)
    lines = path.read_text().splitlines()[:-1]
    _rewrite_with_trailer(path, lines[:-1])
    with pytest.raises(ValueError):
        Repository.load(path)


def test_repository_index_lookup(repo):
    assert repo.index_of(EQ3) == 61
    with pytest.raises(NotACodeword):
        repo.index_of((1, 2, 3, 4, 5, 6, 7, 8, 9))


def test_repository_index_of_inverts_vector(repo):
    assert all(repo.index_of(repo.vector(i)) == i for i in range(1, BASE_COUNT + 1))
    first = repo.vector(1)
    for entries in [
        first[:8],  # too short
        first + (0,),  # too long
        first[:8] + (first[8] + 256,),  # agrees with a row modulo 256
        (0,) + first[1:],  # no row has an entry 0
        tuple(map(Fraction, first[:8])) + (Fraction(1, 2),),
    ]:
        with pytest.raises(NotACodeword):
            repo.index_of(entries)


def test_info_text_round_trips():
    rng = random.Random(12)
    info_a = random_info_a(5, rng)
    assert info_a_from_text(info_a_to_text(info_a)) == info_a
    info_b = random_info_b(3, 4, rng)
    assert info_b_from_text(info_b_to_text(info_b)) == info_b


def test_info_validation_rejects_malformed():
    with pytest.raises(ValueError):
        InfoVecA(0).check()
    with pytest.raises(ValueError):
        InfoVecA(1, (StageA((1, 2, 3), (1, 1, 1, 0, 0, 0, 0)),)).check()
    with pytest.raises(ValueError):
        InfoVecB(InfoVecA(1), ({(1, 1): (0, 1, 2)},)).check()


@st.composite
def _messages_a(draw, q):
    stages = []
    for j in range(4, q + 1):
        pi = tuple(draw(st.permutations(range(1, j + 1))))
        ones = draw(st.sets(st.integers(0, j * j - j), min_size=j, max_size=j))
        stages.append(StageA(pi, tuple(int(k in ones) for k in range(j * j - j + 1))))
    return InfoVecA(draw(st.integers(1, BASE_COUNT)), tuple(stages))


@st.composite
def _messages_b(draw):
    q = draw(st.integers(3, 5))
    ell = draw(st.integers(2, 4))
    base = draw(_messages_a(q))
    layers = tuple(
        {u: tuple(draw(st.permutations(range(q)))) for u in layer_domain(q, i)}
        for i in range(3, ell + 1)
    )
    return InfoVecB(base, layers)


@settings(max_examples=60, deadline=None)
@given(_messages_b())
def test_info_b_text_round_trip_property(info):
    assert info_b_from_text(info_b_to_text(info)) == info


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 6).flatmap(_messages_a))
def test_info_a_text_round_trip_property(info):
    assert info_a_from_text(info_a_to_text(info)) == info


_GOOD_B = "q=3 ell=3\nbase=7\nP(11)=0,1,2\nP(12)=2,1,0\nP(21)=1,0,2\nP(22)=0,2,1\n"


def test_info_b_reader_accepts_the_reference_message():
    info = info_b_from_text(_GOOD_B)
    assert info.base == InfoVecA(7) and info.layers[0][(1, 2)] == (2, 1, 0)
    assert info_b_to_text(info) == _GOOD_B


@pytest.mark.parametrize(
    "text",
    [
        "",
        "q=3\n",  # header only
        "q=3\n5\n",  # base line without base=
        "q=3\nbase=1_0\n",
        "q=3\nbase=+5\n",
        "q=3\nbase=5 \nbase=6\n",
        "q=\u0663\nbase=5\n",  # a non-ASCII digit
        "q=4\nbase=5\n",  # stage missing
        "q=4\nbase=5\npi=1,,2,3,4 t=0011110000000\n",
        "q=4\nbase=5\npi=1,2,3,4, t=0011110000000\n",
        "q=4\nbase=5\npi=1,2,3,4 t=0011110000002\n",
    ],
)
def test_info_a_reader_rejects_malformed(text):
    with pytest.raises(ValueError):
        info_a_from_text(text)


@pytest.mark.parametrize(
    "text",
    [
        "q=3 ell=3\n",  # header only
        "q=3 ell=2\nbase=7\nP(11)=0,1,2\n",  # layer line with no layer
        "q=3 ell=1\nbase=7\n",
        "q=3 ell=1000000\nbase=7\nP(11)=0,1,2\n",  # more layers than lines
        "q=3 ell=3\n7\nP(11)=0,1,2\nP(12)=2,1,0\nP(21)=1,0,2\nP(22)=0,2,1\n",
        _GOOD_B + "P(22)=1,2,0\n",  # repeated line, last would win
        _GOOD_B.replace("P(22)=0,2,1", "P(22)=0,2,1,"),
        _GOOD_B.replace("P(22)", "P(2_2)"),
        _GOOD_B.replace("P(22)", "P(222)"),
        _GOOD_B.replace("P(22)", "P(2)"),
        _GOOD_B.replace("P(22)=0,2,1\n", ""),  # missing interior word
        _GOOD_B.replace("P(22)", "P(23)"),  # symbol out of range
        _GOOD_B.replace("P(22)=0,2,1", "P(22)=0,2,2"),
    ],
)
def test_info_b_reader_rejects_malformed(text):
    with pytest.raises(ValueError):
        info_b_from_text(text)
