import random
from fractions import Fraction

import pytest

from profilerank.core import (
    Params,
    ProfileVector,
    RankPermutation,
    TieError,
    all_words,
    fan_out,
    homo_image,
    homo_preimages,
    index_to_word,
    is_constant,
    is_edge,
    is_flow_conserving,
    first_flow_violation,
    neighborhood,
    profile_of,
    rank_of,
    rotate,
    satisfies,
    split_range,
    word_index,
    word_text,
)

P32 = Params(3, 2)

# 45-symbol storage string from the worked channel example, letters by position.
CHANNEL_STRING = "AGGGGGGGGGGCGCGCGCGCGCGCGAGAGAGAGCCCCCCCACACA".translate(
    str.maketrans("ACG", "012")
)
CHANNEL_PROFILE = (1, 2, 5, 3, 6, 7, 4, 8, 9)
CHANNEL_ORDER = "00,01,10,20,02,11,12,21,22"


def test_word_index_round_trip():
    for q, length in ((2, 3), (3, 2), (4, 1), (3, 4)):
        for i, w in enumerate(all_words(q, length)):
            assert word_index(w, q) == i
            assert index_to_word(i, q, length) == w


def test_word_index_rejects_out_of_range_symbol():
    with pytest.raises(ValueError):
        word_index((0, 3), 3)


def test_profile_of_channel_string():
    p = profile_of(CHANNEL_STRING, P32)
    assert len(CHANNEL_STRING) == 45
    assert p.counts == CHANNEL_PROFILE
    assert p.total() == 45


def test_profile_of_doubled_string_matches_storage_counts():
    p = profile_of(CHANNEL_STRING * 2, P32)
    assert p.counts == tuple(2 * c for c in CHANNEL_PROFILE)
    assert p.counts == (2, 4, 10, 6, 12, 14, 8, 16, 18)


def test_profile_of_constant_string():
    p = profile_of("000", P32)
    assert p[(0, 0)] == 3
    assert sum(p.counts) == 3


def test_profile_of_cycle_counts_rotations():
    p = profile_of("012", Params(3, 3))
    assert p[(0, 1, 2)] == 1
    assert p[(1, 2, 0)] == 1
    assert p[(2, 0, 1)] == 1
    assert p.total() == 3


def test_profile_rotation_invariance():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(1, 30)
        x = tuple(rng.randrange(3) for _ in range(n))
        p = profile_of(x, P32)
        for k in range(n):
            assert profile_of(rotate(x, k), P32).counts == p.counts


def test_profile_rejects_bad_symbol():
    with pytest.raises(ValueError):
        profile_of("013", P32)


def _reference_profile(symbols, params):
    """Window counts by direct per-position indexing."""
    q, ell = params.q, params.ell
    n = len(symbols)
    counts = [0] * params.word_count
    for i in range(n):
        counts[word_index(tuple(symbols[(i + j) % n] for j in range(ell)), q)] += 1
    return tuple(counts)


@pytest.mark.parametrize(
    "params",
    [Params(2, 1), Params(3, 2), Params(5, 2), Params(2, 5), Params(4, 3),
     Params(6, 3), Params(16, 2), Params(4, 4), Params(17, 2), Params(3, 6)],
)
def test_profile_of_matches_reference_on_all_input_forms(params):
    # q^ell runs both below and above 256, so both counting paths are covered
    rng = random.Random(params.q * 100 + params.ell)
    for n in (1, 2, params.ell - 1, params.ell, params.ell + 1, 57, 300):
        if n < 1:
            continue
        x = [rng.randrange(params.q) for _ in range(n)]
        want = _reference_profile(x, params)
        assert profile_of(x, params).counts == want
        assert profile_of(tuple(x), params).counts == want
        assert profile_of(bytes(x), params).counts == want
        assert profile_of(bytearray(x), params).counts == want
        if params.q <= 10:
            assert profile_of("".join(map(str, x)), params).counts == want


@pytest.mark.parametrize(
    "bad",
    [bytes([0, 3]), [0, 3], "03", "0 1", "0a", bytes([0, 255]), [0, -1], b"", "", []],
)
def test_profile_of_rejects_out_of_range_and_empty(bad):
    with pytest.raises(ValueError):
        profile_of(bad, Params(3, 2))


def test_profile_of_large_alphabet_rejects_bad_symbols():
    with pytest.raises(ValueError):
        profile_of([0, 17], Params(17, 2))
    with pytest.raises(ValueError):
        profile_of(b"", Params(17, 2))


def test_flow_conservation_of_string_profiles():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 40)
        x = tuple(rng.randrange(3) for _ in range(n))
        assert is_flow_conserving(profile_of(x, P32))
        assert is_flow_conserving(profile_of(x, Params(3, 3)))


def test_flow_violation_witness():
    # Both nodes are unbalanced here; the contract picks the first in
    # lexicographic order.
    p = ProfileVector(Params(2, 2), (1, 2, 1, 0))
    assert first_flow_violation(p) == (0,)
    assert not is_flow_conserving(p)
    only12 = ProfileVector(P32, (0, 0, 0, 0, 0, 1, 0, 0, 0))
    assert first_flow_violation(only12) == (1,)


def test_flow_violation_on_bare_entries():
    p = ProfileVector(Params(2, 2), (1, 2, 1, 0))
    assert first_flow_violation(p.counts, p.params) == (0,)
    halves = tuple(Fraction(c, 2) for c in CHANNEL_PROFILE)
    assert first_flow_violation(halves, P32) is None
    with pytest.raises(ValueError):
        first_flow_violation(p.counts)
    with pytest.raises(ValueError):
        first_flow_violation(p.counts[:3], p.params)


def test_flow_check_rejects_window_one():
    with pytest.raises(ValueError):
        first_flow_violation(ProfileVector(Params(3, 1), (1, 2, 3)))


def test_flow_conserving_worked_matrix():
    assert is_flow_conserving(ProfileVector(P32, CHANNEL_PROFILE))


def test_satisfies_channel_output_vector():
    perm = RankPermutation.from_text(CHANNEL_ORDER)
    assert satisfies((2, 4, 10, 6, 13, 14, 8, 16, 17), perm)
    assert satisfies(ProfileVector(P32, CHANNEL_PROFILE), perm)


def test_satisfies_is_false_on_ties():
    perm = RankPermutation.from_text(CHANNEL_ORDER)
    assert not satisfies((1, 1, 2, 3, 4, 5, 6, 7, 8), perm)


def test_rank_of_matches_satisfies():
    rng = random.Random(2)
    for _ in range(50):
        vals = rng.sample(range(100), 9)
        perm = rank_of(vals, P32)
        assert satisfies(vals, perm)


def test_rank_of_channel_profile():
    assert rank_of(ProfileVector(P32, CHANNEL_PROFILE)).to_text() == CHANNEL_ORDER


def test_rank_of_identity_vector():
    perm = rank_of(tuple(range(1, 10)), P32)
    assert perm.order == tuple(range(9))


def test_rank_of_raises_on_tie_with_words():
    with pytest.raises(TieError) as err:
        rank_of((1, 2, 2, 3, 4, 5, 6, 7, 8), P32)
    assert ((0, 1), (0, 2)) in err.value.groups


def test_homo_image_examples():
    assert homo_image((0, 1, 0), 3) == (1, 1)
    assert homo_image((0, 2, 1), 3) == (2, 0)


def test_homo_preimages_worked_sets():
    assert sorted(homo_preimages((1, 1), 3)) == [(0, 1, 0), (1, 0, 1), (2, 2, 2)]
    assert sorted(homo_preimages((2, 0), 3)) == [(0, 2, 1), (1, 1, 2), (2, 0, 0)]


def test_homo_preimages_structure():
    for q in (2, 3, 4):
        for u in all_words(q, 2):
            pres = homo_preimages(u, q)
            assert len(pres) == q
            assert [v[0] for v in pres] == list(range(q))
            assert all(homo_image(v, q) == u for v in pres)
            assert len(set(pres)) == q


def test_homo_is_q_to_one_onto():
    q = 3
    images = {}
    for v in all_words(q, 3):
        images.setdefault(homo_image(v, q), []).append(v)
    assert len(images) == 9
    assert all(len(g) == 3 for g in images.values())


def test_homo_preserves_edges():
    for m in (2, 3, 4):
        q = 3
        for a in all_words(q, m):
            for s in range(q):
                b = a[1:] + (s,)
                assert is_edge(a, b)
                assert is_edge(homo_image(a, q), homo_image(b, q))


def test_neighborhood_disjoint_lists():
    ins, outs = neighborhood((0, 1), 3)
    assert ins == [(0, 0, 1), (1, 0, 1), (2, 0, 1)]
    assert outs == [(0, 1, 0), (0, 1, 1), (0, 1, 2)]
    assert not set(ins) & set(outs)


def test_neighborhood_rejects_constant():
    with pytest.raises(ValueError):
        neighborhood((1,), 3)
    with pytest.raises(ValueError):
        neighborhood((2, 2), 3)
    assert all(is_constant(v) for v in all_words(3, 1))


def test_relabel_keeps_rank_structure():
    perm = RankPermutation.from_text(CHANNEL_ORDER)
    swapped = perm.relabel((1, 0, 2))
    assert swapped.word_at_rank(1) == (1, 1)
    assert sorted(swapped.order) == list(range(9))


def test_profile_text_round_trip():
    p = ProfileVector(P32, CHANNEL_PROFILE)
    assert ProfileVector.from_text(p.to_text()).counts == p.counts
    assert p.to_text().splitlines()[0] == "q=3 ell=2"


def test_perm_text_round_trip():
    perm = RankPermutation.from_text(CHANNEL_ORDER)
    assert RankPermutation.from_text(perm.to_text()).order == perm.order


@pytest.mark.parametrize(
    "text, params",
    [("00,1,10,11", None), ("00,01,10,111", None), ("0,1", Params(2, 2))],
)
def test_perm_text_rejects_ragged_words(text, params):
    # "00,1,10,11" used to be read as 00,01,10,11
    with pytest.raises(ValueError, match="does not have length"):
        RankPermutation.from_text(text, params)


@pytest.mark.parametrize("total", [0, 1, 7, 362880])
@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_split_range_covers_in_order(total, jobs):
    pieces = split_range(total, jobs)
    assert [i for piece in pieces for i in piece] == list(range(total))
    assert all(len(piece) > 0 for piece in pieces)
    if jobs == 1:
        assert len(pieces) == min(total, 1)


@pytest.mark.parametrize("jobs", [1, 2])
def test_fan_out_keeps_task_order(jobs):
    tasks = [-5, 3, -1, 0, 8, -2, 7]
    assert fan_out(abs, tasks, jobs) == [5, 3, 1, 0, 8, 2, 7]
    assert fan_out(abs, [], jobs) == []


@pytest.mark.parametrize("jobs", [0, -1])
def test_fan_out_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs"):
        fan_out(abs, [1, 2], jobs)
    with pytest.raises(ValueError, match="jobs"):
        split_range(10, jobs)


def test_word_text_limited_to_ten_symbols():
    with pytest.raises(ValueError):
        word_text((11, 0))
