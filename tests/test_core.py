import random
import time
import tracemalloc
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from profilerank import core
from profilerank.core import (
    PackedRows,
    Params,
    ProfileVector,
    RankPermutation,
    TieError,
    all_words,
    edge_nodes,
    homo_image,
    homo_preimages,
    index_to_word,
    is_constant,
    first_flow_violation,
    profile_of,
    rank_of,
    relabeling,
    satisfies,
    word_index,
    word_symmetries,
    word_text,
)

P32 = Params(3, 2)


def rotate(w, k):
    """Reference: the cyclic shift of ``w`` that starts at position k."""
    k %= len(w)
    return w[k:] + w[:k]


def is_edge(a, b):
    """Reference edge test: the tail of ``a`` overlaps the head of ``b``."""
    return len(a) == len(b) >= 1 and a[1:] == b[:-1]


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


def test_profile_of_matches_reference_on_every_byte_sized_word_set():
    # every (q, ell) with q^ell <= 256 counts on the bit planes, and the
    # profile equals the per-window count
    rng = random.Random(12)
    for ell in range(1, 9):
        for q in range(2, int(256 ** (1 / ell) + 1e-9) + 1):
            params = Params(q, ell)
            lengths = [*range(1, ell + 3), *(rng.randint(1, 400) for _ in range(3))]
            for n in lengths:
                x = [rng.randrange(q) for _ in range(n)]
                assert profile_of(bytes(x), params).counts == _reference_profile(x, params)
            if q < 256:  # a symbol of 256 or more is no byte
                with pytest.raises(ValueError, match=f"^symbol {q} out of range for q={q}$"):
                    profile_of([0, q, 1], params)


# (q, ell) classes of each block width k of the plane path, at ell >= 2 where q allows
PLANE_CLASSES = {5: [(2, 2), (2, 8), (3, 2), (3, 5)], 4: [(4, 2), (4, 4)],
                 3: [(5, 2), (6, 2), (6, 3)], 2: [(7, 2), (16, 2)],
                 1: [(q, 1) for q in range(17, 257)]}


def _random_symbols(q, n, rng, zeros=0.0):
    """n symbols below q, each 0 with probability ``zeros`` and uniform
    otherwise."""
    return bytes(0 if rng.random() < zeros else rng.randrange(q) for _ in range(n))


def test_plane_path_matches_reference_at_every_block_width():
    # lengths of every residue mod k and below ell, constant strings of each
    # symbol (of the first and last symbol only between q = 18 and 255, to
    # keep the test short), zero-heavy strings and one string of 10^5
    # symbols per k; the translation tables are built once per alphabet
    core._plane_tables.cache_clear()
    rng = random.Random(14)
    for k, classes in PLANE_CLASSES.items():
        for q, ell in classes:
            params = Params(q, ell)
            assert core._plane_tables(q)[0] == k
            lengths = {*range(1, ell), *(3 * k + r for r in range(k)), 50 + rng.randrange(k)}
            strings = [_random_symbols(q, n, rng, zeros) for n in lengths for zeros in (0, 0.9)]
            constant = range(q) if q <= 17 or q == 256 else (0, q - 1)
            strings += [bytes([a]) * n for a in constant for n in (1, ell + k)]
            for x in strings:
                assert profile_of(x, params).counts == _reference_profile(x, params)
        q, ell = classes[0]
        x = _random_symbols(q, 10**5 + 1, rng, zeros=0.5)
        assert profile_of(x, Params(q, ell)).counts == _reference_profile(x, Params(q, ell))
    info = core._plane_tables.cache_info()
    alphabets = {q for classes in PLANE_CLASSES.values() for q, _ in classes}
    assert info.misses == info.currsize == len(alphabets)


@pytest.mark.parametrize("params", [Params(2, 8), Params(4, 4), Params(5, 2), Params(16, 2)])
def test_profile_of_peak_memory_stays_below_four_bytes_a_symbol(params):
    # the prefix walk is depth first: at most q + ell + 1 plane-sized
    # integers are alive at once
    n = 2 * 10**6
    x = random.Random(params.q).randbytes(n).translate(bytes(b % params.q for b in range(256)))
    profile_of(x[:100], params)  # build the cached tables and plan first
    tracemalloc.start()
    try:
        profile_of(x, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: ProfileVector.from_text("q=3 ell=3000000\n0 1\n"),
        lambda: ProfileVector.from_text("q=2 ell=5000\n" + "0 1\n" * 64),
        lambda: profile_of("01", Params(2, 40)),
        lambda: profile_of("01", Params(3, 3000000)),
    ],
    ids=["text-q3-l3000000", "text-q2-l5000", "profile-q2-l40", "profile-q3-l3000000"],
)
def test_huge_window_lengths_fail_fast_with_a_short_error(call):
    # ell is compared before q^ell is computed, and q^ell is never rendered
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        call()
    assert time.perf_counter() - start < 1
    assert len(str(err.value)) < 80 and "\n" not in str(err.value)


def test_flow_conservation_of_string_profiles():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 40)
        x = tuple(rng.randrange(3) for _ in range(n))
        assert first_flow_violation(profile_of(x, P32)) is None
        assert first_flow_violation(profile_of(x, Params(3, 3))) is None


def test_flow_violation_witness():
    # Both nodes are unbalanced here; the contract picks the first in
    # lexicographic order.
    p = ProfileVector(Params(2, 2), (1, 2, 1, 0))
    assert first_flow_violation(p) == (0,)
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
    assert first_flow_violation(ProfileVector(P32, CHANNEL_PROFILE)) is None


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
    assert str(err.value) == "tied entries: {01,02}"


def test_rank_of_raises_tie_error_above_ten_symbols():
    # the message renders symbols above 9 without the digit-string writer
    with pytest.raises(TieError) as err:
        rank_of((5, 1, 2, 3, 4, 6, 7, 8, 9, 11, 5), Params(11, 1))
    assert err.value.groups == (((0,), (10,)),)
    assert str(err.value) == "tied entries: {0,(10)}"


def test_lookups_reject_a_word_of_the_wrong_length():
    p = profile_of("0120", P32)
    perm = rank_of(ProfileVector(P32, CHANNEL_PROFILE))
    for w in ((1,), (0, 0, 1), ()):
        with pytest.raises(ValueError, match="does not have length 2"):
            p[w]
        with pytest.raises(ValueError, match="does not have length 2"):
            perm.rank(w)
        with pytest.raises(ValueError, match="does not have length 2"):
            RankPermutation.from_words(P32, [w, *perm.words_in_order()[1:]])
    assert p[(0, 1)] == 1 and perm.rank((0, 2)) == 5


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


@pytest.mark.parametrize("q, ell", [(2, 1), (3, 1), (3, 2), (2, 3), (4, 3), (3, 4)])
def test_edge_nodes_are_prefix_and_suffix(q, ell):
    heads, tails = edge_nodes(Params(q, ell))
    for idx, w in enumerate(all_words(q, ell)):
        assert heads[idx] == word_index(w[:-1], q)
        assert tails[idx] == word_index(w[1:], q)


def test_is_constant_words():
    assert all(is_constant(v) for v in all_words(3, 1))
    assert is_constant((2, 2)) and is_constant(())
    assert not is_constant((0, 1)) and not is_constant((1, 1, 0))


def test_relabel_keeps_rank_structure():
    perm = RankPermutation.from_text(CHANNEL_ORDER)
    image = relabeling(perm.params, (1, 0, 2))
    swapped = RankPermutation(perm.params, tuple(map(image.__getitem__, perm.order)))
    assert swapped.word_at_rank(1) == (1, 1)
    assert sorted(swapped.order) == list(range(9))


def test_word_at_rank_rejects_ranks_outside_one_to_n():
    perm = RankPermutation.from_text(CHANNEL_ORDER)
    assert perm.word_at_rank(1) == (0, 0)
    assert perm.word_at_rank(9) == (2, 2)
    for r in (0, -1, 10):
        with pytest.raises(ValueError, match=f"rank {r} out of range 1..9"):
            perm.word_at_rank(r)


@pytest.mark.parametrize("q, ell", [(2, 1), (5, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
def test_word_symmetries_are_relabelings_and_reversals(q, ell):
    params = Params(q, ell)
    words = list(params.words())
    maps = list(word_symmetries(params))
    expected = {
        tuple(word_index(tuple(sigma[s] for s in w[::step]), q) for w in words)
        for sigma in permutations(range(q))
        for step in (1, -1)  # at ell = 1 both give the same map
    }
    assert maps[0] == tuple(range(len(words)))
    assert len(maps) == len(set(maps)) == factorial(q) * min(ell, 2)
    assert set(maps) == expected


@pytest.mark.parametrize("q, ell", [(3, 2), (2, 3), (3, 3)])
def test_word_symmetries_map_profiles_onto_profiles(q, ell):
    # the image of a string under a relabeling, read forwards or backwards,
    # has g's image of the string's profile: so g keeps realizability
    params = Params(q, ell)
    rng = random.Random(q * 10 + ell)
    maps = list(word_symmetries(params))
    for sigma, g, g_reversed in zip(permutations(range(q)), maps[::2], maps[1::2]):
        for _ in range(5):
            x = tuple(rng.randrange(q) for _ in range(rng.randint(1, 40)))
            counts = profile_of(x, params).counts
            relabeled = tuple(sigma[s] for s in x)
            for image, h in ((relabeled, g), (relabeled[::-1], g_reversed)):
                moved = profile_of(image, params).counts
                assert all(moved[h[i]] == c for i, c in enumerate(counts))


def test_profile_text_round_trip():
    p = ProfileVector(P32, CHANNEL_PROFILE)
    assert ProfileVector.from_text(p.to_text()).counts == p.counts
    assert p.to_text().splitlines()[0] == "q=3 ell=2"


def test_perm_text_round_trip():
    perm = RankPermutation.from_text(CHANNEL_ORDER)
    assert RankPermutation.from_text(perm.to_text()).order == perm.order


@pytest.mark.parametrize("params", [P32, Params(2, 2), Params(2, 3)])
def test_rank_permutation_must_list_every_index_once(params):
    n = params.word_count
    assert RankPermutation(params, tuple(reversed(range(n)))).order[0] == n - 1
    for order in (
        (0,) + tuple(range(1, n - 1)) + (0,),  # one index twice, one missing
        tuple(range(1, n + 1)),  # out of range
        tuple(range(n - 1)),  # too short
        tuple(range(n)) + (0,),  # too long
    ):
        with pytest.raises(ValueError, match="exactly once"):
            RankPermutation(params, order)


_PARAMS = st.builds(Params, st.integers(2, 5), st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_profile_text_round_trip_property(data):
    params = data.draw(_PARAMS)
    n = params.word_count
    counts = data.draw(st.lists(st.integers(0, 2**70), min_size=n, max_size=n))
    p = ProfileVector(params, tuple(counts))
    assert ProfileVector.from_text(p.to_text()) == p


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_perm_text_round_trip_property(data):
    params = data.draw(_PARAMS)
    order = tuple(data.draw(st.permutations(range(params.word_count))))
    perm = RankPermutation(params, order)
    assert RankPermutation.from_text(perm.to_text()) == perm


@pytest.mark.parametrize("text", ["00,1,10,11", "00,01,10,111"])
def test_perm_text_rejects_ragged_words(text):
    # "00,1,10,11" used to be read as 00,01,10,11
    with pytest.raises(ValueError, match="does not have length"):
        RankPermutation.from_text(text)


def test_word_text_limited_to_ten_symbols():
    with pytest.raises(ValueError):
        word_text((11, 0))


# -- packed rows -------------------------------------------------------------

ROWS = ((3, 0, 2), (0, 1, 255), (3, 0, 1), (0, 1, 255), (7, 7, 7))


def packed(rows, width=3):
    return PackedRows(bytes(e for row in rows for e in row), width)


def test_packed_rows_read_back_as_the_tuple_of_their_rows():
    table = packed(ROWS)
    assert len(table) == 5 and table.width == 3
    assert list(table) == list(ROWS) and tuple(table) == ROWS
    assert table == ROWS and ROWS == table and table != ROWS[:-1]
    assert table != ROWS[:-1] + ((7, 7, 6),) and table != list(ROWS)
    assert hash(table) == hash(ROWS)
    for k in range(-5, 5):
        assert table[k] == ROWS[k]
    for bad in (5, -6):
        with pytest.raises(IndexError):
            table[bad]
    assert packed((), 2) == () == packed((), 3)
    assert eval(repr(table), {"PackedRows": PackedRows}) == table


def test_packed_rows_compare_as_bytes_like_tuples():
    rng = random.Random(3)
    rows = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(200)]
    table = packed(sorted(rows))
    assert list(table) == sorted(rows)
    assert sorted(bytes(row) for row in rows) == [bytes(row) for row in sorted(rows)]


@pytest.mark.parametrize("width", [1, 2, 8, 9, 10, 17])
def test_packed_rows_index_finds_the_first_equal_row(width):
    rng = random.Random(width)
    rows = [tuple(rng.choice((0, 1, 254, 255)) for _ in range(width)) for _ in range(300)]
    table = packed(rows, width)
    for row in rows:
        assert table.index(row) == rows.index(row) and row in table
        assert table.index(list(row)) == table.index(bytes(row)) == rows.index(row)
    assert table.index(iter(rows[5])) == rows.index(rows[5])
    drawn = {tuple(rng.randrange(256) for _ in range(width)) for _ in range(50)}
    absent = [row for row in drawn if row not in rows] + [
        rows[0][:-1],
        rows[0] + (0,),
        (256,) + rows[0][1:],
        (-1,) + rows[0][1:],
        (Fraction(1, 2),) * width,
        width,
        "a" * width,
        None,
    ]
    for row in absent:
        assert row not in table
        with pytest.raises(ValueError):
            table.index(row)


def test_packed_rows_refuse_a_blob_of_another_width():
    with pytest.raises(ValueError, match="width 3"):
        PackedRows(bytes(4), 3)
    with pytest.raises(ValueError):
        PackedRows(b"", 0)
