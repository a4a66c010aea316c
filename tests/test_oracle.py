import random
from itertools import permutations

import pytest

from profilerank.core import (
    Params,
    RankPermutation,
    edge_nodes,
    profile_of,
    rank_of,
    word_index,
)
from profilerank.feasibility import order_precheck_witness
from profilerank.oracle import (
    compute_c3,
    enumerate_feasible,
    min_string_length,
    min_sum_vector,
    minimal_max_value,
    minimal_max_vector,
    verify_matching_count,
)
from profilerank.synthesis import eulerian_string

P32 = Params(3, 2)
CHANNEL_ORDER = RankPermutation.from_text("00,01,10,20,02,11,12,21,22")


def test_census_at_three_two(census32):
    assert census32.count == 30240
    assert census32.total == 362880
    assert len(set(census32.feasible)) == 30240


def test_census_degenerate_parameters():
    assert enumerate_feasible(Params(2, 2), jobs=1).count == 0
    assert enumerate_feasible(Params(3, 1), jobs=1).count == 6
    assert enumerate_feasible(Params(2, 3), jobs=1).count == 0
    assert enumerate_feasible(Params(2, 1), jobs=1).count == 2
    assert enumerate_feasible(Params(4, 1), jobs=1).count == 24  # q! at window 1


def test_census_cap():
    with pytest.raises(ValueError):
        enumerate_feasible(Params(3, 3))


def test_census_serial_matches_parallel(census32):
    serial = enumerate_feasible(P32, jobs=1)
    assert serial.feasible == census32.feasible


def test_census_closed_under_relabeling(census32):
    feasible = set(census32.feasible)
    rng = random.Random(0)
    sample = rng.sample(list(census32.feasible), 300)
    for sigma in permutations(range(3)):
        for order in sample:
            relabeled = RankPermutation(P32, order).relabel(sigma)
            assert relabeled.order in feasible


def test_gap_confusion_counts(gap32):
    assert gap32.precheck_hit_feasible == 0  # the witness test is sound
    assert gap32.count == 30240
    # at these parameters the ballot witness is also complete: the LP never
    # refutes an order the witness test let through
    assert gap32.silent_infeasible == 0
    assert gap32.precheck_hit_infeasible == 332640


def test_repository_matches_census_order(repo, census32):
    rng = random.Random(1)
    for i in rng.sample(range(30240), 200):
        vec = repo.vectors[i]
        assert rank_of(vec, P32).order == census32.feasible[i]


def test_repository_checksum_pinned(repo, tmp_path):
    # the trailer Repository.save writes for the full (3,2) build; the value
    # the benchmark checks
    path = tmp_path / "repository.txt"
    repo.save(path)
    assert path.read_text().splitlines()[-1] == (
        "sha256=ab436259092f2d125f7237a37d9f71e05b5c393e8d7b0bd6e1a91adfaa52f789"
    )


def test_repository_vectors_revalidate(repo):
    repo.validate()


def test_repository_entries_are_minimal_max(repo, census32):
    rng = random.Random(2)
    for i in rng.sample(range(30240), 50):
        vec = minimal_max_vector(census32.feasible[i], P32)
        assert vec == repo.vectors[i]


def test_c3_constants(repo, census32):
    assert compute_c3(repo) == 17  # strictly positive convention
    rng = random.Random(3)
    for order in rng.sample(list(census32.feasible), 400):
        m = minimal_max_value(order, P32, cap=16, floor=0)
        assert m is not None and m <= 16


def test_positive_floor_needs_seventeen():
    # Realizable order whose balance equations force max >= 17 on distinct
    # positive integers; with a zero allowed, 16 suffices.
    order = (1, 5, 3, 0, 4, 8, 6, 7, 2)
    assert minimal_max_value(order, P32, cap=16, floor=1) is None
    assert minimal_max_value(order, P32, cap=17, floor=1) == 17
    assert minimal_max_value(order, P32, cap=16, floor=0) == 16


def test_min_string_length_worked_example():
    assert min_string_length(CHANNEL_ORDER) == 45


def test_min_string_length_lower_bound(census32, repo):
    rng = random.Random(4)
    cap = compute_c3(repo)
    for order in rng.sample(list(census32.feasible), 20):
        length = min_string_length(RankPermutation(P32, order), cap=cap)
        assert 45 <= length <= 9 * cap  # nine entries, each within the constant


def test_integer_witness_search_agrees_with_lp_census(census32):
    # Third, simplex-free decision path: direct search for a zero-floor
    # integer assignment within 16.  Census members always have one (the
    # acceptance suite checks all 30240); non-members must have none.
    feasible = set(census32.feasible)
    rng = random.Random(6)
    checked = 0
    while checked < 2000:
        order = tuple(rng.sample(range(9), 9))
        if order in feasible:
            continue
        assert minimal_max_value(order, P32, cap=16, floor=0) is None
        checked += 1


def test_gap_report_at_two_two():
    from profilerank.oracle import precheck_completeness_gap

    gap = precheck_completeness_gap(Params(2, 2), jobs=1)
    assert gap.count == 0
    assert gap.precheck_hit_feasible == 0
    assert gap.precheck_hit_infeasible == 24  # the witness test refutes all
    assert gap.silent_infeasible == 0
    assert "feasible=0" in gap.summary()


def test_min_length_realized_by_string(census32):
    rng = random.Random(5)
    for order in rng.sample(list(census32.feasible), 10):
        perm = RankPermutation(P32, order)
        vec = min_sum_vector(perm)
        x = eulerian_string(vec.to_profile())
        assert len(x) == sum(vec.entries)
        assert rank_of(profile_of(x, P32)).order == order


def test_matching_count():
    from fractions import Fraction

    count, ratio = verify_matching_count(3)
    assert count == 360
    assert ratio == Fraction(1, 2)  # = 2/(q+1) at q=3, of all (2q)! orders


def test_matching_count_rejects_other_sizes():
    with pytest.raises(ValueError):
        verify_matching_count(4)


def test_ballot_test_agrees_with_bruteforce_matcher():
    # the fast witness scan and the naive all-pairings matcher must agree on
    # every arrangement of a 3+3 neighborhood
    from profilerank.oracle import _has_monochromatic_matching

    p33 = Params(3, 3)
    node = (0, 1)
    v = word_index(node, 3)
    edges = list(enumerate(zip(*edge_nodes(p33))))
    in_idx = [idx for idx, (h, t) in edges if t == v != h]
    out_idx = [idx for idx, (h, t) in edges if h == v != t]
    for arrangement in permutations(range(6)):
        # place the six words of the neighborhood in this rank order and pad
        # the remaining words above them
        ranked_words = [0] * 6
        for pos, k in enumerate(arrangement):
            word = in_idx[k] if k < 3 else out_idx[k - 3]
            ranked_words[pos] = word
        rest = [i for i in range(27) if i not in in_idx + out_idx]
        order = tuple(ranked_words + rest)
        fired = order_precheck_witness(order, p33)
        fired_here = fired is not None and fired[0] == node
        sides = [0 if k < 3 else 1 for k in arrangement]
        assert fired_here == _has_monochromatic_matching(sides, 3)
