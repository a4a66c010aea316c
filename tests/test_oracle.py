import random
import tracemalloc
from dataclasses import replace
from hashlib import sha256
from itertools import chain, permutations
from math import comb, factorial

import pytest

from bruteforce import full_sweep, least_max_search, min_sum_search
from profilerank.core import (
    PackedRows,
    Params,
    RankPermutation,
    edge_nodes,
    first_flow_violation,
    profile_of,
    rank_of,
    relabeling,
    satisfies,
    word_index,
    word_symmetries,
)
from profilerank.encoder import BASE_COUNT
from profilerank.feasibility import order_lp_solution, order_precheck_witness
from profilerank.oracle import (
    REPOSITORY_CAP,
    CensusStats,
    _candidates,
    _OrbitWalk,
    build_repository,
    compute_c3,
    enumerate_feasible,
    least_max_vectors,
    min_string_length,
    min_sum_vector,
    minimal_max_value,
    minimal_max_vector,
    orbit_size,
    representatives,
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
    assert enumerate_feasible(Params(2, 2)).count == 0
    assert enumerate_feasible(Params(3, 1)).count == 6
    assert enumerate_feasible(Params(2, 3)).count == 0
    assert enumerate_feasible(Params(2, 1)).count == 2
    assert enumerate_feasible(Params(4, 1)).count == 24  # q! at window 1


def test_census_cap():
    with pytest.raises(ValueError):
        enumerate_feasible(Params(3, 3))


# every (q, ell) with q^ell <= CENSUS_CAP
CAPPED = [Params(q, 1) for q in range(2, 10)] + [Params(2, 2), Params(3, 2), Params(2, 3)]


@pytest.mark.parametrize("params", CAPPED, ids=lambda p: f"q{p.q}l{p.ell}")
def test_orbit_census_matches_full_sweep(params):
    # ground truth: the pre-check and the LP on every one of the (q^ell)!
    # orders, against the census's one serial orbit sweep
    reference = full_sweep(params, jobs=2)
    assert reference.hit_feasible == 0  # the pre-check never fires on a realizable order
    result = enumerate_feasible(params)
    assert result.total == factorial(params.word_count)
    assert (
        result.feasible,
        result.precheck_hit_infeasible,
        result.silent_infeasible,
    ) == reference.expected()


@pytest.mark.parametrize("params", CAPPED, ids=lambda p: f"q{p.q}l{p.ell}")
def test_representatives_are_least_in_their_orbits(params):
    reps = list(representatives(params))
    assert reps == sorted(set(reps))
    assert len(reps) * orbit_size(params) == factorial(params.word_count)
    maps = list(word_symmetries(params))
    assert len(maps) == orbit_size(params)
    # every representative least in its orbit, with the count and the
    # uniqueness above: the orbits partition the orders
    for rep in reps:
        assert min(tuple(map(g.__getitem__, rep)) for g in maps) == rep


# sha256 of bytes(chain.from_iterable(representatives(params)))
REPRESENTATIVES_DIGEST = {
    (2, 1): "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
    (3, 1): "ae4b3280e56e2faf83f414a6e3dabe9d5fbe18976544c05fed121accb85b53fc",
    (4, 1): "054edec1d0211f624fed0cbca9d4f9400b0e491c43742af2c5b0abebf0c990d8",
    (5, 1): "08bb5e5d6eaac1049ede0893d30ed022b1a4d9b5b48db414871f51c9cb35283d",
    (6, 1): "17e88db187afd62c16e5debf3e6527cd006bc012bc90b51a810cd80c2d511f43",
    (7, 1): "57355ac3303c148f11aef7cb179456b9232cde33a818dfda2c2fcb9325749a6b",
    (8, 1): "8a851ff82ee7048ad09ec3847f1ddf44944104d2cbd17ef4e3db22c6785a0d45",
    (9, 1): "f8348e0b1df00833cbbbd08f07abdecc10c0efb78829d7828c62a7f36d0cc549",
    (2, 2): "f155bbe67a9acf6aa32002d4ff362b6934eb10c7ea6e3c1dbe6c99e21317b33d",
    (3, 2): "34f80666c3fcad7c641dc1bf98c7b73f403a5b9c85d138c9b292ffacc984112f",
    (2, 3): "6fb4c8669590da70b281d15b5d02bbf9a73ed26240d5493b181505b650b0fb35",
}


@pytest.mark.parametrize("params", CAPPED, ids=lambda p: f"q{p.q}l{p.ell}")
def test_representatives_match_pinned_digest(params):
    digest = sha256(bytes(chain.from_iterable(representatives(params)))).hexdigest()
    assert digest == REPRESENTATIVES_DIGEST[params.q, params.ell]


@pytest.mark.parametrize("params", CAPPED, ids=lambda p: f"q{p.q}l{p.ell}")
def test_walk_blocks_carry_the_precheck_verdict(params):
    # every order of every block the walk yields has the pre-check verdict
    # the block's prefix settled, and the blocks, expanded in turn, are the
    # representatives, whose sequence the digests above pin
    expanded = []
    for prefix, rest, hit in _OrbitWalk(params):
        for tail in permutations(rest):
            order = prefix + tail
            assert (order_precheck_witness(order, params) is not None) == hit, order
            expanded.append(order)
    assert expanded == list(representatives(params))


def test_census_stats_at_three_two(census32):
    # the LP runs on the 2520 silent representatives; every pre-check hit
    # is settled by a prefix of the walk
    stats = census32.stats
    assert stats.prefixes == 6649
    assert stats.lp_calls == 2520
    assert stats.settled_hits * orbit_size(P32) == census32.precheck_hit_infeasible
    silent = [rep for rep in representatives(P32) if order_precheck_witness(rep, P32) is None]
    assert len(silent) == 2520
    assert stats.lp_pivots == sum(order_lp_solution(rep, P32).pivots for rep in silent)
    # the counters stay out of == and of the summary
    blank = replace(census32, stats=CensusStats())
    assert blank == census32 and blank.summary() == census32.summary()


def test_census_at_window_one_keeps_one_translation_table_at_a_time():
    # the 8! maps of G at (8,1) are walked for the one representative and
    # expanded through one translate table at a time: a list of all the
    # 256-byte tables alone would take over 10 MB
    tracemalloc.start()
    try:
        census = enumerate_feasible(Params(8, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert census.count == factorial(8)
    assert peak < 8_000_000


def test_orbit_counts_at_three_two(census32):
    reps = list(representatives(P32))
    assert len(reps) == 30240 and orbit_size(P32) == 12
    assert {rep[:1] for rep in reps} == {(0,), (1,)}  # the words 00 and 01
    feasible = set(census32.feasible)
    assert sum(1 for rep in reps if rep in feasible) == 2520


def test_census_closed_under_relabeling(census32):
    feasible = set(census32.feasible)
    rng = random.Random(0)
    sample = rng.sample(list(census32.feasible), 300)
    for sigma in permutations(range(3)):
        for order in sample:
            image = relabeling(P32, sigma)
            assert tuple(map(image.__getitem__, order)) in feasible


def test_gap_confusion_counts(sweep32):
    assert sweep32.hit_feasible == 0  # the witness test is sound
    assert len(sweep32.feasible) == 30240
    # at these parameters the ballot witness is also complete: the LP never
    # refutes an order the witness test let through
    assert sweep32.silent_infeasible == 0
    assert sweep32.hit_infeasible == 332640


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
    assert len(repo.vectors) == BASE_COUNT


def test_repository_refuses_a_census_not_closed_under_the_symmetries(census32):
    # swap the last realizable order for an unrealizable one
    stray = (8, 7, 6, 5, 4, 3, 2, 1, 0)
    assert stray not in set(census32.feasible)
    rows = PackedRows(census32.feasible.data[: -P32.word_count] + bytes(stray), P32.word_count)
    broken = replace(census32, feasible=rows)
    with pytest.raises(AssertionError):
        build_repository(broken)


def test_repository_refuses_a_census_with_an_orbit_twice(census32):
    # one orbit's orders swapped for a second copy of the first orbit's:
    # every order's images are census orders, but one orbit would fill its
    # rows twice and another not at all
    maps = list(word_symmetries(P32))
    first = [tuple(map(g.__getitem__, census32.feasible[0])) for g in maps]
    other = next(row for row in census32.feasible if row not in first)
    dropped = {tuple(map(g.__getitem__, other)) for g in maps}
    rows = sorted([row for row in census32.feasible if row not in dropped] + first)
    assert len(rows) == BASE_COUNT
    packed = PackedRows(bytes(e for row in rows for e in row), P32.word_count)
    with pytest.raises(AssertionError, match="union of orbits"):
        build_repository(replace(census32, feasible=packed))


def test_repository_vectors_revalidate(repo):
    repo.validate()


def test_census_and_repository_are_packed(repo):
    # one byte per word index or entry: the census and the build together
    # peak at a few row-sized buffers, and the repository keeps little more
    # than its 272160-byte blob (the repo fixture has filled every cache)
    tracemalloc.start()
    try:
        census = enumerate_feasible(P32)
        built = build_repository(census)
        peak = tracemalloc.get_traced_memory()[1]
        del census
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert built == repo
    assert peak <= 2_500_000
    assert kept <= 500_000


def test_repository_entries_are_minimal_max(repo, census32):
    rng = random.Random(2)
    for i in rng.sample(range(30240), 50):
        vec = minimal_max_vector(census32.feasible[i], P32)
        assert vec == repo.vectors[i]


@pytest.mark.parametrize("floor", [0, 1])
def test_least_max_vectors_are_every_least_max_solution(census32, floor):
    # the search the repository shares with minimal_max_vector: reduced by
    # min it is minimal_max_vector, each solution is valid at the least
    # maximum, and the solutions of g(order) are the g-images of those of
    # the order, which is what lets the repository search one order per orbit
    maps = list(word_symmetries(P32))
    rng = random.Random(8)
    for order in rng.sample(list(census32.feasible), 40):
        sols = least_max_vectors(order, P32, 17, floor)
        assert min(sols) == minimal_max_vector(order, P32, 17, floor)
        assert len(set(sols)) == len(sols)
        top = max(sols[0])
        for sol in sols:
            assert max(sol) == top and min(sol) >= floor
            assert satisfies(sol, RankPermutation(P32, order))
            assert first_flow_violation(sol, P32) is None
        for g in maps:
            image = tuple(map(g.__getitem__, order))
            moved = {tuple(sol[g.index(j)] for j in range(9)) for sol in sols}
            assert set(least_max_vectors(image, P32, 17, floor)) == moved
    stray = (8, 7, 6, 5, 4, 3, 2, 1, 0)
    assert least_max_vectors(stray, P32, 17, floor) == []
    assert minimal_max_vector(stray, P32, 17, floor) is None


def _split_representatives(census32):
    feasible = set(census32.feasible)
    reps = list(representatives(P32))
    return [r for r in reps if r in feasible], [r for r in reps if r not in feasible]


@pytest.mark.parametrize("floor", [0, 1])
def test_least_max_vectors_match_depth_first_search(census32, floor):
    # the byte-parallel test against the iterative-deepening search it
    # replaced: the same solutions in the same order on every feasible
    # representative, and none on 300 infeasible ones
    feasible, infeasible = _split_representatives(census32)
    assert len(feasible) == 2520
    for order in feasible:
        assert least_max_vectors(order, P32, 17, floor) == least_max_search(order, P32, 17, floor)
    for order in random.Random(9).sample(infeasible, 300):
        assert least_max_vectors(order, P32, 17, floor) == []
        assert least_max_search(order, P32, 17, floor) == []


def test_min_sum_vector_matches_branch_and_bound(census32):
    feasible, infeasible = _split_representatives(census32)
    unsolved = 0
    for order in feasible:
        try:
            expected = min_sum_search(order, P32, 16)
        except ValueError:
            unsolved += 1
            with pytest.raises(ValueError):
                min_sum_vector(RankPermutation(P32, order))
            continue
        assert min_sum_vector(RankPermutation(P32, order)).entries == expected
    assert unsolved == 6  # the orbits of the 72 orders that need an entry of 17
    for order in random.Random(10).sample(infeasible, 200):
        with pytest.raises(ValueError):
            min_sum_search(order, P32, 17)
        with pytest.raises(ValueError):
            min_sum_vector(RankPermutation(P32, order), 17)


@pytest.mark.parametrize("floor", [0, 1])
def test_candidate_tables(floor):
    n = 9
    for top in range(n + floor - 1, REPOSITORY_CAP + 1):
        table = _candidates(n, floor, top)
        rows = [tuple(table.blob[j * n : j * n + n]) for j in range(table.count)]
        assert table.count == comb(top - floor, n - 1) == len(table.blob) // n
        assert rows == sorted(set(rows))
        for row in rows:
            assert row[0] >= floor and row[-1] == top
            assert all(a < b for a, b in zip(row, row[1:]))
        for k, column in enumerate(table.columns):
            assert column.to_bytes(table.count, "little") == table.blob[k::n]
        assert table.bias.to_bytes(table.count, "little") == b"\x80" * table.count


def test_searches_refuse_what_the_tables_cannot_hold(census32):
    order = census32.feasible[0]
    with pytest.raises(ValueError, match="REPOSITORY_CAP"):
        least_max_vectors(order, P32, REPOSITORY_CAP + 1)
    with pytest.raises(ValueError, match="floor"):
        least_max_vectors(order, P32, 17, floor=-1)
    with pytest.raises(ValueError, match="REPOSITORY_CAP"):
        min_sum_vector(RankPermutation(P32, order), REPOSITORY_CAP + 1)
    assert least_max_vectors(order, P32, REPOSITORY_CAP) != []


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
    sweep = full_sweep(Params(2, 2), jobs=2)
    assert sweep.feasible == ()
    assert sweep.hit_feasible == 0
    assert sweep.hit_infeasible == 24  # the witness test refutes all
    assert sweep.silent_infeasible == 0
    assert "feasible=0" in enumerate_feasible(Params(2, 2)).summary()


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

    count, ratio = verify_matching_count()
    assert count == 360
    assert ratio == Fraction(1, 2)  # = 2/(q+1) at q=3, of all (2q)! orders


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
