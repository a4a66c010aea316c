import random
import re
import tracemalloc
from array import array
from dataclasses import replace
from hashlib import sha256
from itertools import chain, permutations
from math import comb, factorial

import pytest

from bruteforce import (
    ballot_reference,
    build_repository_reference,
    full_sweep,
    least_max_search,
    min_sum_search,
)
from profilerank import feasibility, oracle
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
from profilerank.feasibility import FeasibleVector, _Ballot, check_farkas, order_precheck_witness
from profilerank.oracle import (
    REPOSITORY_CAP,
    CensusStats,
    _blocks,
    _candidates,
    _OrbitWalk,
    _set_refutation,
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
P23 = Params(2, 3)
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
    reference = full_sweep(params)
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
    # the block's prefix settled, by the per-node ballot of the test
    # reference, and the blocks, expanded in turn, are the representatives,
    # whose sequence the digests above pin
    expanded = []
    for prefix, rest, hit in _OrbitWalk(params):
        for tail in permutations(rest):
            order = prefix + tail
            assert (ballot_reference(order, params) is not None) == hit, order
            expanded.append(order)
    assert expanded == list(representatives(params))


def test_walk_at_window_one_holds_no_list_of_the_group():
    # the root of the walk re-iterates G instead of listing its 9! maps at
    # (9,1), which as 9-tuples would take about 44 MB
    tracemalloc.start()
    try:
        list(_OrbitWalk(Params(9, 1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


@pytest.mark.parametrize("params", CAPPED, ids=lambda p: f"q{p.q}l{p.ell}")
def test_census_orbits_name_the_row_of_every_image(params):
    # the census hands over its feasible representatives, ``firsts``: they
    # are the walk's representatives that the census holds, in order, and
    # the images of their orbits, sorted, are the census rows one for one
    result = enumerate_feasible(params)
    width, data = params.word_count, result.feasible.data
    rows = {data[k : k + width] for k in range(0, len(data), width)}
    firsts = [bytes(rep) for rep in representatives(params) if bytes(rep) in rows]
    assert result.firsts == b"".join(firsts)
    images = (bytes(map(g.__getitem__, rep)) for rep in firsts for g in word_symmetries(params))
    assert b"".join(sorted(images)) == data


def test_census_stats_at_three_two(census32):
    # the value search assigns each of the 2520 silent representatives and
    # no LP runs; every pre-check hit is settled by a prefix of the walk,
    # and at (2,3) a ballot on a node set refutes each of the 1176 silent
    # representatives
    stats = census32.stats
    assert stats.prefixes == 6649
    assert (stats.set_refuted, stats.assigned, stats.lp_calls) == (0, 2520, 0)
    assert stats.settled_hits * orbit_size(P32) == census32.precheck_hit_infeasible
    silent = [rep for rep in representatives(P32) if order_precheck_witness(rep, P32) is None]
    assert len(silent) == 2520
    assert census32.firsts == b"".join(map(bytes, silent))
    stats23 = enumerate_feasible(P23).stats
    assert (stats23.set_refuted, stats23.assigned, stats23.lp_calls) == (1176, 0, 0)
    # the value search's work: no search runs at (2,3)
    assert (stats.maxima_tried, stats.sequences_tested) == (8340, 1_570_950)
    assert (stats23.maxima_tried, stats23.sequences_tested) == (0, 0)
    # the counters stay out of == and of the summary
    blank = replace(census32, stats=CensusStats())
    assert blank == census32 and blank.summary() == census32.summary()


@pytest.mark.parametrize("cap", [16, 17])
def test_census_search_counters_match_the_work_done(monkeypatch, cap):
    # every byte-parallel test the census's searches run, with the size of
    # its table; at cap 16 the six orders the search cannot assign count
    # every maximum up to the cap
    maxima = sequences = 0
    balanced = oracle._balanced

    def counted(in_word_order, nodes, n, floor, top):
        nonlocal maxima, sequences
        maxima += 1
        sequences += _candidates(n, floor, top).count
        return balanced(in_word_order, nodes, n, floor, top)

    monkeypatch.setattr(oracle, "_balanced", counted)
    monkeypatch.setattr(oracle, "REPOSITORY_CAP", cap)
    stats = enumerate_feasible(P32).stats
    assert stats.lp_calls == (6 if cap == 16 else 0)
    assert (stats.maxima_tried, stats.sequences_tested) == (maxima, sequences)


@pytest.mark.parametrize("params", CAPPED, ids=lambda p: f"q{p.q}l{p.ell}")
def test_census_runs_no_lp_at_capped_sizes(params, monkeypatch):
    def no_lp(perm, use_precheck=True):
        raise AssertionError(f"LP on {perm.order}")

    monkeypatch.setattr(oracle, "decide", no_lp)
    stats = enumerate_feasible(params).stats
    assert stats.lp_calls == 0
    assert stats.settled_hits + stats.set_refuted + stats.assigned == len(
        list(representatives(params))
    )


def test_every_set_refutation_at_two_three_is_a_farkas_vector(census32):
    # each of the 1176 silent (2,3) representatives is refuted by the ballot
    # of one node v, with -e_v for a green v and +e_v for a red one
    silent = [rep for rep in representatives(P23) if order_precheck_witness(rep, P23) is None]
    assert len(silent) == 1176
    for order in silent:
        y = _set_refutation(order, P23)
        assert y is not None and len(y) == P23.node_count
        assert sorted(map(abs, y)) == [0, 0, 0, 1]
        check_farkas(RankPermutation(P23, order), y)
    # none fires on a realizable order
    for order in random.Random(11).sample(list(census32.feasible), 300):
        assert _set_refutation(order, P32) is None


def test_node_ballot_scans_the_nodes_the_precheck_leaves_out():
    # at (2,3), one ballot: the pre-check's start state, which skips the
    # constant nodes 00 and 11, with no node skipped
    start, ballot = _Ballot.start(P23), oracle._node_ballot(P23)
    assert start.rose == start.fell == (True, False, False, True)
    assert ballot.rose == ballot.fell == (False,) * 4
    assert ballot._replace(rose=start.rose, fell=start.fell) == start
    # at window one and two the pre-check scans every node: no node ballot
    for params in CAPPED:
        if params != P23:
            assert oracle._node_ballot(params) is None


def test_kept_assignments_match_the_reference_search(census32):
    firsts = census32.firsts
    assert len(census32.offsets) == len(firsts) // 9 + 1
    for r in random.Random(12).sample(range(len(firsts) // 9), 200):
        rep = tuple(firsts[r * 9 : r * 9 + 9])
        kept = [tuple(sol) for sol in census32.assignments_of(r)]
        assert kept == least_max_search(rep, P32, REPOSITORY_CAP, 1)


@pytest.mark.parametrize("r", [-1, -2521, 2520])
def test_assignments_of_refuses_a_representative_out_of_range(census32, r):
    # a negative r does not wrap: -1 would read as an order the LP proved
    # feasible, and -2 as representative 2519
    assert len(census32.offsets) == 2521
    with pytest.raises(IndexError, match=r"representative -?\d+ out of range 0\.\.2519"):
        census32.assignments_of(r)


def test_census_kept_assignments_are_packed(census32):
    # one byte per entry, 9 a row, one offset per representative, and the
    # representatives themselves 9 bytes each
    assert isinstance(census32.assignments, bytes) and isinstance(census32.firsts, bytes)
    assert len(census32.assignments) == 9 * census32.offsets[-1]
    assert len(census32.firsts) == 9 * (len(census32.offsets) - 1) == 9 * 2520
    assert census32.offsets.typecode == "I"
    for name in ("firsts", "assignments", "offsets"):
        assert name not in repr(census32)
    blank = replace(census32, firsts=b"", assignments=b"", offsets=array("I"))
    assert blank == census32 and blank.summary() == census32.summary()


def _census_rows(result):
    return (
        result.total,
        result.feasible,
        result.precheck_hit_infeasible,
        result.silent_infeasible,
        result.summary().splitlines()[:-1],
    )


def test_census_with_a_smaller_cap_falls_back_to_the_checked_lp(census32, monkeypatch):
    # at cap 16 the search cannot assign the 6 orbits of the 72 orders that
    # need an entry of 17: the LP proves them feasible, the census is the
    # same, and the build refuses the orders with no kept assignment
    monkeypatch.setattr(oracle, "REPOSITORY_CAP", 16)
    result = enumerate_feasible(P32)
    assert _census_rows(result) == _census_rows(census32)
    assert (result.stats.assigned, result.stats.lp_calls) == (2514, 6)
    size = orbit_size(P32)
    unassigned = [r for r in range(result.count // size) if not result.assignments_of(r)]
    assert len(unassigned) == 6
    with pytest.raises(AssertionError, match="no assignment with entries <= 16"):
        build_repository(result)


def test_census_with_no_search_falls_back_to_the_lp(census32, monkeypatch):
    monkeypatch.setattr(oracle, "least_max_vectors", lambda order, params, cap: [])
    result = enumerate_feasible(P32)
    assert _census_rows(result) == _census_rows(census32)
    assert (result.stats.assigned, result.stats.lp_calls) == (0, 2520)


def test_census_with_no_set_ballots_falls_back_to_the_lp(monkeypatch):
    # without the node ballot, the search finds nothing and the LP refutes
    # each of the 1176 silent (2,3) representatives
    expected = enumerate_feasible(P23)
    monkeypatch.setattr(oracle, "_set_refutation", lambda order, params: None)
    result = enumerate_feasible(P23)
    assert _census_rows(result) == _census_rows(expected)
    assert (result.stats.set_refuted, result.stats.lp_calls) == (0, 1176)


@pytest.mark.parametrize("feasible", [True, False], ids=["feasible", "infeasible"])
def test_census_checks_the_lp_certificate(monkeypatch, feasible):
    # an LP result that is not a certificate stops the census: a Farkas
    # vector +e_0 on a realizable order, or a zero slack vector (every
    # value its rank) on an unrealizable one
    solve = feasibility.order_lp_solution

    def bogus(order, params):
        solution = solve(order, params)
        if feasible:
            return solution._replace(x=None, farkas=[1] + [0] * (params.node_count - 1))
        return solution._replace(x=[0] * len(order), denom=1, farkas=None)

    if feasible:
        params = P32
        monkeypatch.setattr(oracle, "least_max_vectors", lambda order, params, cap: [])
    else:
        params = P23
        monkeypatch.setattr(oracle, "_set_refutation", lambda order, params: None)
    monkeypatch.setattr(feasibility, "order_lp_solution", bogus)
    with pytest.raises(ValueError):
        enumerate_feasible(params)


def _swapped(sol):
    """``sol`` with the entries of the loop words 00 and 11 swapped: still
    balanced, but in another rank order."""
    return (sol[4],) + tuple(sol[1:4]) + (sol[0],) + tuple(sol[5:])


def _unbalanced(sol):
    """``sol`` with its largest non-loop entry, and every entry above it,
    raised by one: the rank order is kept, but only that non-loop word
    moves, so its two nodes fall out of balance."""
    heads, tails = edge_nodes(P32)
    top = max(e for e, h, t in zip(sol, heads, tails) if h != t)
    return tuple(e + (e >= top) for e in sol)


def _zeroed(sol):
    """``sol`` with its lowest-ranked entry set to 0: the rank order is kept."""
    return tuple(0 if e == min(sol) else e for e in sol)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_swapped, "does not realize the stated permutation"),
        (_unbalanced, "flow violated at node 0"),
        (_zeroed, "entries must all be >= 1"),
    ],
    ids=["swapped", "unbalanced", "zero"],
)
def test_census_checks_every_assignment_it_keeps(monkeypatch, mutate, message):
    # one kept assignment broken, that of the first order searched: the
    # census refuses it with the message FeasibleVector.check gives it
    search, broken_orders = oracle.least_max_vectors, []

    def broken(order, params, cap):
        sols = search(order, params, cap)
        if not broken_orders:
            sols[-1] = mutate(sols[-1])
            broken_orders.append(order)
        return sols

    monkeypatch.setattr(oracle, "least_max_vectors", broken)
    with pytest.raises(ValueError, match=message):
        enumerate_feasible(P32)


def test_census_checks_its_kept_assignments_in_one_pass(monkeypatch):
    # every kept assignment passes, so no vector is checked one at a time
    def check(self, perm=None):
        raise AssertionError("a vector was checked on its own")

    monkeypatch.setattr(FeasibleVector, "check", check)
    assert enumerate_feasible(P32).stats.assigned == 2520


def test_census_checks_every_set_refutation(monkeypatch):
    # a set's colour flipped is no Farkas vector
    refute = oracle._set_refutation

    def flipped(order, params):
        y = refute(order, params)
        return None if y is None else tuple(-w for w in y)

    monkeypatch.setattr(oracle, "_set_refutation", flipped)
    with pytest.raises(ValueError, match="Farkas"):
        enumerate_feasible(P23)


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


def test_repository_build_looks_up_no_order(census32, repo, monkeypatch):
    # the build sorts the images with their vectors and compares them with
    # the census rows: no packed lookup is built
    def lookup(self, row):
        raise AssertionError(f"looked up {row}")

    monkeypatch.setattr(PackedRows, "index", lookup)
    assert build_repository(census32) == repo


def test_repository_build_matches_the_per_image_reference(census32, repo):
    built = build_repository(census32)
    assert built.vectors.data == build_repository_reference(census32).vectors.data
    assert built.vectors.data == repo.vectors.data


def test_repository_build_ignores_the_order_of_kept_assignments(census32, repo):
    # 390 orbits keep several assignments, and each image takes the least
    # of them moved: the order they are kept in does not matter
    kept = b"".join(
        b"".join(reversed(census32.assignments_of(r))) for r in range(len(census32.offsets) - 1)
    )
    assert kept != census32.assignments
    reordered = replace(census32, assignments=kept)
    built = build_repository(reordered)
    assert built.vectors.data == build_repository_reference(reordered).vectors.data
    assert built == repo


def _broken_censuses(census32):
    firsts, kept = census32.firsts, census32.assignments
    reps = [firsts[k : k + 9] for k in range(0, len(firsts), 9)]
    rng = random.Random(30)
    for _ in range(4):  # two firsts swapped
        swapped = list(reps)
        a, b = rng.sample(range(len(reps)), 2)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        yield replace(census32, firsts=b"".join(swapped))
    # one first listed twice: in place of the next, and as one more row
    yield replace(census32, firsts=b"".join(reps[:8] + reps[7:8] + reps[9:]))
    yield replace(census32, firsts=b"".join(reps[:8] + reps[7:]))
    maps = list(word_symmetries(P32))
    for r in (1300, 2519):  # a first replaced by a non-least image of its orbit
        raised = list(reps)
        raised[r] = bytes(map(maps[-1].__getitem__, reps[r]))
        yield replace(census32, firsts=b"".join(raised))
    # a first from outside the census: an unrealizable least order that
    # keeps the firsts increasing
    stray = next(bytes(o) for o in representatives(P32) if reps[99] < bytes(o) < reps[100])
    yield replace(census32, firsts=b"".join(reps[:100] + [stray] + reps[101:]))
    yield replace(census32, firsts=firsts[:-4])  # a partial row
    rows = bytearray(census32.feasible.data)
    rows[9000:9009] = rows[9000:9009][::-1]  # a census row reversed
    yield replace(census32, feasible=PackedRows(rows, 9))
    rows = bytearray(census32.feasible.data)
    rows[9000:9018] = rows[9009:9018] + rows[9000:9009]  # two census rows swapped
    yield replace(census32, feasible=PackedRows(rows, 9))
    # the build checks its sorted rows 1024 at a time: two rows swapped
    # across the first block boundary, and a row reversed in the last block
    rows = bytearray(census32.feasible.data)
    rows[1023 * 9 : 1025 * 9] = rows[1024 * 9 : 1025 * 9] + rows[1023 * 9 : 1024 * 9]
    yield replace(census32, feasible=PackedRows(rows, 9))
    rows = bytearray(census32.feasible.data)
    rows[30000 * 9 : 30001 * 9] = rows[30000 * 9 : 30001 * 9][::-1]
    yield replace(census32, feasible=PackedRows(rows, 9))
    for r in (0, 700, 2519):  # one kept assignment swapped for another order's
        other = census32.offsets[(r + 1) % 2520] * 9
        k = census32.offsets[r] * 9
        yield replace(census32, assignments=kept[:k] + kept[other : other + 9] + kept[k + 9 :])
    for r in (3, 1200):  # an orbit that keeps none
        offsets = array("I", census32.offsets)
        offsets[r + 1] = offsets[r]
        yield replace(census32, offsets=offsets)
    # orbit 0's one kept assignment out of balance or with a zero entry, in
    # its rank order: (1, 2, 9, ..., 10) becomes (1, 2, 10, ..., 11), or
    # its 1 becomes 0
    assert census32.offsets[1] == 1
    for mutate in (_unbalanced, _zeroed):
        yield replace(census32, assignments=bytes(mutate(kept[:9])) + kept[9:])


def test_repository_build_refuses_as_the_reference_does(census32):
    broken = list(_broken_censuses(census32))
    for census in broken:
        with pytest.raises(AssertionError) as reference:
            build_repository_reference(census)
        with pytest.raises(AssertionError) as built:
            build_repository(census)
        assert str(built.value) == str(reference.value)
    assert len(broken) == 21


def test_repository_refuses_a_kept_assignment_with_a_tie(census32):
    # two equal entries rank no pair of words: such an assignment realizes
    # no order, even where a stable sort would rank them as the order does
    order = census32.firsts[:9]
    assert order[0] < order[1]
    sol = bytearray(census32.assignments_of(0)[0])
    sol[order[1]] = sol[order[0]]
    kept = bytes(sol) + census32.assignments[9:]
    with pytest.raises(AssertionError, match="does not realize"):
        build_repository(replace(census32, assignments=kept))


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


def test_repository_refuses_orbits_that_list_one_orbit_from_two_orders(census32):
    # as in the test above, one orbit dropped and one held twice, but with
    # firsts that list both copies, so the images of the firsts, sorted,
    # are the census rows: the second copy is listed from an order above
    # its least one, and only the check that a first is least refuses it
    maps = list(word_symmetries(P32))
    reps = [tuple(census32.firsts[k : k + 9]) for k in range(0, len(census32.firsts), 9)]
    starts = sorted(reps[2:] + [reps[0], tuple(map(maps[1].__getitem__, reps[0]))])
    rows = sorted(tuple(map(g.__getitem__, start)) for start in starts for g in maps)
    packed = PackedRows(bytes(chain.from_iterable(rows)), P32.word_count)
    firsts = bytes(chain.from_iterable(starts))
    with pytest.raises(AssertionError, match="union of orbits"):
        build_repository(replace(census32, feasible=packed, firsts=firsts))


def test_repository_refuses_assignments_of_another_order(census32):
    # the kept assignments moved one row along: some orbit's assignments
    # then include another representative's
    kept = census32.assignments
    moved = replace(census32, assignments=kept[9:] + kept[:9])
    with pytest.raises(AssertionError, match="does not realize"):
        build_repository(moved)


def test_repository_refuses_an_orbit_whose_assignments_run_past_the_blob(census32):
    # orbit 0's span ends one row past the kept assignments: the row that is
    # not there realizes no order, so orbit 0's first order is named
    offsets = array("I", census32.offsets)
    offsets[1] = offsets[-1] + 1
    first = tuple(census32.firsts[:9])
    assert first[:3] == (0, 1, 3)
    message = f"a kept assignment does not realize order {first}"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        build_repository(replace(census32, offsets=offsets))


def test_repository_refuses_a_census_that_keeps_no_assignments(census32):
    with pytest.raises(AssertionError, match="keeps no assignments"):
        build_repository(replace(census32, offsets=array("I")))


def test_blocks_join_rows_in_order_and_empty_the_list():
    # the build splits its sorted rows block by block, so no blob of all of
    # them exists: blocks of 1024 rows, in order, the list emptied
    rows = [k.to_bytes(2, "big") for k in range(2500)]
    expected = b"".join(rows)
    blocks = list(_blocks(rows))
    assert [len(b) // 2 for b in blocks] == [1024, 1024, 452]
    assert b"".join(blocks) == expected and rows == []


def test_census_at_window_one_stays_under_its_memory_guard():
    # the one orbit of 9! orders at (9,1) is sorted as bare 9-byte images,
    # with no label bytes
    tracemalloc.start()
    try:
        enumerate_feasible(Params(9, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 19_000_000


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
    sweep = full_sweep(Params(2, 2))
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
