"""Brute-force ground truth at desk scale.

Everything here enumerates: the full census of rank orders (capped at 9
words, i.e. 9! cases), the repository of minimal realizable matrices, the
smallest witness lengths, and the monochromatic-matching count that the
counting bound rests on.  The census and the repository visit one rank order
per orbit of the symmetry group G of :func:`core.word_symmetries`, which
keeps every verdict and every least-maximum assignment, and expand the
results through G.  The representatives, the least order of each orbit,
come from a depth-first walk over prefixes that keeps the maps of G fixing
the prefix (G has at most 12 maps at ell >= 2, where the census is capped
at 9 words).  The walk also carries the matching pre-check's ballot state,
so once only the identity fixes a prefix, a prefix that settles the
pre-check for every completion ends in one block: the census counts a
block of hits without building its orders, and runs the exact LP on every
order of a silent block.  Both are one serial pass over the
representatives: at (3,2), the largest census input, a pass takes a
fraction of a second, less than a worker pool costs to start.

The value-assignment searches test, for one largest value at a time, every
increasing sequence of rank-order values that ends at it: each sequence is
one byte of a few big integers, so one integer sum per node of the overlap
graph checks the node's flow balance for all of them at once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, permutations
from math import factorial
from operator import itemgetter
from typing import Iterator, Sequence

from .core import PackedRows, Params, RankPermutation, _at_most, edge_nodes, word_symmetries
from .encoder import BASE_COUNT, BASE_Q, Repository
from .feasibility import FeasibleVector, _scanned_nodes, order_lp_solution

CENSUS_CAP = 9  # largest q^ell whose full permutation set we will sweep
# Largest repository entry.  With zero allowed, every realizable (3,2) order
# fits with entries <= 16 (verified exhaustively); the strictly positive
# entries the encoders need cost at most a +1 shift, and 72 orders need it.
# It also caps the value searches, whose candidate tables grow with it.
REPOSITORY_CAP = 17


@dataclass(frozen=True)
class CensusStats:
    """Where one census sweep's work went.  Not part of a result's ``==``
    or :meth:`CensusResult.summary`."""

    prefixes: int = 0  # prefixes the orbit walk visited
    settled_hits: int = 0  # representatives a prefix proved pre-check hits
    lp_calls: int = 0
    lp_pivots: int = 0  # the sum of Phase1.pivots over the LP calls


@dataclass(frozen=True)
class CensusResult:
    """One census sweep.  ``feasible`` holds the realizable rank orders as
    packed rows, one byte per word index and ``params.word_count`` bytes a
    row, sorted: byte order is the orders' lexicographic order, so row i
    reads back as the i-th realizable order."""

    params: Params
    total: int
    feasible: PackedRows  # rank orders, lexicographic
    precheck_hit_infeasible: int  # refuted by the pre-check
    silent_infeasible: int  # pre-check silent, LP refuted
    elapsed: float
    stats: CensusStats = field(default=CensusStats(), compare=False)

    @property
    def count(self) -> int:
        return len(self.feasible)

    def summary(self) -> str:
        lines = [
            f"census q={self.params.q} ell={self.params.ell}",
            f"permutations={self.total}",
            f"feasible={self.count}",
            f"precheck_hit_infeasible={self.precheck_hit_infeasible}",
            f"silent_infeasible={self.silent_infeasible}",
            f"elapsed_seconds={self.elapsed:.1f}",
        ]
        return "\n".join(lines) + "\n"


def orbit_size(params: Params) -> int:
    """Orders in every orbit of G: G acts freely on the rank orders (a map
    that fixes an order fixes every word), so each orbit has one order per
    distinct map, q! at ell = 1 and 2 q! above."""
    return factorial(params.q) * min(params.ell, 2)


def _translations(params: Params) -> Iterator[bytes]:
    """Each map g of G as a ``bytes.translate`` table, one at a time: a
    packed order translated by it is its image g(order).  Only word indices,
    all below q^ell <= 9, are ever translated, so the rest of the table is
    filler."""
    return (bytes(g).ljust(256) for g in word_symmetries(params))


class _OrbitWalk:
    """The stabilizer walk that generates the orbit representatives, with
    the ballot state of :func:`feasibility.order_precheck_witness` carried
    along each prefix.

    Iterating yields blocks ``(prefix, rest, hit)`` in lexicographic order:
    every arrangement of ``rest`` after ``prefix`` is the least order of its
    orbit, and ``hit`` is the pre-check's verdict on every one of them.
    ``prefixes`` counts the prefixes walked.

    Orderly generation with an explicit stabilizer: a depth-first walk over
    prefixes holds the maps of G that fix the prefix word by word.  A map
    that fixes the prefix and sends the next word lower sends the whole
    order lower, so such a word is skipped; the maps that send it higher
    can no longer send the order lower and are dropped, and those that fix
    it are kept.  Once the identity is the only map left, every arrangement
    of the remaining words is least in its orbit.  From there on a prefix
    whose ballot state settles the verdict of all its completions (the rule
    in ``order_precheck_witness``'s docstring) ends the descent as one
    block; any other prefix descends one more word, and a full order always
    settles.  Before that, only some completions are representatives, so a
    verdict on the prefix would stand for an unknown count.
    """

    def __init__(self, params: Params):
        self.params = params
        self.prefixes = 0

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], bool]]:
        params = self.params
        heads, tails = edge_nodes(params)
        arcs = [None if h == t else (h, t) for h, t in zip(heads, tails)]
        scanned = [v for v, _ in _scanned_nodes(params)]
        # per node: the non-loop words left that leave it and that enter it
        # (as many of each), and whether its count rose above 0 or fell
        # below it; the count is the entering words left minus the leaving
        leaving = [0] * params.node_count
        for arc in filter(None, arcs):
            leaving[arc[0]] += 1
        start = (leaving, leaving.copy(), [False] * len(leaving), [False] * len(leaving))

        def step(ballot, idx):
            if arcs[idx] is None:
                return ballot  # a loop word leaves and enters its node
            h, t = arcs[idx]
            leaving, entering, rose, fell = map(list.copy, ballot)
            leaving[h] -= 1
            entering[t] -= 1
            rose[h] = rose[h] or entering[h] > leaving[h]
            fell[t] = fell[t] or entering[t] < leaving[t]
            return leaving, entering, rose, fell

        def verdict(ballot):
            """True if every completion is a hit, False if none is, None if
            the prefix does not settle it."""
            leaving, entering, rose, fell = ballot
            silent = True
            for v in scanned:
                if not rose[v]:
                    if not entering[v]:
                        return True  # green in every completion
                    silent = False
                if not fell[v]:
                    if not leaving[v]:
                        return True  # red in every completion
                    silent = False
            return False if silent else None

        def walk(prefix, rest, stabilizer, ballot):
            self.prefixes += 1
            if len(stabilizer) == 1:
                hit = verdict(ballot)
                if hit is not None:
                    yield prefix, rest, hit
                    return
            for k, idx in enumerate(rest):
                if all(g[idx] >= idx for g in stabilizer):
                    yield from walk(
                        prefix + (idx,),
                        rest[:k] + rest[k + 1 :],
                        [g for g in stabilizer if g[idx] == idx],
                        step(ballot, idx),
                    )

        yield from walk((), tuple(range(params.word_count)), list(word_symmetries(params)), start)


def representatives(params: Params) -> Iterator[tuple[int, ...]]:
    """The lexicographically least order of every orbit of G, in
    lexicographic order: the blocks of the orbit walk (:class:`_OrbitWalk`),
    each expanded into every arrangement of its remaining words."""
    for prefix, rest, _ in _OrbitWalk(params):
        for tail in permutations(rest):
            yield prefix + tail


def enumerate_feasible(params: Params, jobs: int | None = None) -> CensusResult:
    """Full census of realizable orders.  The orbit walk (:class:`_OrbitWalk`)
    settles the pre-check's refutations by prefix: a block of hits adds its
    ``(len(rest))!`` representatives to the count without building them, and
    the LP runs on every order the pre-check lets through.  ``jobs`` selects
    nothing: the census is one serial pass; the keyword stays for callers."""
    if not _at_most(params, CENSUS_CAP):
        raise ValueError(f"census capped at {CENSUS_CAP} words, got q={params.q} ell={params.ell}")
    total = factorial(params.word_count)
    started = time.monotonic()
    orbit = orbit_size(params)
    walk = _OrbitWalk(params)
    feasible_reps: list[bytes] = []
    swept = settled = silent_infeasible = lp_calls = lp_pivots = 0
    for prefix, rest, hit in walk:
        block = factorial(len(rest))
        swept += block
        if hit:
            settled += block  # refuted by the pre-check, none built
            continue
        for tail in permutations(rest):
            order = prefix + tail
            solution = order_lp_solution(order, params)
            lp_calls += 1
            lp_pivots += solution.pivots
            if solution.x is None:
                silent_infeasible += 1
            else:
                feasible_reps.append(bytes(order))
    if swept * orbit != total:
        raise AssertionError(f"{swept} orbits of {orbit} orders do not cover {total}")
    # every verdict is constant on an orbit: count each representative's
    # orbit, and list every order of a feasible one
    feasible = bytearray()
    for order in sorted(
        rep.translate(g) for g in _translations(params) for rep in feasible_reps
    ):
        feasible += order  # b"".join would first take an 80-byte buffer record per row
    return CensusResult(
        params,
        total,
        PackedRows(feasible, params.word_count),
        orbit * settled,
        orbit * silent_infeasible,
        time.monotonic() - started,
        CensusStats(walk.prefixes, settled, lp_calls, lp_pivots),
    )


# ---------------------------------------------------------------------------
# Value-assignment searches at (q, ell) = (3, 2)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _flow_nodes(params: Params) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per node of the overlap graph but the first, the word indices of the
    non-loop words leaving it and of those entering it.  Loop words cancel
    out.  Each non-loop word leaves one node and enters another, so the
    nodes' imbalances sum to zero and the first node balances when the rest
    do."""
    heads, tails = edge_nodes(params)
    words = range(params.word_count)
    return tuple(
        (
            tuple(i for i in words if heads[i] == v != tails[i]),
            tuple(i for i in words if tails[i] == v != heads[i]),
        )
        for v in range(1, params.node_count)
    )


def _inverse(perm: Sequence[int]) -> itemgetter:
    """The getter of a permutation's inverse: entry i of its result is the
    entry at the position where ``perm`` holds i.  For a rank order it takes
    values over rank positions to word order."""
    return itemgetter(*sorted(range(len(perm)), key=perm.__getitem__))


@dataclass(frozen=True)
class _Candidates:
    """Every increasing length-n sequence over [floor, top] that ends at
    top, in lexicographic order, laid out for byte-parallel tests.

    ``blob`` holds n bytes per sequence; byte j of ``columns[k]`` (little
    end first) is position k's value in sequence j, and ``bias`` has 128 in
    each of its ``count`` bytes.
    """

    count: int
    blob: bytes
    columns: tuple[int, ...]
    bias: int


@lru_cache(maxsize=None)
def _candidates(n: int, floor: int, top: int) -> _Candidates:
    blob = bytes(
        chain.from_iterable(head + (top,) for head in combinations(range(floor, top), n - 1))
    )
    count = len(blob) // n
    columns = tuple(int.from_bytes(blob[k::n], "little") for k in range(n))
    return _Candidates(count, blob, columns, int.from_bytes(b"\x80" * count, "little"))


def _balanced(in_word_order: itemgetter, nodes, n: int, floor: int, top: int) -> list[bytes]:
    """The rank-order values of every flow-balanced sequence in the
    ``_candidates(n, floor, top)`` table, in its lexicographic order, for the
    order whose :func:`_inverse` is ``in_word_order`` and the graph whose
    :func:`_flow_nodes` are ``nodes``.

    One big-integer sum per node tests every sequence at once (Lamport,
    "Multiple byte processing with full-word instructions", CACM 1975):
    byte j of ``bias + entering columns - leaving columns`` is 128 plus the
    node's imbalance in sequence j.  No carry or borrow crosses a byte,
    since the imbalance is at most degree * top < 128 in size: values >= 0
    are distinct and at most top <= REPOSITORY_CAP, so a sequence exists
    only for q^ell <= 18 words, where a node has at most q <= 4 non-loop
    words in and 4 out (at ell = 1 every word is a loop).  A zero byte of
    the OR of ``sum ^ bias`` over the nodes marks a balanced sequence.
    """
    table = _candidates(n, floor, top)
    bias, columns = table.bias, in_word_order(table.columns)
    unbalanced = 0
    for leaving, entering in nodes:
        total = bias
        for i in entering:
            total += columns[i]
        for i in leaving:
            total -= columns[i]
        unbalanced |= total ^ bias
    flags = unbalanced.to_bytes(table.count, "little")
    blob, found = table.blob, []
    j = flags.find(0)
    while j >= 0:
        found.append(blob[j * n : j * n + n])
        j = flags.find(0, j + 1)
    return found


def _tops(n: int, floor: int, cap: int) -> range:
    """The maxima to try, least first: from ``n + floor - 1``, the least
    end of n distinct values >= ``floor``, up to ``cap``.  Refuses what the
    byte-parallel test cannot hold: a negative ``floor``, or a ``cap``
    above :data:`REPOSITORY_CAP`, whose tables would take
    C(cap - floor, n - 1) sequences at the top group alone."""
    if floor < 0:
        raise ValueError(f"values start at floor >= 0, got {floor}")
    if cap > REPOSITORY_CAP:
        raise ValueError(f"cap {cap} is above REPOSITORY_CAP = {REPOSITORY_CAP}")
    return range(n + floor - 1, cap + 1)


def least_max_vectors(
    order: Sequence[int], params: Params, cap: int = 17, floor: int = 1
) -> list[tuple[int, ...]]:
    """Every flow-balanced assignment of distinct values >= ``floor`` in the
    order's rank order at the least maximum within ``cap`` (entries in word
    order, their rank-order values in lexicographic order); empty if no
    maximum within ``cap`` admits one.

    For each maximum from its least value up, one byte-parallel test
    (:func:`_balanced`) checks every increasing sequence that ends at it;
    the first maximum with a balanced sequence is the least.  Raises
    ValueError for ``floor < 0`` or ``cap > REPOSITORY_CAP``.
    """
    n, nodes, in_word_order = len(order), _flow_nodes(params), _inverse(order)
    for top in _tops(n, floor, cap):
        found = _balanced(in_word_order, nodes, n, floor, top)
        if found:
            return list(map(in_word_order, found))
    return []


def minimal_max_vector(
    order: Sequence[int], params: Params, cap: int = 17, floor: int = 1
) -> tuple[int, ...] | None:
    """The flow-balanced assignment minimizing the maximum entry, ties broken
    by the lexicographically smallest vector (entries in word order); None
    if no maximum within ``cap`` admits one."""
    return min(least_max_vectors(order, params, cap, floor), default=None)


def minimal_max_value(
    order: Sequence[int], params: Params, cap: int = 17, floor: int = 1
) -> int | None:
    """Smallest achievable maximum entry for the order, or None within cap.

    With ``floor=0`` the lowest count may be empty; every realizable order
    at these parameters then fits within a maximum of 16.  The strictly
    positive variant can exceed that by exactly one, since shifting every
    entry up by 1 keeps both the balance and the order.
    """
    vec = minimal_max_vector(order, params, cap, floor)
    return None if vec is None else max(vec)


def build_repository(
    census: CensusResult | None = None, jobs: int | None = None
) -> Repository:
    """Construct and sanity-check the full 30240-entry repository.

    Every realizable order must admit an assignment within
    :data:`REPOSITORY_CAP`; failure is a build error, not a skip.  Only the
    census's orbit representatives are searched: in census order, the first
    order whose orbit no earlier order has filled is the least of its orbit.
    A map g of G sends the least-maximum assignments of an order onto those
    of its image, so the image's vector, :func:`minimal_max_vector`'s
    choice, is the least image under g of its representative's assignments.
    Each vector is written into the packed rows at its order's census
    position.  ``jobs`` selects nothing: the build is one serial pass, and
    the keyword stays for callers that still pass it.
    """
    params = Params(BASE_Q, 2)
    if census is None:
        census = enumerate_feasible(params)
    if census.params != params:
        raise ValueError("repository is defined at q=3, window length 2")
    orders = census.feasible
    if len(orders) != BASE_COUNT:
        raise AssertionError(f"census produced {len(orders)} orders, not {BASE_COUNT}")
    # the census is a union of orbits iff every image of every order is a
    # census order, and then each orbit fills its own rows once
    unclosed = "the census is not a union of orbits of the code's symmetries"
    width = params.word_count
    # an assignment to an order, moved to the same ranks of g(order)
    moves = [_inverse(g) for g in word_symmetries(params)]
    tables = list(_translations(params))
    vectors = bytearray(len(orders) * width)
    filled = bytearray(len(orders))
    for k in range(len(orders)):
        if filled[k]:
            continue
        rep = orders.data[k * width : k * width + width]
        try:
            places = [orders.index(rep.translate(table)) for table in tables]
        except ValueError:
            raise AssertionError(unclosed) from None
        for j in places:
            if filled[j]:
                raise AssertionError(unclosed)
            filled[j] = 1
        sols = least_max_vectors(rep, params, REPOSITORY_CAP)
        if not sols:
            raise AssertionError(
                f"no assignment with entries <= {REPOSITORY_CAP} for order {tuple(rep)}"
            )
        for j, move in zip(places, moves):
            vectors[j * width : j * width + width] = min(map(move, sols))
    return Repository(PackedRows(vectors, width))


def compute_c3(repo: Repository) -> int:
    """Largest entry needed across the repository (each stored vector already
    minimizes its own maximum, so this is the worst case over all orders)."""
    return max(repo.vectors.data)


def min_sum_vector(
    perm: RankPermutation, cap: int = 16
) -> FeasibleVector:
    """Strictly positive flow-balanced vector of minimal total for the order,
    ties broken by the lexicographically first values in rank order.

    The balanced sequences come from the byte-parallel test of
    :func:`_balanced`, one maximum at a time; the search stops at the first
    maximum whose least possible total is above the best total found.  The
    total equals the shortest witness length over full-support profiles:
    positive support keeps the overlap graph strongly connected, so the
    minimizing vector is realized by an actual circular string.
    """
    if perm.params != Params(BASE_Q, 2):
        raise ValueError("witness-length search is defined at q=3, window length 2")
    n, nodes, in_word_order = len(perm.order), _flow_nodes(perm.params), _inverse(perm.order)
    best: tuple[int, bytes] | None = None
    for top in _tops(n, 1, cap):
        if best is not None and top + n * (n - 1) // 2 > best[0]:
            break  # 1, 2, ..., n - 1, top is the least total ending at top
        for values in _balanced(in_word_order, nodes, n, 1, top):
            found = (sum(values), values)
            if best is None or found < best:
                best = found
    if best is None:
        raise ValueError(f"no assignment with entries <= {cap}")
    return FeasibleVector(perm.params, in_word_order(best[1]))


def min_string_length(perm: RankPermutation, cap: int = 16) -> int:
    return sum(min_sum_vector(perm, cap).entries)


# ---------------------------------------------------------------------------
# Monochromatic-matching count
# ---------------------------------------------------------------------------

def _has_monochromatic_matching(ranked_sides: Sequence[int], q: int) -> bool:
    """Brute-force matcher: sides listed in rank order, 0 = incoming word,
    1 = outgoing word.  Tries every pairing in both directions."""
    in_positions = [k for k, side in enumerate(ranked_sides) if side == 0]
    out_positions = [k for k, side in enumerate(ranked_sides) if side == 1]
    for matching in permutations(range(q)):
        if all(in_positions[i] < out_positions[matching[i]] for i in range(q)):
            return True  # every incoming word sits below its partner
    for matching in permutations(range(q)):
        if all(in_positions[i] > out_positions[matching[i]] for i in range(q)):
            return True
    return False


def verify_matching_count() -> tuple[int, Fraction]:
    """Count rank orders of a 2q-word neighborhood, q = 3, that certify
    infeasibility.

    Returns the count and its fraction of all (2q)! orders; the matcher here
    is the naive all-pairings search, independent of the ballot test used by
    the fast pre-check.
    """
    q = 3
    count = 0
    total = 0
    for arrangement in permutations(range(2 * q)):
        # arrangement[k] = element placed at rank k; elements 0..q-1 incoming.
        ranked_sides = [0 if e < q else 1 for e in arrangement]
        if _has_monochromatic_matching(ranked_sides, q):
            count += 1
        total += 1
    return count, Fraction(count, total)
