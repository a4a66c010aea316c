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
at 9 words).  Both are one serial pass over the representatives:
at (3,2), the largest census input, a pass takes a fraction of a second,
less than a worker pool costs to start.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial
from operator import itemgetter
from typing import Iterator, Sequence

from .core import PackedRows, Params, RankPermutation, edge_nodes, word_symmetries
from .encoder import BASE_COUNT, BASE_Q, Repository
from .feasibility import FeasibleVector, order_lp_solution, order_precheck_witness

CENSUS_CAP = 9  # largest q^ell whose full permutation set we will sweep
# Largest repository entry.  With zero allowed, every realizable (3,2) order
# fits with entries <= 16 (verified exhaustively); the strictly positive
# entries the encoders need cost at most a +1 shift, and 72 orders need it.
REPOSITORY_CAP = 17


@dataclass(frozen=True)
class CensusResult:
    """One census sweep.  ``feasible`` holds the realizable rank orders as
    packed rows, one byte per word index and ``params.word_count`` bytes a
    row, sorted: byte order is the orders' lexicographic order, so row i
    reads back as the i-th realizable order."""

    params: Params
    total: int
    feasible: PackedRows  # rank orders, lexicographic
    precheck_hit_feasible: int  # pre-check fired yet the LP succeeded (must be 0)
    precheck_hit_infeasible: int
    silent_infeasible: int  # pre-check silent, LP refuted
    lp_checked_all: bool
    elapsed: float

    @property
    def count(self) -> int:
        return len(self.feasible) + self.precheck_hit_feasible

    def summary(self) -> str:
        lines = [
            f"census q={self.params.q} ell={self.params.ell}",
            f"permutations={self.total}",
            f"feasible={self.count}",
            f"precheck_hit_infeasible={self.precheck_hit_infeasible}",
            f"silent_infeasible={self.silent_infeasible}",
        ]
        if self.lp_checked_all:
            lines.append(f"precheck_hit_feasible={self.precheck_hit_feasible}")
        lines.append(f"elapsed_seconds={self.elapsed:.1f}")
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


def representatives(params: Params) -> Iterator[tuple[int, ...]]:
    """The lexicographically least order of every orbit of G, in
    lexicographic order.

    Orderly generation with an explicit stabilizer: a depth-first walk over
    prefixes holds the maps of G that fix the prefix word by word.  A map
    that fixes the prefix and sends the next word lower sends the whole
    order lower, so such a word is skipped; the maps that send it higher
    can no longer send the order lower and are dropped, and those that fix
    it are kept.  Once the identity is the only map left, every arrangement
    of the remaining words is least in its orbit.
    """

    def walk(prefix, rest, stabilizer):
        if len(stabilizer) == 1:
            for tail in permutations(rest):
                yield prefix + tail
            return
        for idx in rest:
            if all(g[idx] >= idx for g in stabilizer):
                yield from walk(
                    prefix + (idx,),
                    tuple(i for i in rest if i != idx),
                    [g for g in stabilizer if g[idx] == idx],
                )

    yield from walk((), tuple(range(params.word_count)), list(word_symmetries(params)))


def _sweep(params: Params, lp_all: bool) -> CensusResult:
    if params.word_count > CENSUS_CAP:
        raise ValueError(
            f"census capped at {CENSUS_CAP} words, got {params.word_count}"
        )
    total = factorial(params.word_count)
    started = time.monotonic()
    orbit = orbit_size(params)
    feasible_reps: list[bytes] = []
    swept = hit_feasible = hit_infeasible = silent_infeasible = 0
    for order in representatives(params):
        swept += 1
        hit = order_precheck_witness(order, params)
        if hit is None:
            if order_lp_solution(order, params).x is not None:
                feasible_reps.append(bytes(order))
            else:
                silent_infeasible += 1
        elif lp_all and order_lp_solution(order, params).x is not None:
            hit_feasible += 1
        else:
            hit_infeasible += 1
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
        orbit * hit_feasible,
        orbit * hit_infeasible,
        orbit * silent_infeasible,
        lp_all,
        time.monotonic() - started,
    )


def enumerate_feasible(params: Params, jobs: int | None = None) -> CensusResult:
    """Full census of realizable orders; the pre-check short-circuits the LP
    on orders it already refutes.  ``jobs`` selects nothing: the census is
    one serial pass, and the keyword stays for callers that still pass it."""
    return _sweep(params, lp_all=False)


def precheck_completeness_gap(params: Params) -> CensusResult:
    """Census variant that runs the LP on every order regardless of the
    pre-check, yielding the full confusion counts between the two tests."""
    return _sweep(params, lp_all=True)


# ---------------------------------------------------------------------------
# Value-assignment searches at (q, ell) = (3, 2)
# ---------------------------------------------------------------------------

def _order_constraints(order: Sequence[int], params: Params):
    """Flow constraints over rank positions: (plus_positions, minus_positions).

    Self-loop words cancel out and never appear.
    """
    heads, tails = edge_nodes(params)
    plus: list[list[int]] = [[] for _ in range(params.node_count)]
    minus: list[list[int]] = [[] for _ in range(params.node_count)]
    for k, idx in enumerate(order):
        h, t = heads[idx], tails[idx]
        if h != t:
            plus[h].append(k)
            minus[t].append(k)
    return [(tuple(p), tuple(m)) for p, m in zip(plus, minus)]


def _prefix_balanced(cons, values: list[int], k: int, v: int, cap: int, n: int) -> bool:
    """Whether ``values[:k+1]`` (with ``values[k] == v``) can still balance
    every constraint once the later positions j > k take increasing values
    in their reachable ranges [v + j - k, cap - (n-1-j)]."""
    for plus, minus in cons:
        acc = 0
        lo = hi = 0
        for j in plus:
            if j <= k:
                acc += values[j]
            else:
                lo += v + j - k
                hi += cap - (n - 1 - j)
        for j in minus:
            if j <= k:
                acc -= values[j]
            else:
                lo -= cap - (n - 1 - j)
                hi -= v + j - k
        if not (acc + lo <= 0 <= acc + hi):
            return False
    return True


def _in_word_order(order: Sequence[int], values: Sequence[int]) -> tuple[int, ...]:
    """Place the value of each rank position on its word index."""
    vec = [0] * len(order)
    for k, idx in enumerate(order):
        vec[idx] = values[k]
    return tuple(vec)


def least_max_vectors(
    order: Sequence[int], params: Params, cap: int = 17, floor: int = 1
) -> list[tuple[int, ...]]:
    """Every flow-balanced assignment of distinct values >= ``floor`` in the
    order's rank order at the least maximum within ``cap`` (entries in word
    order, in the search's order); empty if no maximum within ``cap``
    admits one.

    The allowed maximum is raised one step at a time from its least value,
    each step a full depth-first search over distinct values >= ``floor``.
    """
    n = len(order)
    cons = _order_constraints(order, params)
    values = [0] * n
    for top in range(n + floor - 1, cap + 1):
        sols: list[tuple[int, ...]] = []

        def rec(k: int, prev: int) -> None:
            if k == n:
                sols.append(_in_word_order(order, values))
                return
            for v in range(prev + 1, top - (n - 1 - k) + 1):
                values[k] = v
                if _prefix_balanced(cons, values, k, v, top, n):
                    rec(k + 1, v)

        rec(0, floor - 1)
        if sols:
            return sols
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
    moves = [
        itemgetter(*sorted(range(width), key=g.__getitem__)) for g in word_symmetries(params)
    ]
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
    found by branch and bound on the total.

    The total equals the shortest witness length over full-support profiles:
    positive support keeps the overlap graph strongly connected, so the
    minimizing vector is realized by an actual circular string.
    """
    if perm.params != Params(BASE_Q, 2):
        raise ValueError("witness-length search is defined at q=3, window length 2")
    n = len(perm.order)
    cons = _order_constraints(perm.order, perm.params)
    best: tuple[int, ...] | None = None
    best_sum = cap * n + 1
    values = [0] * n

    def rec(k: int, prev: int, total: int) -> None:
        nonlocal best, best_sum
        if total + sum(range(prev + 1, prev + 1 + (n - k))) >= best_sum:
            return
        if k == n:
            best, best_sum = tuple(values), total
            return
        for v in range(prev + 1, cap - (n - 1 - k) + 1):
            values[k] = v
            if _prefix_balanced(cons, values, k, v, cap, n):
                rec(k + 1, v, total + v)

    rec(0, 0, 0)
    if best is None:
        raise ValueError(f"no assignment with entries <= {cap}")
    return FeasibleVector(perm.params, _in_word_order(perm.order, best))


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
