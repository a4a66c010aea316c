"""Exhaustive references the tests check the library against.

Each one searches the whole space the faster library code reasons about:
every arrangement within a transposition distance, every rank order of a
census with both of its decision procedures run on each, or every increasing
value assignment of a rank order by depth-first search.  The repository's
reference builds it one image at a time.  The matching
pre-check's reference reads each node's balance row, built from word tuples,
in rank order.  The noise channel's reference sums over every noisy value
of every count.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations
from math import comb
from operator import itemgetter
from typing import Callable, Sequence

from profilerank.core import (
    PackedRows,
    Params,
    edge_nodes,
    is_constant,
    word_index,
    word_symmetries,
)
from profilerank.encoder import BASE_COUNT, Repository
from profilerank.feasibility import order_lp_solution, order_precheck_witness
from profilerank import oracle

BFS_CAP = 10


def kendall_tau_bfs(a: Sequence, b: Sequence) -> int:
    """Exhaustive distance by searching the transposition graph."""
    a = tuple(a)
    b = tuple(b)
    if sorted(a) != sorted(b):
        raise ValueError("arguments must arrange the same multiset")
    if len(a) > BFS_CAP:
        raise ValueError(f"search fallback capped at length {BFS_CAP}")
    if a == b:
        return 0
    dist = {a: 0}
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        d = dist[cur] + 1
        for i in range(len(cur) - 1):
            if cur[i] == cur[i + 1]:
                continue
            nxt = cur[:i] + (cur[i + 1], cur[i]) + cur[i + 2 :]
            if nxt == b:
                return d
            if nxt not in dist:
                dist[nxt] = d
                queue.append(nxt)
    raise AssertionError("transposition graph is connected on a multiset class")


def balance_rows(params: Params) -> list[list[int]]:
    """Node v's balance row, from word tuples: +1 on the words v + (s,), -1
    on the words (s,) + v, so a loop word cancels."""
    q = params.q
    rows = []
    for v in params.nodes():
        coef = [0] * params.word_count
        for s in range(q):
            coef[word_index(v + (s,), q)] += 1
            coef[word_index((s,) + v, q)] -= 1
        rows.append(coef)
    return rows


def ballot_reference(order: Sequence[int], params: Params):
    """The per-node ballot: each scanned node's balance row read in rank
    order; green if the running sum never rises above 0, red if it never
    drops below 0.  Every letter is scanned at ell = 2, the mixed nodes above,
    and none at ell = 1, whose one node is the empty word."""
    for v, row in zip(params.nodes(), balance_rows(params)):
        if params.ell != 2 and is_constant(v):
            continue
        acc, green, red = 0, True, True
        for idx in order:
            acc += row[idx]
            green = green and acc <= 0
            red = red and acc >= 0
        if green:
            return v, "green"
        if red:
            return v, "red"
    return None


@dataclass(frozen=True)
class FullSweep:
    """The pre-check and the exact LP on every one of the (q^ell)! orders."""

    feasible: tuple[tuple[int, ...], ...]  # pre-check silent, LP feasible; lexicographic
    hit_feasible: int  # pre-check fired, LP feasible
    hit_infeasible: int  # pre-check fired, LP refuted
    silent_infeasible: int  # pre-check silent, LP refuted

    def expected(self) -> tuple:
        """``(feasible, precheck_hit_infeasible, silent_infeasible)`` as a
        census reports them: it runs no LP on a pre-check hit, so every hit
        counts as infeasible."""
        return (self.feasible, self.hit_feasible + self.hit_infeasible, self.silent_infeasible)


@lru_cache(maxsize=None)
def full_sweep(params: Params) -> FullSweep:
    """Both decision procedures on every order, in lexicographic order, in
    one serial pass.  Cached, so one test session sweeps each (q, ell)
    once."""
    feasible = []
    counts = [0, 0, 0]  # hit_feasible, hit_infeasible, silent_infeasible
    for order in permutations(range(params.word_count)):
        hit = order_precheck_witness(order, params) is not None
        lp_feasible = order_lp_solution(order, params).x is not None
        if lp_feasible and not hit:
            feasible.append(order)
        elif hit:
            counts[0 if lp_feasible else 1] += 1
        else:
            counts[2] += 1
    return FullSweep(tuple(feasible), *counts)


def _order_constraints(order: Sequence[int], params: Params):
    """Flow constraints over rank positions, per node: the positions of the
    words leaving it and of those entering it.  Self-loop words cancel out
    and never appear."""
    heads, tails = edge_nodes(params)
    plus: list[list[int]] = [[] for _ in range(params.node_count)]
    minus: list[list[int]] = [[] for _ in range(params.node_count)]
    for k, idx in enumerate(order):
        h, t = heads[idx], tails[idx]
        if h != t:
            plus[h].append(k)
            minus[t].append(k)
    return [(tuple(p), tuple(m)) for p, m in zip(plus, minus)]


def _in_word_order(order: Sequence[int], values: Sequence[int]) -> tuple[int, ...]:
    """Place the value of each rank position on its word index."""
    vec = [0] * len(order)
    for k, idx in enumerate(order):
        vec[idx] = values[k]
    return tuple(vec)


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


def least_max_search(
    order: Sequence[int], params: Params, cap: int, floor: int
) -> list[tuple[int, ...]]:
    """Every balanced assignment of distinct values >= ``floor`` at the least
    maximum within ``cap``, in word order: the allowed maximum is raised one
    step at a time, each step a full depth-first search in rank order."""
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


def min_sum_search(order: Sequence[int], params: Params, cap: int) -> tuple[int, ...]:
    """The balanced assignment of distinct values >= 1 within ``cap`` of least
    total, in word order, by branch and bound on the total: the first found
    in depth-first order among equal totals.  ValueError if there is none."""
    n = len(order)
    cons = _order_constraints(order, params)
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
    return _in_word_order(order, best)


def readout_probability(counts: Sequence[int], noise: Callable[[int], dict]):
    """P(the noisy counts read out the clean rank order), each count c
    noised independently to value v with weight ``noise(c)[v]``.

    The readout is clean when the noisy counts strictly increase along the
    clean order (no tie, no swap).  Over the counts in that order, the chain
    sum F_i(v) = P(w_i = v) * sum_{u < v} F_{i-1}(u) carries the weight of
    the noisy prefixes that increase and end at v; the answer is the total
    of the last F.  Integer weights give an integer, float weights a float.
    """
    chain = {-1: 1}  # the empty prefix, below every value
    for c in sorted(counts):
        values = sorted(chain)
        below = [0, *accumulate(chain[u] for u in values)]
        chain = {v: w * below[bisect_left(values, v)] for v, w in noise(c).items()}
    return sum(chain.values())


def additive_readout_probability(counts: Sequence[int], m: int) -> Fraction:
    """``readout_probability`` under uniform shifts in [-m, m] clamped at 0:
    an integer over (2m+1)^n, the clamp a point mass at 0."""

    def noise(c: int) -> dict[int, int]:
        weights = {v: 1 for v in range(max(1, c - m), c + m + 1)}
        if c <= m:
            weights[0] = m - c + 1  # the shifts to c - m, ..., 0
        return weights

    return Fraction(readout_probability(counts, noise), (2 * m + 1) ** len(counts))


def drop_readout_probability(counts: Sequence[int], rate: float) -> float:
    """``readout_probability`` when each read is lost with ``rate``: kept
    reads of c follow the Binomial(c, 1 - rate) pmf, through ``math.comb``."""
    keep = 1.0 - rate
    return readout_probability(
        counts,
        lambda c: {k: comb(c, k) * keep**k * rate ** (c - k) for k in range(c + 1)},
    )


def build_repository_reference(census: oracle.CensusResult) -> Repository:
    """The repository from a (3,2) census, one image at a time, with the
    checks made one representative at a time.

    Each row of ``census.firsts`` must be the least of its images and above
    the previous row, and each of its kept assignments must rank the words
    as it does, with entries at least 1 and in- and out-sums equal at every
    node.  Each image's vector, the least of the kept assignments
    moved to the same ranks of the image, goes into a dict keyed by the
    image, which is read back in census row order: the census rows must
    increase and be exactly the images.  Raises AssertionError with the
    messages of :func:`oracle.build_repository`."""
    params = census.params
    unclosed = "the census is not a union of orbits of the code's symmetries"
    orders = census.feasible
    if len(orders) != BASE_COUNT:
        raise AssertionError(f"census produced {len(orders)} orders, not {BASE_COUNT}")
    width, size = params.word_count, oracle.orbit_size(params)
    blob, kept, offsets = census.firsts, census.assignments, census.offsets
    firsts = [blob[k : k + width] for k in range(0, len(blob), width)]
    if len(blob) % width or len(firsts) * size != len(orders):
        raise AssertionError(unclosed)
    if len(offsets) != len(firsts) + 1 or offsets[0] or len(kept) != offsets[-1] * width:
        raise AssertionError("the census keeps no assignments for its orbits")
    heads, tails = edge_nodes(params)

    def balanced(sol: bytes) -> bool:
        """Whether each node's leaving words sum to its entering words."""
        leaving, entering = [0] * params.node_count, [0] * params.node_count
        for e, h, t in zip(sol, heads, tails):
            leaving[h] += e
            entering[t] += e
        return leaving == entering

    maps = list(word_symmetries(params))
    # an assignment to an order, moved to the same ranks of g(order)
    moves = [itemgetter(*sorted(range(width), key=g.__getitem__)) for g in maps]
    last = b""
    for rep in firsts:
        if rep <= last or any(bytes(map(g.__getitem__, rep)) < rep for g in maps):
            raise AssertionError(unclosed)
        last = rep
    for r, rep in enumerate(firsts):
        sols = census.assignments_of(r)
        if not sols:
            raise AssertionError(
                f"no assignment with entries <= {oracle.REPOSITORY_CAP} for order {tuple(rep)}"
            )
        if any(
            min(sol) < 1 or not balanced(sol) or any(sol[a] >= sol[b] for a, b in zip(rep, rep[1:]))
            for sol in sols
        ):
            raise AssertionError(f"a kept assignment does not realize order {tuple(rep)}")
    vectors = {}
    for r, rep in enumerate(firsts):
        sols = census.assignments_of(r)
        for g, move in zip(maps, moves):
            vectors[tuple(map(g.__getitem__, rep))] = bytes(min(map(move, sols)))
    rows = list(orders)
    if any(a >= b for a, b in zip(rows, rows[1:])) or vectors.keys() != set(rows):
        raise AssertionError(unclosed)
    return Repository(PackedRows(b"".join(map(vectors.__getitem__, rows)), width))
