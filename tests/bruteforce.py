"""Exhaustive references the tests check the library against.

Each one searches the whole space the faster library code reasons about:
every arrangement within a transposition distance, every rank order of a
census with both of its decision procedures run on each, or every increasing
value assignment of a rank order by depth-first search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, permutations
from math import factorial
from typing import Sequence

from profilerank.core import Params, edge_nodes, fan_out, split_range
from profilerank.feasibility import order_lp_solution, order_precheck_witness

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


def _full_sweep_chunk(args):
    params, piece = args
    feasible = []
    counts = [0, 0, 0]  # hit_feasible, hit_infeasible, silent_infeasible
    for order in islice(permutations(range(params.word_count)), piece.start, piece.stop):
        hit = order_precheck_witness(order, params) is not None
        lp_feasible = order_lp_solution(order, params).x is not None
        if lp_feasible and not hit:
            feasible.append(order)
        elif hit:
            counts[0 if lp_feasible else 1] += 1
        else:
            counts[2] += 1
    return feasible, counts


@lru_cache(maxsize=None)
def full_sweep(params: Params, jobs: int) -> FullSweep:
    """Both decision procedures on every order, in the lexicographic
    permutation stream split into index ranges.  Cached, so one test
    session sweeps each (q, ell) once."""
    tasks = [(params, piece) for piece in split_range(factorial(params.word_count), jobs)]
    parts = fan_out(_full_sweep_chunk, tasks, jobs)
    counts = [sum(part[1][i] for part in parts) for i in range(3)]
    return FullSweep(tuple(o for part in parts for o in part[0]), *counts)


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
