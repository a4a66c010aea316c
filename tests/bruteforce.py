"""Exhaustive references the tests check the library against.

Each one searches the whole space the faster library code reasons about:
every arrangement within a transposition distance, or every rank order of a
census with both of its decision procedures run on each.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice, permutations
from math import factorial
from typing import Sequence

from profilerank.core import Params, fan_out, split_range
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

    def expected(self, lp_all: bool) -> tuple:
        """``(feasible, precheck_hit_feasible, precheck_hit_infeasible,
        silent_infeasible)`` as a census reports them: without ``lp_all``
        it runs no LP on a pre-check hit, so every hit counts as infeasible."""
        if lp_all:
            return (self.feasible, self.hit_feasible, self.hit_infeasible, self.silent_infeasible)
        hits = self.hit_feasible + self.hit_infeasible
        return (self.feasible, 0, hits, self.silent_infeasible)


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


def full_sweep(params: Params, jobs: int) -> FullSweep:
    """Both decision procedures on every order, in the lexicographic
    permutation stream split into index ranges."""
    tasks = [(params, piece) for piece in split_range(factorial(params.word_count), jobs)]
    parts = fan_out(_full_sweep_chunk, tasks, jobs)
    counts = [sum(part[1][i] for part in parts) for i in range(3)]
    return FullSweep(tuple(o for part in parts for o in part[0]), *counts)
