"""Brute-force ground truth at desk scale.

Everything here enumerates: the full census of rank orders (capped at 9
words, i.e. 9! cases), the repository of minimal realizable matrices, the
smallest witness lengths, and the monochromatic-matching count that the
counting bound rests on.  The census is embarrassingly parallel; work is
split into index ranges of the lexicographic permutation stream and merged
by count, so results are independent of the worker layout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, permutations
from math import factorial
from typing import Sequence

from .core import Params, RankPermutation, fan_out, split_range
from .encoder import BASE_COUNT, BASE_Q, Repository
from .feasibility import (
    FeasibleVector,
    constraint_tables,
    order_lp_solution,
    order_precheck_witness,
)

CENSUS_CAP = 9  # largest q^ell whose full permutation set we will sweep


@dataclass(frozen=True)
class CensusResult:
    params: Params
    total: int
    feasible: tuple[tuple[int, ...], ...]  # rank orders, lexicographic
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


def _sweep_chunk(args) -> tuple[list[tuple[int, ...]], int, int, int]:
    params, lp_all, piece = args
    tables = constraint_tables(params)
    feasible: list[tuple[int, ...]] = []
    hit_feasible = hit_infeasible = silent_infeasible = 0
    stream = islice(permutations(range(params.word_count)), piece.start, piece.stop)
    for order in stream:
        hit = order_precheck_witness(order, tables)
        if hit is None:
            if order_lp_solution(order, tables).x is not None:
                feasible.append(order)
            else:
                silent_infeasible += 1
        elif lp_all:
            if order_lp_solution(order, tables).x is not None:
                hit_feasible += 1
            else:
                hit_infeasible += 1
        else:
            hit_infeasible += 1
    return feasible, hit_feasible, hit_infeasible, silent_infeasible


def _sweep(params: Params, lp_all: bool, jobs: int | None) -> CensusResult:
    if params.word_count > CENSUS_CAP:
        raise ValueError(
            f"census capped at {CENSUS_CAP} words, got {params.word_count}"
        )
    total = factorial(params.word_count)
    started = time.monotonic()
    tasks = [(params, lp_all, piece) for piece in split_range(total, jobs)]
    parts = fan_out(_sweep_chunk, tasks, jobs)
    feasible: list[tuple[int, ...]] = []
    hit_f = hit_i = silent_i = 0
    for part in parts:
        feasible.extend(part[0])
        hit_f += part[1]
        hit_i += part[2]
        silent_i += part[3]
    return CensusResult(
        params,
        total,
        tuple(feasible),
        hit_f,
        hit_i,
        silent_i,
        lp_all,
        time.monotonic() - started,
    )


def enumerate_feasible(params: Params, jobs: int | None = None) -> CensusResult:
    """Full census of realizable orders; the pre-check short-circuits the LP
    on orders it already refutes."""
    return _sweep(params, lp_all=False, jobs=jobs)


def precheck_completeness_gap(params: Params, jobs: int | None = None) -> CensusResult:
    """Census variant that runs the LP on every order regardless of the
    pre-check, yielding the full confusion counts between the two tests."""
    return _sweep(params, lp_all=True, jobs=jobs)


# ---------------------------------------------------------------------------
# Value-assignment searches at (q, ell) = (3, 2)
# ---------------------------------------------------------------------------

def _order_constraints(order: Sequence[int], params: Params):
    """Flow constraints over rank positions: (plus_positions, minus_positions).

    Self-loop words cancel out and never appear.
    """
    tables = constraint_tables(params)
    pos = [0] * len(order)
    for k, idx in enumerate(order):
        pos[idx] = k
    cons = []
    for coef in tables.lp_rows:
        plus = [pos[idx] for idx, c in enumerate(coef) if c > 0]
        minus = [pos[idx] for idx, c in enumerate(coef) if c < 0]
        cons.append((tuple(plus), tuple(minus)))
    return cons


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


def minimal_max_vector(
    order: Sequence[int], params: Params, cap: int = 17, floor: int = 1
) -> tuple[int, ...] | None:
    """The flow-balanced assignment minimizing the maximum entry, ties broken
    by the lexicographically smallest vector (entries in word order).

    The allowed maximum is raised one step at a time from its least value,
    each step a full depth-first search over distinct values >= ``floor``;
    None if no maximum within ``cap`` admits one.
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
            return min(sols)
    return None


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


def _repo_chunk(args) -> list[tuple[int, ...]]:
    orders, cap = args
    params = Params(BASE_Q, 2)
    out = []
    for order in orders:
        vec = minimal_max_vector(order, params, cap)
        if vec is None:
            raise AssertionError(
                f"no assignment with entries <= {cap} for order {order}"
            )
        out.append(vec)
    return out


def build_repository(
    census: CensusResult | None = None,
    cap: int = 17,
    jobs: int | None = None,
) -> Repository:
    """Construct and sanity-check the full 30240-entry repository.

    Every realizable order must admit an assignment within ``cap``; failure
    is a build error, not a skip.  The default cap is 17: the nonnegative
    minimal maximum is at most 16 for every realizable order (verified
    exhaustively), and the strict positivity the encoders rely on costs at
    most a +1 shift on top of that.
    """
    params = Params(BASE_Q, 2)
    if census is None:
        census = enumerate_feasible(params, jobs=jobs)
    if census.params != params:
        raise ValueError("repository is defined at q=3, window length 2")
    orders = census.feasible
    if len(orders) != BASE_COUNT:
        raise AssertionError(f"census produced {len(orders)} orders, not {BASE_COUNT}")
    tasks = [(orders[r.start : r.stop], cap) for r in split_range(len(orders), jobs)]
    parts = fan_out(_repo_chunk, tasks, jobs)
    return Repository(tuple(vec for part in parts for vec in part))


def compute_c3(repo: Repository) -> int:
    """Largest entry needed across the repository (each stored vector already
    minimizes its own maximum, so this is the worst case over all orders)."""
    return max(max(vec) for vec in repo.vectors)


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


def verify_matching_count(q: int = 3) -> tuple[int, Fraction]:
    """Count rank orders of a 2q-word neighborhood that certify infeasibility.

    Returns the count and its fraction of all (2q)! orders; the matcher here
    is the naive all-pairings search, independent of the ballot test used by
    the fast pre-check.
    """
    if q != 3:
        raise ValueError("exhaustive matching count is run at q=3 only")
    count = 0
    total = 0
    for arrangement in permutations(range(2 * q)):
        # arrangement[k] = element placed at rank k; elements 0..q-1 incoming.
        ranked_sides = [0 if e < q else 1 for e in arrangement]
        if _has_monochromatic_matching(ranked_sides, q):
            count += 1
        total += 1
    return count, Fraction(count, total)
