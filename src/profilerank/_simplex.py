"""Exact phase-1 simplex for integer equality systems with sign constraints.

Decides whether ``{x >= 0 : A x = b}`` is non-empty for an integer m x n
matrix ``A`` and integer ``b``.  When it is, the result holds a rational x;
when it is not, it holds a Farkas vector y with ``y A <= 0`` and ``y b > 0``,
which proves it.

The method is a revised simplex on the phase-1 problem, with one artificial
column per row.  It stores only ``T = D B^-1`` (m x m) and ``D x_B``, where
B is the basis matrix and ``D = |det B|``.  Both stay integral under
fraction-free updates (Bareiss 1968): every division by the previous ``D``
is exact.  The artificial basis starts as ``diag(sign b)``, so the system is
used as given, and an artificial column that leaves the basis never
re-enters.

The caller supplies A through two functions: ``column(j)`` returns column j,
and ``price(y)`` returns ``y A_j`` for every column j, where ``y = D pi`` is
the scaled simplex multiplier.  A column with a positive value lowers the
phase-1 objective.  The largest one enters (Dantzig), ties going to the
smallest index.  After ``DEGENERATE_STREAK`` pivots in a row that leave the
objective unchanged, Bland's smallest-index rule takes over until the next
pivot that lowers it.  Bland's rule cannot cycle, so the method terminates.
The ratio test cross-multiplies and breaks ties by the smallest basis label,
which is also Bland's leaving rule.  Per pivot the work is one pricing call,
one column and O(m^2) integer updates.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Callable, NamedTuple, Sequence

# Degenerate pivots in a row after which Bland's rule takes over.
DEGENERATE_STREAK = 20


class Phase1(NamedTuple):
    """Outcome of :func:`phase1`.

    Exactly one of ``x`` and ``farkas`` is set.  ``x[j] / denom`` is a
    solution; ``farkas`` is an integer y with ``y A <= 0`` and ``y b > 0``.
    """

    x: list[int] | None
    denom: int
    farkas: list[int] | None
    pivots: int
    bland_pivots: int  # pivots chosen by Bland's rule during degenerate streaks


def phase1(
    rhs: Sequence[int],
    n: int,
    column: Callable[[int], Sequence[int]],
    price: Callable[[list[int]], list[int]],
) -> Phase1:
    """Phase-1 simplex on ``A x = rhs, x >= 0`` for the n columns of A."""
    m = len(rhs)
    # Row i: T_i followed by D * x_B[i].  Basis labels n + i are artificial.
    rows = [[0] * m + [abs(b)] for b in rhs]
    y = [-1 if b < 0 else 1 for b in rhs]  # D * pi: the sum of artificial rows of T
    for i, s in enumerate(y):
        rows[i][i] = s
    basis = list(range(n, n + m))
    denom = 1
    pivots = bland = streak = 0

    while True:
        scores = price(y)
        score = max(scores, default=0)
        if score <= 0:
            break
        if streak < DEGENERATE_STREAK:
            enter = scores.index(score)
        else:
            enter = next(j for j, s in enumerate(scores) if s > 0)
            score = scores[enter]
            bland += 1
        col = column(enter)
        w = [sum(map(mul, row, col)) for row in rows]  # D * B^-1 A_enter

        leave = -1
        best_num = best_den = 0
        for i, a in enumerate(w):
            if a <= 0:
                continue
            num = rows[i][m]
            if leave < 0 or num * best_den < best_num * a or (
                num * best_den == best_num * a and basis[i] < basis[leave]
            ):
                leave, best_num, best_den = i, num, a
        if leave < 0:
            raise AssertionError("phase-1 objective cannot be unbounded")

        pivot = w[leave]
        prow = rows[leave]
        for i, f in enumerate(w):
            if i == leave:
                continue
            if f:
                rows[i] = [(a * pivot - f * b) // denom for a, b in zip(rows[i], prow)]
            elif pivot != denom:
                rows[i] = [a * pivot // denom for a in rows[i]]
        y = [(a * pivot - score * b) // denom for a, b in zip(y, prow)]
        streak = streak + 1 if best_num == 0 else 0
        basis[leave] = enter
        denom = pivot
        pivots += 1

    if any(rows[i][m] for i, j in enumerate(basis) if j >= n):
        # Artificial mass is left: y A <= 0 (nothing prices in) and
        # y b = D * objective > 0.
        g = gcd(*y)
        return Phase1(None, denom, [v // g for v in y], pivots, bland)
    x = [0] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = rows[i][m]
    return Phase1(x, denom, None, pivots, bland)


def solve_nonnegative(
    rows: list[list[int]], rhs: list[int]
) -> list[Fraction] | None:
    """Return some x >= 0 with ``rows @ x == rhs``, or None if there is none."""
    n = len(rows[0]) if rows else 0
    cols = list(zip(*rows))
    result = phase1(
        rhs, n, cols.__getitem__, lambda y: [sum(map(mul, y, c)) for c in cols]
    )
    if result.x is None:
        return None
    return [Fraction(v, result.denom) for v in result.x]
