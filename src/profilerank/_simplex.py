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
which is also Bland's leaving rule.

Packed columns.  Each column c of T is stored as one Python integer
``Tcol_c = sum_i T[i][c] * 2^(k i)``: m signed fields of k bits, k a
multiple of 8.  Packing is linear over the integers, so matrix arithmetic
on T becomes arithmetic on m integers, done in C:

- ``w = T A_enter`` is the packed ``W = sum_c A_enter[c] Tcol_c``;
- row ``leave`` of T, which the update and y need, is one shift and mask of
  each column;
- the Bareiss update of every row, ``T'[i] = (pivot T[i] - w_i T[leave])
  / D`` for ``i != leave`` with row ``leave`` kept, is per column
  ``Tcol_c <- (pivot Tcol_c - T[leave][c] W') // D`` with ``W' = W -
  (D << k leave)``: the field ``leave`` of ``W'`` is ``pivot - D``, which
  leaves that row unchanged.  Every field of the product is divisible by
  D, so the packed integer is, and the quotient packs the quotients.

The packed sum of integers ``v_i`` is unique and can be read back field by
field only while every ``|v_i| < 2^(k-1)``: adding ``2^(k-1)`` to every
field then makes the fields the bytes of a non-negative integer.  So the
solver keeps a bound M on ``|T[i][c]|`` and checks it before every result
it reads or stores:

- before ``w`` is decoded, ``M * |A_enter|_1 < 2^(k-1)``, which bounds w;
- before the update, ``M' = (pivot M + max|T[leave]| max|w'|) // D + 1 <
  2^(k-1)``, where ``w'`` is w with ``pivot - D`` in row ``leave``; M'
  bounds the new T and becomes M.

When a check fails, T is decoded at the old width, which is still valid,
and packed again at a width that passes, with M reset to the exact
maximum.  A new width is a power of two of at least 16 bits, so that
fields of 16, 32 and 64 bits decode through the array module and a solve
widens only a few times, and it leaves a quarter of its bits, and at least
8, spare for D to grow.  Per pivot the work is one pricing call, one column, O(m)
big integer operations on m k-bit integers and O(m) small ones for ``w``,
``D x_B`` and ``y``.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from math import gcd
from operator import mul
from typing import Callable, NamedTuple, Sequence

# Degenerate pivots in a row after which Bland's rule takes over.
DEGENERATE_STREAK = 20

# Initial packed field width in bits; any multiple of 8 is correct.
FIRST_FIELD_BITS = 32

# Signed array typecodes by item size: fields of one machine word are read
# by the array module, wider ones by int.from_bytes.
_WORD_CODES = {array(c).itemsize: c for c in "qlih"}


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
    field_bits: int  # final width of a packed field of T
    widenings: int  # times T was packed again at a larger width


class _Fields:
    """m signed k-bit fields packed into one integer: ``sum v_i 2^(k i)``."""

    __slots__ = ("m", "k", "size", "half", "bias", "mask", "word")

    def __init__(self, m: int, k: int):
        self.m, self.k, self.size = m, k, k // 8
        self.half = 1 << (k - 1)
        # 2^(k-1) in every field: added, it makes every field non-negative.
        self.bias = self.half * (((1 << (k * m)) - 1) // ((1 << k) - 1))
        self.mask = (1 << k) - 1
        self.word = _WORD_CODES.get(self.size)  # array typecode, if one fits

    def pack(self, values: Sequence[int]) -> int:
        k = self.k
        return sum(v << (k * i) for i, v in enumerate(values) if v)

    def unpack(self, packed: int) -> list[int]:
        """Every field; valid only while each is below 2^(k-1) in magnitude.

        With the bias added every field holds ``v + 2^(k-1)``; flipping its
        top bit turns that into the k-bit two's complement of v.
        """
        bias, size = self.bias, self.size
        data = ((packed + bias) ^ bias).to_bytes(self.m * size, "little")
        if self.word is None:
            return [
                int.from_bytes(data[i : i + size], "little", signed=True)
                for i in range(0, len(data), size)
            ]
        words = array(self.word, data)
        if sys.byteorder == "big":
            words.byteswap()
        return words.tolist()

    def row(self, packed: Sequence[int], i: int) -> list[int]:
        """Field i of every integer in ``packed``."""
        shift = self.k * i
        low = self.bias & ((1 << (shift + self.k)) - 1)
        mask, half = self.mask, self.half
        return [((t + low) >> shift & mask) - half for t in packed]


@lru_cache(maxsize=None)
def _fields(m: int, k: int) -> _Fields:
    return _Fields(m, k)


def _holding(m: int, need: int) -> _Fields:
    """The narrowest width of at least 16 bits, a power of two, that holds
    magnitudes up to ``need`` with max(8, a quarter) of its bits to spare."""
    bits = need.bit_length() + 1
    bits += max(8, bits // 4)
    return _fields(m, max(16, 1 << (bits - 1).bit_length()))


def _repack(
    cols: list[int], fields: _Fields, need: Callable[[int], int]
) -> tuple[list[int], _Fields, int]:
    """Decode T at the old width and pack it at one where ``need(M)`` fits,
    M being the exact largest magnitude of T; returns the columns, the new
    width and M."""
    matrix = [fields.unpack(t) for t in cols]
    bound = max(max(map(abs, c)) for c in matrix)
    wide = _holding(fields.m, max(need(bound), bound))
    return [wide.pack(c) for c in matrix], wide, bound


def phase1(
    rhs: Sequence[int],
    n: int,
    column: Callable[[int], Sequence[int]],
    price: Callable[[list[int]], list[int]],
) -> Phase1:
    """Phase-1 simplex on ``A x = rhs, x >= 0`` for the n columns of A."""
    m = len(rhs)
    xb = [abs(b) for b in rhs]  # D * x_B
    y = [-1 if b < 0 else 1 for b in rhs]  # D * pi: the sum of artificial rows of T
    fields = _fields(m, FIRST_FIELD_BITS)
    cols = [s << (fields.k * i) for i, s in enumerate(y)]  # T = diag(sign b)
    bound = 1  # every |T[i][c]| <= bound < 2^(k-1)
    basis = list(range(n, n + m))  # labels n + i are artificial
    denom = 1
    pivots = bland = streak = widenings = 0

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
        norm = sum(map(abs, col))
        if bound * norm >= fields.half:
            cols, fields, bound = _repack(cols, fields, lambda b: b * norm)
            widenings += 1
        packed_w = sum(map(mul, col, cols))
        w = fields.unpack(packed_w)  # D * B^-1 A_enter

        leave = -1
        best_num = best_den = 0
        for i, a in enumerate(w):
            if a <= 0:
                continue
            num = xb[i]
            if leave < 0 or num * best_den < best_num * a or (
                num * best_den == best_num * a and basis[i] < basis[leave]
            ):
                leave, best_num, best_den = i, num, a
        if leave < 0:
            raise AssertionError("phase-1 objective cannot be unbounded")

        pivot = w[leave]
        prow = fields.row(cols, leave)
        w[leave] = pivot - denom  # w': the update then keeps row leave
        grow = max(map(abs, prow)) * max(map(abs, w))

        def next_bound(b: int) -> int:
            return (pivot * b + grow) // denom + 1

        if next_bound(bound) >= fields.half:
            cols, fields, bound = _repack(cols, fields, next_bound)
            widenings += 1
            packed_w = fields.pack(w)
        else:
            packed_w -= denom << (fields.k * leave)
        cols = [(pivot * t - p * packed_w) // denom for t, p in zip(cols, prow)]
        bound = next_bound(bound)
        x_leave = xb[leave]
        xb = [(a * pivot - f * x_leave) // denom for a, f in zip(xb, w)]
        y = [(a * pivot - score * b) // denom for a, b in zip(y, prow)]
        streak = streak + 1 if best_num == 0 else 0
        basis[leave] = enter
        denom = pivot
        pivots += 1

    if any(xb[i] for i, j in enumerate(basis) if j >= n):
        # Artificial mass is left: y A <= 0 (nothing prices in) and
        # y b = D * objective > 0.
        g = gcd(*y)
        farkas = [v // g for v in y]
        return Phase1(None, denom, farkas, pivots, bland, fields.k, widenings)
    x = [0] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = xb[i]
    return Phase1(x, denom, None, pivots, bland, fields.k, widenings)

