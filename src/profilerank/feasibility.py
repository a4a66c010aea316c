"""Deciding which rank permutations are realizable by profile vectors.

The decision procedure is an exact rational feasibility LP: a permutation is
realizable iff there is a vector with all entries >= 1, unit separation
between consecutive ranks, and equal in/out sums at every overlap node.  The
separation constraints are kept only between adjacent ranks (transitivity
makes the all-pairs version equivalent) and the LP is solved after the
substitution ``value(rank k) = k + e_1 + ... + e_k`` with slack variables
``e >= 0``, which folds the ordering and lower-bound constraints into plain
sign constraints and leaves one integer equality per node.  When that system
has no solution, the simplex returns a Farkas vector over the nodes, which is
checked before the verdict is returned.  No floating point appears anywhere
on the decision path.

A cheap necessary condition is checked first: a node whose incoming words can
all be matched below (or all above) its outgoing words certifies that the
in/out sums cannot balance.  Existence of such a monochromatic matching is a
ballot test on the rank order restricted to the node's neighborhood.  For
window length 2 every node is a single letter, so the test drops the
self-loop word from both sides and applies the same flow argument to the
remaining pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import lt, mul
from typing import Iterable, NamedTuple, Sequence

from ._simplex import Phase1, phase1
from .core import (
    Params,
    ProfileVector,
    RankPermutation,
    Word,
    _at_most,
    _rows,
    edge_nodes,
    first_flow_violation,
    index_to_word,
    is_constant,
    parse_int,
    parse_vector_text,
    read_back,
    satisfies,
    vector_text,
    word_label,
)


@dataclass(frozen=True)
class FeasibleVector:
    """Exact vector realizing a permutation: word ``i`` has the value
    ``entries[i] / denom``.

    The entries are integers and ``denom >= 1`` shares no factor with all of
    them, so each vector has one form and ``==`` compares values.  Further
    invariants (enforced by :meth:`check`): every value >= 1, values
    pairwise distinct, and in/out sums balance at every node.
    """

    params: Params
    entries: tuple[int, ...]
    denom: int = 1

    def __post_init__(self) -> None:
        # math.gcd also raises TypeError on an entry that is not an integer.
        if self.denom < 1 or math.gcd(self.denom, *self.entries) != 1:
            raise ValueError("denominator must be >= 1 and in lowest terms")

    def check(self, perm: RankPermutation | None = None) -> None:
        """Raise ValueError unless the invariants hold (and the entries
        realize ``perm``, when given).

        The checks run on the integer entries: the common denominator keeps
        sums, order and equality.
        """
        p, values = self.params, self.entries
        if len(values) != p.word_count:
            raise ValueError("entry count does not match q^ell")
        if min(values) < self.denom:
            raise ValueError("entries must all be >= 1")
        if len(set(values)) != len(values):
            raise ValueError("entries must be pairwise distinct")
        if p.ell >= 2:
            v = first_flow_violation(values, p)
            if v is not None:
                raise ValueError(f"flow violated at node {word_label(v)}")
        if perm is not None and not satisfies(values, perm, p):
            raise ValueError("vector does not realize the stated permutation")

    def to_profile(self) -> ProfileVector:
        """The entries as a profile: the vector times its denominator, the
        least integer multiple of it."""
        return ProfileVector(self.params, self.entries)

    def to_text(self) -> str:
        return vector_text(self.params, [Fraction(e, self.denom) for e in self.entries])

    @classmethod
    def from_text(cls, text: str) -> "FeasibleVector":
        params, fields = parse_vector_text(text, "vector")
        pairs = enumerate((f.partition("/") for f in fields), 2)
        try:
            values = [
                Fraction(parse_int(n, "vector", k), parse_int(d or "1", "vector", k))
                for k, (n, _, d) in pairs
            ]
        except ZeroDivisionError:
            raise ValueError("a vector entry has denominator 0") from None
        # Over the lcm of the reduced denominators the entries are in lowest
        # terms: each prime of it divides one denominator fully.
        d = math.lcm(*(v.denominator for v in values))
        vec = cls(params, tuple(v.numerator * (d // v.denominator) for v in values), d)
        read_back(text, vec.to_text(), "vector")
        return vec


class RowError(ValueError):
    """A packed row that fails :meth:`FeasibleVector.check`: the check's
    message, and ``row``, the row's index."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


def check_rows(params: Params, data: bytes, orders: bytes) -> None:
    """Raise ValueError unless each packed row of ``data`` (one byte per
    entry, in word order) passes :meth:`FeasibleVector.check` against the
    same row of ``orders``, rank orders packed alike.  One ``min``, a
    compare per column of the rows read along their orders, and one
    :func:`core.first_flow_violation` on the columns as integers of 2-byte
    fields (no carry crosses one: q * 255 < 2^16) test all rows at once; on
    a failure each row is checked alone, and the first one's message is
    raised as a :class:`RowError` that names it."""
    w = params.word_count
    if len(data) % w or len(orders) != len(data):
        raise ValueError("entry count does not match q^ell")
    # each row read along its order; an index past the words reads 0
    tables = map(bytes.ljust, _rows(data, w), repeat(256), repeat(b"\0"))
    ranked = b"".join(map(bytes.translate, _rows(orders, w), tables))
    wide, columns = bytearray(2 * len(data) // w), []
    for k in range(w):
        wide[::2] = data[k::w]  # each entry, then a 0 byte
        columns.append(int.from_bytes(wide, "little"))
    if (
        min(ranked, default=1) >= 1
        and all(all(map(lt, ranked[k::w], ranked[k + 1 :: w])) for k in range(w - 1))
        and (params.ell < 2 or params.q < 258 and first_flow_violation(columns, params) is None)
    ):
        return
    for k, (row, order) in enumerate(zip(_rows(data, w), _rows(orders, w))):
        try:
            FeasibleVector(params, tuple(row)).check(RankPermutation(params, tuple(order)))
        except ValueError as e:
            raise RowError(str(e), k) from None


@dataclass(frozen=True)
class MatchingWitness:
    """A node certifying infeasibility, plus the matching color found there."""

    node: Word
    color: str  # "green": all in-words below out-partners; "red": reversed

    def describe(self) -> str:
        return f"monochromatic {self.color} matching at node {word_label(self.node)}"


@dataclass(frozen=True)
class Verdict:
    """A decision with its certificate.

    A feasible verdict carries a checked ``vector``.  An infeasible one
    carries a ``witness`` description and, when the LP refuted the order, the
    checked node weights ``farkas`` (see :func:`check_farkas`).
    """

    feasible: bool
    vector: FeasibleVector | None = None
    witness: str | None = None
    farkas: tuple[int, ...] | None = None

    def to_text(self) -> str:
        if self.feasible:
            assert self.vector is not None
            return "status=feasible\n" + self.vector.to_text()
        return f"status=infeasible witness={self.witness}\n"


class _Ballot(NamedTuple):
    """The matching pre-check's ballot state after a prefix of a rank
    order, one part per overlap node.

    The ballot goes up the ranks keeping, per node, the words placed so far
    that leave it minus those that enter it (a loop word does both and
    changes nothing).  A node is green while that count never rises above
    0, red while it never drops below 0 (never both: its first crossing
    word moves it).  Every node has q words leaving and q entering, so the
    count ends at 0, and after a prefix it equals the entering words still
    to place minus the leaving ones.  The state keeps those two per node,
    with the flags ``rose`` (the count went above 0: not green) and
    ``fell`` (it went below 0: not red).  A green node v refutes the order
    with the Farkas vector -e_v and a red one with +e_v
    (:func:`check_farkas`).  The pre-check scans every node at ell = 2 (a
    single letter, its self-loop inside it) and the non-constant ones
    otherwise; a node it skips starts with both flags set.

    :meth:`settle` reads off what the prefix decides for every order that
    starts with it.  A node that has not risen and has no entering word
    left is green in every completion: only leaving words remain, which
    lift the count one step at a time to its final 0 and never above it.
    Mirrored, a node that has not fallen and has no leaving word left is
    red in every completion.  And once every node has both risen and
    fallen, no completion is a hit, since a flag once set stays set.  A
    full order settles one way or the other.
    """

    arcs: tuple[tuple[int, int] | None, ...]  # per word: (leaves, enters), None for a loop
    leaving: Sequence[int]  # per node: the crossing words left that leave it
    entering: Sequence[int]  # and those left that enter it
    rose: Sequence[bool]
    fell: Sequence[bool]

    UNSETTLED = "unsettled"  # what :meth:`settle` returns when the prefix decides nothing

    @staticmethod
    @lru_cache(maxsize=None)
    def start(params: Params) -> _Ballot:
        """The pre-check's state before the first word, the skipped nodes
        flagged, built once per ``params``.  Its rows are tuples, shared by
        every caller: only a :meth:`copy`, whose rows are lists, can be
        extended."""
        skipped = tuple(params.ell != 2 and is_constant(v) for v in params.nodes())
        heads, tails = edge_nodes(params)
        arcs = tuple(None if h == t else (h, t) for h, t in zip(heads, tails))
        leaving = [0] * params.node_count
        for arc in filter(None, arcs):
            leaving[arc[0]] += 1
        return _Ballot(arcs, tuple(leaving), tuple(leaving), skipped, skipped)

    def copy(self) -> _Ballot:
        arcs, leaving, entering, rose, fell = self
        return _Ballot(arcs, list(leaving), list(entering), list(rose), list(fell))

    def extend(self, words: Iterable[int]) -> None:
        """Place ``words`` next, in rank order."""
        arcs, leaving, entering, rose, fell = self
        for idx in words:
            arc = arcs[idx]
            if arc is not None:
                h, t = arc
                leaving[h] -= 1
                entering[t] -= 1
                if not rose[h] and entering[h] > leaving[h]:
                    rose[h] = True
                if not fell[t] and entering[t] < leaving[t]:
                    fell[t] = True

    def settle(self) -> tuple[int, str] | None | str:
        """``(node index, color)`` of the first node that has that color in
        every completion, None if no completion is a hit, and
        :attr:`UNSETTLED` otherwise."""
        _, leaving, entering, rose, fell = self
        for v in range(len(rose)):
            if not rose[v] and not entering[v]:
                return v, "green"
            if not fell[v] and not leaving[v]:
                return v, "red"
        return None if all(rose) and all(fell) else _Ballot.UNSETTLED


def order_precheck_witness(
    order: tuple[int, ...], params: Params
) -> tuple[Word, str] | None:
    """Ballot test on a raw rank ordering (:class:`_Ballot`): the first
    node that is green or red (green tested first), as (node, color), or
    None."""
    ballot = _Ballot.start(params).copy()
    ballot.extend(order)
    hit = ballot.settle()
    if hit is None:
        return None
    v, color = hit
    return index_to_word(v, params.q, params.ell - 1), color


class _OrderLP:
    """The slack LP of one rank ordering, built once for pricing and columns.

    Row r is the balance equation of node r.  Column k is the slack e_k, and
    its entry in row r is the suffix sum, from rank k on, of node r's +1/-1
    incidence to the ranked words: +1 where the word leaves r, -1 where it
    enters r.  So ``y A_k`` is the suffix sum of ``y[head] - y[tail]``.
    ``rhs[r]`` is minus the sum of that incidence weighted by 1-based rank.
    """

    def __init__(self, order: tuple[int, ...], params: Params):
        heads, tails = edge_nodes(params)
        self.heads = [heads[idx] for idx in order]
        self.tails = [tails[idx] for idx in order]
        self.rhs = rhs = [0] * params.node_count
        for k, (h, t) in enumerate(zip(self.heads, self.tails), 1):
            rhs[h] -= k
            rhs[t] += k

    def price(self, y: Sequence[int]) -> list[int]:
        d = [y[h] - y[t] for h, t in zip(self.heads, self.tails)]
        d.reverse()
        scores = list(accumulate(d))
        scores.reverse()
        return scores

    def columns(self) -> list[list[int]]:
        """Every column, from the last one back: column k is column k + 1
        plus rank k's incidence."""
        a = [0] * len(self.rhs)
        cols = []
        for h, t in zip(reversed(self.heads), reversed(self.tails)):
            a = a.copy()
            a[h] += 1
            a[t] -= 1
            cols.append(a)
        cols.reverse()
        return cols


def order_lp_solution(order: tuple[int, ...], params: Params) -> Phase1:
    """Exact phase-1 solve of the ordering's LP over the slack variables.

    When feasible, ``x[k] / denom`` is the slack e_k, so rank k gets the value
    ``k + 1 + (x[0] + ... + x[k]) / denom``.  Otherwise ``farkas`` holds node
    weights that refute the ordering (see :func:`check_farkas`).
    """
    lp = _OrderLP(order, params)
    return phase1(lp.rhs, len(order), lp.columns().__getitem__, lp.price)


def check_farkas(perm: RankPermutation, y: Sequence[int]) -> None:
    """Raise ValueError unless ``y`` proves that ``perm`` is unrealizable.

    ``y`` weights the node balance equations of the ordering's slack LP
    ``A e = b``.  It is a proof when ``y A <= 0`` and ``y b > 0``: for any
    slacks ``e >= 0`` the weighted sum of the equations would equate
    ``y A e <= 0`` with ``y b > 0``.
    """
    if not y or len(y) != perm.params.node_count:
        raise ValueError("one weight per overlap node expected")
    lp = _OrderLP(perm.order, perm.params)
    if max(lp.price(y)) > 0 or sum(map(mul, y, lp.rhs)) <= 0:
        raise ValueError("not a Farkas certificate for this order")


def matching_precheck(perm: RankPermutation) -> MatchingWitness | None:
    """Fast necessary-condition scan; a witness proves infeasibility.

    Only a certificate of infeasibility: None does not imply feasibility.
    """
    if perm.params.ell < 2:
        raise ValueError("the matching pre-check needs ell >= 2")
    hit = order_precheck_witness(perm.order, perm.params)
    if hit is None:
        return None
    return MatchingWitness(*hit)


def decide(perm: RankPermutation, *, use_precheck: bool = True) -> Verdict:
    """Exact feasibility verdict for a rank permutation.

    When the pre-check fires the LP is skipped (the witness is already a
    proof); when it stays silent the LP always runs.
    """
    params = perm.params
    if use_precheck and params.ell >= 2:
        witness = matching_precheck(perm)
        if witness is not None:
            return Verdict(False, witness=witness.describe())
    lp = order_lp_solution(perm.order, params)
    if lp.x is None:
        check_farkas(perm, lp.farkas)
        return Verdict(
            False,
            witness="no nonnegative flow-conserving assignment exists",
            farkas=tuple(lp.farkas),
        )
    entries = [0] * params.word_count
    d = lp.denom
    for k, (idx, acc) in enumerate(zip(perm.order, accumulate(lp.x)), 1):
        entries[idx] = k * d + acc
    g = math.gcd(d, *entries)
    vector = FeasibleVector(params, tuple(e // g for e in entries), d // g)
    vector.check(perm)
    return Verdict(True, vector=vector)


def alpha_star_lower(params: Params) -> int:
    """Certified lower bound on the loopless independence number."""
    q, ell = params.q, params.ell
    if q < 2 or ell < 2:
        raise ValueError("bound defined for q >= 2 and ell >= 2")
    return -((q**ell - q ** (ell - 2)) // -4)


BOUND_CAP = 1 << 18  # the most words the exact bounds take: (q^ell)! has 1.3 M digits here


def upper_bound(params: Params) -> Fraction:
    """Upper bound on the number of realizable permutations, exact rational.

    For ell >= 3 the shrinking factor is taken to the certified integer
    exponent from :func:`alpha_star_lower` one window size down (the bound is
    monotone in the exponent, so the integer version is still valid and stays
    rational).  Refuses more than :data:`BOUND_CAP` words, ell tested first.
    """
    q, ell = params.q, params.ell
    if q < 3 or ell < 2:
        raise ValueError("bound stated only for q >= 3 and ell >= 2")
    if not _at_most(params, BOUND_CAP):
        raise ValueError(f"upper bound capped at {BOUND_CAP} words, got q={q} ell={ell}")
    total = math.factorial(params.word_count)
    if ell == 2:
        return Fraction(total * (q - 1), q + 1)
    exponent = alpha_star_lower(Params(q, ell - 1))
    return total * Fraction(q - 1, q + 1) ** exponent
