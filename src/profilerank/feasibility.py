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
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice
from operator import mul
from typing import Sequence

from ._simplex import Phase1, phase1
from .core import (
    Entry,
    Params,
    ProfileVector,
    RankPermutation,
    Word,
    first_flow_violation,
    in_words,
    is_constant,
    out_words,
    parse_vector_text,
    satisfies,
    vector_text,
    word_index,
    word_text,
)


@dataclass(frozen=True)
class FeasibleVector:
    """Exact-rational vector realizing a permutation.

    Invariants (enforced by :meth:`check`): every entry >= 1, entries pairwise
    distinct, and in/out sums balance at every node.
    """

    params: Params
    entries: tuple[Entry, ...]

    def __getitem__(self, w: Word) -> Entry:
        return self.entries[word_index(w, self.params.q)]

    def check(self, perm: RankPermutation | None = None) -> None:
        p = self.params
        if len(self.entries) != p.word_count:
            raise ValueError("entry count does not match q^ell")
        if any(e < 1 for e in self.entries):
            raise ValueError("entries must all be >= 1")
        if len(set(self.entries)) != len(self.entries):
            raise ValueError("entries must be pairwise distinct")
        if p.ell >= 2:
            v = first_flow_violation(self.entries, p)
            if v is not None:
                raise ValueError(f"flow violated at node {word_text(v)}")
        if perm is not None and not satisfies(self.entries, perm, p):
            raise ValueError("vector does not realize the stated permutation")

    def is_integral(self) -> bool:
        return all(
            isinstance(e, int) or (isinstance(e, Fraction) and e.denominator == 1)
            for e in self.entries
        )

    def to_profile(self) -> ProfileVector:
        if not self.is_integral():
            raise ValueError("only integer vectors convert to profiles")
        return ProfileVector(self.params, tuple(int(e) for e in self.entries))

    def to_text(self) -> str:
        return vector_text(self.params, self.entries)

    @classmethod
    def from_text(cls, text: str) -> "FeasibleVector":
        params, fields = parse_vector_text(text)
        entries: list[Entry] = []
        for f in fields:
            if not re.fullmatch(r"-?[0-9]+(/0*[1-9][0-9]*)?", f):
                raise ValueError(f"bad vector entry: {f!r}")
            val = Fraction(f)
            entries.append(int(val) if val.denominator == 1 else val)
        return cls(params, tuple(entries))


@dataclass(frozen=True)
class MatchingWitness:
    """A node certifying infeasibility, plus the matching color found there."""

    node: Word
    color: str  # "green": all in-words below out-partners; "red": reversed

    def describe(self) -> str:
        return f"monochromatic {self.color} matching at node {word_text(self.node)}"


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


class _Tables:
    """Per-parameter constant data for the decision procedures."""

    def __init__(self, params: Params):
        self.params = params
        q, ell, n = params.q, params.ell, params.word_count
        self.lp_rows: list[list[int]] = []  # coefficient per word index
        # Per word index: the node it leaves (its prefix) and enters (suffix).
        self.heads = [idx // q for idx in range(n)]
        self.tails = [idx % q ** (ell - 1) for idx in range(n)]
        self.check_nodes: list[tuple[Word, list[tuple[int, int]]]] = []
        if ell < 2:
            return
        for v in params.nodes():
            coef = [0] * n
            for w in out_words(v, q):
                coef[word_index(w, q)] += 1
            for w in in_words(v, q):
                coef[word_index(w, q)] -= 1
            self.lp_rows.append(coef)
            if ell == 2:
                # Single-letter node: cancel the self-loop, ballot the rest.
                members = [
                    (word_index(w, q), -1) for w in in_words(v, q) if not is_constant(w)
                ] + [
                    (word_index(w, q), +1) for w in out_words(v, q) if not is_constant(w)
                ]
                self.check_nodes.append((v, members))
            elif not is_constant(v):
                members = [(word_index(w, q), -1) for w in in_words(v, q)] + [
                    (word_index(w, q), +1) for w in out_words(v, q)
                ]
                self.check_nodes.append((v, members))


@lru_cache(maxsize=None)
def constraint_tables(params: Params) -> _Tables:
    return _Tables(params)


def order_precheck_witness(
    order: tuple[int, ...], tables: _Tables
) -> tuple[Word, str] | None:
    """Ballot test on a raw rank ordering; returns (node, color) or None."""
    pos = [0] * len(order)
    for k, idx in enumerate(order):
        pos[idx] = k
    for node, members in tables.check_nodes:
        ranked = sorted((pos[idx], sign) for idx, sign in members)
        green = red = True
        acc = 0
        for _, sign in ranked:
            acc += sign
            if acc > 0:
                green = False
            elif acc < 0:
                red = False
            if not (green or red):
                break
        if green:
            return node, "green"
        if red:
            return node, "red"
    return None


class _OrderLP:
    """The slack LP of one rank ordering, built once for pricing and columns.

    Row r is the balance equation of node r.  Column k is the slack e_k, and
    its entry in row r is the suffix sum, from rank k on, of node r's +1/-1
    incidence to the ranked words: +1 where the word leaves r, -1 where it
    enters r.  So ``y A_k`` is the suffix sum of ``y[head] - y[tail]``.
    ``rhs[r]`` is minus the sum of that incidence weighted by 1-based rank.
    """

    def __init__(self, order: tuple[int, ...], tables: _Tables):
        self.heads = [tables.heads[idx] for idx in order]
        self.tails = [tables.tails[idx] for idx in order]
        self.rhs = rhs = [0] * len(tables.lp_rows)
        for k, (h, t) in enumerate(zip(self.heads, self.tails), 1):
            rhs[h] -= k
            rhs[t] += k

    def price(self, y: Sequence[int]) -> list[int]:
        d = [y[h] - y[t] for h, t in zip(self.heads, self.tails)]
        d.reverse()
        scores = list(accumulate(d))
        scores.reverse()
        return scores

    def column(self, k: int) -> list[int]:
        a = [0] * len(self.rhs)
        for h, t in zip(islice(self.heads, k, None), islice(self.tails, k, None)):
            a[h] += 1
            a[t] -= 1
        return a


def order_lp_solution(order: tuple[int, ...], tables: _Tables) -> Phase1:
    """Exact phase-1 solve of the ordering's LP over the slack variables.

    When feasible, ``x[k] / denom`` is the slack e_k, so rank k gets the value
    ``k + 1 + (x[0] + ... + x[k]) / denom``.  Otherwise ``farkas`` holds node
    weights that refute the ordering (see :func:`check_farkas`).
    """
    if not tables.lp_rows:
        return Phase1([0] * len(order), 1, None, 0, 0)
    lp = _OrderLP(order, tables)
    return phase1(lp.rhs, len(order), lp.column, lp.price)


def check_farkas(perm: RankPermutation, y: Sequence[int]) -> None:
    """Raise ValueError unless ``y`` proves that ``perm`` is unrealizable.

    ``y`` weights the node balance equations of the ordering's slack LP
    ``A e = b``.  It is a proof when ``y A <= 0`` and ``y b > 0``: for any
    slacks ``e >= 0`` the weighted sum of the equations would equate
    ``y A e <= 0`` with ``y b > 0``.
    """
    tables = constraint_tables(perm.params)
    if not y or len(y) != len(tables.lp_rows):
        raise ValueError("one weight per overlap node expected")
    lp = _OrderLP(perm.order, tables)
    if max(lp.price(y)) > 0 or sum(map(mul, y, lp.rhs)) <= 0:
        raise ValueError("not a Farkas certificate for this order")


def matching_precheck(perm: RankPermutation) -> MatchingWitness | None:
    """Fast necessary-condition scan; a witness proves infeasibility.

    Only a certificate of infeasibility: None does not imply feasibility.
    """
    if perm.params.ell < 2:
        raise ValueError("the matching pre-check needs ell >= 2")
    tables = constraint_tables(perm.params)
    hit = order_precheck_witness(perm.order, tables)
    if hit is None:
        return None
    return MatchingWitness(*hit)


def decide(perm: RankPermutation, *, use_precheck: bool = True) -> Verdict:
    """Exact feasibility verdict for a rank permutation.

    When the pre-check fires the LP is skipped (the witness is already a
    proof); when it stays silent the LP always runs.
    """
    params = perm.params
    tables = constraint_tables(params)
    if use_precheck and params.ell >= 2:
        witness = matching_precheck(perm)
        if witness is not None:
            return Verdict(False, witness=witness.describe())
    lp = order_lp_solution(perm.order, tables)
    if lp.x is None:
        check_farkas(perm, lp.farkas)
        return Verdict(
            False,
            witness="no nonnegative flow-conserving assignment exists",
            farkas=tuple(lp.farkas),
        )
    entries: list[Entry] = [0] * params.word_count
    d = lp.denom
    for k, (idx, acc) in enumerate(zip(perm.order, accumulate(lp.x))):
        v = Fraction((k + 1) * d + acc, d)
        entries[idx] = int(v) if v.denominator == 1 else v
    vector = FeasibleVector(params, tuple(entries))
    vector.check(perm)
    return Verdict(True, vector=vector)


def alpha_star_lower(params: Params) -> int:
    """Certified lower bound on the loopless independence number."""
    q, ell = params.q, params.ell
    if q < 2 or ell < 2:
        raise ValueError("bound defined for q >= 2 and ell >= 2")
    return -((q**ell - q ** (ell - 2)) // -4)


def upper_bound(params: Params) -> Fraction:
    """Upper bound on the number of realizable permutations, exact rational.

    For ell >= 3 the shrinking factor is taken to the certified integer
    exponent from :func:`alpha_star_lower` one window size down (the bound is
    monotone in the exponent, so the integer version is still valid and stays
    rational).
    """
    q, ell = params.q, params.ell
    if q < 3 or ell < 2:
        raise ValueError("bound stated only for q >= 3 and ell >= 2")
    total = math.factorial(params.word_count)
    if ell == 2:
        return Fraction(total * (q - 1), q + 1)
    exponent = alpha_star_lower(Params(q, ell - 1))
    return total * Fraction(q - 1, q + 1) ** exponent
