"""Kendall-tau distance and composition operators for permutation codes.

The distance between two arrangements of the same multiset is the minimum
number of adjacent transpositions turning one into the other.  Swapping two
equal symbols never helps, so equal symbols keep their relative order and the
distance is an inversion count: the k-th copy of each symbol in one
arrangement is matched to its k-th copy in the other.
"""

from __future__ import annotations

import math
from bisect import bisect
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterator, Sequence

from .encoder import (
    BASE_COUNT,
    InfoVecA,
    InfoVecB,
    Repository,
    StageA,
    _window_plan,
    interleave,
    random_info_a,
    random_layer,
)


def kendall_tau(a: Sequence, b: Sequence) -> int:
    """Minimum number of adjacent transpositions linking two arrangements:
    the inversions of ``a`` once the k-th copy of each symbol in ``a`` is
    matched to its k-th copy in ``b``."""
    a = tuple(a)
    b = tuple(b)
    if sorted(a) != sorted(b):
        raise ValueError("arguments must arrange the same multiset")
    if a == b:
        return 0
    slots: dict = {}
    for i, sym in enumerate(b):
        slots.setdefault(sym, []).append(i)
    targets = {sym: iter(pos) for sym, pos in slots.items()}
    seen: list[int] = []
    count = 0
    for pos in (next(targets[sym]) for sym in a):
        k = bisect(seen, pos)
        count += len(seen) - k
        seen.insert(k, pos)
    return count


def _min_pairwise(words: Sequence[Sequence]) -> float:
    if len(words) <= 1:
        return math.inf
    best = math.inf
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            d = kendall_tau(words[i], words[j])
            if d < best:
                best = d
    return best


@dataclass(frozen=True)
class PermCode:
    """A set of permutations of a common ground set, with its minimum
    distance cached.  Size-one codes carry infinite distance."""

    ground: tuple
    codewords: tuple[tuple, ...]

    def __post_init__(self) -> None:
        base = sorted(self.ground, key=repr)
        for w in self.codewords:
            if sorted(w, key=repr) != base:
                raise ValueError(f"codeword {w} is not a permutation of the ground set")
        if len(set(self.codewords)) != len(self.codewords):
            raise ValueError("codewords must be distinct")

    @classmethod
    def full(cls, ground: Sequence) -> "PermCode":
        from itertools import permutations

        g = tuple(ground)
        return cls(g, tuple(permutations(g)))

    def __len__(self) -> int:
        return len(self.codewords)

    @cached_property
    def min_distance(self) -> float:
        return _min_pairwise(self.codewords)


@dataclass(frozen=True)
class CWBinaryCode:
    """Constant-weight binary code measured in the same transposition metric."""

    length: int
    weight: int
    codewords: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for w in self.codewords:
            if len(w) != self.length or sum(w) != self.weight:
                raise ValueError(f"codeword {w} violates the length/weight contract")
        if len(set(self.codewords)) != len(self.codewords):
            raise ValueError("codewords must be distinct")

    def __len__(self) -> int:
        return len(self.codewords)

    @cached_property
    def min_distance(self) -> float:
        return _min_pairwise(self.codewords)


def side_pattern(word: Sequence, members: set) -> tuple[int, ...]:
    """1 where the entry belongs to ``members``, 0 elsewhere."""
    return tuple(1 if sym in members else 0 for sym in word)


def restrict(word: Sequence, members: set) -> tuple:
    """Delete every entry outside ``members``, keeping the order."""
    return tuple(sym for sym in word if sym in members)


def interleave_codes(
    code_a: PermCode, code_b: PermCode, pattern: CWBinaryCode
) -> PermCode:
    """All interleavings of two codes along a pattern code.

    Each (a, b, d) triple yields the unique permutation placing a's entries
    at d's one-positions and b's entries at the zeros; the minimum distance
    is at least the smallest of the three component distances.
    """
    set_a, set_b = set(code_a.ground), set(code_b.ground)
    if set_a & set_b:
        raise ValueError("ground sets must be disjoint")
    if pattern.length != len(code_a.ground) + len(code_b.ground):
        raise ValueError("pattern length must cover both ground sets")
    if pattern.weight != len(code_a.ground):
        raise ValueError("pattern weight must equal the first ground set size")
    words = tuple(
        tuple(interleave(d, a, b))
        for a, b, d in product(code_a.codewords, code_b.codewords, pattern.codewords)
    )
    return PermCode(code_a.ground + code_b.ground, words)


def substitute(word_inner: Sequence, slot, word_outer: Sequence) -> tuple:
    """Replace the occurrence of ``slot`` in the outer word by the whole
    inner word."""
    if slot not in word_outer:
        raise ValueError(f"slot {slot!r} does not occur")
    out: list = []
    for sym in word_outer:
        if sym == slot:
            out.extend(word_inner)
        else:
            out.append(sym)
    return tuple(out)


def substitute_codes(
    inner_codes: Sequence[PermCode], slots: Sequence, outer: PermCode
) -> PermCode:
    """Replace each slot symbol of the outer code by an inner code.

    With all inner ground sets of size q, the minimum distance is at least
    min of the inner distances and q^2 times the outer distance.
    """
    if len(inner_codes) != len(slots) or len(set(slots)) != len(slots):
        raise ValueError("need one distinct slot per inner code")
    outer_ground = set(outer.ground)
    inner_sets = [set(c.ground) for c in inner_codes]
    for slot, members in zip(slots, inner_sets):
        if slot not in outer_ground:
            raise ValueError(f"slot {slot!r} is not an outer symbol")
        if members & outer_ground:
            raise ValueError("inner ground sets must avoid the outer symbols")
    for i in range(len(inner_sets)):
        for j in range(i + 1, len(inner_sets)):
            if inner_sets[i] & inner_sets[j]:
                raise ValueError("inner ground sets must be pairwise disjoint")
    words = []
    for choice in product(*(c.codewords for c in inner_codes)):
        for v in outer.codewords:
            word: Sequence = v
            for inner_word, slot in zip(choice, slots):
                word = substitute(inner_word, slot, word)
            words.append(tuple(word))
    ground = tuple(
        sym for c in inner_codes for sym in c.ground
    ) + tuple(sym for sym in outer.ground if sym not in set(slots))
    return PermCode(ground, tuple(dict.fromkeys(words)))


# ---------------------------------------------------------------------------
# Pre-coded message spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrecodedInfoA:
    """Restricted alphabet-recursion messages with a distance guarantee.

    ``base_indices`` select repository entries; ``stage_codes[j]`` constrains
    the rank vector of stage j and ``pattern_codes[j]`` its interleaving.
    The resulting rank orders are pairwise at least ``distance_bound`` apart.
    """

    repo: Repository
    base_indices: tuple[int, ...]
    stage_codes: dict[int, PermCode]
    pattern_codes: dict[int, CWBinaryCode]

    @property
    def q(self) -> int:
        return 3 + len(self.stage_codes)

    def check(self) -> None:
        for idx in self.base_indices:
            if not 1 <= idx <= BASE_COUNT:
                raise ValueError(f"repository index {idx} out of range")
        if sorted(self.stage_codes) != list(range(4, self.q + 1)):
            raise ValueError("stage codes must cover sizes 4..q")
        if sorted(self.pattern_codes) != list(range(4, self.q + 1)):
            raise ValueError("pattern codes must cover sizes 4..q")
        for j, code in self.stage_codes.items():
            if set(code.ground) != set(range(1, j + 1)):
                raise ValueError(f"stage-{j} code must permute 1..{j}")
        for j, code in self.pattern_codes.items():
            if code.length != j * j - j + 1 or code.weight != j:
                raise ValueError(f"pattern-{j} code has the wrong shape")

    @cached_property
    def base_distance(self) -> float:
        orders = [self.repo.permutation(i).order for i in self.base_indices]
        return _min_pairwise(orders)

    @property
    def distance_bound(self) -> float:
        bounds = [self.base_distance]
        bounds += [c.min_distance for c in self.stage_codes.values()]
        bounds += [c.min_distance for c in self.pattern_codes.values()]
        return min(bounds)

    def __iter__(self) -> Iterator[InfoVecA]:
        js = range(4, self.q + 1)
        pools = [self.base_indices] + [
            tuple(product(self.stage_codes[j].codewords, self.pattern_codes[j].codewords))
            for j in js
        ]
        for combo in product(*pools):
            base = combo[0]
            stages = tuple(StageA(pi, t) for pi, t in combo[1:])
            yield InfoVecA(base, stages)


@dataclass(frozen=True)
class PrecodedInfoB:
    """Window-recursion messages whose top layer is drawn from a code.

    Only the last layer needs restricting: order differences introduced at
    lower layers are amplified quadratically on the way up, so the top-layer
    code distance survives as the bound for the whole construction.
    """

    q: int
    ell: int
    top_code: PermCode

    def check(self) -> None:
        if self.ell < 3:
            raise ValueError("pre-coding applies from window length 3 up")
        if set(self.top_code.ground) != set(range(self.q)):
            raise ValueError("top-layer code must permute 0..q-1")

    @property
    def distance_bound(self) -> float:
        return self.top_code.min_distance

    def sample(self, rng) -> InfoVecB:
        self.check()
        layers = [random_layer(self.q, i, rng) for i in range(3, self.ell)]
        top = {
            u: rng.choice(self.top_code.codewords)
            for u in _window_plan(self.q, self.ell).keys
        }
        return InfoVecB(random_info_a(self.q, rng), tuple(layers + [top]))
