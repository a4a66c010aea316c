"""Constructive encoders mapping structured messages to realizable vectors.

Two recursions are implemented, both on word-indexed entries (word w at
index ``word_index(w, q)``, so pair (a, b) sits at a*q + b).  The alphabet
recursion (window length 2) starts from a repository of all 30240 realizable
3x3 profiles and grows the alphabet one symbol at a time: the incoming entries
are stretched by q+1 to open integer gaps, q new values are threaded into
those gaps according to an interleaving pattern, and the new border row and
column are balanced with 1/q corrections before everything is rescaled by q
back to integers.

The window recursion lifts a realizable vector one window length up through
the adjacent-sum homomorphism: the q words collapsing to the same image
receive a shared doubled base value plus per-word fractional corrections,
chosen so corrections cancel along every row and column.  All corrections
are multiples of q^(-q^2), so a fixed-point scale of q^(q^2) per stage keeps
everything in exact integers; entries grow accordingly and need arbitrary
precision.

Each window step runs from a plan built once per (q, i).  A message's layer
is turned into one flat list of weighted layer values, W(u) * layer[u][s] for
every interior word u and symbol s: every correction term of a word is
+-W(u) times one layer value of its own key u, so the list is exact and each
term is an index into it.  The plan groups the output words by the shape of
their corrections (one added term where both ends of the image are nonzero,
q-1 subtracted terms where one end is 0, (q-1)^2 added terms where both
are), gathers each group's image entries and terms with ``itemgetter``, and
puts the groups back into word order with one more ``itemgetter``.  The
decoder's peel reads each node's q preimage entries through the same plan and
range-checks them against the base value of the first one.

One decode path inverts both: :func:`decode_a` is :func:`decode_b` at window
length 2, which reads rank information back off the output and re-encodes
once as a final consistency check; inputs that fail any structural step,
fractional ones included, raise :class:`NotACodeword`.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, starmap
from operator import add, itemgetter, mul, sub
from typing import NamedTuple, Sequence

from .core import (
    PackedRows,
    Params,
    RankPermutation,
    Word,
    all_words,
    homo_image,
    homo_preimages,
    parse_int,
    parse_word,
    rank_of,
    read_back,
    word_index,
    word_text,
)
from .feasibility import FeasibleVector

BASE_Q = 3
BASE_COUNT = 30240  # number of realizable orders at q=3, window 2 (census-verified)
_WIDTH = BASE_Q * BASE_Q  # entries per repository row
_ROW_TEXT = " ".join(["{}"] * _WIDTH) + "\n"  # one repository row as Repository.save writes it
# the same row, read back: ASCII naturals with no leading zero, single spaces
_REPOSITORY_ROW = re.compile(" ".join(["(?:0|[1-9][0-9]*)"] * _WIDTH))


class NotACodeword(ValueError):
    """The input is not an encoder output (best-effort detection)."""


# ---------------------------------------------------------------------------
# Repository of base-case vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Repository:
    """The 30240 integer vectors at (3, 2) seeding both recursions, 1-indexed.

    Entry ``i`` realizes the i-th realizable rank order of 3x3 profile
    matrices (orders enumerated lexicographically by their word sequence),
    so the rank orders of the entries increase strictly; each stored vector
    is the flow-balanced assignment minimizing the maximum entry, ties
    broken by the lexicographically smallest 9-tuple.  ``vectors`` holds
    them as packed rows, one byte per entry in word order and 9 bytes a
    row: entry ``i`` is row ``i - 1``, and every entry is below 256.
    """

    vectors: PackedRows

    def __post_init__(self) -> None:
        if len(self.vectors) != BASE_COUNT or self.vectors.width != _WIDTH:
            raise ValueError(f"repository must hold {BASE_COUNT} vectors of {_WIDTH} entries")

    @property
    def params(self) -> Params:
        return Params(BASE_Q, 2)

    def vector(self, index: int) -> tuple[int, ...]:
        if not 1 <= index <= BASE_COUNT:
            raise ValueError(f"repository index {index} out of range")
        return self.vectors[index - 1]

    def permutation(self, index: int) -> RankPermutation:
        return rank_of(self.vector(index), self.params)

    def index_of(self, entries: Sequence[int]) -> int:
        try:
            return self.vectors.index(entries) + 1
        except ValueError:
            raise NotACodeword("matrix is not in the repository") from None

    def validate(self) -> None:
        """Check that entry i realizes the i-th realizable order: every
        vector is flow-balanced with distinct entries, and their rank orders
        increase strictly."""
        previous: tuple[int, ...] = ()
        for number, vec in enumerate(self.vectors, start=1):
            FeasibleVector(self.params, vec).check()
            order = rank_of(vec, self.params).order
            if order <= previous:
                raise ValueError(
                    f"repository entry {number} does not realize a later rank order "
                    f"than entry {number - 1}"
                )
            previous = order

    def save(self, path) -> None:
        digest = hashlib.sha256()
        with open(path, "w", encoding="utf-8") as fh:
            for line in chain([f"f32={BASE_COUNT}\n"], starmap(_ROW_TEXT.format, self.vectors)):
                fh.write(line)
                digest.update(line.encode())
            fh.write(f"sha256={digest.hexdigest()}\n")

    @classmethod
    def load(cls, path) -> "Repository":
        digest = hashlib.sha256()
        data = bytearray()
        with open(path, encoding="utf-8") as fh:
            if fh.readline().removesuffix("\n") != f"f32={BASE_COUNT}":
                raise ValueError("bad repository header")
            digest.update(f"f32={BASE_COUNT}\n".encode())
            last = None  # the trailer, once no line follows it
            for number, line in enumerate(fh, start=1):
                if last is not None:
                    data += _repository_row(last, number)
                    digest.update(f"{last}\n".encode())
                last = line.removesuffix("\n")
        if last is None or not last.startswith("sha256="):
            raise ValueError("missing repository checksum trailer")
        if last != f"sha256={digest.hexdigest()}":
            raise ValueError("repository checksum mismatch")
        return cls(PackedRows(data, _WIDTH))


def _repository_row(text: str, number: int) -> bytes:
    """The packed entries of repository line ``number``, which must read
    exactly as :meth:`Repository.save` writes them."""
    if not _REPOSITORY_ROW.fullmatch(text):
        # Read the row token by token to say what is wrong with it; a
        # zero-padded entry is still read, so the row is named as respelled.
        tokens = text.split()
        for t in tokens:
            if not (t.isascii() and t.isdigit()):
                raise ValueError(f"bad repository entry: {t!r}")
        if len(tokens) != _WIDTH:
            raise ValueError(f"repository line {number} has {len(tokens)} entries, not {_WIDTH}")
        if max(map(int, tokens)) < 256:
            raise ValueError(f"repository line {number} is not written as save writes a row")
    try:
        return bytes(map(int, text.split()))
    except ValueError:
        raise ValueError(f"repository line {number} has an entry above 255") from None


# ---------------------------------------------------------------------------
# Information vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageA:
    """One alphabet-growth step: where the q new values rank (``pi``, values
    1..j) and how they interleave with the old entries (``t``, j ones among
    j^2-j+1 bits)."""

    pi: tuple[int, ...]
    t: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.pi)

    def check(self) -> None:
        j = len(self.pi)
        if sorted(self.pi) != list(range(1, j + 1)):
            raise ValueError(f"stage rank vector must permute 1..{j}")
        if len(self.t) != j * j - j + 1:
            raise ValueError("interleaving pattern has the wrong length")
        if any(b not in (0, 1) for b in self.t) or sum(self.t) != j:
            raise ValueError(f"interleaving pattern must have exactly {j} ones")


@dataclass(frozen=True)
class InfoVecA:
    """Message for the alphabet recursion: repository index plus one stage
    per added symbol (stage sizes 4..q in order)."""

    base: int
    stages: tuple[StageA, ...] = ()

    @property
    def q(self) -> int:
        return BASE_Q + len(self.stages)

    def check(self) -> None:
        if not 1 <= self.base <= BASE_COUNT:
            raise ValueError(f"base index {self.base} out of range")
        for offset, stage in enumerate(self.stages):
            if stage.size != 4 + offset:
                raise ValueError("stage sizes must run 4..q in order")
            stage.check()


@dataclass(frozen=True)
class InfoVecB:
    """Message for the window recursion: an alphabet message plus, for each
    window length 3..ell, a map assigning a symbol order to every interior
    word (first and last symbol nonzero)."""

    base: InfoVecA
    layers: tuple[dict[Word, tuple[int, ...]], ...] = ()

    @property
    def q(self) -> int:
        return self.base.q

    @property
    def ell(self) -> int:
        return 2 + len(self.layers)

    def check(self) -> None:
        self.base.check()
        q = self.q
        symbols = list(range(q))
        for offset, layer in enumerate(self.layers):
            i = 3 + offset
            if layer.keys() != _window_plan(q, i).interior:
                raise ValueError(f"layer {i} must cover exactly the interior words")
            for perm in layer.values():
                if sorted(perm) != symbols:
                    raise ValueError("layer values must permute 0..q-1")


def layer_domain(q: int, i: int) -> list[Word]:
    """Interior words of length i-1: first and last symbol nonzero."""
    return [
        u for u in all_words(q, i - 1) if u[0] != 0 and u[-1] != 0
    ]


# ---------------------------------------------------------------------------
# Alphabet recursion (window length 2)
# ---------------------------------------------------------------------------

def interleave(t: Sequence[int], ones_arg: Sequence, zeros_arg: Sequence) -> list:
    """Merge two sequences along a bit pattern: ones take from ``ones_arg``,
    zeros from ``zeros_arg``, both in their original order."""
    ones = list(ones_arg)
    zeros = list(zeros_arg)
    if sum(t) != len(ones) or len(t) - sum(t) != len(zeros):
        raise ValueError("argument lengths do not match the pattern weight")
    oi = zi = 0
    out = []
    for bit in t:
        if bit:
            out.append(ones[oi])
            oi += 1
        else:
            out.append(zeros[zi])
            zi += 1
    return out


def choose_y(pi: Sequence[int], t: Sequence[int], sorted_x: Sequence[int]) -> list[int]:
    """Minimal-sum gap values for one alphabet-growth step.

    ``sorted_x`` are the stretched old entries (pairwise gaps exceed the run
    lengths, so every gap can host its ones).  Each run of ones takes the
    smallest consecutive integers strictly inside its gap; a leading run is
    anchored at 1, a trailing run sits just above the maximum.  The values
    are then dealt out so the value at position i has rank ``pi[i]``.
    """
    j = len(pi)
    y_sorted: list[int] = []
    zi = 0
    i = 0
    while i < len(t):
        if t[i]:
            k = i
            while k < len(t) and t[k]:
                k += 1
            run = k - i
            base = 0 if zi == 0 else sorted_x[zi - 1]
            vals = list(range(base + 1, base + run + 1))
            if zi < len(sorted_x) and vals[-1] >= sorted_x[zi]:
                raise AssertionError("gap too small for its ones")
            y_sorted.extend(vals)
            i = k
        else:
            zi += 1
            i += 1
    return [y_sorted[pi[idx] - 1] for idx in range(j)]


def extend_vector(
    entries: Sequence[int], pi: Sequence[int], t: Sequence[int]
) -> tuple[int, ...]:
    """One alphabet-growth step: the (q-1)^2 integer entries at window length
    2 to the q^2 entries at alphabet size q = ``len(pi)``.

    The 1/q border corrections are folded in by the final factor of q, so
    everything stays integral.
    """
    StageA(tuple(pi), tuple(t)).check()
    return _extend(entries, pi, t)


def _extend(entries: Sequence[int], pi: Sequence[int], t: Sequence[int]) -> tuple[int, ...]:
    """:func:`extend_vector` on a checked stage."""
    q = len(pi)
    m = q - 1
    if len(entries) != m * m:
        raise ValueError(f"an alphabet step to q={q} takes {m * m} entries")
    y = choose_y(pi, t, sorted((q + 1) * e for e in entries))
    scale = q * (q + 1)
    out: list[int] = []
    for a in range(m):
        row = entries[a * m : (a + 1) * m]
        out.extend(scale * e + (b == 0 < a) for b, e in enumerate(row))
        out.append(q * y[a] - (a > 0))
    out.extend(q * y[a] for a in range(m))
    out[m * q] -= q - 2
    out.append(q * y[m])
    return tuple(out)


class ScaledVector(FeasibleVector):
    """Integer output of either recursion (the window recursion folds in a
    fixed-point scale of q^(q^2) per stage): a realizable vector like any
    other."""

    def to_feasible(self) -> FeasibleVector:
        return self


def encode_a(info: InfoVecA, repo: Repository) -> ScaledVector:
    """Alphabet-recursion encoder: message to realizable integer vector at
    window length 2."""
    info.check()
    return ScaledVector(Params(info.q, 2), _lift_layers(info, (), repo))


def _shrink(entries: Sequence[int], q: int) -> tuple[list[int], StageA]:
    """Undo one alphabet-growth step at alphabet size q; raises NotACodeword
    on any misfit."""
    m = q - 1

    def exact_div(a: int, b: int) -> int:
        if a % b:
            raise NotACodeword("entry fails the divisibility structure")
        return a // b

    y = [exact_div(entries[a * q + m] + (0 < a < m), q) for a in range(q)]
    if entries[m * q] != q * y[0] - (q - 2):
        raise NotACodeword("balancing corner does not match")
    if any(entries[m * q + b] != q * y[b] for b in range(1, m)):
        raise NotACodeword("border row does not match")
    scale = q * (q + 1)
    chi = [
        exact_div(entries[a * q + b] - (b == 0 < a), scale)
        for a in range(m)
        for b in range(m)
    ]
    if min(chi) < 1:
        raise NotACodeword("inner entries must stay positive")
    if len(set(y)) != q:
        raise NotACodeword("new values must be distinct")
    sx = [(q + 1) * c for c in chi]
    if set(sx) & set(y):
        raise NotACodeword("new values collide with old entries")
    sy = sorted(y)
    pi = tuple(sy.index(v) + 1 for v in y)
    t = tuple(bit for _, bit in sorted([(v, 0) for v in sx] + [(v, 1) for v in y]))
    return chi, StageA(pi, t)


def decode_a(vec: FeasibleVector, repo: Repository) -> InfoVecA:
    """Inverse of :func:`encode_a`: the alphabet message that
    :func:`decode_b` reads at window length 2, for q >= 3 only."""
    if vec.params.ell != 2 or vec.params.q < BASE_Q:
        raise NotACodeword(f"alphabet codewords have window length 2 and q >= {BASE_Q}")
    return decode_b(vec, repo).base


# ---------------------------------------------------------------------------
# Window recursion (any window length)
# ---------------------------------------------------------------------------

def _digit_position(a: int, b: int, q: int) -> int:
    """Fractional digit slot used for the (a, b) boundary pair: a + b*q + 1."""
    return a + b * q + 1


class _Group(NamedTuple):
    """Output words whose corrections share one shape: a getter of their
    images' indices and a getter of their terms' flat indices, word after
    word."""

    images: itemgetter
    terms: itemgetter


@dataclass(frozen=True)
class _WindowPlan:
    """Everything one window-growth step at (q, i) needs that does not depend
    on the message.

    A layer's corrections are read from one flat list of weighted layer
    values, q per interior word in the order of ``keys``: entry ``k*q + s``
    is ``weights[k*q + s] * layer[keys[k]][s]``, where ``weights`` repeats
    the word's correction weight W(u) = q^(q^2 - (u[0] + u[-1]*q + 1)) q
    times.  The words v of length i fall into three groups by the ends of
    their image w: ``single`` (both ends nonzero: one term, added),
    ``minus`` (one end zero: q-1 terms, subtracted) and ``plus`` (both ends
    zero: (q-1)^2 terms, added).  ``order`` puts the three groups' words,
    concatenated, back into index order.  ``nodes`` has one entry per word
    u of length i-1, in index order: a getter of its q preimages' entries
    in :func:`homo_preimages` order, and u itself if it is interior (None
    otherwise).  ``interior`` holds the interior words, the keys a layer
    must have.  Every getter takes at least two indices (q >= 2), so each
    returns a tuple.
    """

    keys: tuple[Word, ...]
    weights: tuple[int, ...]
    single: _Group
    minus: _Group
    plus: _Group
    order: itemgetter
    nodes: tuple[tuple[itemgetter, Word | None], ...]
    interior: frozenset[Word]


@lru_cache(maxsize=None)
def _window_plan(q: int, i: int) -> _WindowPlan:
    keys = layer_domain(q, i)
    row = {u: k * q for k, u in enumerate(keys)}
    weights = tuple(
        q ** (q * q - _digit_position(u[0], u[-1], q)) for u in keys for _ in range(q)
    )
    words: tuple[list[int], ...] = ([], [], [])
    images: tuple[list[int], ...] = ([], [], [])
    terms: tuple[list[int], ...] = ([], [], [])
    for index, v in enumerate(all_words(q, i)):
        w = homo_image(v, q)
        head, tail = w[0], w[-1]
        mid = w[1:-1]
        v0 = v[0]
        if head != 0 and tail != 0:
            group = 0
            indices = [row[w] + v0]
        elif head == 0 and tail != 0:
            group = 1
            indices = [row[(mu,) + mid + (tail,)] + (mu + v0) % q for mu in range(1, q)]
        elif head != 0 and tail == 0:
            group = 1
            indices = [row[(head,) + mid + (tau,)] + v0 for tau in range(1, q)]
        else:
            group = 2
            indices = [
                row[(mu,) + mid + (tau,)] + (mu + v0) % q
                for mu in range(1, q)
                for tau in range(1, q)
            ]
        words[group].append(index)
        images[group].append(word_index(w, q))
        terms[group].extend(indices)
    place = [0] * q**i
    for position, index in enumerate(words[0] + words[1] + words[2]):
        place[index] = position
    single, minus, plus = (
        _Group(itemgetter(*images[g]), itemgetter(*terms[g])) for g in range(3)
    )
    nodes = tuple(
        (
            itemgetter(*(word_index(v, q) for v in homo_preimages(u, q))),
            u if u[0] != 0 and u[-1] != 0 else None,
        )
        for u in all_words(q, i - 1)
    )
    return _WindowPlan(
        tuple(keys), weights, single, minus, plus, itemgetter(*place), nodes,
        frozenset(keys),
    )


def _sums(values: Sequence[int], width: int):
    """Sums of consecutive runs of ``width`` values."""
    return map(sum, zip(*[iter(values)] * width))


def _lift_layer(
    entries: Sequence[int], layer: dict[Word, tuple[int, ...]], q: int, i: int
) -> tuple[int, ...]:
    """One window-growth step on scaled integer entries: each word gets its
    image's entry, doubled and scaled by q^(q^2), plus its corrections."""
    plan = _window_plan(q, i)
    scale2 = 2 * q ** (q * q)
    values = chain.from_iterable(map(layer.__getitem__, plan.keys))
    flat = list(map(mul, plan.weights, values))
    base = [scale2 * e for e in entries]
    single, minus, plus = plan.single, plan.minus, plan.plus
    out = list(map(add, single.images(base), single.terms(flat)))
    out += map(sub, minus.images(base), _sums(minus.terms(flat), q - 1))
    out += map(add, plus.images(base), _sums(plus.terms(flat), (q - 1) ** 2))
    return plan.order(out)


def _lift_layers(
    base: InfoVecA, layers: Sequence[dict[Word, tuple[int, ...]]], repo: Repository
) -> tuple[int, ...]:
    """The window recursion's entries for the checked alphabet message
    ``base`` and checked layers 3, 4, ...: each message is checked once, by
    its encoder, and a decoder's re-encode checks nothing."""
    q = base.q
    entries: Sequence[int] = repo.vector(base.base)
    for stage in base.stages:
        entries = _extend(entries, stage.pi, stage.t)
    for offset, layer in enumerate(layers):
        entries = _lift_layer(entries, layer, q, 3 + offset)
    return tuple(entries)


def encode_b(info: InfoVecB, repo: Repository) -> ScaledVector:
    """Window-recursion encoder: message to realizable integer vector."""
    info.check()
    return ScaledVector(Params(info.q, info.ell), _lift_layers(info.base, info.layers, repo))


def decode_b(vec: FeasibleVector, repo: Repository) -> InfoVecB:
    """Inverse of :func:`encode_b`: peels the window layers, then the
    alphabet stages, and re-encodes once to confirm codeword status."""
    q, ell = vec.params.q, vec.params.ell
    if vec.denom != 1:
        raise NotACodeword("encoder outputs have integer entries")
    if ell < 2:
        raise NotACodeword("encoder outputs have window length >= 2")
    scale = q ** (q * q)
    span = 2 * scale
    entries = vec.entries
    layers: list[dict[Word, tuple[int, ...]]] = []
    for i in range(ell, 2, -1):
        prev = []
        layer: dict[Word, tuple[int, ...]] = {}
        for preimages, u in _window_plan(q, i).nodes:
            vals = preimages(entries)
            # The base value h of the first preimage: every preimage entry
            # must round to it, that is lie in [2sh - s, 2sh + s).  An
            # interior node's sorted entries give the ends and the ranks.
            half = (vals[0] + scale) // span
            low = half * span - scale
            ranked = sorted(vals) if u is not None else (min(vals), max(vals))
            if ranked[0] < low or ranked[-1] >= low + span:
                raise NotACodeword("preimage entries disagree on their base value")
            prev.append(half)
            if u is not None:
                if len(set(vals)) != q:
                    raise NotACodeword("preimage entries must be distinct")
                layer[u] = tuple(map(ranked.index, vals))
        layers.append(layer)
        entries = prev
    # The peel keyed each layer by exactly the interior words and gave each
    # the ranks of q distinct entries, and _shrink reads each stage from q
    # distinct new values merged with the old ones, so the message passes
    # InfoVecB.check and the re-encode need not check it again.
    stages: list[StageA] = []
    for size in range(q, BASE_Q, -1):
        entries, stage = _shrink(entries, size)
        stages.append(stage)
    base = InfoVecA(repo.index_of(entries), tuple(reversed(stages)))
    layers.reverse()
    if _lift_layers(base, layers, repo) != vec.entries:
        raise NotACodeword("vector is not an encoder output")
    return InfoVecB(base, tuple(layers))


# ---------------------------------------------------------------------------
# Counting, rate, and length calculators
# ---------------------------------------------------------------------------

def count_lower_bound(params: Params) -> int:
    """Number of distinct realizable orders the encoders reach, exact."""
    q, ell = params.q, params.ell
    if q < 3 or ell < 2:
        raise ValueError("bound defined for q >= 3 and ell >= 2")
    total = BASE_COUNT
    for j in range(4, q + 1):
        total *= math.factorial(j) * math.comb(j * j - j + 1, j)
    for i in range(3, ell + 1):
        total *= math.factorial(q) ** (
            q ** (i - 1) - 2 * q ** (i - 2) + q ** (i - 3)
        )
    return total


def rate_lower_bound(params: Params) -> float:
    """Closed-form rate lower bound used for the finite-parameter table."""
    q, ell = params.q, params.ell
    if q < 3 or ell < 3:
        raise ValueError("rate formula stated for q >= 3 and ell >= 3")
    # one true division of exact integers, so no large factor becomes a float
    share = (q - 1) * (q ** (ell - 2) - 1) / (ell * q**ell)
    return math.log(math.factorial(q)) / math.log(q) * share


@dataclass(frozen=True)
class LengthBounds:
    """Exact witness-length bounds for the encoder output families."""

    max_entry_pairs: int  # largest entry, window length 2
    length_pairs: int  # witness length, window length 2
    max_entry: int  # largest entry at the requested window length
    length: Fraction  # witness length at the requested window length


def length_bounds(params: Params, c3: int) -> LengthBounds:
    q, ell = params.q, params.ell
    if q < 3 or ell < 2 or c3 < 1:
        raise ValueError("bounds defined for q >= 3, ell >= 2, c3 >= 1")
    growth = 2 ** (q - 3) * (math.factorial(q) // 6) * (math.factorial(q + 1) // 24)
    max_entry_pairs = growth * c3
    length_pairs = q * q * max_entry_pairs
    max_entry = max_entry_pairs * (3 * q ** (q * q)) ** (ell - 2)
    length = Fraction(
        c3 * growth * 3 ** (ell - 2) * (q**ell) ** (q * q + 1), 2 * q * q
    )
    return LengthBounds(max_entry_pairs, length_pairs, max_entry, length)


# ---------------------------------------------------------------------------
# Random messages and text formats
# ---------------------------------------------------------------------------

def random_info_a(q: int, rng) -> InfoVecA:
    stages = []
    for j in range(4, q + 1):
        pi = list(range(1, j + 1))
        rng.shuffle(pi)
        positions = rng.sample(range(j * j - j + 1), j)
        t = tuple(1 if k in positions else 0 for k in range(j * j - j + 1))
        stages.append(StageA(tuple(pi), t))
    return InfoVecA(rng.randint(1, BASE_COUNT), tuple(stages))


def random_layer(q: int, i: int, rng) -> dict[Word, tuple[int, ...]]:
    layer = {}
    for u in layer_domain(q, i):
        perm = list(range(q))
        rng.shuffle(perm)
        layer[u] = tuple(perm)
    return layer


def random_info_b(q: int, ell: int, rng) -> InfoVecB:
    return InfoVecB(
        random_info_a(q, rng),
        tuple(random_layer(q, i, rng) for i in range(3, ell + 1)),
    )


def _alphabet_lines(info: InfoVecA) -> list[str]:
    """The base and stage lines, shared by both message formats."""
    lines = [f"base={info.base}"]
    for stage in info.stages:
        pi = ",".join(str(v) for v in stage.pi)
        t = "".join(str(b) for b in stage.t)
        lines.append(f"pi={pi} t={t}")
    return lines


def _alphabet_from_lines(lines: Sequence[str]) -> InfoVecA:
    """Inverse of :func:`_alphabet_lines`, by position: the base line, then
    one stage line per added symbol.  The caller checks the spelling."""
    if not lines:
        raise ValueError("message has no base line")
    base = parse_int(lines[0].removeprefix("base="), "message", 2)
    stages = []
    for n, ln in enumerate(lines[1:], 3):
        pi, _, t = ln.removeprefix("pi=").partition(" t=")
        pi = tuple(parse_int(v, "message", n) for v in pi.split(","))
        stages.append(StageA(pi, parse_word(t)))
    return InfoVecA(base, tuple(stages))


def info_a_to_text(info: InfoVecA) -> str:
    return "\n".join([f"q={info.q}"] + _alphabet_lines(info)) + "\n"


def info_a_from_text(text: str) -> InfoVecA:
    """Read what :func:`info_a_to_text` writes: the ``q=<q>`` header, whose
    q the stage count fixes, then the alphabet lines."""
    info = _alphabet_from_lines(text.removesuffix("\n").split("\n")[1:])
    info.check()
    read_back(text, info_a_to_text(info), "message")
    return info


def info_b_to_text(info: InfoVecB) -> str:
    lines = [f"q={info.q} ell={info.ell}"] + _alphabet_lines(info.base)
    for offset, layer in enumerate(info.layers):
        for u in layer_domain(info.q, 3 + offset):
            perm = ",".join(str(v) for v in layer[u])
            lines.append(f"P({word_text(u)})={perm}")
    return "\n".join(lines) + "\n"


def info_b_from_text(text: str) -> InfoVecB:
    """Read what :func:`info_b_to_text` writes: the ``q=<q> ell=<ell>``
    header, the base line and q - 3 stage lines, then the layer lines,
    each filed under the layer its word's length names."""
    header, *lines = text.removesuffix("\n").split("\n")
    q, _, ell = header.removeprefix("q=").partition(" ell=")
    q, ell = parse_int(q, "message", 1), parse_int(ell, "message", 1)
    if not 2 <= ell <= len(lines) + 1:
        # Every layer 3..ell needs a line of its own after the base line.
        raise ValueError(f"window length {ell} does not fit a {len(lines) + 1}-line message")
    cut = max(q, BASE_Q) - 2  # the base line and the stage lines
    layers: list[dict[Word, tuple[int, ...]]] = [{} for _ in range(3, ell + 1)]
    for n, ln in enumerate(lines[cut:], cut + 2):
        word, _, perm = ln.removeprefix("P(").partition(")=")
        u = parse_word(word)
        if not 3 <= len(u) + 1 <= ell:
            raise ValueError(f"layer line {ln!r} names no layer 3..{ell}")
        layers[len(u) - 2][u] = tuple(parse_int(v, "message", n) for v in perm.split(","))
    info = InfoVecB(_alphabet_from_lines(lines[:cut]), tuple(layers))
    info.check()
    read_back(text, info_b_to_text(info), "message")
    return info
