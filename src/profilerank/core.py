"""Words over Z_q, circular profile vectors, rank permutations, and the
De Bruijn graph plumbing every other module builds on.

Conventions used throughout the package:

* the alphabet is always ``0..q-1`` with addition mod ``q`` (DNA letters are
  mapped by position: A=0, C=1, G=2, ...);
* a word is a plain tuple of symbols, ordered lexicographically by tuple
  comparison, with the lexicographic index as canonical serialization;
* profile vectors use the circular (closed-string) convention: windows wrap
  around the end of the string;
* ranks are 1-based, rank 1 = least frequent word.
"""

from __future__ import annotations

import operator
import os
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations, product, zip_longest
from multiprocessing import get_context
from struct import Struct
from typing import Callable, Iterator, Sequence, Union

Word = tuple[int, ...]
Entry = Union[int, Fraction]


class TieError(ValueError):
    """Raised when a vector with tied entries is asked for its rank order.

    ``groups`` holds the colliding words, one tuple of words per tied value.
    """

    def __init__(self, groups: tuple[tuple[Word, ...], ...]):
        self.groups = groups
        shown = ", ".join("{" + ",".join(map(word_label, g)) + "}" for g in groups)
        super().__init__(f"tied entries: {shown}")


@dataclass(frozen=True)
class Params:
    """Alphabet size and window length."""

    q: int
    ell: int

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.q}")
        if self.ell < 1:
            raise ValueError(f"window length must be >= 1, got {self.ell}")

    @property
    def word_count(self) -> int:
        return self.q**self.ell

    @property
    def node_count(self) -> int:
        """Number of nodes of the graph one order below (windows overlap there)."""
        return self.q ** (self.ell - 1)

    def index(self, w: Word) -> int:
        """Lexicographic index of ``w``, which must be a word of length ``ell``."""
        if len(w) != self.ell:
            raise ValueError(f"word {word_label(w)} does not have length {self.ell}")
        return word_index(w, self.q)

    def words(self) -> Iterator[Word]:
        return all_words(self.q, self.ell)

    def nodes(self) -> Iterator[Word]:
        return all_words(self.q, self.ell - 1)


def _at_most(params: Params, cap: int) -> bool:
    """Whether ``params`` has at most ``cap`` words.  ell is compared first:
    q^ell >= 2^ell, so q^ell is never computed for an ell past the bit
    length of ``cap``, nor rendered in the caller's message."""
    return params.ell < cap.bit_length() and params.word_count <= cap


def all_words(q: int, length: int) -> Iterator[Word]:
    """All words of the given length in lexicographic order."""
    return product(range(q), repeat=length)


def word_index(w: Word, q: int) -> int:
    """Lexicographic index of ``w`` among words of its length."""
    idx = 0
    for s in w:
        if not 0 <= s < q:
            raise ValueError(f"symbol {s} out of range for q={q}")
        idx = idx * q + s
    return idx


def index_to_word(idx: int, q: int, length: int) -> Word:
    if not 0 <= idx < q**length:
        raise ValueError(f"index {idx} out of range for q={q}, length={length}")
    out = []
    for _ in range(length):
        idx, s = divmod(idx, q)
        out.append(s)
    return tuple(reversed(out))


def word_text(w: Word) -> str:
    """Render a word as a q-ary digit string (defined for q <= 10)."""
    if any(s > 9 for s in w):
        raise ValueError("digit rendering is only defined for q <= 10")
    return "".join(str(s) for s in w)


def word_label(w: Word) -> str:
    """Render a word for a message: its digit string when every symbol is
    below 10, else its symbols in parentheses, such as ``(10,0)``."""
    if all(s <= 9 for s in w):
        return word_text(w)
    return "(" + ",".join(map(str, w)) + ")"


DECIMAL = r"(?:0|[1-9][0-9]*)(?:\.[0-9]+)?"  # a rate: a natural, maybe a decimal fraction
_DIGIT_STRING = re.compile("[0-9]+")
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def parse_natural(text: str, what: str) -> int:
    """The natural number ``text`` names, which must be written as ``str``
    writes it: ASCII digits with no sign, ``_`` or leading zero, the
    numeral rule of every text format.  ValueError naming ``what`` and
    that rule otherwise."""
    if not (text.isascii() and text.isdigit() and (text[0] != "0" or text == "0")):
        raise ValueError(f"bad {what}: {text!r} is not ASCII digits with no sign or leading zero")
    return int(text)


def parse_int(text: str, what: str, line: int) -> int:
    """``int(text)``, or a ValueError naming line ``line`` of the ``what``;
    a number spelled otherwise than its writer's is left to :func:`read_back`."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} line {line}: {text!r} is not a number") from None


def read_back(text: str, written: str, what: str) -> None:
    """Raise ValueError unless ``text`` is ``written``, the text the format's
    writer gives for the value read from it, or that text without its final
    newline.  Each reader calls this last, so it accepts one spelling per
    value; the error names the first line of the ``what`` that differs."""
    if text == written or text + "\n" == written:
        return
    pairs = zip_longest(text.split("\n"), written.split("\n"))
    number, (got, want) = next((n, p) for n, p in enumerate(pairs, 1) if p[0] != p[1])
    if want is None:
        raise ValueError(f"{what} line {number} reads {got!r} past the end of the {what}")
    if got is None:
        raise ValueError(f"{what} ends before line {number}, {want!r}")
    raise ValueError(f"{what} line {number} reads {got!r}, not {want!r}")


def parse_word(text: str) -> Word:
    if not _DIGIT_STRING.fullmatch(text):
        raise ValueError(f"not a digit-string word: {text!r}")
    return tuple(int(c) for c in text)


def parse_symbols(x: Union[str, Sequence[int]], q: int) -> Word:
    """Normalize a string of digits or a symbol sequence, checking the range."""
    symbols = parse_word(x) if isinstance(x, str) else tuple(x)
    for s in symbols:
        if not 0 <= s < q:
            raise ValueError(f"symbol {s} out of range for q={q}")
    return symbols


# ---------------------------------------------------------------------------
# De Bruijn graph structure
# ---------------------------------------------------------------------------

def is_constant(v: Word) -> bool:
    return len(set(v)) <= 1


@lru_cache(maxsize=None)
def edge_nodes(params: Params) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The overlap graph as index arithmetic: per word index, the node the
    word leaves (its prefix, ``idx // q``) and the node it enters (its
    suffix, ``idx % q^(ell-1)``)."""
    q, nodes = params.q, params.node_count
    words = range(params.word_count)
    return tuple(idx // q for idx in words), tuple(idx % nodes for idx in words)


def word_symmetries(params: Params) -> Iterator[tuple[int, ...]]:
    """The symmetry group G of the window code as maps on word indices: map
    g sends index i to the index of the image of word i.  G is the symbol
    relabelings sigma (in lexicographic order of sigma), each followed at
    ell >= 2 by sigma composed with word reversal.  Both keep realizability
    (relabel a witness string, or read it backwards), so G permutes the
    rank orders and keeps every verdict.  Its q! (ell = 1, where reversal
    fixes every word) or 2 q! maps are distinct; the first is the identity.
    """
    flip = tuple(word_index(w[::-1], params.q) for w in params.words())
    for sigma in permutations(range(params.q)):
        image = relabeling(params, sigma)
        yield image
        if params.ell > 1:
            yield tuple(map(image.__getitem__, flip))


def relabeling(params: Params, sigma: Sequence[int]) -> tuple[int, ...]:
    """The map on word indices of the symbol relabeling ``sigma``: entry i
    is the index of word i with each symbol s replaced by ``sigma[s]``."""
    image = tuple(sigma)  # on the words of length 1, then one symbol longer
    for _ in range(params.ell - 1):
        image = tuple(b * params.q + s for b in image for s in sigma)
    return image


def homo_image(v: Word, q: int) -> Word:
    """Adjacent-sum map onto words one symbol shorter.

    Sends ``(v_0, ..., v_{m-1})`` to ``(v_0+v_1, ..., v_{m-2}+v_{m-1})``
    mod q.  This is a graph homomorphism: edges map to edges one order down.
    """
    if len(v) < 2:
        raise ValueError("adjacent-sum image needs a word of length >= 2")
    return tuple((v[i] + v[i + 1]) % q for i in range(len(v) - 1))


def homo_preimages(u: Word, q: int) -> list[Word]:
    """The q preimages of ``u`` under the adjacent-sum map.

    Preimage ``i`` starts with symbol ``i``; the rest is forced left to right
    by ``v_{j+1} = u_j - v_j``.
    """
    out = []
    for first in range(q):
        v = [first]
        for s in u:
            v.append((s - v[-1]) % q)
        out.append(tuple(v))
    return out


# ---------------------------------------------------------------------------
# Packed tables
# ---------------------------------------------------------------------------

class PackedRows(Sequence):
    """A read-only table of equal-width rows of naturals below 256, held as
    one ``bytes`` blob with one byte per entry: row i is
    ``data[i*width:(i+1)*width]``.

    Rows read back as tuples of ints, so the table behaves as the tuple of
    its rows: it equals (and hashes like) that tuple, and it equals any
    packed table of the same rows.  Packed rows compare as bytes in the
    order their tuples compare, since bytes compare as unsigned bytes.

    :meth:`index` finds a row through a lookup built on first use: per
    prefix of all but the last 8 entries (the first entry, at width 9), the
    big-endian integers of those last 8 entries, sorted in an ``array`` of
    64-bit keys beside their row positions, so a search is one C-level
    bisection.
    """

    __slots__ = ("data", "width", "_row", "_lookup")

    def __init__(self, data: bytes | bytearray, width: int):
        if width < 1 or len(data) % width:
            raise ValueError(f"{len(data)} bytes do not make rows of width {width}")
        self.data = bytes(data)
        self.width = width
        self._row = Struct(f"{width}B")  # one row as a tuple, read in place
        self._lookup: dict[bytes, tuple[array, array]] | None = None

    def __len__(self) -> int:
        return len(self.data) // self.width

    def __getitem__(self, i: int) -> tuple[int, ...]:
        w = self.width
        n = len(self.data) // w
        if not -n <= i < n:
            raise IndexError("row index out of range")
        return self._row.unpack_from(self.data, i % n * w)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return zip(*[iter(self.data)] * self.width)

    def __eq__(self, other) -> bool:
        if isinstance(other, PackedRows):
            return self.data == other.data and (self.width == other.width or not self.data)
        if isinstance(other, tuple):
            return len(other) == len(self) and all(map(operator.eq, self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"PackedRows(bytes.fromhex({self.data.hex()!r}), {self.width})"

    def index(self, row) -> int:
        """Position of the first row equal to ``row``; ValueError if none."""
        try:
            # bytes(n) of an int n would be n zero bytes
            packed = b"" if isinstance(row, int) else bytes(row)
        except (TypeError, ValueError):  # not naturals below 256: in no row
            packed = b""
        if len(packed) == self.width:
            lookup = self._lookup
            if lookup is None:
                lookup = self._lookup = self._build_lookup()
            cut = max(self.width - 8, 0)
            keys, rows = lookup.get(packed[:cut], ((), ()))
            key = int.from_bytes(packed[cut:], "big")
            j = bisect_left(keys, key)
            if j < len(keys) and keys[j] == key:
                return rows[j]
        raise ValueError("row not in table")

    def _build_lookup(self) -> dict[bytes, tuple[array, array]]:
        w, data = self.width, self.data
        cut = max(w - 8, 0)  # the bytes before the last 8, one 64-bit key
        by_prefix: dict[bytes, array] = {}
        for k in range(len(self)):
            prefix = data[k * w : k * w + cut]
            if prefix not in by_prefix:
                by_prefix[prefix] = array("I")
            by_prefix[prefix].append(k)
        lookup = {}
        for prefix, rows in by_prefix.items():
            keys = [int.from_bytes(data[k * w + cut : k * w + w], "big") for k in rows]
            ranked = sorted(range(len(rows)), key=keys.__getitem__)  # stable: first row wins
            lookup[prefix] = (
                array("Q", map(keys.__getitem__, ranked)),
                array("I", map(rows.__getitem__, ranked)),
            )
        return lookup


# ---------------------------------------------------------------------------
# Profile vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileVector:
    """Counts of every length-``ell`` window of a circular string.

    ``counts`` is indexed by the lexicographic word index; entries are
    arbitrary-precision integers (encoder outputs overflow 64-bit words
    already at q=5).
    """

    params: Params
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.params.word_count:
            raise ValueError(
                f"expected {self.params.word_count} counts, got {len(self.counts)}"
            )
        if any(c < 0 for c in self.counts):
            raise ValueError("profile counts must be nonnegative")

    def __getitem__(self, w: Word) -> int:
        return self.counts[self.params.index(w)]

    def total(self) -> int:
        return sum(self.counts)

    def scaled(self, k: int) -> "ProfileVector":
        return ProfileVector(self.params, tuple(c * k for c in self.counts))

    def to_text(self) -> str:
        return vector_text(self.params, self.counts)

    @classmethod
    def from_text(cls, text: str) -> "ProfileVector":
        params, fields = parse_vector_text(text, "profile")
        profile = cls(params, tuple(parse_int(f, "profile", n) for n, f in enumerate(fields, 2)))
        read_back(text, profile.to_text(), "profile")
        return profile


def vector_text(params: Params, values: Sequence[Entry]) -> str:
    """Writer of the vector text format that :func:`parse_vector_text` reads:
    the header, then one ``<word> <value>`` line per word in index order."""
    lines = [f"q={params.q} ell={params.ell}"]
    lines.extend(f"{word_text(w)} {v}" for w, v in zip(params.words(), values))
    return "\n".join(lines) + "\n"


def parse_vector_text(text: str, what: str) -> tuple[Params, list[str]]:
    """The vector text format shared by profiles and vectors, split by
    position: the parameters of the ``q=<q> ell=<ell>`` header and the value
    field (what follows the first space) of each of the q^ell lines after
    it, field k on line k + 2.  Only the header and the line count are
    checked here, ell before q^ell is computed;
    each reader builds its vector from the fields and then holds the text
    to :func:`vector_text` of it with :func:`read_back`, which checks the
    spelling of every line, the words and their index order included.
    """
    header, *lines = text.removesuffix("\n").split("\n")
    q, _, ell = header.removeprefix("q=").partition(" ell=")
    params = Params(parse_int(q, what, 1), parse_int(ell, what, 1))
    if not _at_most(params, len(lines)):
        raise ValueError(f"q={params.q} ell={params.ell} takes q^ell word lines, not {len(lines)}")
    return params, [ln.partition(" ")[2] for ln in lines[: params.word_count]]


# digit values 0..31 to the characters int(text, 2**k) reads them from
_BASE32_TEXT = bytes.maketrans(bytes(range(32)), b"0123456789abcdefghijklmnopqrstuv")


@lru_cache(maxsize=None)
def _plane_tables(q: int) -> tuple[int, tuple[bytes, ...]]:
    """The block width k of :func:`profile_of` for alphabet ``q``, the
    largest k <= 5 with q^k <= 256, and per symbol a a 256-entry
    ``bytes.translate`` table.  It sends a block (k symbols as one base-q
    byte, the first most significant) to the base-2^k digit whose bit
    k-1-j is set iff symbol j of the block is a; bytes above q^k - 1 never
    occur.  k stops at 5 because ``int`` reads bases up to 36 only."""
    k = max(k for k in range(1, 6) if q**k <= 256)
    digits = [bytearray(256) for _ in range(q)]
    for block in range(q**k):
        for j, s in enumerate(index_to_word(block, q, k)):
            digits[s][block] |= 1 << (k - 1 - j)
    return k, tuple(bytes(d).translate(_BASE32_TEXT) for d in digits)


# The most words profile_of counts.  Their text already runs to some 20 MB;
# a larger q^ell would fail only as its counts are allocated.
_PROFILE_CAP = 1 << 20


def profile_of(x: Union[str, Sequence[int]], params: Params) -> ProfileVector:
    """Profile vector of a circular string: windows wrap around the end.

    When q^ell <= 256 the string is turned into bytes and counted on bit
    planes.  The string with its ell-1 wrapped symbols, zero-padded to L
    positions, is packed k symbols to a byte (Horner's rule over the k
    strided slices; :func:`_plane_tables` gives k).  One ``translate`` of
    those bytes and one ``int(..., 2**k)`` give the plane of each nonzero
    symbol a, an L-bit integer whose bit L-1-i is set iff position i holds
    a; plane 0 is the complement of the others within the n+ell-1 real
    positions, so no padding position holds a 0.  The positions where the
    occurrences of a word end are P(a) = plane[a] and P(w·a) = (P(w) >> 1)
    & plane[a], and a count is ``P(w).bit_count()``: one AND and one
    popcount per word, whatever its density.  The prefixes that occur are
    walked depth first, so at most q + ell + 1 such integers are alive at
    once.  A window that starts past the string's n symbols ends on a
    padding position or runs off the end, so it is never counted.  Larger
    word sets take a symbol loop.
    """
    q, ell = params.q, params.ell
    if not _at_most(params, _PROFILE_CAP):
        raise ValueError(f"q={q} ell={ell} has more than {_PROFILE_CAP} words to count")
    if params.word_count <= 256:
        if isinstance(x, str):
            if not _DIGIT_STRING.fullmatch(x):
                raise ValueError(f"not a digit-string word: {x!r}")
            x = x.encode("ascii").translate(_DIGIT_VALUES)
        data = bytes(x)
        bad = data.translate(None, bytes(range(q)))
        if bad:
            raise ValueError(f"symbol {bad[0]} out of range for q={q}")
        n = len(data)
        if n < 1:
            raise ValueError("profile of the empty string is undefined")
        k, tables = _plane_tables(q)
        tail = (data * (ell // n + 1))[: ell - 1]
        pad = -(n + ell - 1) % k
        ext = b"".join((data, tail, bytes(pad)))
        size = len(ext)
        acc = 0
        for j in range(k):  # no carries: each block stays <= q^k - 1 <= 255
            acc = acc * q + int.from_bytes(ext[j::k], "big")
        del ext  # what is freed as it goes keeps the peak near 2-3 bytes a symbol
        blocks = acc.to_bytes(size // k, "big")
        del acc
        planes = [(1 << size) - (1 << pad)] + [0] * (q - 1)
        for a in range(1, q):
            planes[a] = int(blocks.translate(tables[a]), 1 << k)
            planes[0] ^= planes[a]  # the planes are disjoint
        counts = [0] * params.word_count
        last = ell - 1

        def walk(ends: int, w: int, depth: int) -> None:
            # ends: the positions right after the occurrences of the
            # depth-long word w; a word that does not occur has no counts
            if depth == last:
                w *= q
                counts[w : w + q] = [(ends & p).bit_count() for p in planes]
            elif ends:
                for a in range(q):
                    walk((ends & planes[a]) >> 1, w * q + a, depth + 1)

        walk(-1, 0, 0)  # every position starts the empty word
        return ProfileVector(params, tuple(counts))
    symbols = parse_symbols(x, q)
    n = len(symbols)
    if n < 1:
        raise ValueError("profile of the empty string is undefined")
    counts = [0] * params.word_count
    # Maintain the window index incrementally: drop the leading digit, shift,
    # append the next symbol.
    idx = word_index(tuple(symbols[i % n] for i in range(ell)), q)
    top = q ** (ell - 1)
    for i in range(n):
        counts[idx] += 1
        idx = (idx % top) * q + symbols[(i + ell) % n]
    return ProfileVector(params, tuple(counts))


def first_flow_violation(
    values: Union[ProfileVector, Sequence[Entry]], params: Params | None = None
) -> Word | None:
    """First node (in lexicographic order) whose in-sum differs from its
    out-sum, or None if the entries conserve flow everywhere.

    Takes a profile, or bare entries (integers or fractions) with ``params``.
    """
    vec, p = _entries(values, params)
    if p.ell < 2:
        raise ValueError("flow conservation is defined only for ell >= 2")
    q, nodes = p.q, p.node_count
    for v in range(nodes):
        # out-words of node v are v*q + s, in-words are s*nodes + v
        if sum(vec[v * q : v * q + q]) != sum(vec[v::nodes]):
            return index_to_word(v, q, p.ell - 1)
    return None


# ---------------------------------------------------------------------------
# Rank permutations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _index_set(n: int) -> frozenset[int]:
    """The word indices 0..n-1, which every rank order lists once."""
    return frozenset(range(n))


@dataclass(frozen=True)
class RankPermutation:
    """A total order on all words of length ``ell``.

    ``order`` lists lexicographic word indices from least frequent to most
    frequent; the rank of a word is its 1-based position in that list.
    """

    params: Params
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.params.word_count
        if len(self.order) != n or _index_set(n) != set(self.order):
            raise ValueError("order must list every word index exactly once")

    @classmethod
    def from_words(cls, params: Params, words: Sequence[Word]) -> "RankPermutation":
        return cls(params, tuple(map(params.index, words)))

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """Rank of each word, indexed by lexicographic word index (1-based)."""
        ranks = [0] * len(self.order)
        for pos, idx in enumerate(self.order):
            ranks[idx] = pos + 1
        return tuple(ranks)

    def rank(self, w: Word) -> int:
        return self.ranks[self.params.index(w)]

    def word_at_rank(self, r: int) -> Word:
        if not 1 <= r <= len(self.order):
            raise ValueError(f"rank {r} out of range 1..{len(self.order)}")
        return index_to_word(self.order[r - 1], self.params.q, self.params.ell)

    def words_in_order(self) -> list[Word]:
        q, ell = self.params.q, self.params.ell
        return [index_to_word(i, q, ell) for i in self.order]

    def to_text(self) -> str:
        return ",".join(word_text(w) for w in self.words_in_order())

    @classmethod
    def from_text(cls, text: str) -> "RankPermutation":
        """Read a comma-separated word list, as :meth:`to_text` writes it.
        Every word must have the length of the first one; the order lists
        all q^ell words, so the largest symbol gives q."""
        words = [parse_word(t) for t in text.split(",")]
        params = Params(max(max(w) for w in words) + 1, len(words[0]))
        perm = cls.from_words(params, words)
        read_back(text, perm.to_text(), "rank order")
        return perm


def _entries(values: Union[ProfileVector, Sequence[Entry]], params: Params | None):
    if isinstance(values, ProfileVector):
        return values.counts, values.params
    if params is None:
        raise ValueError("params required when passing a bare sequence")
    vec = tuple(values)
    if len(vec) != params.word_count:
        raise ValueError(f"expected {params.word_count} entries, got {len(vec)}")
    return vec, params


def satisfies(
    values: Union[ProfileVector, Sequence[Entry]],
    perm: RankPermutation,
    params: Params | None = None,
) -> bool:
    """True iff the entries are pairwise distinct and their ascending order
    matches ``perm``.  Ties yield False, not an error."""
    vec, p = _entries(values, params or perm.params)
    if p != perm.params:
        raise ValueError("parameter mismatch between vector and permutation")
    prev = None
    for idx in perm.order:
        if prev is not None and not prev < vec[idx]:
            return False
        prev = vec[idx]
    return True


def rank_of(
    values: Union[ProfileVector, Sequence[Entry]],
    params: Params | None = None,
) -> RankPermutation:
    """The permutation induced by a vector with pairwise distinct entries."""
    vec, p = _entries(values, params)
    order = sorted(range(len(vec)), key=vec.__getitem__)
    if len(set(vec)) < len(vec):
        groups = []
        run = [order[0]]
        for a, b in zip(order, order[1:]):
            if vec[a] == vec[b]:
                run.append(b)
            else:
                if len(run) > 1:
                    groups.append(run)
                run = [b]
        if len(run) > 1:
            groups.append(run)
        raise TieError(
            tuple(
                tuple(index_to_word(i, p.q, p.ell) for i in g) for g in groups
            )
        )
    return RankPermutation(p, tuple(order))


# ---------------------------------------------------------------------------
# Parallel fan-out
# ---------------------------------------------------------------------------

PIECES_PER_JOB = 4  # work pieces per worker, so a slow piece does not idle the rest


def _job_count(jobs: int | None) -> int:
    """Worker count for a ``jobs`` argument, capped at the core count: None
    means every core."""
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    cores = os.cpu_count() or 1
    return cores if jobs is None else min(jobs, cores)


def split_range(total: int, jobs: int | None) -> list[range]:
    """Contiguous pieces covering ``range(total)`` in order: one piece when
    serial, PIECES_PER_JOB per worker otherwise, none when ``total`` is 0."""
    workers = _job_count(jobs)
    pieces = 1 if workers == 1 else workers * PIECES_PER_JOB
    step = max(1, -(-total // pieces))
    return [range(lo, min(lo + step, total)) for lo in range(0, total, step)]


def fan_out(work: Callable, tasks: Sequence, jobs: int | None) -> list:
    """``[work(t) for t in tasks]``, in a fork pool of ``min(jobs, cores,
    len(tasks))`` workers when that is more than one.  ``work`` must be a
    module-level function; results come back in task order."""
    workers = min(_job_count(jobs), len(tasks))
    if workers <= 1:
        return [work(t) for t in tasks]
    with get_context("fork").Pool(workers) as pool:
        return pool.map(work, tasks, chunksize=1)
