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

import os
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from multiprocessing import get_context
from typing import Callable, Iterator, Sequence, Union

Word = tuple[int, ...]
Entry = Union[int, Fraction]


class TieError(ValueError):
    """Raised when a vector with tied entries is asked for its rank order.

    ``groups`` holds the colliding words, one tuple of words per tied value.
    """

    def __init__(self, groups: tuple[tuple[Word, ...], ...]):
        self.groups = groups
        shown = ", ".join("{" + ",".join(word_text(w) for w in g) + "}" for g in groups)
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

    def words(self) -> Iterator[Word]:
        return all_words(self.q, self.ell)

    def nodes(self) -> Iterator[Word]:
        return all_words(self.q, self.ell - 1)


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


_DIGIT_STRING = re.compile(r"[0-9]+")
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


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


def rotate(w: Word, k: int) -> Word:
    k %= len(w)
    return w[k:] + w[:k]


# ---------------------------------------------------------------------------
# De Bruijn graph structure
# ---------------------------------------------------------------------------

def in_words(v: Word, q: int) -> list[Word]:
    """The words obtained by prepending one symbol to ``v``."""
    return [(s,) + v for s in range(q)]


def out_words(v: Word, q: int) -> list[Word]:
    """The words obtained by appending one symbol to ``v``."""
    return [v + (s,) for s in range(q)]


def is_constant(v: Word) -> bool:
    return len(set(v)) <= 1


def neighborhood(v: Word, q: int) -> tuple[list[Word], list[Word]]:
    """Incoming and outgoing extensions of a non-constant word.

    The two lists are disjoint exactly because ``v`` mixes at least two
    symbols; constant words are rejected since their self-extension would
    appear on both sides.
    """
    if is_constant(v):
        raise ValueError(f"neighborhood undefined for constant word {v}")
    return in_words(v, q), out_words(v, q)


def is_edge(a: Word, b: Word) -> bool:
    """Edge test: the tail of ``a`` overlaps the head of ``b`` by len-1."""
    if len(a) != len(b) or len(a) < 1:
        return False
    return a[1:] == b[:-1]


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

    @classmethod
    def from_map(cls, params: Params, counts: dict[Word, int]) -> "ProfileVector":
        vec = [0] * params.word_count
        for w, c in counts.items():
            vec[word_index(w, params.q)] = c
        return cls(params, tuple(vec))

    def __getitem__(self, w: Word) -> int:
        return self.counts[word_index(w, self.params.q)]

    def total(self) -> int:
        return sum(self.counts)

    def scaled(self, k: int) -> "ProfileVector":
        return ProfileVector(self.params, tuple(c * k for c in self.counts))

    def to_text(self) -> str:
        return vector_text(self.params, self.counts)

    @classmethod
    def from_text(cls, text: str) -> "ProfileVector":
        params, fields = parse_vector_text(text)
        for f in fields:
            if not re.fullmatch(r"[0-9]+", f):
                raise ValueError(f"bad profile count: {f!r}")
        return cls(params, tuple(int(f) for f in fields))


def vector_text(params: Params, values: Sequence[Entry]) -> str:
    """Writer of the vector text format that :func:`parse_vector_text` reads:
    the header, then one ``<word> <value>`` line per word in index order."""
    lines = [f"q={params.q} ell={params.ell}"]
    lines.extend(f"{word_text(w)} {v}" for w, v in zip(params.words(), values))
    return "\n".join(lines) + "\n"


def parse_vector_text(text: str) -> tuple[Params, list[str]]:
    """Strict reader of the vector text format shared by profiles and vectors.

    The format is a ``q=<q> ell=<ell>`` header, then one ``<word> <value>``
    line for every word; blank lines are ignored.  Returns the parameters and
    the value fields in word order.  Raises ValueError on a bad header, a
    malformed line, a word of the wrong length or alphabet, and a missing or
    repeated word.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty vector text")
    m = re.fullmatch(r"q=(\d+) ell=(\d+)", lines[0].strip())
    if not m:
        raise ValueError(f"bad vector header: {lines[0]!r}")
    params = Params(int(m.group(1)), int(m.group(2)))
    if len(lines) - 1 != params.word_count:
        raise ValueError(
            f"expected {params.word_count} word lines, got {len(lines) - 1}"
        )
    fields: list[str | None] = [None] * params.word_count
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed word line: {ln!r}")
        w = parse_word(parts[0])
        if len(w) != params.ell:
            raise ValueError(f"word {parts[0]!r} does not have length {params.ell}")
        idx = word_index(w, params.q)
        if fields[idx] is not None:
            raise ValueError(f"word {parts[0]} listed twice")
        fields[idx] = parts[1]
    return params, fields


def profile_of(x: Union[str, Sequence[int]], params: Params) -> ProfileVector:
    """Profile vector of a circular string: windows wrap around the end.

    When q^ell <= 256 every window index fits in one byte, so the string is
    turned into bytes and the indices of all windows are formed at once as
    one base-256 integer (Horner's rule over the ell shifted copies of the
    string; no digit carries, since each stays <= q^ell - 1), then each word
    is counted with ``bytes.count``.  Larger word sets take a symbol loop.
    """
    q, ell = params.q, params.ell
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
        wrapped = data + (data * (ell // n + 1))[: ell - 1]
        acc = 0
        for j in range(ell):
            acc = acc * q + int.from_bytes(wrapped[j : j + n], "big")
        windows = acc.to_bytes(n, "big")
        return ProfileVector(
            params, tuple(windows.count(w) for w in range(params.word_count))
        )
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


def is_flow_conserving(p: ProfileVector) -> bool:
    return first_flow_violation(p) is None


# ---------------------------------------------------------------------------
# Rank permutations
# ---------------------------------------------------------------------------

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
        if len(self.order) != n or set(self.order) != set(range(n)):
            raise ValueError("order must list every word index exactly once")

    @classmethod
    def from_words(cls, params: Params, words: Sequence[Word]) -> "RankPermutation":
        return cls(params, tuple(word_index(w, params.q) for w in words))

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """Rank of each word, indexed by lexicographic word index (1-based)."""
        ranks = [0] * len(self.order)
        for pos, idx in enumerate(self.order):
            ranks[idx] = pos + 1
        return tuple(ranks)

    def rank(self, w: Word) -> int:
        return self.ranks[word_index(w, self.params.q)]

    def word_at_rank(self, r: int) -> Word:
        return index_to_word(self.order[r - 1], self.params.q, self.params.ell)

    def words_in_order(self) -> list[Word]:
        q, ell = self.params.q, self.params.ell
        return [index_to_word(i, q, ell) for i in self.order]

    def relabel(self, sigma: Sequence[int]) -> "RankPermutation":
        """Apply an alphabet relabeling symbol-wise, keeping the rank order."""
        q, ell = self.params.q, self.params.ell
        new_order = []
        for idx in self.order:
            w = index_to_word(idx, q, ell)
            new_order.append(word_index(tuple(sigma[s] for s in w), q))
        return RankPermutation(self.params, tuple(new_order))

    def to_text(self) -> str:
        return ",".join(word_text(w) for w in self.words_in_order())

    @classmethod
    def from_text(cls, text: str, params: Params | None = None) -> "RankPermutation":
        """Read a comma-separated word list.  Every word must have the length
        of the first one, or ``params.ell`` when ``params`` is given."""
        words = [parse_word(t.strip()) for t in text.strip().split(",")]
        ell = len(words[0]) if params is None else params.ell
        for w in words:
            if len(w) != ell:
                raise ValueError(f"word {word_text(w)} does not have length {ell}")
        if params is None:
            params = Params(max(max(w) for w in words) + 1, ell)
        return cls.from_words(params, words)


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
    """Worker count for a ``jobs`` argument: None means every core."""
    if jobs is None:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return jobs


def split_range(total: int, jobs: int | None) -> list[range]:
    """Contiguous pieces covering ``range(total)`` in order: one piece when
    serial, PIECES_PER_JOB per worker otherwise, none when ``total`` is 0."""
    workers = _job_count(jobs)
    pieces = 1 if workers == 1 else workers * PIECES_PER_JOB
    step = max(1, -(-total // pieces))
    return [range(lo, min(lo + step, total)) for lo in range(0, total, step)]


def fan_out(work: Callable, tasks: Sequence, jobs: int | None) -> list:
    """``[work(t) for t in tasks]``, in a fork pool of ``min(jobs, len(tasks))``
    workers when that is more than one.  ``work`` must be a module-level
    function; results come back in task order."""
    workers = min(_job_count(jobs), len(tasks))
    if workers <= 1:
        return [work(t) for t in tasks]
    with get_context("fork").Pool(workers) as pool:
        return pool.map(work, tasks, chunksize=1)
