"""Brute-force ground truth at desk scale.

Everything here enumerates: the full census of rank orders (capped at 9
words, i.e. 9! cases), the repository of minimal realizable matrices, the
smallest witness lengths, and the monochromatic-matching count that the
counting bound rests on.  The census and the repository visit one rank order
per orbit of the symmetry group G of :func:`core.word_symmetries`, which
keeps every verdict and every least-maximum assignment, and expand the
results through G: the census sorts the images of its feasible
representatives, and the build sorts each image with its vector and checks
that the images sorted are the census rows, so no order is looked up.  The
representatives, the least order of each orbit, come from a depth-first
walk over prefixes that keeps the maps of G fixing the prefix (G has at
most 12 maps at ell >= 2, where the census is capped at 9 words).  The walk
also carries the matching pre-check's ballot state, so once only the
identity fixes a prefix, a prefix that settles the pre-check for every
completion ends in one block: the census counts a block of hits without
building its orders.  Each order of a silent block gets a checked verdict
without the LP: the ballot of a constant node, which the pre-check skips
at ell >= 3, refutes it with a Farkas vector, or the value search below
assigns it, and the census keeps the assignments, checked in one packed
pass, for the build.  The exact LP runs only on an order neither
settles, which no census size has.  Both are one serial pass over the
representatives: at (3,2), the largest census input, a pass takes a
fraction of a second, less than a worker pool costs to start.

The value-assignment searches test, for one largest value at a time, every
increasing sequence of rank-order values that ends at it: each sequence is
one byte of a few big integers, so one integer sum per node of the overlap
graph checks the node's flow balance for all of them at once.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, combinations, permutations
from math import comb, factorial
from operator import itemgetter, le, lt, sub
from typing import Iterator, Sequence

from .core import PackedRows, Params, RankPermutation, _at_most, _rows, edge_nodes, word_symmetries
from .encoder import BASE_COUNT, BASE_Q, Repository
from .feasibility import FeasibleVector, RowError, _Ballot, check_farkas, check_rows, decide

CENSUS_CAP = 9  # largest q^ell whose full permutation set we will sweep
# Largest repository entry.  With zero allowed, every realizable (3,2) order
# fits with entries <= 16 (verified exhaustively); the strictly positive
# entries the encoders need cost at most a +1 shift, and 72 orders need it.
# It also caps the value searches, whose candidate tables grow with it.
REPOSITORY_CAP = 17
_JOIN_ROWS = 1024  # rows joined at once by _blocks


@dataclass(frozen=True)
class CensusStats:
    """Where one census sweep's work went.  Not part of a result's ``==``
    or :meth:`CensusResult.summary`."""

    prefixes: int = 0  # prefixes the orbit walk visited
    settled_hits: int = 0  # representatives a prefix proved pre-check hits
    set_refuted: int = 0  # silent representatives the node ballot refuted
    assigned: int = 0  # silent representatives the value search assigned
    lp_calls: int = 0  # silent representatives left to the exact LP
    maxima_tried: int = 0  # largest values the value search tried, over all its calls
    sequences_tested: int = 0  # candidate sequences those largest values hold


@dataclass(frozen=True)
class CensusResult:
    """One census sweep.  ``feasible`` holds the realizable rank orders as
    packed rows, one byte per word index and ``params.word_count`` bytes a
    row, sorted: byte order is the orders' lexicographic order, so row i
    reads back as the i-th realizable order.  ``firsts`` packs the feasible
    representatives, the least order of each orbit, alike and in order:
    their images under G, sorted, are ``feasible`` (:func:`_expand`).
    ``assignments`` packs the checked least-maximum assignments the search
    found for them, in their order, one byte per entry, and the r-th one's
    are its rows ``offsets[r]`` to ``offsets[r + 1]`` (:meth:`assignments_of`).
    Like ``stats``, these are not part of ``==``, ``repr`` or :meth:`summary`."""

    params: Params
    total: int
    feasible: PackedRows  # rank orders, lexicographic
    precheck_hit_infeasible: int  # refuted by the pre-check
    silent_infeasible: int  # pre-check silent, refuted by the node ballot or the LP
    elapsed: float
    stats: CensusStats = field(default=CensusStats(), compare=False)
    firsts: bytes = field(default=b"", compare=False, repr=False)
    assignments: bytes = field(default=b"", compare=False, repr=False)
    offsets: array = field(default_factory=lambda: array("I"), compare=False, repr=False)

    @property
    def count(self) -> int:
        return len(self.feasible)

    def assignments_of(self, r: int) -> list[bytes]:
        """The kept assignments of the r-th feasible representative, row r
        of ``firsts``: entries in word order at the least maximum within
        :data:`REPOSITORY_CAP`.  Empty when the search found none and the
        LP proved the order feasible.  Raises IndexError unless
        ``0 <= r < len(offsets) - 1``."""
        reps = len(self.offsets) - 1
        if not 0 <= r < reps:
            raise IndexError(f"representative {r} out of range 0..{reps - 1}")
        w, data = self.params.word_count, self.assignments
        return [data[k * w : k * w + w] for k in range(self.offsets[r], self.offsets[r + 1])]

    def summary(self) -> str:
        lines = [
            f"census q={self.params.q} ell={self.params.ell}",
            f"permutations={self.total}",
            f"feasible={self.count}",
            f"precheck_hit_infeasible={self.precheck_hit_infeasible}",
            f"silent_infeasible={self.silent_infeasible}",
            f"elapsed_seconds={self.elapsed:.1f}",
        ]
        return "\n".join(lines) + "\n"


def orbit_size(params: Params) -> int:
    """Orders in every orbit of G: G acts freely on the rank orders (a map
    that fixes an order fixes every word), so each orbit has one order per
    distinct map, q! at ell = 1 and 2 q! above."""
    return factorial(params.q) * min(params.ell, 2)


def _translations(params: Params) -> Iterator[bytes]:
    """Each map g of G as a ``bytes.translate`` table, one at a time: a
    packed order translated by it is its image g(order).  Only word indices,
    all below q^ell <= 9, are ever translated, so the rest of the table is
    filler."""
    return (bytes(g).ljust(256) for g in word_symmetries(params))


@dataclass(frozen=True)
class _Symmetries:
    """G as the root of the orbit walk holds it: each pass generates the
    maps afresh (:func:`core.word_symmetries`), so the q! maps of window
    one are never all held at once."""

    params: Params

    def __len__(self) -> int:
        return orbit_size(self.params)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return word_symmetries(self.params)


class _OrbitWalk:
    """The stabilizer walk that generates the orbit representatives, with
    the matching pre-check's ballot state (:class:`feasibility._Ballot`)
    carried along each prefix.

    Iterating yields blocks ``(prefix, rest, hit)`` in lexicographic order:
    every arrangement of ``rest`` after ``prefix`` is the least order of its
    orbit, and ``hit`` is the pre-check's verdict on every one of them.
    ``prefixes`` counts the prefixes walked.

    Orderly generation with an explicit stabilizer: a depth-first walk over
    prefixes holds the maps of G that fix the prefix word by word.  A map
    that fixes the prefix and sends the next word lower sends the whole
    order lower, so such a word is skipped; the maps that send it higher
    can no longer send the order lower and are dropped, and those that fix
    it are kept.  Once the identity is the only map left, every arrangement
    of the remaining words is least in its orbit.  From there on a prefix
    whose ballot settles the verdict of all its completions ends the
    descent as one block; any other prefix descends one more word, and a
    full order always settles.  Before that, only some completions are
    representatives, so a verdict on the prefix would stand for an unknown
    count.
    """

    def __init__(self, params: Params):
        self.params = params
        self.prefixes = 0

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], bool]]:
        params = self.params

        def walk(prefix, rest, stabilizer, ballot):
            self.prefixes += 1
            if len(stabilizer) == 1:
                hit = ballot.settle()
                if hit is not _Ballot.UNSETTLED:
                    yield prefix, rest, hit is not None
                    return
            for k, idx in enumerate(rest):
                if all(g[idx] >= idx for g in stabilizer):
                    branch = ballot.copy()
                    branch.extend((idx,))
                    yield from walk(
                        prefix + (idx,),
                        rest[:k] + rest[k + 1 :],
                        [g for g in stabilizer if g[idx] == idx],
                        branch,
                    )

        words = tuple(range(params.word_count))
        yield from walk((), words, _Symmetries(params), _Ballot.start(params))


def representatives(params: Params) -> Iterator[tuple[int, ...]]:
    """The lexicographically least order of every orbit of G, in
    lexicographic order: the blocks of the orbit walk (:class:`_OrbitWalk`),
    each expanded into every arrangement of its remaining words."""
    for prefix, rest, _ in _OrbitWalk(params):
        for tail in permutations(rest):
            yield prefix + tail


@lru_cache(maxsize=None)
def _node_ballot(params: Params) -> _Ballot | None:
    """The census's ballot on the single nodes: the pre-check's start state
    with no node skipped, so it also scans the constant nodes the pre-check
    leaves out at ell >= 3.  None at ell <= 2, where the pre-check already
    scans every node."""
    if params.ell < 3:
        return None
    unset = (False,) * params.node_count
    return _Ballot.start(params)._replace(rose=unset, fell=unset)


def _set_refutation(order: tuple[int, ...], params: Params) -> tuple[int, ...] | None:
    """The Farkas vector of the first node v that the full ``order`` leaves
    green or red on the :func:`_node_ballot`: -e_v for green, +e_v for red;
    None if there is none."""
    start = _node_ballot(params)
    if start is None:
        return None
    ballot = start.copy()
    ballot.extend(order)
    hit = ballot.settle()
    if hit is None:
        return None
    v, color = hit
    y = [0] * params.node_count
    y[v] = -1 if color == "green" else 1
    return tuple(y)


def enumerate_feasible(params: Params, jobs: int | None = None) -> CensusResult:
    """Full census of realizable orders.  The orbit walk (:class:`_OrbitWalk`)
    settles the pre-check's refutations by prefix: a block of hits adds its
    ``(len(rest))!`` representatives to the count without building them.
    Every order the pre-check lets through gets a checked verdict: at
    ell >= 3 the ballot of a constant node refutes it
    (:func:`_set_refutation`, checked by :func:`feasibility.check_farkas`),
    or :func:`least_max_vectors` assigns it within :data:`REPOSITORY_CAP`,
    and every assignment it finds is kept and passes one
    :func:`feasibility.check_rows` call with all the others.
    Only an order that neither settles goes to the exact LP, through
    :func:`feasibility.decide`, which checks its certificate.  The feasible
    representatives are kept as ``firsts`` and expanded through G
    (:func:`_expand`).  ``jobs`` selects nothing: the census is one serial
    pass; the keyword stays for callers."""
    if not _at_most(params, CENSUS_CAP):
        raise ValueError(f"census capped at {CENSUS_CAP} words, got q={params.q} ell={params.ell}")
    total = factorial(params.word_count)
    started = time.monotonic()
    orbit = orbit_size(params)
    walk = _OrbitWalk(params)
    firsts, kept, owners, offsets = bytearray(), bytearray(), bytearray(), array("I", [0])
    swept = settled = silent_infeasible = set_refuted = assigned = lp_calls = 0
    maxima = sequences = 0
    for prefix, rest, hit in walk:
        block = factorial(len(rest))
        swept += block
        if hit:
            settled += block  # refuted by the pre-check, none built
            continue
        for tail in permutations(rest):
            order = prefix + tail
            farkas = _set_refutation(order, params)
            if farkas is not None:
                check_farkas(RankPermutation(params, order), farkas)
                set_refuted += 1
                silent_infeasible += 1
                continue
            sols = least_max_vectors(order, params, REPOSITORY_CAP)
            tried, tested = _search_work(len(order), max(sols[0]) if sols else REPOSITORY_CAP)
            maxima += tried
            sequences += tested
            kept += bytes(chain.from_iterable(sols))
            owners += bytes(order) * len(sols)
            if sols:
                assigned += 1
            else:
                lp_calls += 1
                if not decide(RankPermutation(params, order), use_precheck=False).feasible:
                    silent_infeasible += 1
                    continue
            firsts += bytes(order)
            offsets.append(len(kept) // params.word_count)
    if swept * orbit != total:
        raise AssertionError(f"{swept} orbits of {orbit} orders do not cover {total}")
    check_rows(params, kept, owners)
    return CensusResult(
        params,
        total,
        PackedRows(_expand(params, firsts), params.word_count),
        orbit * settled,
        orbit * silent_infeasible,
        time.monotonic() - started,
        CensusStats(walk.prefixes, settled, set_refuted, assigned, lp_calls, maxima, sequences),
        bytes(firsts),
        bytes(kept),
        offsets,
    )


def _blocks(rows: list[bytes]) -> Iterator[bytes]:
    """``rows`` joined in order :data:`_JOIN_ROWS` at a time, emptying the
    list: ``b"".join`` holds an 80-byte buffer record per row, so it takes
    a slice at a time, and each slice is released once joined.  The list is
    reversed first, so each slice leaves from its end without moving the
    rest."""
    rows.reverse()
    while rows:
        yield b"".join(rows[: -_JOIN_ROWS - 1 : -1])  # the last rows, in their order
        del rows[-_JOIN_ROWS:]


def _joined(rows: list[bytes]) -> bytearray:
    """``rows`` joined in order into one blob, emptying the list."""
    joined = bytearray()
    for block in _blocks(rows):
        joined += block
    return joined


def _expand(params: Params, firsts: bytearray) -> bytearray:
    """Every order of the orbits of the packed orders ``firsts``, sorted
    bare and packed.  Each image is one ``translate`` of its order, which
    at window one, with q! maps and one order, beats cutting a translated
    blob per map."""
    reps = list(_rows(firsts, params.word_count))
    return _joined(sorted(rep.translate(table) for table in _translations(params) for rep in reps))


# ---------------------------------------------------------------------------
# Value-assignment searches at (q, ell) = (3, 2)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _flow_nodes(params: Params) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per node of the overlap graph but the first, the word indices of the
    non-loop words leaving it and of those entering it.  Loop words cancel
    out.  Each non-loop word leaves one node and enters another, so the
    nodes' imbalances sum to zero and the first node balances when the rest
    do."""
    heads, tails = edge_nodes(params)
    words = range(params.word_count)
    return tuple(
        (
            tuple(i for i in words if heads[i] == v != tails[i]),
            tuple(i for i in words if tails[i] == v != heads[i]),
        )
        for v in range(1, params.node_count)
    )


def _inverse(perm: Sequence[int]) -> itemgetter:
    """The getter of a permutation's inverse: entry i of its result is the
    entry at the position where ``perm`` holds i.  For a rank order it takes
    values over rank positions to word order."""
    return itemgetter(*sorted(range(len(perm)), key=perm.__getitem__))


@dataclass(frozen=True)
class _Candidates:
    """Every increasing length-n sequence over [floor, top] that ends at
    top, in lexicographic order, laid out for byte-parallel tests.

    ``blob`` holds n bytes per sequence; byte j of ``columns[k]`` (little
    end first) is position k's value in sequence j, and ``bias`` has 128 in
    each of its ``count`` bytes.
    """

    count: int
    blob: bytes
    columns: tuple[int, ...]
    bias: int


@lru_cache(maxsize=None)
def _candidates(n: int, floor: int, top: int) -> _Candidates:
    blob = bytes(
        chain.from_iterable(head + (top,) for head in combinations(range(floor, top), n - 1))
    )
    count = len(blob) // n
    columns = tuple(int.from_bytes(blob[k::n], "little") for k in range(n))
    return _Candidates(count, blob, columns, int.from_bytes(b"\x80" * count, "little"))


def _balanced(in_word_order: itemgetter, nodes, n: int, floor: int, top: int) -> list[bytes]:
    """The rank-order values of every flow-balanced sequence in the
    ``_candidates(n, floor, top)`` table, in its lexicographic order, for the
    order whose :func:`_inverse` is ``in_word_order`` and the graph whose
    :func:`_flow_nodes` are ``nodes``.

    One big-integer sum per node tests every sequence at once (Lamport,
    "Multiple byte processing with full-word instructions", CACM 1975):
    byte j of ``bias + entering columns - leaving columns`` is 128 plus the
    node's imbalance in sequence j.  No carry or borrow crosses a byte,
    since the imbalance is at most degree * top < 128 in size: values >= 0
    are distinct and at most top <= REPOSITORY_CAP, so a sequence exists
    only for q^ell <= 18 words, where a node has at most q <= 4 non-loop
    words in and 4 out (at ell = 1 every word is a loop).  A zero byte of
    the OR of ``sum ^ bias`` over the nodes marks a balanced sequence.
    """
    table = _candidates(n, floor, top)
    bias, columns = table.bias, in_word_order(table.columns)
    unbalanced = 0
    for leaving, entering in nodes:
        total = bias
        for i in entering:
            total += columns[i]
        for i in leaving:
            total -= columns[i]
        unbalanced |= total ^ bias
    flags = unbalanced.to_bytes(table.count, "little")
    blob, found = table.blob, []
    j = flags.find(0)
    while j >= 0:
        found.append(blob[j * n : j * n + n])
        j = flags.find(0, j + 1)
    return found


def _tops(n: int, floor: int, cap: int) -> range:
    """The maxima to try, least first: from ``n + floor - 1``, the least
    end of n distinct values >= ``floor``, up to ``cap``.  Refuses what the
    byte-parallel test cannot hold: a negative ``floor``, or a ``cap``
    above :data:`REPOSITORY_CAP`, whose tables would take
    C(cap - floor, n - 1) sequences at the top group alone."""
    if floor < 0:
        raise ValueError(f"values start at floor >= 0, got {floor}")
    if cap > REPOSITORY_CAP:
        raise ValueError(f"cap {cap} is above REPOSITORY_CAP = {REPOSITORY_CAP}")
    return range(n + floor - 1, cap + 1)


def _search_work(n: int, top: int) -> tuple[int, int]:
    """The maxima and the candidate sequences :func:`least_max_vectors`
    tests, at floor 1, on an order of n words to reach the maximum ``top``
    (the cap when it finds nothing): each maximum t of :func:`_tops` up to
    ``top`` and its C(t - 1, n - 1) sequences, C(top, n) in all.  Derived
    from the result, so the search counts nothing."""
    return max(top - n + 1, 0), comb(top, n)


def least_max_vectors(
    order: Sequence[int], params: Params, cap: int = REPOSITORY_CAP, floor: int = 1
) -> list[tuple[int, ...]]:
    """Every flow-balanced assignment of distinct values >= ``floor`` in the
    order's rank order at the least maximum within ``cap`` (entries in word
    order, their rank-order values in lexicographic order); empty if no
    maximum within ``cap`` admits one.

    For each maximum from its least value up, one byte-parallel test
    (:func:`_balanced`) checks every increasing sequence that ends at it;
    the first maximum with a balanced sequence is the least.  Raises
    ValueError for ``floor < 0`` or ``cap > REPOSITORY_CAP``.
    """
    n, nodes, in_word_order = len(order), _flow_nodes(params), _inverse(order)
    for top in _tops(n, floor, cap):
        found = _balanced(in_word_order, nodes, n, floor, top)
        if found:
            return list(map(in_word_order, found))
    return []


def minimal_max_vector(
    order: Sequence[int], params: Params, cap: int = REPOSITORY_CAP, floor: int = 1
) -> tuple[int, ...] | None:
    """The flow-balanced assignment minimizing the maximum entry, ties broken
    by the lexicographically smallest vector (entries in word order); None
    if no maximum within ``cap`` admits one."""
    return min(least_max_vectors(order, params, cap, floor), default=None)


def minimal_max_value(
    order: Sequence[int], params: Params, cap: int = REPOSITORY_CAP, floor: int = 1
) -> int | None:
    """Smallest achievable maximum entry for the order, or None within cap.

    With ``floor=0`` the lowest count may be empty; every realizable order
    at these parameters then fits within a maximum of 16.  The strictly
    positive variant can exceed that by exactly one, since shifting every
    entry up by 1 keeps both the balance and the order.
    """
    vec = minimal_max_vector(order, params, cap, floor)
    return None if vec is None else max(vec)


_UNCLOSED = "the census is not a union of orbits of the code's symmetries"


def _check_assignments(census: CensusResult, firsts: list[bytes]) -> None:
    """Refuse unless every orbit keeps an assignment and each kept one
    passes :meth:`FeasibleVector.check` against the orbit's first order:
    one :func:`feasibility.check_rows` call on the rows of the orbits before
    the first that keeps none, whose :class:`feasibility.RowError` names the
    order at fault.  A row past the blob reads as zeros, which no check
    passes."""
    params, offsets, w = census.params, census.offsets, census.params.word_count
    counts = list(map(sub, offsets[1:], offsets))
    empty = next((r for r, n in enumerate(counts) if n <= 0), len(counts))
    end = offsets[empty] * w
    owners = b"".join(map(bytes.__mul__, firsts[:empty], counts[:empty]))
    try:
        check_rows(params, census.assignments[:end].ljust(end, b"\0"), owners)
    except RowError as e:
        order = tuple(owners[e.row * w : e.row * w + w])
        raise AssertionError(f"a kept assignment does not realize order {order}") from e
    if empty < len(counts):
        raise AssertionError(
            f"no assignment with entries <= {REPOSITORY_CAP} for order {tuple(firsts[empty])}"
        )


def build_repository(
    census: CensusResult | None = None, jobs: int | None = None
) -> Repository:
    """Construct and sanity-check the full 30240-entry repository.

    Every realizable order must admit an assignment within
    :data:`REPOSITORY_CAP`; failure is a build error, not a skip.  The
    build runs no search: it checks the least-maximum assignments the
    census kept for its orbit representatives, ``census.firsts``, as the
    census does (:func:`_check_assignments`).  A map g of G sends the
    least-maximum assignments of an order onto those of its image, so the
    image's vector, :func:`minimal_max_vector`'s choice, is the least image
    under g of its representative's assignments.

    No step runs once per image.  Per map g, one ``translate`` gives the
    firsts' images and strided slices move every kept assignment; only the
    orbits that keep several take a ``min``.  Each image and its vector
    make one row of a single list, which one sort puts in census order;
    the sorted rows are then split a block at a time (:func:`_blocks`), so
    no blob of all of them is made.
    The firsts must increase and each be at most its images, so no orbit
    is listed twice, and the sorted images must be the census rows: the
    census is the union of the firsts' orbits.  ``jobs`` selects nothing;
    the keyword stays for callers.
    """
    params = Params(BASE_Q, 2)
    if census is None:
        census = enumerate_feasible(params)
    if census.params != params:
        raise ValueError("repository is defined at q=3, window length 2")
    orders = census.feasible
    if len(orders) != BASE_COUNT:
        raise AssertionError(f"census produced {len(orders)} orders, not {BASE_COUNT}")
    width, size = params.word_count, orbit_size(params)
    firsts, kept, offsets = census.firsts, census.assignments, census.offsets
    count = len(firsts) // width
    if len(firsts) != count * width or count * size != len(orders):
        raise AssertionError(_UNCLOSED)
    if len(offsets) != count + 1 or offsets[0] or len(kept) != offsets[-1] * width:
        raise AssertionError("the census keeps no assignments for its orbits")
    rows_of = partial(_rows, width=width)
    if not all(map(lt, rows_of(firsts), rows_of(firsts[width:]))) or not all(
        all(map(le, rows_of(firsts), rows_of(firsts.translate(t)))) for t in _translations(params)
    ):
        raise AssertionError(_UNCLOSED)
    _check_assignments(census, list(rows_of(firsts)))
    leads = offsets[:-1]  # each orbit's first kept assignment
    several = [(r, slice(a, b)) for r, (a, b) in enumerate(zip(offsets, offsets[1:])) if b - a > 1]

    def least_images(g: Sequence[int]) -> list[bytes]:
        """The vectors of the firsts' images under g: the kept assignments
        moved onto the same ranks, one strided slice a column (:func:`_inverse`)."""
        moved = bytearray(len(kept))
        for i, j in enumerate(_inverse(g)(range(width))):
            moved[i::width] = kept[j::width]
        moved_rows = list(rows_of(moved))
        least = list(map(moved_rows.__getitem__, leads))
        for r, span in several:
            least[r] = min(moved_rows[span])
        return least

    rows = [b""] * len(orders)  # each image, then its vector
    for k, (g, table) in enumerate(zip(word_symmetries(params), _translations(params))):
        images = rows_of(firsts.translate(table))
        rows[k * count : k * count + count] = map(bytes.__add__, images, least_images(g))
    rows.sort()
    # each block's images against the census rows, its vectors onto the blob
    vectors = bytearray()
    for block in _blocks(rows):
        start, part = len(vectors), bytearray(len(block) // 2)
        images = orders.data[start : start + len(part)]
        if any(block[k :: 2 * width] != images[k::width] for k in range(width)):
            raise AssertionError(_UNCLOSED)
        for k in range(width):
            part[k::width] = block[width + k :: 2 * width]
        vectors += part
    return Repository(PackedRows(vectors, width))


def compute_c3(repo: Repository) -> int:
    """Largest entry needed across the repository (each stored vector already
    minimizes its own maximum, so this is the worst case over all orders)."""
    return max(repo.vectors.data)


def min_sum_vector(
    perm: RankPermutation, cap: int = 16
) -> FeasibleVector:
    """Strictly positive flow-balanced vector of minimal total for the order,
    ties broken by the lexicographically first values in rank order.

    The balanced sequences come from the byte-parallel test of
    :func:`_balanced`, one maximum at a time; the search stops at the first
    maximum whose least possible total is above the best total found.  The
    total equals the shortest witness length over full-support profiles:
    positive support keeps the overlap graph strongly connected, so the
    minimizing vector is realized by an actual circular string.
    """
    if perm.params != Params(BASE_Q, 2):
        raise ValueError("witness-length search is defined at q=3, window length 2")
    n, nodes, in_word_order = len(perm.order), _flow_nodes(perm.params), _inverse(perm.order)
    best: tuple[int, bytes] | None = None
    for top in _tops(n, 1, cap):
        if best is not None and top + n * (n - 1) // 2 > best[0]:
            break  # 1, 2, ..., n - 1, top is the least total ending at top
        for values in _balanced(in_word_order, nodes, n, 1, top):
            found = (sum(values), values)
            if best is None or found < best:
                best = found
    if best is None:
        raise ValueError(f"no assignment with entries <= {cap}")
    return FeasibleVector(perm.params, in_word_order(best[1]))


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


def verify_matching_count() -> tuple[int, Fraction]:
    """Count rank orders of a 2q-word neighborhood, q = 3, that certify
    infeasibility.

    Returns the count and its fraction of all (2q)! orders; the matcher here
    is the naive all-pairings search, independent of the ballot test used by
    the fast pre-check.
    """
    q = 3
    count = 0
    total = 0
    for arrangement in permutations(range(2 * q)):
        # arrangement[k] = element placed at rank k; elements 0..q-1 incoming.
        ranked_sides = [0 if e < q else 1 for e in arrangement]
        if _has_monochromatic_matching(ranked_sides, q):
            count += 1
        total += 1
    return count, Fraction(count, total)
