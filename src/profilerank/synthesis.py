"""Turning realizable vectors into witness strings.

Strings are circular sequences of symbol values; functions here return them
as ``bytes`` (one symbol value per byte, not ASCII digits), which keeps
multi-million-symbol outputs compact.  ``core.profile_of`` accepts that form
directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    Params,
    ProfileVector,
    RankPermutation,
    Word,
    edge_nodes,
    first_flow_violation,
    profile_of,
    satisfies,
    word_label,
)


def _check_byte_alphabet(q: int) -> None:
    """Refuse an alphabet whose symbols do not all fit in a byte."""
    if q > 256:
        raise ValueError(f"byte-string synthesis supports q <= 256, got q={q}")


def check_connectivity(p: ProfileVector) -> bool:
    """Strong connectivity of the positive-support overlap graph.

    Zero-count words are removed, then isolated nodes; the remainder must be
    one strongly connected piece for an Eulerian witness to exist.  The
    profile balances, so every support edge lies on a cycle, and reaching
    every active node forward from one of them is strong connectivity.
    """
    if p.total() == 0:
        raise ValueError("all-zero profile has no support graph")
    if p.params.ell >= 2 and first_flow_violation(p) is not None:
        raise ValueError("profile must conserve flow")
    fwd: dict[int, list[int]] = {}
    for a, b, c in zip(*edge_nodes(p.params), p.counts):
        if c:
            fwd.setdefault(a, []).append(b)
    start = min(fwd)
    seen = {start}
    stack = [start]
    while stack:
        for v in fwd[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen == fwd.keys()


def eulerian_runs(p: ProfileVector) -> list[tuple[bytes, int]]:
    """The witness of :func:`eulerian_string` as ``(symbols, repeats)`` runs.

    The runs expand to exactly the witness, so ``sum(len(s) * k)`` is
    ``p.total()``, no run is empty or repeated zero times, and no two
    neighbouring runs have equal symbols (they are merged).  Their number
    does not grow with the counts: it is bounded by a function of q and ell
    alone, however long the witness is.

    The walk is Hierholzer's, taking the smallest remaining out-edge at every
    step.  While no edge runs out, that rule is a fixed successor map, so a
    walk that enters a cycle of it goes round that cycle once per unit of the
    cycle's smallest remaining count: those laps are pushed as one run.  Runs
    are popped whole once all of their nodes are exhausted, or split at the
    last node of their final lap that still has edges left.  The first pop
    ends on the closing node of the walk, its start again, which the
    witness leaves out: it is cut from that pop's last lap.
    """
    params = p.params
    q, ell = params.q, params.ell
    _check_byte_alphabet(q)
    if not check_connectivity(p):
        raise ValueError("support graph is not strongly connected")
    if ell == 1:
        return [(bytes((s,)), c) for s, c in enumerate(p.counts) if c]

    remaining = list(p.counts)
    node_count = params.node_count
    ptr = [0] * node_count

    def out_edge(u: int) -> int:
        """Smallest out-edge word of ``u`` with a count left, or -1."""
        s, base = ptr[u], u * q
        while s < q and remaining[base + s] == 0:
            s += 1
        ptr[u] = s
        return base + s if s < q else -1

    start = next(u for u in range(node_count) if out_edge(u) >= 0)
    stack: list[tuple[tuple[int, ...], int]] = [((start,), 1)]  # (nodes, laps)
    popped: list[tuple[tuple[int, ...], int]] = []
    while stack:
        nodes, laps = stack[-1]
        e = out_edge(nodes[-1])
        if e >= 0:
            # Follow the successor map until a node repeats (a cycle to lap)
            # or has no edge left (the start of the current closed sub-walk).
            walk, edges, pos = [nodes[-1]], [], {nodes[-1]: 0}
            while e >= 0 and (v := e % node_count) not in pos:
                edges.append(e)
                pos[v] = len(walk)
                walk.append(v)
                e = out_edge(v)
            i = pos[v] if e >= 0 else len(walk) - 1
            for f in edges[:i]:
                remaining[f] -= 1
            if i:
                stack.append((tuple(walk[1 : i + 1]), 1))
            if e >= 0:
                cycle = edges[i:] + [e]
                k = min(remaining[f] for f in cycle)
                for f in cycle:
                    remaining[f] -= k
                stack.append((tuple(walk[i + 1 :]) + (walk[i],), k))
        else:
            stack.pop()
            j = len(nodes) - 2
            while j >= 0 and out_edge(nodes[j]) < 0:
                j -= 1
            if j < 0:
                popped.append((nodes, laps))
            else:
                popped.append((nodes[j + 1 :], 1))
                if laps > 1:
                    stack.append((nodes, laps - 1))
                stack.append((nodes[: j + 1], 1))
    # Reversed, the pops are the closed node walk; each node's first symbol
    # starts the edge word that leaves it, and the closing node leaves none.
    nodes, laps = popped[0]
    popped[:1] = [run for run in ((nodes[:-1], 1), (nodes, laps - 1)) if run[0] and run[1]]
    sub = q ** (ell - 2)
    runs: list[tuple[bytes, int]] = []
    for nodes, k in reversed(popped):
        symbols = bytes(u // sub for u in nodes)
        if runs and runs[-1][0] == symbols:
            k += runs.pop()[1]
        runs.append((symbols, k))
    return runs


def eulerian_string(p: ProfileVector) -> bytes:
    """Deterministic circular witness whose profile is exactly ``p``.

    Walks the overlap multigraph with ``p[w]`` parallel copies of each edge,
    consuming out-edges in lexicographic order from the smallest active node;
    :func:`eulerian_runs` does the walk lap by lap, and this joins its runs.
    """
    return b"".join(s * k for s, k in eulerian_runs(p))


def verify(x: str | bytes | Sequence[int], perm: RankPermutation) -> bool:
    """Does the circular string realize the permutation?"""
    return satisfies(profile_of(x, perm.params), perm)


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic walk matrix supported on the overlap edges.

    Row ``a`` moves to the q words extending the tail of ``a``, with
    probability proportional to the target's weight.  Kept in exact
    rationals; rows sum to exactly 1.
    """

    params: Params
    rows: tuple[tuple[tuple[int, Fraction], ...], ...]  # word idx -> ((dest, prob), ...)

    def row(self, w: Word) -> tuple[tuple[int, Fraction], ...]:
        return self.rows[self.params.index(w)]

    def is_stationary(self, s: Sequence[Fraction]) -> bool:
        """Exact check that ``s @ M == s``."""
        acc = [Fraction(0)] * self.params.word_count
        for a, row in enumerate(self.rows):
            sa = s[a]
            for b, prob in row:
                acc[b] += sa * prob
        return all(acc[i] == s[i] for i in range(self.params.word_count))


def normalized(p: ProfileVector) -> tuple[Fraction, ...]:
    total = p.total()
    if total == 0:
        raise ValueError("cannot normalize the zero profile")
    return tuple(Fraction(c, total) for c in p.counts)


def markov_matrix(s: Sequence[Fraction], params: Params) -> TransitionMatrix:
    """Walk matrix whose stationary distribution is ``s`` (exact).

    Requires ``s`` strictly positive with unit sum; flow conservation is what
    makes ``s`` stationary, so unbalanced inputs are rejected.
    """
    q, ell = params.q, params.ell
    vec = tuple(s)
    if len(vec) != params.word_count:
        raise ValueError("distribution length must be q^ell")
    if any(e <= 0 for e in vec):
        raise ValueError("distribution must be strictly positive")
    if sum(vec) != 1:
        raise ValueError("distribution must sum to exactly 1")
    if ell >= 2:
        v = first_flow_violation(vec, params)
        if v is not None:
            raise ValueError(
                f"flow violated at node {word_label(v)}: stationarity would fail"
            )
    rows = []
    for tail in edge_nodes(params)[1]:
        dests = range(tail * q, tail * q + q)
        denom = sum(vec[d] for d in dests)
        rows.append(tuple((d, vec[d] / denom) for d in dests))
    return TransitionMatrix(params, tuple(rows))


def markov_generate(
    s: Sequence[Fraction], params: Params, n: int, seed: int
) -> bytes:
    """Seeded random walk emitting a length-``n`` string.

    The walk visits ``n - ell + 1`` nodes (for n >= ell); the emitted linear
    string has exactly those words as its sliding windows, so long walks have
    empirical word frequencies near ``s``.  Fully reproducible per seed.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    _check_byte_alphabet(params.q)
    matrix = markov_matrix(s, params)
    q, ell = params.q, params.ell
    rng = random.Random(seed)

    # Start node sampled from s itself.
    r = rng.random()
    acc = 0.0
    node = params.word_count - 1
    for idx in range(params.word_count):
        acc += float(s[idx])
        if r < acc:
            node = idx
            break

    cumrows: list[tuple[tuple[float, int], ...]] = []
    for row in matrix.rows:
        acc = 0.0
        cum = []
        for dest, prob in row:
            acc += float(prob)
            cum.append((acc, dest))
        cumrows.append(tuple(cum))

    words = [node]
    steps = max(1, n - ell + 1)
    for _ in range(steps - 1):
        r = rng.random()
        row = cumrows[node]
        node = row[-1][1]
        for edge_acc, dest in row:
            if r < edge_acc:
                node = dest
                break
        words.append(node)

    q_pow = [q**i for i in range(ell)]
    first = words[0]
    symbols = [(first // q_pow[ell - 1 - i]) % q for i in range(ell)]
    for w in words[1:]:
        symbols.append(w % q)
    return bytes(symbols[:n])
