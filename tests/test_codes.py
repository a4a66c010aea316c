import hashlib
import math
import random
from itertools import combinations, permutations, product

import pytest

from bruteforce import BFS_CAP, kendall_tau_bfs
from profilerank.codes import (
    CWBinaryCode,
    PermCode,
    PrecodedInfoA,
    PrecodedInfoB,
    interleave_codes,
    kendall_tau,
    restrict,
    side_pattern,
    substitute,
    substitute_codes,
)
from profilerank.core import Params, rank_of
from profilerank.encoder import encode_a, encode_b


# -- the distance itself ------------------------------------------------------

def test_binary_worked_example():
    assert kendall_tau((1, 0, 0, 1, 0), (0, 0, 1, 1, 0)) == 2


def test_identity_and_symmetry():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 8)
        a = tuple(rng.randrange(3) for _ in range(n))
        b = tuple(rng.sample(list(a), n))
        assert kendall_tau(a, a) == 0
        assert kendall_tau(a, b) == kendall_tau(b, a)


def test_reversal_of_three():
    assert kendall_tau((1, 2, 3), (3, 2, 1)) == 3
    assert kendall_tau_bfs((1, 2, 3), (3, 2, 1)) == 3


def test_rejects_multiset_mismatch():
    with pytest.raises(ValueError):
        kendall_tau((0, 1), (1, 1))


def test_binary_formula_matches_search_up_to_length_six():
    for n in range(1, 7):
        for w in range(n + 1):
            words = [c for c in product((0, 1), repeat=n) if sum(c) == w]
            for a in words:
                for b in words:
                    assert kendall_tau(a, b) == kendall_tau_bfs(a, b)


def test_inversion_count_matches_search():
    rng = random.Random(1)
    for n in range(2, 6):
        for a in permutations(range(n)):
            b = tuple(rng.sample(range(n), n))
            assert kendall_tau(a, b) == kendall_tau_bfs(a, b)


def test_repeated_symbols_use_search():
    assert kendall_tau((0, 1, 1, 2), (2, 1, 1, 0)) == kendall_tau_bfs(
        (0, 1, 1, 2), (2, 1, 1, 0)
    )


def test_repeated_symbols_match_search_up_to_the_cap():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, BFS_CAP)
        a = tuple(rng.randrange(3) for _ in range(n))
        b = tuple(rng.sample(a, n))
        assert kendall_tau(a, b) == kendall_tau_bfs(a, b)


def test_repeated_symbols_beyond_the_search_cap():
    a = (0,) * 4 + (1,) * 4 + (2,) * 4
    # every one of the 3 pairs of distinct symbols contributes 4 * 4 swaps
    assert kendall_tau(a, a[::-1]) == 48


def test_triangle_inequality_on_multiset_classes():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(2, 6)
        base = [rng.randrange(3) for _ in range(n)]
        a = tuple(rng.sample(base, n))
        b = tuple(rng.sample(base, n))
        c = tuple(rng.sample(base, n))
        assert kendall_tau(a, c) <= kendall_tau(a, b) + kendall_tau(b, c)


# -- codes --------------------------------------------------------------------

def test_singleton_codes_have_infinite_distance():
    assert PermCode((1, 2, 3), ((1, 2, 3),)).min_distance == math.inf
    assert CWBinaryCode(3, 1, ((0, 1, 0),)).min_distance == math.inf


def test_perm_code_distance():
    code = PermCode((0, 1, 2), ((0, 1, 2), (2, 1, 0)))
    assert code.min_distance == 3


def test_perm_code_validation():
    with pytest.raises(ValueError):
        PermCode((1, 2), ((1, 1),))
    with pytest.raises(ValueError):
        CWBinaryCode(3, 2, ((1, 0, 0),))


# -- interleaving compositions --------------------------------------------------

def test_substitute_worked_example():
    assert substitute((3, 1, 2), 4, (4, 5, 6)) == (3, 1, 2, 5, 6)


def test_interleave_codes_singletons():
    ca = PermCode((1, 2), ((2, 1),))
    cb = PermCode((3, 4), ((3, 4),))
    d = CWBinaryCode(4, 2, ((1, 0, 1, 0),))
    code = interleave_codes(ca, cb, d)
    assert code.codewords == ((2, 3, 1, 4),)


def test_interleave_codes_full_product_covers_everything():
    ca = PermCode.full((1, 2))
    cb = PermCode.full((3, 4))
    d = CWBinaryCode(
        4, 2, tuple(c for c in product((0, 1), repeat=4) if sum(c) == 2)
    )
    code = interleave_codes(ca, cb, d)
    assert sorted(code.codewords) == sorted(permutations((1, 2, 3, 4)))


def test_interleave_distance_when_only_a_varies():
    # contiguous pattern: the differing pair stays adjacent, distance = d_A
    ca = PermCode((1, 2, 3), ((1, 2, 3), (2, 1, 3)))
    cb = PermCode((4, 5), ((4, 5),))
    d = CWBinaryCode(5, 3, ((1, 1, 1, 0, 0),))
    code = interleave_codes(ca, cb, d)
    assert code.min_distance == ca.min_distance == 1
    # scattered pattern: moving symbols past the other side costs extra, so
    # the distance exceeds the component bound (it is a bound, not an equality)
    d2 = CWBinaryCode(5, 3, ((1, 0, 1, 1, 0),))
    code2 = interleave_codes(ca, cb, d2)
    assert code2.min_distance == kendall_tau_bfs(*code2.codewords)
    assert code2.min_distance == 3 > ca.min_distance


def test_interleave_triple_recovery():
    # the three projections recover the generating triple for every codeword
    rng = random.Random(3)
    ca = PermCode.full((1, 2, 3))
    cb = PermCode.full(("x", "y"))
    dwords = tuple(c for c in product((0, 1), repeat=5) if sum(c) == 3)
    d = CWBinaryCode(5, 3, dwords)
    code = interleave_codes(ca, cb, d)
    assert len(code.codewords) == 6 * 2 * len(dwords)
    a_set, b_set = set(ca.ground), set(cb.ground)
    seen = set()
    for w in code.codewords:
        triple = (restrict(w, a_set), restrict(w, b_set), side_pattern(w, a_set))
        assert triple not in seen
        seen.add(triple)


def _random_subcode(rng, ground, k):
    words = list(permutations(ground))
    return PermCode(tuple(ground), tuple(rng.sample(words, min(k, len(words)))))


def test_interleave_distance_bound_random_instances():
    rng = random.Random(4)
    for _ in range(120):
        na, nb = rng.randint(1, 4), rng.randint(1, 4)
        ca = _random_subcode(rng, range(na), rng.randint(1, 4))
        cb = _random_subcode(rng, range(10, 10 + nb), rng.randint(1, 4))
        dwords = [c for c in product((0, 1), repeat=na + nb) if sum(c) == na]
        d = CWBinaryCode(
            na + nb, na, tuple(rng.sample(dwords, min(rng.randint(1, 4), len(dwords))))
        )
        code = interleave_codes(ca, cb, d)
        assert code.min_distance >= min(
            ca.min_distance, cb.min_distance, d.min_distance
        )


def test_interleave_distance_bound_exhaustive_tiny():
    # |A| = |B| = 2: every nonempty pair of codes and pattern sets
    perms_a = list(permutations((1, 2)))
    perms_b = list(permutations((3, 4)))
    dwords = [c for c in product((0, 1), repeat=4) if sum(c) == 2]
    subsets = lambda xs: [
        tuple(c) for r in range(1, len(xs) + 1) for c in combinations(xs, r)
    ]
    for sa in subsets(perms_a):
        for sb in subsets(perms_b):
            for sd in subsets(dwords)[:20]:
                ca, cb = PermCode((1, 2), sa), PermCode((3, 4), sb)
                d = CWBinaryCode(4, 2, sd)
                code = interleave_codes(ca, cb, d)
                assert code.min_distance >= min(
                    ca.min_distance, cb.min_distance, d.min_distance
                )


def test_substitution_all_singletons():
    inner = [PermCode(("a", "b"), (("b", "a"),))]
    outer = PermCode((1, 2), ((2, 1),))
    code = substitute_codes(inner, [1], outer)
    assert code.codewords == ((2, "b", "a"),)


def test_substitution_distance_bound_random_instances():
    rng = random.Random(5)
    for _ in range(120):
        q = rng.choice((2, 3))
        nb = rng.randint(1, 3)
        outer_ground = tuple(f"b{i}" for i in range(nb))
        outer = _random_subcode(rng, outer_ground, rng.randint(1, 3))
        inners = [
            _random_subcode(rng, tuple(f"a{i}{j}" for j in range(q)), rng.randint(1, 3))
            for i in range(nb)
        ]
        code = substitute_codes(inners, list(outer_ground), outer)
        bound = min(
            [c.min_distance for c in inners] + [q * q * outer.min_distance]
        )
        assert code.min_distance >= bound


def test_substitution_rejects_misuse():
    inner = [PermCode(("a", "b"), (("a", "b"),))]
    outer = PermCode((1, 2), ((1, 2),))
    with pytest.raises(ValueError):
        substitute_codes(inner, [3], outer)  # slot not an outer symbol
    with pytest.raises(ValueError):
        substitute(("a",), 3, (1, 2))


# -- pre-coded message spaces ---------------------------------------------------

def test_precoded_alphabet_all_singletons(repo):
    space = PrecodedInfoA(
        repo,
        (61,),
        {4: PermCode((1, 2, 3, 4), ((1, 2, 3, 4),))},
        {4: CWBinaryCode(13, 4, ((1, 1, 1, 1) + (0,) * 9,))},
    )
    space.check()
    infos = list(space)
    assert len(infos) == 1
    assert space.distance_bound == math.inf


def test_precoded_alphabet_base_pair_distance(repo):
    rng = random.Random(6)
    indices = tuple(rng.sample(range(1, 30241), 2))
    space = PrecodedInfoA(
        repo,
        indices,
        {4: PermCode((1, 2, 3, 4), ((1, 2, 3, 4),))},
        {4: CWBinaryCode(13, 4, ((1, 1, 1, 1) + (0,) * 9,))},
    )
    d = space.base_distance
    infos = list(space)
    outs = [
        rank_of(encode_a(i, repo).entries, Params(4, 2)).order
        for i in infos
    ]
    assert kendall_tau(outs[0], outs[1]) >= d


def test_precoded_alphabet_exhaustive_pairs(repo):
    rng = random.Random(7)
    space = PrecodedInfoA(
        repo,
        tuple(rng.sample(range(1, 30241), 2)),
        {4: PermCode((1, 2, 3, 4), ((1, 2, 3, 4), (4, 3, 2, 1)))},
        {
            4: CWBinaryCode(
                13,
                4,
                ((1, 1, 1, 1) + (0,) * 9, (0,) * 9 + (1, 1, 1, 1)),
            )
        },
    )
    space.check()
    bound = space.distance_bound
    outs = [
        rank_of(encode_a(i, repo).entries, Params(4, 2)).order
        for i in space
    ]
    assert len(outs) == 8
    for i in range(len(outs)):
        for j in range(i + 1, len(outs)):
            assert kendall_tau(outs[i], outs[j]) >= bound


def test_precoded_window_sampling(repo):
    rng = random.Random(8)
    top = PermCode((0, 1, 2), ((0, 1, 2), (2, 1, 0)))
    space = PrecodedInfoB(3, 3, top)
    space.check()
    assert space.distance_bound == 3
    info = space.sample(rng)
    assert all(p in top.codewords for p in info.layers[-1].values())


def test_precoded_window_pairs_meet_distance(repo):
    rng = random.Random(9)
    top = PermCode((0, 1, 2), ((0, 1, 2), (2, 1, 0)))
    space = PrecodedInfoB(3, 3, top)
    from profilerank.encoder import InfoVecB, random_info_a

    for _ in range(20):
        base = random_info_a(3, rng)
        a = space.sample(rng)
        b = space.sample(rng)
        ia = InfoVecB(base, a.layers)
        ib = InfoVecB(base, b.layers)
        if ia == ib:
            continue
        oa = rank_of(encode_b(ia, repo).entries, Params(3, 3)).order
        ob = rank_of(encode_b(ib, repo).entries, Params(3, 3)).order
        assert kendall_tau(oa, ob) >= 3


# the draws of PrecodedInfoB.sample at (3,3) and (4,3), seed 2030, and the
# generator's state after them
PRECODED_SAMPLE_DIGEST = "cad835f6c35eaf0b764a1103e8233a2e73fdbc90a8af00660253d54b6755a0dd"


def test_precoded_window_sampling_matches_pinned_digest():
    digest = hashlib.sha256()
    for q, top in ((3, PermCode((0, 1, 2), ((0, 1, 2), (2, 1, 0)))), (4, PermCode.full(range(4)))):
        rng = random.Random(2030)
        space = PrecodedInfoB(q, 3, top)
        for _ in range(3):
            info = space.sample(rng)
            info.check()
            digest.update(repr(info).encode())
        digest.update(repr(rng.getstate()).encode())
    assert digest.hexdigest() == PRECODED_SAMPLE_DIGEST


def test_precoded_window_sampling_checks_its_space():
    # below window length 3 there is no layer to pre-code: the space is
    # refused rather than sampled into a message that fails its own check
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError, match="window length 3"):
        PrecodedInfoB(3, 2, PermCode.full((0, 1, 2))).sample(rng)
    with pytest.raises(ValueError, match="permute 0..q-1"):
        PrecodedInfoB(3, 3, PermCode.full((0, 1))).sample(rng)
    assert rng.getstate() == state
