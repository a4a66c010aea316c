"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them stream).

Heavyweight shared artifacts (census, full-LP sweep, repository) come from
the session fixtures in conftest.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from bruteforce import kendall_tau_bfs
from profilerank.channel import rank_decode
from profilerank.codes import (
    CWBinaryCode,
    PermCode,
    PrecodedInfoB,
    interleave_codes,
    kendall_tau,
    substitute_codes,
)
from profilerank.core import (
    Params,
    ProfileVector,
    RankPermutation,
    profile_of,
    rank_of,
)
from profilerank.encoder import (
    decode_b,
    encode_b,
    extend_vector,
    length_bounds,
    random_info_b,
    rate_lower_bound,
)
from profilerank.oracle import (
    compute_c3,
    enumerate_feasible,
    minimal_max_value,
    orbit_size,
    representatives,
    verify_matching_count,
)
from profilerank.synthesis import eulerian_string, markov_generate, markov_matrix, normalized

P32 = Params(3, 2)
CHANNEL_STRING = "AGGGGGGGGGGCGCGCGCGCGCGCGAGAGAGAGCCCCCCCACACA".translate(
    str.maketrans("ACG", "012")
)
CHANNEL_PROFILE = (1, 2, 5, 3, 6, 7, 4, 8, 9)
CHANNEL_ORDER = "00,01,10,20,02,11,12,21,22"


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: {text}: PASS")


def test_criterion_01_census_count(census32):
    assert census32.count == 30240
    assert census32.total == 362880
    _report(1, f"census at (3,2) = 30240 in {census32.elapsed:.1f}s")


def test_criterion_02_degenerate_censuses():
    assert enumerate_feasible(Params(2, 2)).count == 0
    assert enumerate_feasible(Params(3, 1)).count == 6
    _report(2, "degenerate censuses (2,2)=0 and (3,1)=6")


def test_criterion_03_worked_recursive_step():
    chi_prime = (1, 2, 5, 3, 6, 7, 4, 8, 9)  # word order: pair (a, b) at a*q + b
    out = extend_vector(chi_prime, (2, 3, 4, 1), (0, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0))
    assert out == (
        20, 40, 100, 48,
        61, 120, 140, 51,
        81, 160, 180, 83,
        46, 52, 84, 44,
    )
    order = rank_of(out, Params(4, 2)).to_text()
    assert order == "00,01,33,30,03,13,31,10,20,23,32,02,11,12,21,22"
    _report(3, "worked 4x4 recursive step reproduced exactly")


def test_criterion_04_channel_figure_reproduction():
    p = profile_of(CHANNEL_STRING, P32)
    assert p.counts == CHANNEL_PROFILE
    doubled = profile_of(CHANNEL_STRING * 2, P32)
    assert doubled.counts == (2, 4, 10, 6, 12, 14, 8, 16, 18)
    noisy = ProfileVector(P32, (2, 4, 10, 6, 13, 14, 8, 16, 17))
    decoded = rank_decode(noisy)
    assert isinstance(decoded, RankPermutation)
    assert decoded.to_text() == CHANNEL_ORDER
    _report(4, "45-symbol channel example: profile, doubling, rank recovery")


def test_criterion_05_max_entry_constant(census32, repo):
    # The max-entry constant of 16 applies to assignments whose lowest
    # count may be zero: verified exhaustively on one realizable order per
    # orbit of the code's symmetries, which carry the least-maximum
    # assignments of an order onto those of its images.  The encoder
    # repository additionally needs strict positivity, which provably costs
    # one extra unit on 72 of the orders.
    feasible = set(census32.feasible)
    reps = [rep for rep in representatives(P32) if rep in feasible]
    assert len(reps) * orbit_size(P32) == len(census32.feasible) == 30240
    assert len(reps) == 2520
    worst = 0
    for order in reps:
        m = minimal_max_value(order, P32, cap=16, floor=0)
        assert m is not None, f"no zero-floor assignment within 16 for {order}"
        worst = max(worst, m)
    assert worst == 16
    assert compute_c3(repo) == 17
    witness = (1, 5, 3, 0, 4, 8, 6, 7, 2)
    assert minimal_max_value(witness, P32, cap=16, floor=1) is None
    _report(
        5,
        "max-entry constant: 16 with zero floor (2520 orbits, 30240 orders, exhaustive); "
        "positive repository built at 17",
    )


def test_criterion_06_matching_count():
    count, ratio = verify_matching_count()
    assert count == 360
    assert ratio == Fraction(2, 3 + 1)
    assert count == Fraction(2, 3 + 1) * 720
    _report(6, "monochromatic-matching count 360 = (2/4)*6!")


def test_criterion_07_transposition_distance():
    assert kendall_tau((1, 0, 0, 1, 0), (0, 0, 1, 1, 0)) == 2
    for n in range(1, 7):
        for w in range(n + 1):
            words = [c for c in product((0, 1), repeat=n) if sum(c) == w]
            for a in words:
                for b in words:
                    assert kendall_tau(a, b) == kendall_tau_bfs(a, b)
    _report(7, "binary transposition distance, search-verified to length 6")


RATE_TABLE = {
    3: (0.0805, 0.0805, 0.0698, 0.0597, 0.0516, 0.0452, 0.0403, 0.0362),
    4: (0.1075, 0.1007, 0.0846, 0.0714, 0.0613, 0.0537, 0.0478, 0.0430),
    5: (0.1269, 0.1142, 0.0944, 0.0792, 0.0680, 0.0595, 0.0529, 0.0476),
    6: (0.1417, 0.1240, 0.1015, 0.0849, 0.0728, 0.0637, 0.0567, 0.0510),
    7: (0.1533, 0.1314, 0.1070, 0.0894, 0.0766, 0.0671, 0.0596, 0.0536),
    8: (0.1627, 0.1373, 0.1113, 0.0929, 0.0797, 0.0697, 0.0620, 0.0558),
    9: (0.1705, 0.1421, 0.1149, 0.0959, 0.0822, 0.0719, 0.0639, 0.0575),
    10: (0.1771, 0.1461, 0.1180, 0.0984, 0.0843, 0.0738, 0.0656, 0.0590),
}


def test_criterion_08_rate_table():
    for q, row in RATE_TABLE.items():
        for ell, expected in zip(range(3, 11), row):
            got = round(rate_lower_bound(Params(q, ell)), 4)
            assert got == pytest.approx(expected, abs=1e-9), (q, ell, got, expected)
    _report(8, "all 64 rate-table entries reproduced to 4 decimals")


ENCODER_PARAMS = ((3, 2), (4, 2), (3, 3), (3, 4), (4, 3))


def test_criterion_09_encoder_property_suite(repo):
    rng = random.Random(20_240_101)
    c3 = compute_c3(repo)
    for q, ell in ENCODER_PARAMS:
        params = Params(q, ell)
        bounds = length_bounds(params, c3)
        max_entry_bound = bounds.max_entry_pairs if ell == 2 else bounds.max_entry
        length_bound = bounds.length_pairs if ell == 2 else bounds.length
        orders: dict = {}
        euler_budget = 2  # full strings only at desk scale, see below
        for k in range(1000):
            info = random_info_b(q, ell, rng)
            sv = encode_b(info, repo)
            fv = sv.to_feasible()
            fv.check()  # flow conservation, distinctness, positivity, exact
            assert decode_b(sv, repo) == info
            assert max(sv.entries) <= max_entry_bound
            assert sum(sv.entries) <= length_bound  # witness length by edge count
            key = (info.base, tuple(tuple(sorted(l.items())) for l in info.layers))
            order = rank_of(sv.entries, params).order
            if key in orders:
                assert orders[key] == order
            else:
                assert order not in orders.values() or key in orders
                orders[key] = order
            # full witness construction where the string fits in memory
            if ell == 2 or (q, ell) == (3, 3) and euler_budget and k % 400 == 0:
                if ell != 2:
                    euler_budget -= 1
                x = eulerian_string(fv.to_profile())
                assert len(x) == sum(sv.entries)
                assert profile_of(x, params).counts == sv.entries
        # rank-level injectivity across the accumulated distinct messages
        assert len(set(orders.values())) == len(orders)
    _report(
        9,
        "1000-message property sweep per parameter set: validation triple, "
        "decode inverts encode, rank injectivity, witness lengths in bounds",
    )


def test_criterion_10_markov_stationarity():
    rng = random.Random(7)
    for params in (P32, Params(3, 3)):
        checked = 0
        while checked < 100:
            n = rng.randint(60, 200)
            x = tuple(rng.randrange(params.q) for _ in range(n))
            p = profile_of(x, params)
            if 0 in p.counts:
                continue
            s = normalized(p)
            assert markov_matrix(s, params).is_stationary(s)
            checked += 1
    s = normalized(ProfileVector(P32, CHANNEL_PROFILE))
    walk = markov_generate(s, P32, 1_000_000, seed=0)
    freq = profile_of(walk, P32)
    for count, target in zip(freq.counts, s):
        assert abs(count / len(walk) / float(target) - 1) <= 0.01
    _report(10, "exact stationarity on 200 random targets; 1e6-step walk within 1%")


def test_criterion_11_distance_bounds(repo):
    rng = random.Random(99)

    def subcode(ground, k):
        from itertools import permutations

        words = list(permutations(ground))
        return PermCode(tuple(ground), tuple(rng.sample(words, min(k, len(words)))))

    for _ in range(150):
        na, nb = rng.randint(1, 4), rng.randint(1, 4)
        ca = subcode(range(na), rng.randint(1, 4))
        cb = subcode(range(10, 10 + nb), rng.randint(1, 4))
        dwords = [c for c in product((0, 1), repeat=na + nb) if sum(c) == na]
        dd = CWBinaryCode(
            na + nb, na, tuple(rng.sample(dwords, min(rng.randint(1, 4), len(dwords))))
        )
        merged = interleave_codes(ca, cb, dd)
        assert merged.min_distance >= min(
            ca.min_distance, cb.min_distance, dd.min_distance
        )
    for _ in range(150):
        q = rng.choice((2, 3))
        nb = rng.randint(1, 3)
        ground_b = tuple(f"b{i}" for i in range(nb))
        outer = subcode(ground_b, rng.randint(1, 3))
        inners = [
            subcode(tuple(f"a{i}{j}" for j in range(q)), rng.randint(1, 3))
            for i in range(nb)
        ]
        subbed = substitute_codes(inners, list(ground_b), outer)
        assert subbed.min_distance >= min(
            [c.min_distance for c in inners] + [q * q * outer.min_distance]
        )

    top = PermCode((0, 1, 2), ((0, 1, 2), (2, 1, 0)))
    space = PrecodedInfoB(3, 3, top)
    assert space.distance_bound == 3
    pairs = 0
    while pairs < 200:
        a = space.sample(rng)
        b = space.sample(rng)
        if a == b:
            continue
        da = rank_of(encode_b(a, repo).entries, Params(3, 3)).order
        db = rank_of(encode_b(b, repo).entries, Params(3, 3)).order
        assert kendall_tau(da, db) >= 3
        pairs += 1
    _report(
        11,
        "composition distance bounds on 300 sampled instances; "
        "200 pre-coded output pairs at distance >= 3",
    )


def test_criterion_12_precheck_soundness(gap32):
    assert gap32.precheck_hit_feasible == 0
    assert gap32.count == 30240
    _report(
        12,
        f"full-sweep soundness: pre-check never fires on a realizable order "
        f"(and silently missed {gap32.silent_infeasible} infeasible ones)",
    )
