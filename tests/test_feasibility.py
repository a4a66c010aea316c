import hashlib
import math
import random
from fractions import Fraction
from itertools import permutations
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import balance_rows, ballot_reference
from profilerank import _simplex, encoder
from profilerank._simplex import (
    DEGENERATE_STREAK,
    FIRST_FIELD_BITS,
    phase1,
)
from profilerank.core import (
    Params,
    ProfileVector,
    RankPermutation,
    profile_of,
    rank_of,
    word_index,
)
from profilerank.feasibility import (
    FeasibleVector,
    alpha_star_lower,
    check_farkas,
    check_rows,
    decide,
    matching_precheck,
    _OrderLP,
    order_lp_solution,
    order_precheck_witness,
    upper_bound,
)
from profilerank.oracle import representatives

P32 = Params(3, 2)
CHANNEL_ORDER = "00,01,10,20,02,11,12,21,22"


# -- the phase-1 core ---------------------------------------------------------

def _values(result):
    """The solution of a phase-1 result, entry by entry."""
    return [Fraction(v, result.denom) for v in result.x]


def test_simplex_solves_simple_system():
    x = _values(_dense_phase1([[1, 1], [1, -1]], [4, 2]))
    assert x == [Fraction(3), Fraction(1)]


def test_simplex_reports_infeasible():
    assert _dense_phase1([[1, 1]], [-1]).x is None
    assert _dense_phase1([[0, 0]], [5]).x is None


def test_simplex_handles_redundant_rows():
    result = _dense_phase1([[1, 2], [2, 4], [0, 0]], [6, 12, 0])
    assert result.x is not None
    x = _values(result)
    assert x[0] + 2 * x[1] == 6 and all(v >= 0 for v in x)


def _dot(u, v):
    return sum(map(mul, u, v))


def _reference_phase1(rhs, n, column, price):
    """The dense-row revised simplex: the same method as ``phase1`` with T
    stored as m lists of m integers, each updated entry by entry.  Returns
    ``(x, denom, farkas, pivots, bland_pivots)``."""
    m = len(rhs)
    rows = [[0] * m + [abs(b)] for b in rhs]  # T_i, then D * x_B[i]
    y = [-1 if b < 0 else 1 for b in rhs]
    for i, s in enumerate(y):
        rows[i][i] = s
    basis = list(range(n, n + m))
    denom = 1
    pivots = bland = streak = 0
    while True:
        scores = price(y)
        score = max(scores, default=0)
        if score <= 0:
            break
        if streak < DEGENERATE_STREAK:
            enter = scores.index(score)
        else:
            enter = next(j for j, s in enumerate(scores) if s > 0)
            score = scores[enter]
            bland += 1
        col = column(enter)
        w = [_dot(row, col) for row in rows]
        leave = -1
        best_num = best_den = 0
        for i, a in enumerate(w):
            if a <= 0:
                continue
            num = rows[i][m]
            if leave < 0 or num * best_den < best_num * a or (
                num * best_den == best_num * a and basis[i] < basis[leave]
            ):
                leave, best_num, best_den = i, num, a
        assert leave >= 0
        pivot = w[leave]
        prow = rows[leave]
        for i, f in enumerate(w):
            if i == leave:
                continue
            if f:
                rows[i] = [(a * pivot - f * b) // denom for a, b in zip(rows[i], prow)]
            elif pivot != denom:
                rows[i] = [a * pivot // denom for a in rows[i]]
        y = [(a * pivot - score * b) // denom for a, b in zip(y, prow)]
        streak = streak + 1 if best_num == 0 else 0
        basis[leave] = enter
        denom = pivot
        pivots += 1
    if any(rows[i][m] for i, j in enumerate(basis) if j >= n):
        g = math.gcd(*y)
        return None, denom, [v // g for v in y], pivots, bland
    x = [0] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = rows[i][m]
    return x, denom, None, pivots, bland


def _dense_phase1(rows, rhs):
    """phase1 on a dense system, checked against the reference solver."""
    cols = list(zip(*rows))
    args = (rhs, len(cols), cols.__getitem__, lambda y: [_dot(y, c) for c in cols])
    result = phase1(*args)
    assert tuple(result[:5]) == _reference_phase1(*args)
    return result


def test_simplex_random_systems_against_verification():
    rng = random.Random(9)
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        x_true = [rng.randint(0, 5) for _ in range(n)]
        rhs = [sum(r * v for r, v in zip(row, x_true)) for row in rows]
        result = _dense_phase1(rows, rhs)
        assert result.x is not None  # constructed feasibly
        x = _values(result)
        for row, b in zip(rows, rhs):
            assert sum(r * v for r, v in zip(row, x)) == b
        assert all(v >= 0 for v in x)


def test_simplex_degenerate_system_falls_back_to_bland():
    # x_0 = x_1 = ... = x_k through k zero-rhs chain rows, each repeated
    # negated, and one row fixing the sum: every early pivot is degenerate.
    k = 30
    n = k + 1
    chain = [[(j == i) - (j == i + 1) for j in range(n)] for i in range(k)]
    rows = chain + [[-a for a in row] for row in chain] + [[1] * n]
    rhs = [0] * (2 * k) + [n]
    result = _dense_phase1(rows, rhs)
    assert result.pivots > DEGENERATE_STREAK
    assert result.bland_pivots > 0
    assert [Fraction(v, result.denom) for v in result.x] == [1] * n

    # Pinning x_k to 0 as well leaves no solution; the Farkas vector says so.
    rows.append([0] * k + [1])
    rhs.append(0)
    result = _dense_phase1(rows, rhs)
    assert result.x is None and result.bland_pivots > 0
    y = result.farkas
    assert all(_dot(y, col) <= 0 for col in zip(*rows))
    assert _dot(y, rhs) > 0


def test_simplex_infeasible_systems_carry_farkas_vectors():
    rng = random.Random(12)
    refuted = 0
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-6, 6) for _ in range(m)]
        result = _dense_phase1(rows, rhs)
        if result.x is not None:
            continue
        refuted += 1
        y = result.farkas
        assert all(_dot(y, col) <= 0 for col in zip(*rows))
        assert _dot(y, rhs) > 0
    assert refuted > 50


@pytest.mark.parametrize("feasible", [True, False])
def test_packed_fields_widen_and_stay_exact(feasible):
    """Entries near 2^40 overflow the first field width at once (w) and
    again as D grows (the update); both widenings must keep every result
    equal to the reference."""
    rng = random.Random(31 + feasible)
    widenings = []
    for _ in range(40):
        m, n = rng.randint(2, 6), rng.randint(2, 8)
        rows = [[rng.randint(-(2**40), 2**40) for _ in range(n)] for _ in range(m)]
        if feasible:
            x_true = [rng.randint(0, 2**40) for _ in range(n)]
            rhs = [_dot(row, x_true) for row in rows]
        else:
            rhs = [rng.randint(-(2**41), 2**41) for _ in range(m)]
        result = _dense_phase1(rows, rhs)
        assert (result.x is not None) or not feasible
        widenings.append(result.widenings)
    assert sum(w >= 2 for w in widenings) > len(widenings) // 2


def _unimodular_columns(m, big, rng):
    """The columns of a random m x m integer matrix of determinant 1: the
    identity under 3m random column operations c_j -= f c_i, |f| <= big."""
    cols = [[int(i == j) for i in range(m)] for j in range(m)]
    for _ in range(3 * m):
        i, j = rng.sample(range(m), 2)
        f = rng.randint(-big, big)
        cols[j] = [a - f * b for a, b in zip(cols[j], cols[i])]
    return cols


def _narrowest_fields(m, need):
    return _simplex._fields(m, -(-(need.bit_length() + 1) // 8) * 8)


def test_width_checks_alone_keep_decoding_exact(monkeypatch):
    """With no slack in the field width, each check must widen T exactly
    when it is due.  Unimodular bases with large entries make it due: their
    inverse, which is T, is far smaller than their (m-2)-minors, so one
    update can grow T by orders of magnitude past the width that the w
    check chose."""
    monkeypatch.setattr(_simplex, "FIRST_FIELD_BITS", 8)
    monkeypatch.setattr(_simplex, "_holding", _narrowest_fields)
    rng = random.Random(42)
    widenings = 0
    for _ in range(300):
        m = rng.randint(4, 6)
        cols = _unimodular_columns(m, 10**5, rng) + [
            [rng.choice([-1, 1]) * (i == r) for i in range(m)] for r in range(m)
        ]
        rng.shuffle(cols)
        rows = [list(row) for row in zip(*cols)]
        x = [rng.randint(0, 3) for _ in cols]
        widenings += _dense_phase1(rows, [_dot(row, x) for row in rows]).widenings
    assert widenings > 300


# -- decide -------------------------------------------------------------------

def test_decide_channel_permutation_feasible():
    verdict = decide(RankPermutation.from_text(CHANNEL_ORDER))
    assert verdict.feasible
    vec = verdict.vector
    vec.check(RankPermutation.from_text(CHANNEL_ORDER))


def test_decide_vector_invariants_hold_exactly():
    rng = random.Random(4)
    words = list(range(9))
    seen_feasible = 0
    while seen_feasible < 20:
        order = tuple(rng.sample(words, 9))
        verdict = decide(RankPermutation(P32, order))
        if not verdict.feasible:
            continue
        seen_feasible += 1
        verdict.vector.check(RankPermutation(P32, order))


def test_decide_is_deterministic():
    perm = RankPermutation.from_text(CHANNEL_ORDER)
    assert decide(perm).vector.entries == decide(perm).vector.entries


def test_decide_all_infeasible_at_q2():
    p22 = Params(2, 2)
    for order in permutations(range(4)):
        verdict = decide(RankPermutation(p22, order))
        assert not verdict.feasible
        assert verdict.vector is None


def test_decide_window_one_always_feasible():
    p31 = Params(3, 1)
    for order in permutations(range(3)):
        verdict = decide(RankPermutation(p31, order))
        assert verdict.feasible
        ranked = rank_of(verdict.vector.entries, p31)
        assert ranked.order == order


def test_precheck_and_lp_agree_with_and_without_shortcut():
    rng = random.Random(5)
    for _ in range(200):
        order = tuple(rng.sample(range(9), 9))
        perm = RankPermutation(P32, order)
        assert decide(perm).feasible == decide(perm, use_precheck=False).feasible


def test_lp_refutation_carries_checked_farkas_vector():
    # The pre-check refutes this order; the LP alone must refute it too.
    perm = RankPermutation.from_text("10,20,01,02,00,11,12,21,22")
    verdict = decide(perm, use_precheck=False)
    assert not verdict.feasible and verdict.vector is None
    y = verdict.farkas
    assert len(y) == 3
    check_farkas(perm, y)
    assert verdict.to_text().splitlines() == [
        "status=infeasible witness=no nonnegative flow-conserving assignment exists"
    ]
    # The pre-check's verdict has no LP behind it.
    assert decide(perm).farkas is None


def test_perturbed_farkas_vector_fails_the_check():
    perm = RankPermutation.from_text("10,20,01,02,00,11,12,21,22")
    y = decide(perm, use_precheck=False).farkas
    check_farkas(perm, y)
    # The slack LP A e = b of the order, from its definition: column k holds
    # each node's coefficient sums over ranks k and up.
    rows = balance_rows(P32)
    order = perm.order
    columns = [[sum(row[i] for i in order[k:]) for row in rows] for k in range(9)]
    b = [-sum((k + 1) * row[i] for k, i in enumerate(order)) for row in rows]
    perturbed = [tuple(-v for v in y), (0, 0, 0), y[:2], y + (1,)]
    for col in filter(any, columns):
        # Far enough along a column, y A_k turns positive.
        t = 1 + abs(_dot(y, col))
        perturbed.append(tuple(v + t * c for v, c in zip(y, col)))
    # Far enough against b, y b turns negative.
    perturbed.append(tuple(v * _dot(b, b) - (_dot(y, b) + 1) * c for v, c in zip(y, b)))
    for bad in perturbed:
        with pytest.raises(ValueError):
            check_farkas(perm, bad)
    # Node weights that refute one order need not refute another.
    with pytest.raises(ValueError):
        check_farkas(RankPermutation.from_text(CHANNEL_ORDER), y)


def test_lp_refutations_at_window_three_are_certified():
    rng = random.Random(13)
    p33 = Params(3, 3)
    refuted = 0
    for _ in range(30):
        perm = RankPermutation(p33, tuple(rng.sample(range(27), 27)))
        verdict = decide(perm, use_precheck=False)
        if not verdict.feasible:
            refuted += 1
            check_farkas(perm, verdict.farkas)
    assert refuted > 0


def test_decide_window_four_lp_refutation(repo):
    # An encoder order at (4,4) with the word at rank 154 moved down to rank
    # 36: the pre-check stays silent and the LP refutes it.
    p44 = Params(4, 4)
    vec = encoder.encode_b(encoder.random_info_b(4, 4, random.Random(0)), repo)
    order = list(rank_of(vec.entries, p44).order)
    order.insert(36, order.pop(154))
    perm = RankPermutation(p44, tuple(order))
    assert matching_precheck(perm) is None
    verdict = decide(perm)
    assert not verdict.feasible
    check_farkas(perm, verdict.farkas)
    assert decide(RankPermutation(p44, rank_of(vec.entries, p44).order)).feasible


def _swapped_encoder_orders(repo, q, ell, count, rng):
    params = Params(q, ell)
    for _ in range(count):
        vec = encoder.encode_b(encoder.random_info_b(q, ell, rng), repo)
        order = list(rank_of(vec.entries, params).order)
        for _ in range(rng.randint(0, params.word_count)):
            j = rng.randrange(len(order) - 1)
            order[j], order[j + 1] = order[j + 1], order[j]
        yield RankPermutation(params, tuple(order))


@pytest.mark.parametrize("q, ell", [(4, 3), (3, 4), (5, 3), (6, 3)])
def test_order_lps_match_the_reference_solver(repo, q, ell):
    params = Params(q, ell)
    rng = random.Random(q * 100 + ell)
    for perm in _swapped_encoder_orders(repo, q, ell, 12, rng):
        lp = _OrderLP(perm.order, params)
        reference = _reference_phase1(
            lp.rhs, len(perm.order), lp.columns().__getitem__, lp.price
        )
        assert tuple(order_lp_solution(perm.order, params)[:5]) == reference


# sha256 over the text and Farkas vector of every verdict on the seeded
# encoder orders below, with random adjacent swaps: it pins decide's exact
# outputs, fractional and integral vectors, pre-check witnesses and LP
# refutations alike.
DECIDE_DIGEST = "e443ca1ca1d2c36b36e5965613d25993f1b4aa3903631c2a216e353341a36f71"
DECIDE_PINNED_CLASSES = ((3, 3, 30), (4, 3, 20), (3, 4, 20))


def test_decide_outputs_match_pinned_digest(repo):
    digest = hashlib.sha256()
    kinds = set()
    for q, ell, count in DECIDE_PINNED_CLASSES:
        rng = random.Random(1000 * q + ell)
        for perm in _swapped_encoder_orders(repo, q, ell, count, rng):
            verdict = decide(perm)
            text = verdict.to_text()
            digest.update(text.encode())
            digest.update(repr(verdict.farkas).encode())
            if verdict.feasible:
                kinds.add("fractional" if "/" in text else "integral")
            else:
                kinds.add("farkas" if verdict.farkas else "precheck")
    assert kinds == {"fractional", "integral", "farkas", "precheck"}
    assert digest.hexdigest() == DECIDE_DIGEST


def test_decide_five_letters_window_four(repo):
    """A (5,4) encoder order: 625 slack columns on 125 node rows.  D
    outgrows the first field width, so T is packed again on the way."""
    p54 = Params(5, 4)
    vec = encoder.encode_b(encoder.random_info_b(5, 4, random.Random(0)), repo)
    perm = rank_of(vec.entries, p54)
    verdict = decide(perm)
    assert verdict.feasible
    verdict.vector.check(perm)
    lp = order_lp_solution(perm.order, p54)
    assert lp.widenings >= 1 and lp.field_bits > FIRST_FIELD_BITS


@pytest.mark.parametrize("q, ell", [(4, 3), (3, 4)])
def test_lp_verdicts_agree_with_highs(repo, q, ell):
    """decide's LP against scipy's HiGHS on the unsubstituted LP (entries
    >= 1, unit steps along the order, flow balance at every node)."""
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    a_eq = np.array(balance_rows(Params(q, ell)), dtype=float)
    n = q**ell
    verdicts = []
    for perm in _swapped_encoder_orders(repo, q, ell, 40, random.Random(q * 10 + ell)):
        a_ub = np.zeros((n - 1, n))
        for k, (lo, hi) in enumerate(zip(perm.order, perm.order[1:])):
            a_ub[k, lo], a_ub[k, hi] = 1, -1
        res = optimize.linprog(
            np.zeros(n), A_ub=a_ub, b_ub=-np.ones(n - 1), A_eq=a_eq,
            b_eq=np.zeros(len(a_eq)), bounds=(1, None), method="highs",
        )
        assert res.status in (0, 2)  # solved or proven infeasible
        verdict = decide(perm, use_precheck=False)
        assert verdict.feasible == (res.status == 0)
        if not verdict.feasible:
            check_farkas(perm, verdict.farkas)
        verdicts.append(verdict.feasible)
    assert 0 < sum(verdicts) < len(verdicts)  # both answers occur


def test_scaling_closure():
    verdict = decide(RankPermutation.from_text(CHANNEL_ORDER))
    chi = verdict.vector
    alpha, beta = Fraction(7, 3), Fraction(2)
    scaled = _rational_vector(
        chi.params, [alpha * Fraction(e, chi.denom) + beta for e in chi.entries]
    )
    scaled.check(RankPermutation.from_text(CHANNEL_ORDER))


# -- the matching pre-check ---------------------------------------------------

OVERLAP_PARAMS = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4), (3, 4)]


def _near_balanced_orders(params, count, rng):
    """Random orders, and orders of a random string's profile (ties broken
    at random) after a few adjacent swaps, which the pre-check often passes."""
    n = params.word_count
    for _ in range(count):
        yield tuple(rng.sample(range(n), n))
        x = [rng.randrange(params.q) for _ in range(rng.randint(1, 4 * n))]
        counts = profile_of(x, params).counts
        order = sorted(range(n), key=lambda i: (counts[i], rng.random()))
        for _ in range(rng.randint(0, 3)):
            j = rng.randrange(n - 1)
            order[j], order[j + 1] = order[j + 1], order[j]
        yield tuple(order)


@pytest.mark.parametrize("q, ell", OVERLAP_PARAMS)
def test_constraint_tables_follow_word_overlaps(q, ell):
    # The order LP, read from core.edge_nodes, against the balance rows
    # built from word tuples: column k sums each row over ranks k and up,
    # and rhs is minus each row weighted by 1-based rank.
    params = Params(q, ell)
    rows = balance_rows(params)
    for order in _near_balanced_orders(params, 10, random.Random(q * 10 + ell)):
        lp, n = _OrderLP(order, params), len(order)
        columns = [[sum(row[i] for i in order[k:]) for row in rows] for k in range(n)]
        rhs = [-sum((k + 1) * row[i] for k, i in enumerate(order)) for row in rows]
        assert lp.columns() == columns and lp.rhs == rhs


@pytest.mark.parametrize("q, ell", OVERLAP_PARAMS)
def test_precheck_matches_the_per_node_ballot(q, ell):
    params = Params(q, ell)
    outcomes = set()
    for order in _near_balanced_orders(params, 150, random.Random(q * 100 + ell)):
        witness = order_precheck_witness(order, params)
        assert witness == ballot_reference(order, params)
        outcomes.add(None if witness is None else witness[1])
    assert outcomes >= {"green", "red"}
    # At (2,2) no order is realizable, and the pre-check refutes them all.
    assert (None in outcomes) == (params != Params(2, 2))


def _hit_is_a_unit_farkas_vector(order, params):
    """Whether the pre-check hits ``order``; a hit at node v must pass
    ``check_farkas`` as -e_v when v is green and as +e_v when it is red."""
    hit = order_precheck_witness(order, params)
    if hit is None:
        return False
    node, color = hit
    y = [0] * params.node_count
    y[word_index(node, params.q)] = -1 if color == "green" else 1
    check_farkas(RankPermutation(params, order), y)
    return True


def test_every_precheck_hit_among_the_census_representatives_is_a_unit_farkas_vector():
    hits = sum(_hit_is_a_unit_farkas_vector(rep, P32) for rep in representatives(P32))
    assert hits == 27720


@pytest.mark.parametrize("q, ell", [(4, 3), (3, 4), (5, 3), (6, 3), (2, 3), (3, 3)])
def test_every_precheck_hit_on_random_orders_is_a_unit_farkas_vector(q, ell):
    params = Params(q, ell)
    orders = _near_balanced_orders(params, 40, random.Random(q * 1000 + ell))
    assert sum(_hit_is_a_unit_farkas_vector(order, params) for order in orders) > 0


def test_precheck_fires_on_forced_pattern_window_two():
    # Rank order starting 10,20,01,02: both incoming words of node 0 sit
    # below both outgoing ones, certifying imbalance there.
    perm = RankPermutation.from_text("10,20,01,02,00,11,12,21,22")
    witness = matching_precheck(perm)
    assert witness is not None
    assert witness.node == (0,)
    assert not decide(perm).feasible


def test_precheck_silent_on_channel_permutation():
    assert matching_precheck(RankPermutation.from_text(CHANNEL_ORDER)) is None


def test_precheck_forced_green_at_window_three():
    # All incoming extensions of node 01 placed below all outgoing ones.
    p33 = Params(3, 3)
    ins = [(0, 0, 1), (1, 0, 1), (2, 0, 1)]
    outs = [(0, 1, 0), (0, 1, 1), (0, 1, 2)]
    rest = [w for w in p33.words() if w not in ins + outs]
    perm = RankPermutation.from_words(p33, ins + outs + rest)
    witness = matching_precheck(perm)
    assert witness is not None
    assert witness.node == (0, 1)
    assert witness.color == "green"


def test_precheck_rejects_window_one():
    with pytest.raises(ValueError):
        matching_precheck(RankPermutation(Params(3, 1), (0, 1, 2)))


def test_precheck_soundness_on_random_samples_window_three():
    rng = random.Random(6)
    p33 = Params(3, 3)
    fired = 0
    for _ in range(40):
        order = tuple(rng.sample(range(27), 27))
        perm = RankPermutation(p33, order)
        if matching_precheck(perm) is not None:
            fired += 1
            assert not decide(perm, use_precheck=False).feasible
    assert fired > 0  # random orders essentially always trip some node


# -- bound calculators --------------------------------------------------------

def test_upper_bound_window_two():
    assert upper_bound(P32) == Fraction(math.factorial(9), 2)
    assert upper_bound(P32) == 181440
    assert 30240 <= upper_bound(P32)


def test_upper_bound_window_three():
    assert upper_bound(Params(3, 3)) == math.factorial(27) * Fraction(1, 4)
    # independently: the exponent is the certified lower bound one level down
    assert alpha_star_lower(Params(3, 2)) == 2


def test_upper_bound_rejects_out_of_range():
    with pytest.raises(ValueError):
        upper_bound(Params(2, 2))
    with pytest.raises(ValueError):
        upper_bound(Params(3, 1))


def test_alpha_star_values():
    assert alpha_star_lower(Params(3, 2)) == 2
    assert alpha_star_lower(Params(2, 2)) == 1
    assert alpha_star_lower(Params(3, 3)) == 6
    # fourth power of three: (81 - 9) / 4 = 18
    assert alpha_star_lower(Params(3, 4)) == 18


def test_verdict_serialization_round_trip():
    verdict = decide(RankPermutation.from_text(CHANNEL_ORDER))
    text = verdict.to_text()
    assert text.startswith("status=feasible")
    restored = FeasibleVector.from_text("\n".join(text.splitlines()[1:]))
    assert restored.entries == verdict.vector.entries


# -- strict vector parsers -----------------------------------------------------

BAD_VECTOR_TEXTS = [
    "",  # no header
    "q=2\n0 1\n1 2",  # bad header
    "q=3 ell=2\n00 4\n01 7",  # missing word lines
    "q=2 ell=1\n0 3\n0 5",  # duplicate word, other word missing
    "q=2 ell=1\n0 3\n1 5\n1 5",  # duplicate word, extra line
    "q=2 ell=1\n0 3\n1",  # no value
    "q=2 ell=1\n0 3\n1 5 6",  # extra field
    "q=2 ell=1\n0 3\n2 5",  # symbol outside the alphabet
    "q=2 ell=1\n0 3\nx 5",  # not a word
    "q=2 ell=2\n00 1\n01 2\n10 3\n1 4",  # word of the wrong length
    "q=2 ell=1\n0 3\n1 1.5",  # decimal value
    "q=2 ell=1\n0 3\n1 1e3",
    "q=2 ell=1\n0 3\n1 3/0",
    "q=2 ell=1\n0 3\n1 +5",
    "q=\uff12 ell=1\n0 3\n1 5\n",  # fullwidth digit in the header
    "q=2 ell=\u0661\n0 3\n1 5\n",  # Arabic-Indic digit in the header
    "q=2 ell=1\n0 3\n1 \uff15",  # fullwidth digit as a value
    "q=2 ell=1\n0 3\n1 1_0",  # Python literal digit grouping
]


@pytest.mark.parametrize("text", BAD_VECTOR_TEXTS)
@pytest.mark.parametrize("parse", [ProfileVector.from_text, FeasibleVector.from_text])
def test_vector_parsers_reject_malformed_text(parse, text):
    with pytest.raises(ValueError):
        parse(text)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_feasible_vector_text_round_trip_property(data):
    params = data.draw(st.builds(Params, st.integers(2, 4), st.integers(1, 3)))
    entry = st.one_of(st.integers(-(2**70), 2**70), st.fractions())
    entries = data.draw(
        st.lists(entry, min_size=params.word_count, max_size=params.word_count)
    )
    vec = _rational_vector(params, entries)
    text = vec.to_text()
    again = FeasibleVector.from_text(text)
    assert again == vec
    # An integral value is written as an integer, a fraction in lowest terms.
    fields = [ln.split()[1] for ln in text.splitlines()[1:]]
    assert fields == [str(Fraction(e)) for e in entries]


def test_vector_parsers_refuse_words_out_of_index_order():
    # the writers list the words in index order, so the readers take no other
    with pytest.raises(ValueError, match="vector line 2 reads '1 5/2', not '0 5/2'"):
        FeasibleVector.from_text("q=2 ell=1\n1 5/2\n0 3\n")
    with pytest.raises(ValueError, match="profile line 2 reads '1 5', not '0 5'"):
        ProfileVector.from_text("q=2 ell=1\n1 5\n0 3")
    assert FeasibleVector.from_text("q=2 ell=1\n0 3\n1 5/2\n") == FeasibleVector(
        Params(2, 1), (6, 5), 2
    )
    assert ProfileVector.from_text("q=2 ell=1\n0 3\n1 5").counts == (3, 5)


def test_feasible_vector_check_rejects_violations():
    with pytest.raises(ValueError):
        FeasibleVector(P32, (0, 2, 3, 4, 5, 6, 7, 8, 9)).check()
    with pytest.raises(ValueError):
        FeasibleVector(P32, (1, 1, 3, 4, 5, 6, 7, 8, 9)).check()
    with pytest.raises(ValueError):
        FeasibleVector(P32, (1, 2, 3, 4, 5, 6, 7, 8, 9)).check()  # flow broken


def _rational_vector(params, values):
    """The FeasibleVector of rational ``values``: integer entries over the
    lcm of their denominators."""
    d = math.lcm(*(Fraction(v).denominator for v in values))
    return FeasibleVector(params, tuple(int(v * d) for v in values), d)


def _channel_fraction_vector(alpha, beta):
    """The channel order's vector under e -> alpha e + beta, which keeps
    flow balance: every node has q in-words and q out-words."""
    vec = decide(RankPermutation.from_text(CHANNEL_ORDER)).vector
    return [alpha * Fraction(e, vec.denom) + beta for e in vec.entries]


def test_feasible_vector_check_on_fraction_entries():
    perm = RankPermutation.from_text(CHANNEL_ORDER)
    good = _channel_fraction_vector(Fraction(7, 3), Fraction(1, 5))
    _rational_vector(P32, good).check(perm)
    low = min(good)
    below_one = [e - low + Fraction(1, 2) for e in good]
    flow_broken = good[:]
    flow_broken[1] += Fraction(1, 7)  # word 01, less than any gap
    swapped = list(perm.order)
    swapped[3], swapped[4] = swapped[4], swapped[3]
    cases = [
        (below_one, perm, "entries must all be >= 1"),
        ([Fraction(5, 2)] * 9, None, "entries must be pairwise distinct"),
        (flow_broken, perm, "flow violated at node"),
        (good, RankPermutation(P32, tuple(swapped)), "does not realize"),
    ]
    for entries, order, message in cases:
        vec = _rational_vector(P32, entries)
        assert vec.denom != 1
        with pytest.raises(ValueError, match=message):
            vec.check(order)


def test_feasible_vector_holds_integers_in_lowest_terms():
    assert FeasibleVector(P32, tuple(range(1, 10))).denom == 1
    with pytest.raises(TypeError):
        FeasibleVector(Params(3, 1), (Fraction(3, 2), Fraction(7, 3), Fraction(23, 6)))
    for denom in (0, -6):
        with pytest.raises(ValueError, match="lowest terms"):
            FeasibleVector(Params(3, 1), (9, 14, 23), denom)
    with pytest.raises(ValueError, match="lowest terms"):
        FeasibleVector(Params(3, 1), (18, 28, 46), 12)  # (9, 14, 23) / 6, doubled
    assert FeasibleVector(Params(3, 1), (9, 14, 23), 6) == _rational_vector(
        Params(3, 1), [Fraction(3, 2), Fraction(7, 3), Fraction(23, 6)]
    )


def test_fractional_vector_to_profile_scales_by_its_denominator(repo):
    rng = random.Random(33)
    fractional = 0
    for perm in _swapped_encoder_orders(repo, 4, 3, 20, rng):
        vec = decide(perm).vector
        if vec is None or vec.denom == 1:
            continue
        fractional += 1
        profile = vec.to_profile()
        values = [Fraction(ln.split()[1]) for ln in vec.to_text().splitlines()[1:]]
        assert list(profile.counts) == [vec.denom * v for v in values]
        assert rank_of(profile).order == perm.order
    assert fractional > 0


def _row_fault(params, row, order):
    """What FeasibleVector.check says of one row, or None if it passes."""
    try:
        FeasibleVector(params, tuple(row)).check(RankPermutation(params, tuple(order)))
    except ValueError as e:
        return str(e)
    return None


def _rows_fault(params, data, orders):
    """What check_rows says of packed rows, or None if they pass."""
    try:
        check_rows(params, data, orders)
    except ValueError as e:
        return str(e)
    return None


def test_check_rows_is_the_vector_check_on_every_row(repo, census32):
    # repository rows, some with one entry moved, tied, zeroed or swapped,
    # against their census orders and against the orders that sort them:
    # check_rows refuses iff some row fails FeasibleVector.check, with the
    # first such row's message
    params, rng = repo.params, random.Random(31)
    faults = 0
    for _ in range(300):
        rows, census_orders = [], []
        for i in rng.sample(range(len(repo.vectors)), rng.randrange(1, 5)):
            row = list(repo.vectors[i])
            a, b = rng.sample(range(9), 2)
            kind = rng.randrange(6)
            if kind == 1:
                row[a] += rng.choice((-1, 1))
            elif kind == 2:
                row[a] = row[b]
            elif kind == 3:
                row[a] = 0
            elif kind == 4:
                row[a], row[b] = row[b], row[a]
            rows.append(bytes(row))
            census_orders.append(bytes(census32.feasible[i]))
        sorting = [bytes(sorted(range(9), key=row.__getitem__)) for row in rows]
        for orders in (census_orders, sorting):
            expected = next(filter(None, map(_row_fault, [params] * len(rows), rows, orders)), None)
            faults += expected is not None
            assert _rows_fault(params, b"".join(rows), b"".join(orders)) == expected
    assert faults > 200


@pytest.mark.parametrize("params", [Params(2, 3), Params(4, 1)], ids=["q2l3", "q4l1"])
def test_check_rows_at_other_windows(params):
    # profiles of random strings, each packed twice, against the order that
    # sorts it: at (2,3), where no order is realizable, each is refused for
    # a zero or a tie, and at window one distinct entries >= 1 pass;
    # check_rows says what the vector check says
    rng = random.Random(32)
    for _ in range(200):
        text = [rng.randrange(params.q) for _ in range(rng.randrange(1, 60))]
        row = bytes(profile_of(text, params).counts)
        order = bytes(sorted(range(params.word_count), key=row.__getitem__))
        assert _rows_fault(params, row * 2, order * 2) == _row_fault(params, row, order)


def test_check_rows_refuses_a_partial_row():
    row, order = bytes(range(1, 10)), bytes(range(9))
    for data, orders in ((row + b"\x01", order + b"\x00"), (row, order[:8])):
        with pytest.raises(ValueError, match="entry count"):
            check_rows(Params(3, 2), data, orders)
