"""Exhaustive two-term search and its agreement with the classifier."""

import random
import sys
from fractions import Fraction

import pytest

from fibgreedy import (
    FIBONACCI,
    LUCAS,
    SequenceParams,
    TwoTermSum,
    bad_interval,
    classify,
    greedy_two_term,
    oracle_best,
)
from fibgreedy import greedy, oracle, sequences, verification
from fibgreedy.sequences import _NEAR_TIE_BITS, _leading_exceeds, seq_pair
from fibgreedy.verification import disagreement, grid_equivalence_suite

FIB = FIBONACCI.params
LUC = LUCAS.params
# every term even, so no two-term sum (a_m + a_n)/(a_m*a_n) is in lowest terms
SQUARE = SequenceParams(2, 2)  # 2, 2, 4, 6, 10, 16, 26, 42, 68, ...
EVEN = SequenceParams(4, 6)  # 4, 6, 10, 16, 26, 42, 68, ...


class TestOracleBest:
    def test_beats_greedy_inside_window(self):
        report = oracle_best(FIB, Fraction(27, 50))
        assert (report.best.m, report.best.n) == (3, 4)
        assert report.best.value == Fraction(8, 15)

    def test_matches_greedy_outside_windows(self):
        theta = Fraction(1, 2)
        report = oracle_best(FIB, theta)
        greedy = greedy_two_term(FIB, theta)
        assert report.best.value == greedy.value
        assert (report.best.m, report.best.n) == (greedy.g1, greedy.g2)

    def test_repeated_greedy_pair_can_win(self):
        # The greedy sum may use one index twice; the search keeps it as a
        # candidate and no distinct pair beats it here.
        report = oracle_best(LUC, Fraction(9, 10))
        assert (report.best.m, report.best.n) == (1, 1)
        assert report.best.value == Fraction(1, 2)

    def test_distinct_pairs_only_beyond_greedy(self):
        # 2/3 sits outside every window yet the repeated pair (3, 3) would
        # edge out the greedy sum; distinct-index competitors do not.
        theta = Fraction(67, 100)
        report = oracle_best(FIB, theta)
        greedy = greedy_two_term(FIB, theta)
        assert greedy.value == Fraction(5, 8)
        assert report.best.value == greedy.value
        assert classify(FIB, theta).is_best

    def test_report_fields(self):
        # The greedy pair counts as one candidate; the walk adds g1 + 1 only
        # when 2/a_{g1+1} exceeds the greedy value (2/3 > 9/17 and 2/3 > 5/8,
        # but 2/5 <= 11/24 at theta = 1/2).
        assert oracle_best(FIB, Fraction(27, 50)).candidates_examined == 2
        assert oracle_best(FIB, Fraction(67, 100)).candidates_examined == 2
        assert oracle_best(FIB, Fraction(1, 2)).candidates_examined == 1

    @pytest.mark.parametrize(
        "params, theta, pair, value, examined",
        [
            (SQUARE, Fraction(1, 2), (2, 3), Fraction(5, 12), 1),  # greedy 10/24
            (SQUARE, Fraction(1, 3), (2, 5), Fraction(5, 16), 2),  # greedy 20/64
            (SQUARE, Fraction(3, 11), (3, 4), Fraction(4, 15), 2),  # greedy 72/272 loses
            (EVEN, Fraction(1, 3), (1, 2), Fraction(4, 15), 1),  # greedy 16/60
            (EVEN, Fraction(8, 79), (3, 4), Fraction(21, 208), 2),  # greedy 1230/12200 loses
        ],
    )
    def test_report_with_unreduced_greedy_sum(self, params, theta, pair, value, examined):
        # The search compares against the greedy sum as the unreduced
        # (a_g1 + a_g2, a_g1*a_g2), shown beside each row; on these seeds it
        # always has a common factor.
        assert oracle_best(params, theta) == (TwoTermSum(*pair, value), examined)


@pytest.mark.parametrize("params", [FIB, LUC])
def test_grid_agreement(params):
    # Over a modest grid the search and the window classifier must give the
    # same verdict, the winner must sit at or just past the greedy start,
    # and losses must come from the adjacent pair at the window's edge.
    for k in range(1, 200):
        theta = Fraction(k, 200)
        result = classify(params, theta)
        report = oracle_best(params, theta)
        greedy = result.greedy
        assert report.best.value >= greedy.value
        assert report.best.value < theta
        assert (report.best.value == greedy.value) == result.is_best
        assert report.best.m <= greedy.g1 + 1
        assert report.candidates_examined <= 2
        if not result.is_best:
            assert (report.best.m, report.best.n) == (greedy.g1 + 1, greedy.g1 + 2)
            assert report.best.value == result.competitor.value


def test_grid_suite_reaches_window_left_ends(monkeypatch):
    # A classifier that also claims each window's left end, which the window
    # excludes, as a loss. No k/20 lands on a left end, so only the window
    # ends the suite adds can show it.
    real = verification.classify

    def claims_left_ends(params, theta):
        cls = real(params, theta)
        for n in range(3):
            window = bad_interval(params, n)
            if theta == window.left:
                competitor = TwoTermSum(2 * n + 3, 2 * n + 4, window.left)
                return cls._replace(is_best=False, witness_interval=window, competitor=competitor)
        return cls

    monkeypatch.setattr(verification, "classify", claims_left_ends)
    result = grid_equivalence_suite(FIBONACCI, 20)
    assert not result.passed
    assert "theta=8/15:" in result.first_counterexample


class TestCompetitorShape:
    def test_true_inside_window(self):
        iv = bad_interval(LUC, 0)
        midpoint = (iv.left + iv.right) / 2
        result = classify(LUC, midpoint)
        assert not result.is_best
        # includes the check that the winner is the adjacent pair (g1+1, g1+2)
        assert disagreement(LUC, midpoint, result, oracle_best(LUC, midpoint)) is None


WORKED = Fraction(27, 50)  # fibonacci: greedy 1/2 + 1/34 = 9/17, best 1/3 + 1/5 = 8/15


def with_best(pair, value):
    return lambda cls, report: (cls, report._replace(best=TwoTermSum(*pair, value)))


# one crafted fault per way the classifier and the search can disagree at
# the worked example, and the reason disagreement must give for it
FAULTS = [
    (with_best((2, 9), Fraction(1, 2)), "oracle 1/2 below greedy 9/17"),
    (with_best((3, 4), WORKED), "oracle value 27/50 not strictly below theta"),
    (
        lambda cls, report: (cls._replace(is_best=True), report),
        "verdict is_best=True but oracle best 8/15 vs greedy 9/17",
    ),
    (with_best((4, 4), Fraction(8, 15)), "winner first index 4 beyond g1+1"),
    (with_best((3, 5), Fraction(8, 15)), "winner (3, 5) is not the adjacent pair"),
    (
        lambda cls, report: (
            cls._replace(competitor=cls.competitor._replace(value=Fraction(17, 32))),
            report,
        ),
        "winner value differs from the window's left endpoint",
    ),
    (
        lambda cls, report: (cls._replace(witness_interval=bad_interval(FIB, 1)), report),
        "witness differs from bad_interval at first index 2",
    ),
]


@pytest.mark.parametrize("fault, reason", FAULTS, ids=[reason for _, reason in FAULTS])
def test_disagreement_names_each_fault(fault, reason):
    cls, report = classify(FIB, WORKED), oracle_best(FIB, WORKED)
    assert disagreement(FIB, WORKED, cls, report) is None
    assert disagreement(FIB, WORKED, *fault(cls, report)) == reason


def window_targets(params, n):
    # both ends of window n and two targets inside it, as Fractions
    window = bad_interval(params, n)
    width = window.right - window.left
    return [window.left, window.left + width / 1000, window.left + width / 2, window.right]


BIG_WINDOWS = [(params, n) for params in (FIB, SequenceParams(4, 5)) for n in (1000, 1500, 5000)]
BIG_WINDOW_IDS = [f"{params.a0},{params.a1}-n{n}" for params, n in BIG_WINDOWS]


@pytest.mark.parametrize("params, n", BIG_WINDOWS, ids=BIG_WINDOW_IDS)
def test_classifier_and_search_agree_at_big_windows(monkeypatch, params, n):
    # Past _NEAR_TIE_BITS every target inside a window has a candidate that
    # ties the best value to within leading bits, settled by the cancelling
    # form; the window's ends as well.
    undecided = []
    leading = oracle._leading_exceeds

    def recorded(xs, ys):
        decided = leading(xs, ys)
        undecided.append(decided is None)
        return decided

    monkeypatch.setattr(oracle, "_leading_exceeds", recorded)
    for theta in window_targets(params, n):
        cls, report = classify(params, theta), oracle_best(params, theta)
        assert disagreement(params, theta, cls, report) is None
    assert any(undecided)


@pytest.mark.parametrize("params, n", BIG_WINDOWS[:2], ids=BIG_WINDOW_IDS[:2])
def test_search_makes_one_stop_test(monkeypatch, params, n):
    # Only the pair at first index g1 + 1 can beat the greedy one: the stop
    # test, the one comparison oracle_best makes through _exceeds itself
    # (_beats makes the others), runs once, against a_{g1+1}, and none runs
    # at g1 + 2 after the candidate is examined.
    stop_tests = []
    exceeds = oracle._exceeds

    def recorded(xs, ys):
        if sys._getframe(1).f_code is oracle.oracle_best.__code__:
            stop_tests.append(ys)
        return exceeds(xs, ys)

    monkeypatch.setattr(oracle, "_exceeds", recorded)
    for theta in window_targets(params, n):
        stop_tests.clear()
        pick = greedy_two_term(params, theta)
        x, a = seq_pair(params, pick.g1)
        assert oracle_best(params, theta).candidates_examined == 2
        assert stop_tests == [(x + seq_pair(params, pick.g2)[0], a)]


@pytest.mark.parametrize("params, n", BIG_WINDOWS[:2], ids=BIG_WINDOW_IDS[:2])
def test_search_multiplies_out_no_three_factor_product(monkeypatch, params, n):
    # The candidate test's sides, (a + c)*x*y and (x + y)*a*c, are never
    # multiplied out, not even on the near-ties inside a window, where the
    # adjacent candidate's D comes from the identity.
    products = []
    prod = sequences.prod
    monkeypatch.setattr(sequences, "prod", lambda xs: products.append(len(xs)) or prod(xs))
    for theta in window_targets(params, n):
        oracle_best(params, theta)
    assert 3 not in products


def beats(a, c, x, y):
    return Fraction(1, a) + Fraction(1, c) > Fraction(1, x) + Fraction(1, y)


def near_tie_quadruples(t):
    # (a, c, x, y) with a > x whose products (a + c)*x*y and (x + y)*a*c
    # leading bits cannot separate, for t past _NEAR_TIE_BITS bits:
    # 1/2t + 1/2t = 1/t = 1/(t+1) + 1/(t(t+1)) ties exactly (D = 4t), and a
    # partner one either side of it wins or loses by a hair; 1/2t + 1/2t =
    # 1/t exactly misses 1/t + 1/y for y past t*2^64 (D = 0), and so does
    # 1/2t + 1/(2t+1) by more (D = -t). This y is past a*x*c as well, so
    # y*D against (a*x)*c would go by bit lengths if D <= 0 went on.
    y = t**3 << 70
    return [
        (2 * t, 2 * t, t + 1, t * (t + 1)),
        (2 * t, 2 * t - 1, t + 1, t * (t + 1)),
        (2 * t, 2 * t + 1, t + 1, t * (t + 1)),
        (2 * t, 2 * t, t, y),
        (2 * t, 2 * t + 1, t, y),
        (2 * t, 2 * t - 1, t, y),
    ]


def test_candidate_test_on_near_ties():
    # The oracle's candidate test against Fraction arithmetic where leading
    # bits leave it open: the constructed ties above, and partners either
    # side of the exact tie c* = a*x*y/(a*x + a*y - x*y) for random terms.
    rng = random.Random(7)
    cases = []
    for bits in (_NEAR_TIE_BITS + 1, 3000, 9000):
        cases += near_tie_quadruples((1 << (bits - 1)) + rng.getrandbits(bits - 1))
        for _ in range(10):
            x = rng.getrandbits(bits) | 1 << (bits - 1)
            a = x + rng.getrandbits(bits - 2)
            y = rng.getrandbits(3 * bits) | 1 << (3 * bits - 1)
            tie, rest = divmod(a * x * y, a * x + a * y - x * y)
            cases += [(a, c, x, y) for c in (tie - 1, tie, tie + 1) if c > 0]
            if not rest:
                cases.append((a, tie, x, y))
    assert all(_leading_exceeds((a + c, x, y), (x + y, a, c)) is None for a, c, x, y in cases)
    for a, c, x, y in cases:
        assert oracle._beats(a, c, x, y) == beats(a, c, x, y), (a.bit_length(), c - a)
    verdicts = {beats(*case) for case in cases}
    assert verdicts == {True, False}


# seeds with chi = 1 (fibonacci, custom:89,144), 5 (lucas) and 11 (custom:4,5)
CHI_SEEDS = [FIB, LUC, SequenceParams(4, 5), SequenceParams(89, 144)]
CHI_SEED_IDS = ["1,1", "3,4", "4,5", "89,144"]


def signed_chi(params, m):
    # (-1)^m*chi, from the seeds
    chi = params.a0 * (params.a0 + params.a1) - params.a1 ** 2
    return chi if m % 2 == 0 else -chi


def adjacent_fits_cases(params, m):
    # (p, q, r1, a, b, s) for targets p/q on both sides of the tie 1/a_m +
    # 1/a_{m+1} = a_{m+2}/(a_m*a_{m+1}), closer than leading bits resolve,
    # and at the tie itself; r1 = p*a_{m-1} - q, which is negative where
    # p/q lies below 1/a_{m-1}, as it does near the tie for even m
    x, a = seq_pair(params, m - 1)
    b = a + x
    cases = []
    for scale in (1, 3, 1 << 80):
        for shift in (-1, 0, 1):
            p, q = (a + b) * scale + shift, a * b * scale
            cases.append((p, q, p * x - q, a, b, signed_chi(params, m)))
    return cases


@pytest.mark.parametrize("params", CHI_SEEDS, ids=CHI_SEED_IDS)
def test_partner_step_on_near_ties(params):
    # _adjacent_fits against Fraction arithmetic where leading bits leave it
    # open, at odd and even m with terms past _NEAR_TIE_BITS
    cases = [case for m in (2900, 2901, 6000, 6001) for case in adjacent_fits_cases(params, m)]
    assert min(case[3].bit_length() for case in cases) > _NEAR_TIE_BITS
    assert all(_leading_exceeds((p, a, b), (q, a + b)) is None for p, q, _, a, b, _ in cases)
    verdicts = []
    for p, q, r1, a, b, s in cases:
        expected = Fraction(p, q) - Fraction(1, a) > Fraction(1, b)
        assert oracle._adjacent_fits(p, q, r1, a, b, s) == expected, (a.bit_length(), p % 7)
        verdicts.append(expected)
    assert set(verdicts) == {True, False}


@pytest.mark.parametrize("params", CHI_SEEDS, ids=CHI_SEED_IDS)
def test_candidate_test_with_the_identity_on_near_ties(params):
    # The adjacent candidate (a_m, a_{m+1}) against x = a_{m-1}: D is
    # (-1)^(m+1)*chi. At odd m, partners y one either side of the exact tie
    # y* = a_{m-1}*a_m*a_{m+1}/chi and y* itself; at even m (D < 0) a y far
    # past a*x*c, where the sides still tie to leading bits. _beats with D
    # given, and with D formed from the terms, against Fraction arithmetic.
    cases = []
    for m in (2901, 6001):
        x, a = seq_pair(params, m - 1)
        c = a + x
        tie, rest = divmod(x * a * c, -signed_chi(params, m))
        cases += [(m, a, c, x, y) for y in (tie - 1, tie + 1) + ((tie,) if not rest else ())]
    for m in (2900, 6000):
        x, a = seq_pair(params, m - 1)
        cases.append((m, a, a + x, x, (x * a * (a + x)) << 70))
    assert all(_leading_exceeds((a + c, x, y), (x + y, a, c)) is None for _, a, c, x, y in cases)
    for m, a, c, x, y in cases:
        d = -signed_chi(params, m)
        assert d == a * x - c * (a - x)
        assert oracle._beats(a, c, x, y, d) == oracle._beats(a, c, x, y) == beats(a, c, x, y), m
    assert {beats(*case[1:]) for case in cases} == {True, False}


def ladder_target(params, k_at):
    # theta_ladder's 10^10000 in-window target k/(a_{2m+2}*k - 1), m = 11962,
    # at k = k_at(lo, hi) among the k that put it inside the window: there
    # p*a_g1 - q = 1
    m = 11962
    window = bad_interval(params, m)
    a = seq_pair(params, 2 * m + 2)[0]
    lo = -(-1 // (a - 1 / window.right))
    hi = -(-1 // (a - 1 / window.left)) - 1
    k = k_at(lo, hi)
    theta = Fraction(k, a * k - 1)
    assert window.left < theta <= window.right
    return theta


@pytest.mark.parametrize("params", [FIB, SequenceParams(4, 5)], ids=["fib", "c45"])
@pytest.mark.parametrize("k_at", [lambda lo, hi: lo, lambda lo, hi: (lo + hi) // 2], ids=["lo", "mid"])
def test_big_in_window_target_multiplies_out_no_big_product(monkeypatch, params, k_at):
    # At theta_ladder's 10^10000 in-window targets the greedy remainder r1 =
    # p*a_g1 - q is formed once, by the first search's last comparison, and
    # the oracle's near-ties go through the identity: sequences.prod sees no
    # factor past 5000 bits. Before, it saw four such calls: p*a_g1 and q
    # (16 613 and 33 223 bits) and both sides of the oracle's partner step.
    theta = ladder_target(params, k_at)
    big = []
    prod = sequences.prod

    def recorded(xs):
        if max(x.bit_length() for x in xs) > 5000:
            big.append([x.bit_length() for x in xs])
        return prod(xs)

    monkeypatch.setattr(sequences, "prod", recorded)
    cls, report = classify(params, theta), oracle_best(params, theta)
    assert big == []
    assert not cls.is_best
    assert disagreement(params, theta, cls, report) is None
    _, (a, _, _, _, r1) = greedy._search(params, theta.numerator, theta.denominator)
    assert r1 == theta.numerator * a - theta.denominator == 1

