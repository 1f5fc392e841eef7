"""Exhaustive two-term search and its agreement with the classifier."""

import sys
from fractions import Fraction

import pytest

from fibgreedy import (
    FIBONACCI,
    LUCAS,
    SequenceParams,
    SequenceValidationError,
    TwoTermSum,
    bad_interval,
    classify,
    greedy_two_term,
    oracle_best,
)
from fibgreedy import greedy, oracle, sequences, verification
from fibgreedy.sequences import _NEAR_TIE_BITS, _leading_exceeds, seq_pair, seq_terms
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


def valid_seeds(bound):
    seeds = []
    for a0 in range(1, bound):
        for a1 in range(a0, bound):
            try:
                seeds.append(SequenceParams(a0, a1))
            except SequenceValidationError:
                pass
    return seeds


# every valid seed with a0, a1 < 30, and the CI sweep's seeds past that: the
# largest n* among a1 < 400, and the a0 = 10^30 and 10^100 seeds
PROOF_SEEDS = valid_seeds(30) + [
    SequenceParams(89, 144),
    SequenceParams(269, 335),
    SequenceParams(10**30, 1459336969024328691631953268896),
    SequenceParams(
        10**100,
        14593369690243286916319532688969588981777419589106904558841650474372256367720404583651944609889118853,
    ),
]


def test_terms_grow_by_half_at_least():
    # oracle_best's growth bound, a_{k+1} >= (3/2)*a_k for k >= 1, on which
    # its one candidate rests
    for params in PROOF_SEEDS:
        terms = seq_terms(params, 201)
        assert all(2 * terms[k + 1] >= 3 * terms[k] for k in range(1, 201)), params


def test_no_pair_at_g1_plus_1_wins_where_the_adjacent_pair_does_not_fit():
    # The proof's case, by brute force in Fractions over the recurrence's
    # terms, with no code shared with the oracle: where the stop test
    # (2/a_{g1+1} above the greedy value) passes but (g1 + 1, g1 + 2) does
    # not fit under theta, the smallest admissible partner of g1 + 1, found
    # by a linear scan, still sums below the greedy value, and indeed to at
    # most (11/12)/a_g1. 84 targets over these seeds reach that case.
    checked = 0
    for params in PROOF_SEEDS:
        recip = [Fraction(1, a) for a in seq_terms(params, 60)]
        for theta in (Fraction(k, n) for n in (97, 240) for k in range(1, n + 1)):
            g1 = next(i for i in range(1, 61) if recip[i] < theta)
            rest = theta - recip[g1]
            greedy_value = recip[g1] + next(r for r in recip[g1:] if r < rest)
            m = g1 + 1
            if 2 * recip[m] <= greedy_value or recip[m] + recip[m + 1] < theta:
                continue
            partner = next(n for n in range(m + 2, 61) if recip[m] + recip[n] < theta)
            best_at_m = recip[m] + recip[partner]
            assert best_at_m < greedy_value and best_at_m <= recip[g1] * 11 / 12, (params, theta)
            checked += 1
    assert checked == 84


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
    # past a*x*c, where the sides still tie to leading bits. _beats with that
    # D against Fraction arithmetic, and D against the four terms.
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
        assert oracle._beats(a, c, x, y, d) == beats(a, c, x, y), m
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
    # (16 613 and 33 223 bits) and both sides of the last comparison of the
    # partner search the oracle then ran.
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

