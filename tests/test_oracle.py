"""Exhaustive two-term search and its agreement with the classifier."""

from fractions import Fraction

import pytest

from fibgreedy import (
    FIBONACCI,
    LUCAS,
    bad_interval,
    classify,
    greedy_two_term,
    oracle_best,
)
from fibgreedy.verification import disagreement

FIB = FIBONACCI.params
LUC = LUCAS.params


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


class TestCompetitorShape:
    def test_true_inside_window(self):
        iv = bad_interval(LUC, 0)
        midpoint = (iv.left + iv.right) / 2
        result = classify(LUC, midpoint)
        assert not result.is_best
        # includes the check that the winner is the adjacent pair (g1+1, g1+2)
        assert disagreement(midpoint, result, oracle_best(LUC, midpoint)) is None
