"""Exhaustive search for the best two-term sum strictly under a target.

``oracle_best`` walks every candidate pair that could beat the greedy one
and stops by an elementary bound, not by the classifier's theorem; its
docstring proves the search exhaustive and that it examines at most two
candidates. Every comparison is exact, and ``_beats`` settles the candidate
test's near-tie.
"""

from __future__ import annotations

from collections import namedtuple

from .greedy import TwoTermSum, _require_theta, _terms_of, greedy_two_term
from .rationals import _reciprocal_sum
from .sequences import _NEAR_TIE_BITS, SequenceParams, _exceeds, _leading_exceeds, index_below

__all__ = ["OracleReport", "oracle_best"]


def _beats(a: int, c: int, x: int, y: int) -> bool:
    """1/a + 1/c > 1/x + 1/y for positive terms, that is (a + c)*x*y >
    (x + y)*a*c, with no product of three big factors formed.

    Leading bits decide first. On a near-tie the two sides cancel: their
    difference is y*D - (a*x)*c with D = a*x - c*(a - x), by algebra on the
    four terms alone, no sequence identity. So D <= 0 loses, and otherwise
    y*D is compared with (a*x)*c, where a candidate close to the best value
    has a small D.
    """
    decided = _leading_exceeds((a + c, x, y), (x + y, a, c))
    if decided is not None:
        return decided
    ax = a * x
    d = ax - c * (a - x)
    return d > 0 and _exceeds((y, d), (ax, c))


class OracleReport(namedtuple("OracleReport", "best candidates_examined")):
    """Search outcome: the winner and the number of candidate pairs
    evaluated, counting the greedy pair (1 or 2)."""

    __slots__ = ()


def oracle_best(params: SequenceParams, theta) -> OracleReport:
    """Best two-term sum below theta.

    The candidates are every sum 1/a_m + 1/a_n of two distinct indices
    g1 <= m < n, plus the greedy pair itself (which may repeat an index; it
    is the value being certified, so it always competes). Any candidate has
    m >= g1, since 1/a_m alone already has to sit under theta, and for
    m = g1 no distinct pair beats the greedy one. For each first index the
    largest admissible sum uses the smallest admissible partner, since
    reciprocals strictly decrease. First indices m = g1+1, g1+2, ... are
    walked in order and the best replaced only on strict improvement, so
    ties resolve to the lexicographically smallest pair. The walk stops once
    2/a_m is at most the best value so far: every pair starting at m sums to
    less than 2/a_m, and a_m only grows, so no later candidate can win.
    Since a_{g1+2} > 2*a_{g1} and the greedy value exceeds 1/a_{g1}, it stops
    by m = g1 + 2: at most two candidates are examined, the greedy pair and
    the one starting at g1 + 1.

    Everything between the target and the result is integer work. The
    greedy pick and its terms come from ``greedy``'s one-entry memo, so
    after ``classify`` on the same target no greedy search runs again. With
    theta = p/q, the partner of a_m is searched under the unreduced
    remainder p*a_m - q over the factors (q, a_m). The best value so far is
    held as its two terms, 1/x + 1/y, the search's (a_g1, a_g2); a_{g1+1}
    comes from the search too, and one pair (a_m, a_{m+1}) rolls along the
    first indices by the recurrence, so no term is evaluated twice. A
    candidate 1/a_m + 1/c replaces the best when (a_m + c)*x*y >
    (x + y)*a_m*c, and the walk stops once 2*x*y <= (x + y)*a_m. Up to
    _NEAR_TIE_BITS in a_g2 both tests are multiplied out; past it the stop
    rule goes through ``sequences._exceeds`` and the candidate test through
    ``_beats``. So no product of three big terms is formed, and one of two
    only where leading bits cannot decide (a candidate within about
    1/a_g1^2 of the best value, as for every target inside a window). A
    winner other than the greedy pair is built once, by
    ``rationals._reciprocal_sum``; the greedy pair's value is the pick's own.
    """
    t, p, q = _require_theta(theta)
    greedy = greedy_two_term(params, t)
    x, b, y, _ = _terms_of(params, p, q, greedy)  # the best value so far is 1/x + 1/y
    big = y.bit_length() > _NEAR_TIE_BITS
    winner = None
    m, a, b = greedy.g1 + 1, b, x + b
    while _exceeds((2 * x, y), (x + y, a)) if big else 2 * x * y > (x + y) * a:
        partner, c, _ = index_below(params, p * a - q, q, a, m + 1, b, a + b)
        if _beats(a, c, x, y) if big else (a + c) * x * y > (x + y) * a * c:
            winner, x, y = (m, partner), a, c
        m, a, b = m + 1, b, a + b
    if winner is None:
        best = TwoTermSum(greedy.g1, greedy.g2, greedy.value)
    else:
        first, second = winner
        best = TwoTermSum(first, second, _reciprocal_sum(params, first, x, second, y))
    return OracleReport(best=best, candidates_examined=m - greedy.g1)
