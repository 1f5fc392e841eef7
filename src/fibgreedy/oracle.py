"""Exhaustive search for the best two-term sum strictly under a target.

The candidate set is every sum 1/a_m + 1/a_n of two distinct indices
g1 <= m < n, plus the greedy pair itself (which may repeat an index; it is
the value being certified, so it always competes). Any candidate must have
m >= g1, since 1/a_m alone already has to sit under theta, and for m = g1
no distinct pair beats the greedy one.

The first indices m = g1+1, g1+2, ... are walked until a stop rule ends the
search: every pair starting at m sums to less than 2/a_m, and a_m only grows,
so once 2/a_m is at most the best value so far no later candidate can win.
The search is therefore exhaustive by that elementary bound alone, not by the
classifier's theorem. Since a_{g1+2} > 2*a_{g1} and the greedy value exceeds
1/a_{g1}, the rule always stops by m = g1 + 2: at most two candidates are
examined, the greedy pair and the one starting at g1 + 1.

The search takes its greedy pair from ``greedy_two_term`` and starts from
that search's own integers: the terms a_g1 and a_g2, and a_{g1+1}, from
which the walk's first term pair follows by one addition. No term is
evaluated twice. The best value so far is always the pair of terms
1/x + 1/y, so one walk serves every size: small terms multiply its
cross-products out, and for big ones the factors' leading bits decide
(``sequences._leading_exceeds``). The stop rule multiplies out a near-tie
that leading bits leave. The candidate test settles its near-tie by a form
in which the two sides cancel: 1/a + 1/c beats 1/x + 1/y exactly when
y*D > (a*x)*c for D = a*x - c*(a - x), which is small for a candidate close
to the best value. That is algebra on the four terms alone; no sequence
identity enters. Every comparison is exact.
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

    Leading bits decide first. On a near-tie the two sides' difference,
    y*D - (a*x)*c with D = a*x - c*(a - x), decides it: D <= 0 loses, and
    otherwise y*D against (a*x)*c, where a candidate close to the best
    value has a small D.
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
    """Best two-term sum below theta, walking first indices from g1 + 1 until
    2/a_m is no more than the best value so far.

    For each first index the largest admissible sum uses the smallest
    admissible partner, since reciprocals strictly decrease. Candidates are
    walked in lexicographic order and replaced only on strict improvement, so
    ties resolve to the lexicographically smallest pair. One pair
    (a_m, a_{m+1}) rolls along the first indices by the recurrence.

    Everything between the target and the result is integer work: with
    theta = p/q, the partner of a_m is searched under the unreduced remainder
    p*a_m - q over q*a_m, whose denominator goes to the search as its two
    factors q and a_m. The best value so far is held at every size as its two
    terms, 1/x + 1/y, starting from the greedy pair (a_g1, a_g2), so it is
    never reduced: a candidate 1/a_m + 1/c replaces it when
    (a_m + c)*x*y > (x + y)*a_m*c, and the walk stops once 2*x*y <=
    (x + y)*a_m. Up to _NEAR_TIE_BITS in a_g2 both tests are multiplied out;
    past it the stop rule goes through ``sequences._exceeds`` and the
    candidate test through ``_beats``, and the partner search keeps (q, a_m)
    factored past _NEAR_TIE_BITS in a_m. So no product of two big terms is
    formed unless leading bits cannot decide (a candidate that ties the best
    value to within ~1/a_g1^2 can need one, as every target inside a window
    does), and no product of three is formed at all. The winner is kept
    as its indices (m, partner) with its terms (x, y); for a winner that is
    not the greedy pair the search builds one reduced Fraction from them, by
    ``rationals._reciprocal_sum``, and the greedy pair's value is the pick's
    own.
    """
    t = _require_theta(theta)
    p, q = t.numerator, t.denominator
    greedy = greedy_two_term(params, t)
    x, b, y, _ = _terms_of(params, greedy)  # the best value so far is 1/x + 1/y
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
