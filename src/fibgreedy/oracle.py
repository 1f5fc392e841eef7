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
evaluated twice. Every comparison is exact; for big terms the
cross-products are compared by ``sequences._exceeds``, which multiplies out
only a near-tie that the factors' leading bits cannot decide.
"""

from __future__ import annotations

from collections import namedtuple

from .greedy import TwoTermSum, _require_theta, _terms_of, greedy_two_term
from .rationals import _reciprocal_sum
from .sequences import _NEAR_TIE_BITS, SequenceParams, _exceeds, index_below

__all__ = ["OracleReport", "oracle_best"]


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
    p*a_m - q over q*a_m, whose denominator goes to the search as its
    factors (q, a_m), a candidate 1/a_m + 1/c is compared with the best value
    so far, num/den, as (a_m + c)*den > num*a_m*c, and the stop rule is
    2*den <= num*a_m. The greedy value enters as the unreduced
    (a_g1 + a_g2, a_g1*a_g2); the cross-products and the stop rule do not
    need it reduced. Past _NEAR_TIE_BITS in a_g2 the best value so far stays
    as its two terms, 1/x + 1/y: the candidate test is (a_m + c)*x*y >
    (x + y)*a_m*c and the stop rule 2*x*y <= (x + y)*a_m, both decided by
    ``sequences._exceeds``; the partner search keeps (q, a_m) factored past
    _NEAR_TIE_BITS in a_m. So no product of two big terms is formed unless
    leading bits cannot decide (a candidate that ties the best value to
    within ~1/a_g1^2 can need one). The search builds one reduced Fraction,
    by ``rationals._reciprocal_sum`` from the winner's indices (m, partner),
    for a winner that is not the greedy pair; the greedy pair's value is the
    pick's own.
    """
    t = _require_theta(theta)
    p, q = t.numerator, t.denominator
    greedy = greedy_two_term(params, t)
    a, b, c, _ = _terms_of(params, greedy)
    winner, x = None, a
    m, a, b = greedy.g1 + 1, b, a + b
    if c.bit_length() <= _NEAR_TIE_BITS:
        num, den = x + c, x * c
        while 2 * den > num * a:
            partner, c, _ = index_below(params, p * a - q, (q, a), m + 1, b, a + b)
            if (a + c) * den > num * a * c:
                winner, num, den = (m, partner, a, c), a + c, a * c
            m, a, b = m + 1, b, a + b
    else:
        y = c  # the best value so far is 1/x + 1/y
        while _exceeds((2 * x, y), (x + y, a)):
            partner, c, _ = index_below(params, p * a - q, (q, a), m + 1, b, a + b)
            if _exceeds((a + c, x, y), (x + y, a, c)):
                winner, x, y = (m, partner, a, c), a, c
            m, a, b = m + 1, b, a + b
    if winner is None:
        best = TwoTermSum(greedy.g1, greedy.g2, greedy.value)
    else:
        first, second, x, y = winner
        best = TwoTermSum(first, second, _reciprocal_sum(params, first, x, second, y))
    return OracleReport(best=best, candidates_examined=m - greedy.g1)
