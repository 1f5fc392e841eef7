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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .greedy import greedy_two_term
from .sequences import SequenceParams, index_below, seq_pair

__all__ = [
    "TwoTermSum",
    "OracleReport",
    "oracle_best",
]


@dataclass(frozen=True)
class TwoTermSum:
    """A pair of indices m <= n and the exact value 1/a_m + 1/a_n."""

    m: int
    n: int
    value: Fraction


@dataclass(frozen=True)
class OracleReport:
    """Search outcome: the winner and the number of candidate pairs
    evaluated, counting the greedy pair (1 or 2)."""

    best: TwoTermSum
    candidates_examined: int


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
    (p*a_m - q, q*a_m), a candidate 1/a_m + 1/c is compared with the best
    value so far, num/den, as (a_m + c)*den > num*a_m*c, and the stop rule
    is 2*den <= num*a_m. One reduced Fraction is built, for a winner that is
    not the greedy pair.
    """
    gr = greedy_two_term(params, theta)  # validates theta
    t = Fraction(theta)
    p, q = t.numerator, t.denominator
    num, den = gr.value.numerator, gr.value.denominator
    winner = None
    m = gr.g1 + 1
    a, b = seq_pair(params, m)
    while 2 * den > num * a:
        partner, c, _ = index_below(params, p * a - q, q * a, m + 1, b, a + b)
        if (a + c) * den > num * a * c:
            winner, num, den = (m, partner), a + c, a * c
        m, a, b = m + 1, b, a + b
    if winner is None:
        best = TwoTermSum(gr.g1, gr.g2, gr.value)
    else:
        best = TwoTermSum(*winner, Fraction(num, den))
    return OracleReport(best=best, candidates_examined=m - gr.g1)
