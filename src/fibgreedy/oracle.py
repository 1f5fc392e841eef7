"""Exhaustive search for the best two-term sum strictly under a target.

The candidate set is every sum 1/a_m + 1/a_n of two distinct indices
g1 <= m < n, plus the greedy pair itself (which may repeat an index; it is
the value being certified, so it always competes). Any candidate must have
m >= g1, since 1/a_m alone already has to sit under theta.

Truncating the first index is sound: for m >= g1 + 2 even the largest
possible candidate is below 1/a_m + 1/a_{m+1} < 2/a_m <= 2/a_{g1+2}
< 1/a_g1 < the greedy value, because a_{k+2} > 2*a_k for k >= 1. So depth 2
already suffices; the default extra_depth of 8 is pure margin, and the
verification suites confirm the winner's first index never exceeds g1 + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .greedy import greedy_two_term
from .sequences import SequenceParams, index_below, seq_pair

__all__ = [
    "TwoTermSum",
    "OracleReport",
    "DEFAULT_EXTRA_DEPTH",
    "oracle_best",
]

DEFAULT_EXTRA_DEPTH = 8


@dataclass(frozen=True)
class TwoTermSum:
    """A pair of indices m <= n and the exact value 1/a_m + 1/a_n."""

    m: int
    n: int
    value: Fraction


@dataclass(frozen=True)
class OracleReport:
    """Search outcome: the winner, the last first-index examined, and the
    number of candidate pairs evaluated."""

    best: TwoTermSum
    search_bound: int
    candidates_examined: int


def oracle_best(
    params: SequenceParams, theta, extra_depth: int = DEFAULT_EXTRA_DEPTH
) -> OracleReport:
    """Best two-term sum below theta, scanning first indices g1..g1+extra_depth.

    For each first index the largest admissible sum uses the smallest
    admissible partner, since reciprocals strictly decrease. Candidates are
    walked in lexicographic order and replaced only on strict improvement, so
    ties resolve to the lexicographically smallest pair. One pair
    (a_m, a_{m+1}) rolls along the first indices by the recurrence.

    Everything between the target and the result is integer work: with
    theta = p/q, the partner of a_m is searched under the unreduced remainder
    (p*a_m - q, q*a_m), and a candidate 1/a_m + 1/c is compared with the best
    value so far, num/den, as (a_m + c)*den > num*a_m*c. One reduced Fraction
    is built, for a winner that is not the greedy pair.
    """
    if extra_depth < 0:
        raise ValueError(f"extra_depth must be nonnegative, got {extra_depth}")
    gr = greedy_two_term(params, theta)  # validates theta
    t = Fraction(theta)
    p, q = t.numerator, t.denominator
    num, den = gr.value.numerator, gr.value.denominator
    winner = None
    a, b = seq_pair(params, gr.g1 + 1)
    for m in range(gr.g1 + 1, gr.g1 + extra_depth + 1):
        partner, c, _ = index_below(params, p * a - q, q * a, m + 1, b, a + b)
        if (a + c) * den > num * a * c:
            winner, num, den = (m, partner), a + c, a * c
        a, b = b, a + b
    if winner is None:
        best = TwoTermSum(gr.g1, gr.g2, gr.value)
    else:
        best = TwoTermSum(*winner, Fraction(num, den))
    return OracleReport(
        best=best, search_bound=gr.g1 + extra_depth, candidates_examined=extra_depth + 1
    )
