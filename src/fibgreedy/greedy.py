"""Greedy unit-fraction underapproximation of a target in (0, 1].

The usable terms are a_1, a_2, ... (index 0 never enters the pool). Each step
picks the smallest index, no smaller than the previous pick, whose reciprocal
fits strictly under what remains of the target. Strictness matters: a target
exactly equal to 1/a_n skips index n. Repeating the previous index is legal
and does occur, e.g. seeds (3, 4) at theta = 1 start 1/4 + 1/4.

The two-term pick runs on integers: the remainder theta - 1/a_g1 stays the
unreduced pair (p*a_g1 - q, q*a_g1) and goes straight to the index search,
which only compares cross-products. One reduced Fraction is built for the
returned value.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import TermLimitError, ThetaDomainError
from .sequences import SequenceParams, index_below, seq_pair

__all__ = [
    "GreedyResult",
    "GreedyPrefix",
    "DEFAULT_TERM_LIMIT",
    "greedy_two_term",
    "greedy_prefix",
]

DEFAULT_TERM_LIMIT = 64


def _require_theta(theta) -> Fraction:
    if isinstance(theta, float):
        raise TypeError("theta must be exact (Fraction or int), not float")
    t = theta if isinstance(theta, Fraction) else Fraction(theta)
    if not 0 < t.numerator <= t.denominator:
        raise ThetaDomainError(f"theta must be in (0, 1], got {t}")
    return t


class GreedyResult(namedtuple("GreedyResult", "g1 g2 value")):
    """The greedy two-term pick: indices g1 <= g2 and the exact sum."""

    __slots__ = ()


def greedy_two_term(params: SequenceParams, theta) -> GreedyResult:
    """Greedy pair for theta: the smallest index g1 >= 1 with 1/a_g1 strictly
    below theta, then the smallest g2 >= g1 whose reciprocal fits strictly
    under the remainder.

    With theta = p/q the remainder is kept as the unreduced (p*a_g1 - q,
    q*a_g1); the search compares cross-products, so no Fraction arithmetic
    runs until the returned value is built, once and reduced.
    """
    t = _require_theta(theta)
    p, q = t.numerator, t.denominator
    g1, a, b = index_below(params, p, q, 1, params.a1, params.a0 + params.a1)
    g2, c, _ = index_below(params, p * a - q, q * a, g1, a, b)
    return GreedyResult(g1, g2, Fraction(a + c, a * c))


class GreedyPrefix(namedtuple("GreedyPrefix", "indices partial_sum denominators")):
    """First k greedy indices (non-decreasing), their exact partial sum, and
    the term a_n at each index."""

    __slots__ = ()


def greedy_prefix(params: SequenceParams, theta, k: int) -> GreedyPrefix:
    """First k greedy terms; the first two always match greedy_two_term.

    The remainder stays strictly positive forever, so any k is well defined;
    DEFAULT_TERM_LIMIT merely caps requested work.
    """
    t = _require_theta(theta)
    if k < 1:
        raise ValueError(f"term count must be at least 1, got {k}")
    if k > DEFAULT_TERM_LIMIT:
        raise TermLimitError(f"term count {k} exceeds the limit of {DEFAULT_TERM_LIMIT}")
    indices: list[int] = []
    denominators: list[int] = []
    total = Fraction(0)
    n, a, b = 1, *seq_pair(params, 1)
    for _ in range(k):
        rest = t - total
        n, a, b = index_below(params, rest.numerator, rest.denominator, n, a, b)
        indices.append(n)
        denominators.append(a)
        total += Fraction(1, a)
    return GreedyPrefix(tuple(indices), total, tuple(denominators))
