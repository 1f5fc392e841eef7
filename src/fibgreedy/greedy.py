"""Greedy unit-fraction underapproximation of a target in (0, 1].

The usable terms are a_1, a_2, ... (index 0 never enters the pool). Each step
picks the smallest index, no smaller than the previous pick, whose reciprocal
fits strictly under what remains of the target. Strictness matters: a target
exactly equal to 1/a_n skips index n. Repeating the previous index is legal
and does occur, e.g. seeds (3, 4) at theta = 1 start 1/4 + 1/4.

Both entry points run on integers and build one reduced Fraction, for the
returned value; ``greedy_two_term`` gives the remainder form. A pick from
``greedy_two_term`` keeps the terms its search found, which ``classify`` and
``oracle_best`` read through ``_terms_of``. ``TwoTermSum``, the record for
any pair and its value, lives here beside ``GreedyResult``, so the
classifier and the search both import it from below and neither imports the
other.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import TermLimitError, ThetaDomainError
from .rationals import _reciprocal_sum
from .sequences import SequenceParams, _require_int, index_below, seq_pair

__all__ = [
    "GreedyResult",
    "TwoTermSum",
    "GreedyPrefix",
    "DEFAULT_TERM_LIMIT",
    "greedy_two_term",
    "greedy_prefix",
]

DEFAULT_TERM_LIMIT = 64


def _require_theta(theta) -> tuple[Fraction, int, int]:
    """(theta, p, q) for an exact target theta = p/q in (0, 1]: the one reader
    of a target's numerator and denominator."""
    if isinstance(theta, float):
        raise TypeError("theta must be exact (Fraction or int), not float")
    t = theta if isinstance(theta, Fraction) else Fraction(theta)
    p, q = t.numerator, t.denominator
    if not 0 < p <= q:
        raise ThetaDomainError(f"theta must be in (0, 1], got {t}")
    return t, p, q


class GreedyResult(namedtuple("GreedyResult", "g1 g2 value")):
    """The greedy two-term pick: indices g1 <= g2 and the exact sum."""

    # (a_g1, a_{g1+1}, a_g2, a_{g2+1}): greedy_two_term writes them into the
    # instance dict, outside the tuple, and _terms_of reads them. Assignment
    # is refused, so the record stays immutable.
    _terms = None

    def __setattr__(self, name, value):
        raise AttributeError(f"GreedyResult is immutable, cannot set {name!r}")


class TwoTermSum(namedtuple("TwoTermSum", "m n value")):
    """A pair of indices m <= n and the exact value 1/a_m + 1/a_n."""

    __slots__ = ()


def greedy_two_term(params: SequenceParams, theta) -> GreedyResult:
    """Greedy pair for theta: the smallest index g1 >= 1 with 1/a_g1 strictly
    below theta, then the smallest g2 >= g1 whose reciprocal fits strictly
    under the remainder.

    With theta = p/q the remainder is kept as the unreduced (p*a_g1 - q,
    q*a_g1); the search compares cross-products, so no Fraction arithmetic
    runs until the returned value is built, once and reduced, by
    ``rationals._reciprocal_sum``. The two steps are written out: a loop
    shared with ``greedy_prefix`` would cost about 1 us a call.
    """
    _, p, q = _require_theta(theta)
    g1, a, b = index_below(params, p, q, 1, 1, params.a1, params.a0 + params.a1)
    g2, c, d = index_below(params, p * a - q, q, a, g1, a, b)
    pick = GreedyResult(g1, g2, _reciprocal_sum(params, g1, a, g2, c))
    pick.__dict__["_terms"] = a, b, c, d
    return pick


def _terms_of(params: SequenceParams, pick: GreedyResult) -> tuple[int, int, int, int]:
    """(a_g1, a_{g1+1}, a_g2, a_{g2+1}) of a pick: the terms its search kept,
    or, for a GreedyResult built any other way, the terms evaluated afresh."""
    if pick._terms is not None:
        return pick._terms
    return (*seq_pair(params, pick.g1), *seq_pair(params, pick.g2))


class GreedyPrefix(namedtuple("GreedyPrefix", "indices partial_sum denominators")):
    """First k greedy indices (non-decreasing), their exact partial sum, and
    the term a_n at each index."""

    __slots__ = ()


def greedy_prefix(params: SequenceParams, theta, k: int) -> GreedyPrefix:
    """First k greedy terms; the first two always match greedy_two_term.

    The remainder stays strictly positive forever, so any k is well defined;
    DEFAULT_TERM_LIMIT merely caps requested work. The partial sum is built
    once, from the last remainder.
    """
    _, p, q = _require_theta(theta)
    _require_int("term count", k, nonnegative=False)
    if k < 1:
        raise ValueError(f"term count must be at least 1, got {k}")
    if k > DEFAULT_TERM_LIMIT:
        raise TermLimitError(f"term count {k} exceeds the limit of {DEFAULT_TERM_LIMIT}")
    indices: list[int] = []
    denominators: list[int] = []
    num, den = p, q
    n, a, b = 1, params.a1, params.a0 + params.a1
    for _ in range(k):
        n, a, b = index_below(params, num, den, 1, n, a, b)
        indices.append(n)
        denominators.append(a)
        num, den = num * a - den, den * a
    # den is q times the terms, so theta - num/den is over den too
    total = Fraction(p * (den // q) - num, den)
    return GreedyPrefix(tuple(indices), total, tuple(denominators))
