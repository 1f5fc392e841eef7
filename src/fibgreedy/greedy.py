"""Greedy unit-fraction underapproximation of a target in (0, 1].

The usable terms are a_1, a_2, ... (index 0 never enters the pool). Each step
picks the smallest index, no smaller than the previous pick, whose reciprocal
fits strictly under what remains of the target. Strictness matters: a target
exactly equal to 1/a_n skips index n. Repeating the previous index is legal
and does occur, e.g. seeds (3, 4) at theta = 1 start 1/4 + 1/4.

Both entry points run on integers and build one reduced Fraction, for the
returned value; ``_search``, behind ``greedy_two_term``, gives the remainder
form. It memoizes one target's pick with the terms its search found and the
first remainder's numerator: ``classify`` and ``oracle_best`` each ask
``greedy_two_term`` for the pick of their target, the second finds the
first's, and both read its terms through ``_terms_of``. ``TwoTermSum``, the
record for any pair and its value, lives here beside ``GreedyResult``, so the
classifier and the search both import it from below and neither imports the
other.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import TermLimitError, ThetaDomainError
from .rationals import _coprime, _reciprocal_sum
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
    if isinstance(theta, Fraction):
        t = theta
    elif isinstance(theta, float):
        raise TypeError("theta must be exact (Fraction or int), not float")
    else:
        t = Fraction(theta)
    p, q = t.as_integer_ratio()
    if not 0 < p <= q:
        raise ThetaDomainError(f"theta must be in (0, 1], got {t}")
    return t, p, q


class GreedyResult(namedtuple("GreedyResult", "g1 g2 value")):
    """The greedy two-term pick: indices g1 <= g2 and the exact sum."""

    __slots__ = ()


class TwoTermSum(namedtuple("TwoTermSum", "m n value")):
    """A pair of indices m <= n and the exact value 1/a_m + 1/a_n."""

    __slots__ = ()


def greedy_two_term(params: SequenceParams, theta) -> GreedyResult:
    """Greedy pair for theta: the smallest index g1 >= 1 with 1/a_g1 strictly
    below theta, then the smallest g2 >= g1 whose reciprocal fits strictly
    under the remainder. Asked for the last target again, in any form that
    reduces to it, it returns the same record without a second search."""
    _, p, q = _require_theta(theta)
    return _search(params, p, q)[0]


@lru_cache(maxsize=1)
def _search(
    params: SequenceParams, p: int, q: int
) -> tuple[GreedyResult, tuple[int, int, int, int, int]]:
    """The greedy pick for theta = p/q in lowest terms, and what its search
    found, (a_g1, a_{g1+1}, a_g2, a_{g2+1}, r1) with r1 = p*a_g1 - q.

    The remainder is kept as the unreduced (r1, q*a_g1); the search compares
    cross-products, so no Fraction arithmetic runs until the returned value
    is built, once and reduced, by ``rationals._reciprocal_sum``. r1 is
    formed once: where leading bits cannot settle the first search's last
    comparison, p*a_g1 > q, as inside a window past _NEAR_TIE_BITS, where
    p*a_g1 - q is tiny next to q, the search forms it and hands it back;
    otherwise it is formed here. The second search and the classifier's and
    the oracle's near-ties all read this one r1. The two steps are written
    out: a loop shared with ``greedy_prefix`` would cost about 1 us a call.

    One entry is kept, keyed by the seeds and the reduced target, and the
    next distinct key replaces it: the memo never holds more than one pick,
    its four terms and r1, tens of KB at a 10^10000 target.
    """
    g1, a, b, r1 = index_below(params, p, q, 1, 1, params.a1, params.a0 + params.a1)
    if r1 is None:
        r1 = p * a - q
    g2, c, d, _ = index_below(params, r1, q, a, g1, a, b)
    return GreedyResult(g1, g2, _reciprocal_sum(params, g1, a, g2, c)), (a, b, c, d, r1)


def _terms_of(
    params: SequenceParams, p: int, q: int, pick: GreedyResult
) -> tuple[int, int, int, int, int]:
    """(a_g1, a_{g1+1}, a_g2, a_{g2+1}, p*a_g1 - q) of a pick for theta =
    p/q: the memo's when the memo's pick is this very record, as the one
    ``greedy_two_term`` just returned for p/q is, or, for a GreedyResult
    built any other way, evaluated afresh (after a search, should the memo
    hold another target)."""
    found, terms = _search(params, p, q)
    if found is pick:
        return terms
    a, b = seq_pair(params, pick.g1)
    return (a, b, *seq_pair(params, pick.g2), p * a - q)


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
    _require_int("term count", k, least=1)
    if k > DEFAULT_TERM_LIMIT:
        raise TermLimitError(f"term count {k} exceeds the limit of {DEFAULT_TERM_LIMIT}")
    indices: list[int] = []
    denominators: list[int] = []
    num, den = p, q
    n, a, b = 1, params.a1, params.a0 + params.a1
    for _ in range(k):
        n, a, b, rem = index_below(params, num, den, 1, n, a, b)
        indices.append(n)
        denominators.append(a)
        num, den = num * a - den if rem is None else rem, den * a
    total = p * (den // q) - num  # den is q times the terms: theta - num/den over den
    g = gcd(total, den)
    return GreedyPrefix(tuple(indices), _coprime(total // g, den // g), tuple(denominators))
