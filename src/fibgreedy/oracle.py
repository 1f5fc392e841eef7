"""Exhaustive search for the best two-term sum strictly under a target.

``oracle_best`` compares the greedy pair with the one candidate that an
elementary bound, not the classifier's theorem, leaves able to beat it: the
pair starting at first index g1 + 1. Its docstring proves that no other
first index can win. Every comparison is exact. Past the near-tie cut-off,
leading bits decide first, and ``_adjacent_fits`` and ``_beats`` settle the
partner step's and the candidate test's near-ties from the greedy
remainder and the identity a_{k-1}*a_{k+1} - a_k^2 = (-1)^(k+1)*chi, with
chi formed here from the seeds.
"""

from __future__ import annotations

from collections import namedtuple

from .greedy import TwoTermSum, _require_theta, _terms_of, greedy_two_term
from .rationals import _reciprocal_sum
from .sequences import _NEAR_TIE_BITS, SequenceParams, _exceeds, _leading_exceeds, index_below

__all__ = ["OracleReport", "oracle_best"]


def _adjacent_fits(p: int, q: int, r1: int, a: int, b: int, s: int) -> bool:
    """1/a_{m+1} < p/q - 1/a_m for (a, b) = (a_m, a_{m+1}), that is
    p*a*b > q*(a + b), given r1 = p*a_{m-1} - q and s = (-1)^m*chi. It is
    the partner search's first comparison from m + 1, (p*a_m - q)*a_{m+1} >
    q*a_m, rearranged: the partner is m + 1 exactly when it holds.

    Leading bits decide first. On a near-tie the identity does, exactly:
    with a_{m+2} = a + b and q = p*a_{m-1} - r1,

        p*a_m*a_{m+1} - q*a_{m+2}
            = r1*a_{m+2} + p*(a_m*a_{m+1} - a_{m-1}*a_{m+2}),

    and a_m*a_{m+1} - a_{m-1}*a_{m+2} = a_m*(a_m + a_{m-1}) -
    a_{m-1}*(a_{m+1} + a_m) = a_m^2 - a_{m-1}*a_{m+1} = (-1)^m*chi by the
    identity of ``oracle_best``. So the sign of r1*(a + b) + p*s is the
    comparison's, for any p, q and r1 so defined. p*a_m - q is not formed,
    and the one product, r1*(a + b), is small where r1 is: at a target
    k/(a_{m-1}*k - 1), r1 = 1.
    """
    decided = _leading_exceeds((p, a, b), (q, a + b))
    if decided is not None:
        return decided
    return r1 * (a + b) + p * s > 0


def _beats(a: int, c: int, x: int, y: int, d: int | None = None) -> bool:
    """1/a + 1/c > 1/x + 1/y for positive terms, that is (a + c)*x*y >
    (x + y)*a*c, with neither side multiplied out.

    Leading bits decide first. On a near-tie the two sides cancel: their
    difference is (a + c)*x*y - (x + y)*a*c = y*D - a*x*c with D = a*x -
    c*(a - x), by algebra on the four terms alone. So the candidate wins
    exactly when y*D > a*x*c: never where D <= 0, and otherwise by that
    comparison, where a candidate close to the best value has a small D.
    D is formed from the four terms, unless the
    caller gives it: for the adjacent candidate (a, c) = (a_m, a_{m+1})
    against x = a_{m-1}, c*(a - x) = (a_m + a_{m-1})*(a_m - a_{m-1}) = a_m^2
    - a_{m-1}^2, so D = a_{m-1}*(a_m + a_{m-1}) - a_m^2 = a_{m-1}*a_{m+1} -
    a_m^2 = (-1)^(m+1)*chi by the identity of ``oracle_best``, and neither
    a*x nor c*(a - x) is formed.
    """
    decided = _leading_exceeds((a + c, x, y), (x + y, a, c))
    if decided is not None:
        return decided
    if d is None:
        ax = a * x
        d, sides = ax - c * (a - x), (ax, c)
    else:
        sides = (a, x, c)
    return d > 0 and _exceeds((y, d), sides)


class OracleReport(namedtuple("OracleReport", "best candidates_examined")):
    """Search outcome: the winner and the number of candidate pairs
    examined, 1 for the greedy pair alone and 2 where the stop test let the
    pair at first index g1 + 1 compete."""

    __slots__ = ()


def oracle_best(params: SequenceParams, theta) -> OracleReport:
    """Best two-term sum below theta.

    The candidates are every sum 1/a_m + 1/a_n of two distinct indices
    g1 <= m < n, plus the greedy pair itself (which may repeat an index; it
    is the value being certified, so it always competes). Any candidate has
    m >= g1, since 1/a_m alone already has to sit under theta, and for
    m = g1 no distinct pair beats the greedy one. For each first index the
    largest admissible sum uses the smallest admissible partner, since
    reciprocals strictly decrease.

    No first index past g1 + 1 can win. Every pair starting at m sums to
    less than 2/a_m, and for m >= g1 + 2, 2/a_m <= 2/a_{g1+2} < 1/a_g1,
    since a_{g1+2} > 2*a_g1; the greedy value exceeds 1/a_g1. So the greedy
    pair meets one candidate, the pair starting at m = g1 + 1 with its
    smallest partner, and only where the stop test, 2/a_m against the
    greedy value, leaves it a chance. It replaces the greedy pair only on
    strict improvement, so a tie resolves to the greedy pair, the
    lexicographically smaller. Two candidates are examined at most: the
    greedy pair and that one.

    Everything between the target and the result is integer work. The
    greedy pick, its terms and r1 = p*a_g1 - q come from ``greedy``'s
    one-entry memo, so after ``classify`` on the same target no greedy
    search runs again. With theta = p/q, the partner of a_m is searched
    under the unreduced remainder p*a_m - q over the factors (q, a_m). The
    greedy value is held as its two terms, 1/x + 1/y, the search's (a_g1,
    a_g2); a_m = a_{g1+1} comes from the search too and a_{m+1} = a_g1 +
    a_m, so no term is evaluated afresh. The stop test gives the candidate
    its chance when 2*x*y > (x + y)*a_m, and the candidate 1/a_m + 1/c wins
    when (a_m + c)*x*y > (x + y)*a_m*c. Up to _NEAR_TIE_BITS in a_g2 the
    partner is searched and both tests are multiplied out. Past it the stop
    test goes through ``sequences._exceeds`` and the candidate test through
    ``_beats``, and the partner m + 1 is tried first by ``_adjacent_fits``,
    which forms no p*a_m - q; only where it does not fit is the partner
    searched, from m + 1. So neither side of either test is multiplied out,
    and big terms are multiplied only on a near-tie that leading bits leave
    open. A winner other than the greedy pair is built once, by
    ``rationals._reciprocal_sum``; the greedy pair's value is the pick's own.

    The identity a_{k-1}*a_{k+1} - a_k^2 = (-1)^(k+1)*chi, for k >= 1 and
    chi = a0*(a0 + a1) - a1^2, settles those near-ties. At k = 1 it is
    a0*a2 - a1^2 = a0*(a0 + a1) - a1^2 = chi. From k to k + 1: a_k*a_{k+2}
    - a_{k+1}^2 = a_k*(a_k + a_{k+1}) - a_{k+1}*(a_{k-1} + a_k) = a_k^2 -
    a_{k-1}*a_{k+1}, the negative of the step before. chi is formed here
    from the seeds, and only where the candidate is examined past the
    cut-off, not read from ``params.chi``, so a fault there is not shared
    with the classifier; nothing here places a window or a cutoff.
    s = (-1)^m*chi gives ``_adjacent_fits`` its sign and the adjacent
    candidate (m, m + 1) against x = a_g1 its D = -s in ``_beats``.
    """
    t, p, q = _require_theta(theta)
    greedy = greedy_two_term(params, t)
    x, a, y, _, r1 = _terms_of(params, p, q, greedy)  # the greedy value is 1/x + 1/y
    best = TwoTermSum(greedy.g1, greedy.g2, greedy.value)
    m, b = greedy.g1 + 1, x + a  # the candidate's first index, and a_{m+1}
    big = y.bit_length() > _NEAR_TIE_BITS
    if not (_exceeds((2 * x, y), (x + y, a)) if big else 2 * x * y > (x + y) * a):
        return OracleReport(best=best, candidates_examined=1)
    if big:
        a0, a1 = params
        s = a0 * (a0 + a1) - a1 * a1  # chi
        if m % 2:
            s = -s
    if big and _adjacent_fits(p, q, r1, a, b, s):
        partner, c, d = m + 1, b, -s
    else:
        partner, c, _, _ = index_below(params, p * a - q, q, a, m + 1, b, a + b)
        d = None
    if _beats(a, c, x, y, d) if big else (a + c) * x * y > (x + y) * a * c:
        best = TwoTermSum(m, partner, _reciprocal_sum(params, m, a, partner, c))
    return OracleReport(best=best, candidates_examined=2)
