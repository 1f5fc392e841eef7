"""Exhaustive search for the best two-term sum strictly under a target.

``oracle_best`` compares the greedy pair with the one pair that an
elementary growth bound, not the classifier's theorem, leaves able to beat
it: the adjacent pair (g1 + 1, g1 + 2). Its docstring proves that no other
pair can win. Every comparison is exact. Past the near-tie cut-off, leading
bits decide first, and ``_adjacent_fits`` and ``_beats`` settle the fit
test's and the candidate test's near-ties from the greedy remainder and the
identity a_{k-1}*a_{k+1} - a_k^2 = (-1)^(k+1)*chi, with chi formed here from
the seeds.
"""

from __future__ import annotations

from collections import namedtuple

from .greedy import TwoTermSum, _require_theta, _terms_of, greedy_two_term
from .rationals import _reciprocal_sum
from .sequences import _NEAR_TIE_BITS, SequenceParams, _exceeds, _leading_exceeds

__all__ = ["OracleReport", "oracle_best"]


def _adjacent_fits(p: int, q: int, r1: int, a: int, b: int, s: int) -> bool:
    """1/a_m + 1/a_{m+1} < p/q for (a, b) = (a_m, a_{m+1}), that is
    p*a*b > q*(a + b), given r1 = p*a_{m-1} - q and s = (-1)^m*chi: whether
    the adjacent pair fits strictly under the target.

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


def _beats(a: int, c: int, x: int, y: int, d: int) -> bool:
    """1/a + 1/c > 1/x + 1/y for positive terms, that is (a + c)*x*y >
    (x + y)*a*c, with neither side multiplied out, given d = a*x - c*(a - x).

    Leading bits decide first. On a near-tie the two sides cancel: their
    difference is (a + c)*x*y - (x + y)*a*c = y*d - a*x*c, by algebra on the
    four terms alone. So the candidate wins exactly when y*d > a*x*c: never
    where d <= 0, and otherwise by that comparison, where a candidate close
    to the best value has a small d. The caller's d is not formed from the
    terms: for the adjacent candidate (a, c) = (a_m, a_{m+1}) against x =
    a_{m-1}, c*(a - x) = (a_m + a_{m-1})*(a_m - a_{m-1}) = a_m^2 -
    a_{m-1}^2, so d = a_{m-1}*(a_m + a_{m-1}) - a_m^2 = a_{m-1}*a_{m+1} -
    a_m^2 = (-1)^(m+1)*chi by the identity of ``oracle_best``.
    """
    decided = _leading_exceeds((a + c, x, y), (x + y, a, c))
    if decided is not None:
        return decided
    return d > 0 and _exceeds((y, d), (a, x, c))


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
    m = g1 no distinct pair beats the greedy one. The greedy value exceeds
    1/a_g1, and one pair alone can reach past it: the adjacent pair
    (g1 + 1, g1 + 2), and only where it fits under theta.

    Growth. a_{k+1} >= (3/2)*a_k for every k >= 1. For k >= 2, a_{k-2} <=
    a_{k-1} gives a_k <= 2*a_{k-1}, so a_{k+1} = a_k + a_{k-1} >= a_k +
    a_k/2. For k = 1, chi > 0 is (a0/a1)^2 + a0/a1 > 1, so a0/a1 > 1/phi and
    a_2/a_1 = 1 + a0/a1 > phi. With r = a_{k+1}/a_k >= 3/2 and a_{k+3} =
    2*a_{k+1} + a_k,

        a_{k+1}*a_{k+3} - a_k*(a_{k+1} + a_{k+3}) = a_k^2*(2r^2 - 2r - 1) > 0,

    since 2r^2 - 2r - 1 = 1/2 at r = 3/2 and grows beyond it. So 1/a_{k+1}
    + 1/a_{k+3} < 1/a_k, and indeed at most (2/3 + 1/4)/a_k = (11/12)/a_k.
    Any other pair m < n with m >= g1 + 1 has n >= g1 + 3, so it sums to at
    most 1/a_{g1+1} + 1/a_{g1+3} < 1/a_g1, below the greedy value: where
    the adjacent pair does not fit, no pair at g1 + 1 or later wins. So the
    greedy pair meets one candidate, (g1 + 1, g1 + 2), which wins exactly
    where it fits strictly under theta and beats the greedy value. The stop
    test, 2/a_{g1+1} against the greedy value, comes first and sets
    ``candidates_examined``: 1 where it rules the candidate out, 2
    otherwise. The candidate replaces the greedy pair only on strict
    improvement, so a tie resolves to the greedy pair, the
    lexicographically smaller.

    Everything between the target and the result is integer work. The
    greedy pick, its terms and r1 = p*a_g1 - q come from ``greedy``'s
    one-entry memo, so after ``classify`` on the same target no greedy
    search runs again, and no index search runs here. With theta = p/q, the
    greedy value held as its two terms 1/x + 1/y, the search's (a_g1, a_g2),
    and the candidate as (a, b) = (a_{g1+1}, a_{g1+2}), where a comes from
    the search too and b = x + a, the stop test passes when 2*x*y > (x +
    y)*a, the candidate fits when p*a*b > q*(a + b), and it wins when (a +
    b)*x*y > (x + y)*a*b. Up to _NEAR_TIE_BITS in a_g2 all three are
    multiplied out. Past it the stop test goes through
    ``sequences._exceeds``, the fit test through ``_adjacent_fits`` and the
    candidate test through ``_beats``, so neither side of any test is
    multiplied out, and big terms are multiplied only on a near-tie that
    leading bits leave open. A winner is built once, by
    ``rationals._reciprocal_sum``; the greedy pair's value is the pick's
    own.

    The identity a_{k-1}*a_{k+1} - a_k^2 = (-1)^(k+1)*chi, for k >= 1 and
    chi = a0*(a0 + a1) - a1^2, settles those near-ties. At k = 1 it is
    a0*a2 - a1^2 = a0*(a0 + a1) - a1^2 = chi. From k to k + 1: a_k*a_{k+2}
    - a_{k+1}^2 = a_k*(a_k + a_{k+1}) - a_{k+1}*(a_{k-1} + a_k) = a_k^2 -
    a_{k-1}*a_{k+1}, the negative of the step before. chi is formed here
    from the seeds, and only where the candidate is examined past the
    cut-off, not read from ``params.chi``, so a fault there is not shared
    with the classifier; nothing here places a window or a cutoff.
    s = (-1)^m*chi for m = g1 + 1 gives ``_adjacent_fits`` its sign and
    ``_beats`` its d = -s.
    """
    t, p, q = _require_theta(theta)
    greedy = greedy_two_term(params, t)
    x, a, y, _, r1 = _terms_of(params, p, q, greedy)  # the greedy value is 1/x + 1/y
    best = TwoTermSum(greedy.g1, greedy.g2, greedy.value)
    m, b = greedy.g1 + 1, x + a  # the candidate is (m, m + 1), and b = a_{m+1}
    big = y.bit_length() > _NEAR_TIE_BITS
    if not (_exceeds((2 * x, y), (x + y, a)) if big else 2 * x * y > (x + y) * a):
        return OracleReport(best=best, candidates_examined=1)
    if big:
        a0, a1 = params
        s = a0 * (a0 + a1) - a1 * a1  # chi
        if m % 2:
            s = -s
        wins = _adjacent_fits(p, q, r1, a, b, s) and _beats(a, b, x, y, -s)
    else:
        wins = p * a * b > q * (a + b) and (a + b) * x * y > (x + y) * a * b
    if wins:
        best = TwoTermSum(m, m + 1, _reciprocal_sum(params, m, a, m + 1, b))
    return OracleReport(best=best, candidates_examined=2)
