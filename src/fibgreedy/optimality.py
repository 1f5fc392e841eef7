"""Deciding whether the greedy two-term pick is the best one possible.

For each even first index 2n+2 there is a single half-open window of targets

    ( 1/a_{2n+3} + 1/a_{2n+4},  1/a_{2n+2} + 1/a_{2n+3+xi(n)} ]

on which the adjacent pair (2n+3, 2n+4) strictly beats the greedy pick;
outside every window greedy wins, and an odd first index always wins. The
window's right edge is governed by the cutoff xi(n): the largest shift s
such that a_{2n+3+s} * chi still fits under a_{2n+2} * a_{2n+3} * a_{2n+4}.

Window n sits strictly inside the band (1/a_{2n+2}, 1/a_{2n+1}) of targets
whose greedy first index is exactly 2n+2, so classification needs only one
membership test; windows never touch and march strictly downward.

Inside window n the greedy second index is always g2 = 2n+4+xi(n). The left
end equals 1/a_{2n+2} + chi/bound, where bound = a_{2n+2}a_{2n+3}a_{2n+4},
so inside the window the remainder theta - 1/a_{2n+2} lies in
(chi/bound, 1/a_{2n+3+xi(n)}], and 2n+4+xi(n) is the first index whose
reciprocal fits under it. Conversely, above the left end, a_g2 * chi > bound
holds exactly when g2 >= 2n+4+xi(n), that is when theta is at most the right
end. ``classify`` therefore reads the window off the greedy pick and runs no
cutoff search of its own.

``xi`` and ``bad_interval`` find the cutoff with integers only. Past
_NEAR_TIE_BITS in a_{2n+3}, bounds from leading bits decide it: one doubling
step from the exact F(2n+2), F(2n+3) bounds the terms near index 6n+6, the
recurrence walks those bounds to the cutoff, and neither the term
a_{2n+3+xi(n)} nor, for ``bad_interval``, the bound is formed for the
search. Below the switch, and on a near-tie the bounds cannot decide, one
predict-then-certify index search runs against the formed bound. The cutoff
also has an equivalent definition through Fibonacci factors, the largest s
with a_{2n+2}*F(s) + a_{2n+3}*F(s+1) <= bound/chi; ``verification.xi_literal``
evaluates that form against the integer bound // chi, by a plain walk up
from s = 0, and serves as an independent reference for ``xi``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import SelfCheckError
from .greedy import TwoTermSum, _require_theta, _terms_of, greedy_two_term
from .rationals import _reciprocal_sum, approx_decimal, format_rational
from .sequences import (
    _NEAR_TIE_BITS,
    SequenceParams,
    SequencePreset,
    _exceeds,
    _fib_pair,
    _lead,
    index_below,
    seq_pair,
)

__all__ = [
    "XiResult",
    "BadInterval",
    "Classification",
    "xi",
    "xi_closed_form",
    "bad_interval",
    "bad_interval_record",
    "classify",
]


class XiResult(namedtuple("XiResult", "n xi bound chi")):
    """Cutoff at window index n, with the product bound and chi used."""

    __slots__ = ()


def _leading_cutoff(chi: int, m: int, f: int, g: int, a2: int, a3: int, a4: int) -> int | None:
    """Smallest index k with a_k * chi > a2 * a3 * a4, decided from leading
    bits, or None where they cannot decide it. (f, g) is (F(m), F(m+1)) and
    (a2, a3, a4) is (a_m, a_{m+1}, a_{m+2}).

    128-bit floor leads x >> s <= x / 2^s < (x >> s) + 1 of F(m-1), F(m),
    F(m+1), a_m and a_{m+1} bound, after one doubling step,

        a_{3m}   = F(2m-1) * a_m + F(2m) * a_{m+1},
        a_{3m+1} = F(2m) * a_m + F(2m+1) * a_{m+1},

    where F(2m-1) = F(m-1)^2 + F(m)^2, F(2m) = F(m) * (F(m) + 2F(m-1)) and
    F(2m+1) = F(m)^2 + F(m+1)^2. Every coefficient is positive, so the floors
    give lower bounds and the floors plus one upper bounds. The pair jumps by
    ``index_below``'s bit-length guess t, which never overshoots, through
    a_{3m+t} = F(t-1) * a_{3m} + F(t) * a_{3m+1}, and then walks up the
    recurrence, lower bounds adding to lower bounds and upper to upper. The
    product's bounds come from ``_lead``. The first index must be certified
    at or below the product, and each later one on one side of it.
    """
    total, b_lo, b_hi, b_shift = _lead((a2, a3, a4))
    s = max(g.bit_length() - 128, 0)
    r = max(a3.bit_length() - 128, 0)
    # F(m-1), F(m), F(m+1) in units of 2^s; a_m, a_{m+1} in units of 2^r
    leads = ((g - f) >> s, f >> s, g >> s, a2 >> r, a3 >> r)
    pairs = []
    for e in (0, 1):  # lower bounds, then upper ones, in units of 2^(2s+r)
        u, v, w, x, y = (lead + e for lead in leads)
        p, q, z = u * u + v * v, v * (v + 2 * u), v * v + w * w  # F(2m-1), F(2m), F(2m+1)
        pairs.append((p * x + q * y, q * x + z * y))
    (lo, lo1), (hi, hi1) = pairs
    # bits(bound) >= total - 2 and bits(a_{3m}) <= bits(hi) + 2s + r
    t = (total - chi.bit_length() - hi.bit_length() - 2 * s - r - 4) * 1000000 // 694242
    t = max(t, 0)
    ft, ft1 = _fib_pair(t)
    ft0 = ft1 - ft  # F(t-1)
    lo, lo1 = ft0 * lo + ft * lo1, ft * lo + ft1 * lo1
    hi, hi1 = ft0 * hi + ft * hi1, ft * hi + ft1 * hi1
    shift = 2 * s + r - b_shift
    if shift >= 0:
        chi <<= shift
    else:
        b_lo, b_hi = b_lo << -shift, b_hi << -shift
    if chi * hi > b_lo:
        return None
    k = 3 * m + t
    while True:
        k, lo, hi, lo1, hi1 = k + 1, lo1, hi1, lo + lo1, hi + hi1
        if chi * lo > b_hi:
            return k
        if chi * hi > b_lo:
            return None


def _cutoff(
    params: SequenceParams, n: int
) -> tuple[int, int, int, int | None, int, int | None]:
    """(a_{2n+2}, a_{2n+3}, a_{2n+4}, bound, xi(n), a_{2n+3+xi(n)}) for window
    index n >= 0, where bound = a_{2n+2} * a_{2n+3} * a_{2n+4}.

    xi(n) is the smallest s >= 0 with a_{2n+4+s} * chi > bound. Past
    _NEAR_TIE_BITS in a_{2n+3}, ``_leading_cutoff`` decides it from leading
    bits, and bound and a_{2n+3+xi(n)} come back as None, neither formed.
    Otherwise, and wherever leading bits cannot decide, one index search
    from 2n+4 finds it against the formed bound.
    """
    if n < 0:
        raise ValueError(f"window index must be nonnegative, got {n}")
    m = 2 * n + 2
    f, g = _fib_pair(m)  # F(m), F(m+1), kept for _leading_cutoff
    a2, a3 = params.a0 * (g - f) + params.a1 * f, params.a0 * f + params.a1 * g
    a4 = a2 + a3
    chi = params.chi
    if a3.bit_length() > _NEAR_TIE_BITS:
        end = _leading_cutoff(chi, m, f, g, a2, a3, a4)
        if end is not None:
            return a2, a3, a4, None, end - (m + 2), None
    bound = a2 * a3 * a4
    if a3 * chi > bound:
        # equivalent to chi > a_{2n+2}*a_{2n+4}, impossible for valid seeds
        raise SelfCheckError(f"cutoff undefined at n={n} for {params}")
    end, a_end, a_next = index_below(params, chi, bound, 1, m + 2, a4, a3 + a4)
    return a2, a3, a4, bound, end - (m + 2), a_next - a_end


def xi(params: SequenceParams, n: int) -> XiResult:
    """Cutoff xi(n): largest s with a_{2n+3+s} * chi <= the product bound.

    Found with integers only: past _NEAR_TIE_BITS in a_{2n+3} from leading
    bits, which leave the term a_{2n+3+xi(n)} unformed; otherwise, or on a
    near-tie, by one index search that predicts the cutoff from bit lengths
    and certifies it exactly. The bound is formed either way, since it is
    part of the result.
    """
    a2, a3, a4, bound, s, _ = _cutoff(params, n)
    if bound is None:
        bound = a2 * a3 * a4
    return XiResult(n=n, xi=s, bound=bound, chi=params.chi)


def xi_closed_form(preset: SequencePreset, n: int) -> int | None:
    """Closed-form cutoff: 4n+4 for fibonacci, 4n+6 for lucas, None for every
    other sequence. The one place that knows which sequences have one."""
    if n < 0:
        raise ValueError(f"window index must be nonnegative, got {n}")
    if preset.name == "fibonacci":
        return 4 * n + 4
    if preset.name == "lucas":
        return 4 * n + 6
    return None


class BadInterval(namedtuple("BadInterval", "n left right xi")):
    """Window n of targets where greedy loses: left excluded, right included."""

    __slots__ = ()

    def covers(self, theta: Fraction) -> bool:
        return self.left < theta <= self.right


def _window(
    params: SequenceParams, n: int, a2: int, a3: int, a4: int, x: int, a_cut: int
) -> BadInterval:
    left = _reciprocal_sum(params, 2 * n + 3, a3, 2 * n + 4, a4)
    right = _reciprocal_sum(params, 2 * n + 2, a2, 2 * n + 3 + x, a_cut)
    return BadInterval(n=n, left=left, right=right, xi=x)


def bad_interval(params: SequenceParams, n: int) -> BadInterval:
    """Endpoints of window n, exactly."""
    a2, a3, a4, _, x, a_cut = _cutoff(params, n)
    if a_cut is None:
        a_cut = seq_pair(params, 2 * n + 3 + x)[0]
    return _window(params, n, a2, a3, a4, x, a_cut)


def bad_interval_record(interval: BadInterval) -> dict:
    """Serialization row for one window; approx fields are display-only."""
    return {
        "n": interval.n,
        "xi": interval.xi,
        "left": format_rational(interval.left),
        "right": format_rational(interval.right),
        "left_approx": approx_decimal(interval.left),
        "right_approx": approx_decimal(interval.right),
    }


class Classification(
    namedtuple("Classification", "theta greedy is_best witness_interval competitor")
):
    """Verdict for one target: greedy result, best-or-not, and when beaten,
    the witnessing window plus the pair that wins there."""

    __slots__ = ()


def classify(params: SequenceParams, theta) -> Classification:
    """Decide whether the greedy pick is best for theta.

    An odd greedy first index is always best. An even first index 2m+2 is
    tested against window m alone; nesting makes other windows unreachable.
    When beaten, the winning competitor is the adjacent pair (2m+3, 2m+4),
    whose value is the window's left endpoint.

    The window's terms come from the greedy search: (a_{2m+2}, a_{2m+3}) are
    (a_g1, a_{g1+1}), and theta = p/q is inside exactly when it is above the
    left end 1/a2 + chi/bound, (p*a2 - q)*a3*a4 > chi*q, and g2 is the
    cutoff index 2m+4+xi(m), a_g2 * chi > a2*a3*a4 (see the module
    docstring). Past _NEAR_TIE_BITS in a2 both tests go through
    ``sequences._exceeds``: inside a window, theta - 1/a2 lies between
    chi/bound and 1/a_{2m+3+xi(m)}, less than twice chi/bound, which leading
    bits decide. The witness follows from the same terms: xi(m) = g2 -
    (2m+4) and a_{2m+3+xi(m)} = a_{g2+1} - a_g2. No cutoff or index search
    runs beyond the greedy pick's own, and the window's exact endpoints are
    built only when it covers theta.
    """
    t = _require_theta(theta)
    gr = greedy_two_term(params, t)
    witness: BadInterval | None = None
    if gr.g1 % 2 == 0:
        m = gr.g1 // 2 - 1
        a2, a3, c, d = _terms_of(params, gr)
        a4 = a2 + a3
        p, q, chi = t.numerator, t.denominator, params.chi
        if a2.bit_length() <= _NEAR_TIE_BITS:
            inside = (p * a2 - q) * a3 * a4 > chi * q and c * chi > a2 * a3 * a4
        else:
            inside = _exceeds((p * a2 - q, a3, a4), (chi, q)) and _exceeds((c, chi), (a2, a3, a4))
        if inside:
            witness = _window(params, m, a2, a3, a4, gr.g2 - (2 * m + 4), d - c)
    if witness is None:
        return Classification(t, gr, True, None, None)
    competitor = TwoTermSum(2 * witness.n + 3, 2 * witness.n + 4, witness.left)
    return Classification(t, gr, False, witness, competitor)
