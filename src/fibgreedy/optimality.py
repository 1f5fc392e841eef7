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

``xi`` finds the cutoff with one predict-then-certify index search over
integers. The cutoff also has an equivalent definition through Fibonacci
factors, the largest s with a_{2n+2}*F(s) + a_{2n+3}*F(s+1) <= bound/chi;
``verification.xi_literal`` evaluates that form, as the integer
cross-product with chi, by a plain walk up from s = 0 and serves as an
independent reference for ``xi``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import SelfCheckError, UnsupportedPresetError
from .greedy import GreedyResult, _require_theta, greedy_two_term
from .oracle import TwoTermSum
from .rationals import approx_decimal, format_rational
from .sequences import SequenceParams, SequencePreset, index_below, seq_pair

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


def _cutoff(params: SequenceParams, n: int) -> tuple[int, int, int, int, int]:
    """(a_{2n+2}, a_{2n+3}, a_{2n+4}, xi(n), a_{2n+3+xi(n)}).

    xi(n) is the smallest s >= 0 with a_{2n+4+s} * chi > bound, found by one
    index search from 2n+4; the bound's terms come from one term pair.
    """
    if n < 0:
        raise ValueError(f"window index must be nonnegative, got {n}")
    a2, a3 = seq_pair(params, 2 * n + 2)
    a4 = a2 + a3
    bound = a2 * a3 * a4
    chi = params.chi
    if a3 * chi > bound:
        # equivalent to chi > a_{2n+2}*a_{2n+4}, impossible for valid seeds
        raise SelfCheckError(f"cutoff undefined at n={n} for {params}")
    end, a_end, a_next = index_below(params, chi, bound, 2 * n + 4, a4, a3 + a4)
    return a2, a3, a4, end - (2 * n + 4), a_next - a_end


def xi(params: SequenceParams, n: int) -> XiResult:
    """Cutoff xi(n): largest s with a_{2n+3+s} * chi <= the product bound.

    Found with integers only, by one index search that predicts the cutoff
    from bit lengths and certifies it exactly.
    """
    a2, a3, a4, s, _ = _cutoff(params, n)
    return XiResult(n=n, xi=s, bound=a2 * a3 * a4, chi=params.chi)


def xi_closed_form(preset: SequencePreset, n: int) -> int:
    """Closed-form cutoff for presets: 4n+4 (fibonacci) or 4n+6 (lucas).

    Custom seeds have no known closed form; asking for one raises
    UnsupportedPresetError.
    """
    if n < 0:
        raise ValueError(f"window index must be nonnegative, got {n}")
    if preset.name == "fibonacci":
        return 4 * n + 4
    if preset.name == "lucas":
        return 4 * n + 6
    raise UnsupportedPresetError(f"no closed-form cutoff for sequence {preset.name!r}")


class BadInterval(namedtuple("BadInterval", "n left right xi")):
    """Window n of targets where greedy loses: left excluded, right included."""

    __slots__ = ()

    def covers(self, theta: Fraction) -> bool:
        return self.left < theta <= self.right


def _window(n: int, a2: int, a3: int, a4: int, x: int, a_cut: int) -> BadInterval:
    # 1/x + 1/y rather than (x + y)/(x*y): at large n the sum's gcd runs on
    # the smaller pair of numbers, which is cheaper
    left = Fraction(1, a3) + Fraction(1, a4)
    right = Fraction(1, a2) + Fraction(1, a_cut)
    return BadInterval(n=n, left=left, right=right, xi=x)


def bad_interval(params: SequenceParams, n: int) -> BadInterval:
    """Endpoints of window n, exactly."""
    return _window(n, *_cutoff(params, n))


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

    The membership test compares integer cross-products of theta = p/q with
    the window's terms; the window's exact endpoints are built only when it
    covers theta.
    """
    t = _require_theta(theta)
    gr = greedy_two_term(params, t)
    witness: BadInterval | None = None
    if gr.g1 % 2 == 0:
        m = gr.g1 // 2 - 1
        a2, a3, a4, x, a_cut = _cutoff(params, m)
        p, q = t.numerator, t.denominator
        # 1/a3 + 1/a4 < theta <= 1/a2 + 1/a_cut
        if (a3 + a4) * q < p * a3 * a4 and p * a2 * a_cut <= (a2 + a_cut) * q:
            witness = _window(m, a2, a3, a4, x, a_cut)
    if witness is None:
        return Classification(t, gr, True, None, None)
    competitor = TwoTermSum(2 * witness.n + 3, 2 * witness.n + 4, witness.left)
    return Classification(t, gr, False, witness, competitor)
