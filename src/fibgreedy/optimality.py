"""Deciding whether the greedy two-term pick is the best one possible.

For each even first index 2n+2 there is a single half-open window of targets

    ( 1/a_{2n+3} + 1/a_{2n+4},  1/a_{2n+2} + 1/a_{2n+3+xi(n)} ]

on which the adjacent pair (2n+3, 2n+4) strictly beats the greedy pick;
outside every window greedy wins, and an odd first index always wins. The
window's right edge is governed by the cutoff xi(n): the largest shift s
such that a_{2n+3+s} * chi still fits under a_{2n+2} * a_{2n+3} * a_{2n+4}.
Window n sits strictly inside the band (1/a_{2n+2}, 1/a_{2n+1}) of targets
whose greedy first index is exactly 2n+2, so windows never touch and march
strictly downward.

``classify`` reads the window off the greedy pick and places no cutoff of
its own; its docstring proves that this suffices. ``xi`` and
``bad_interval`` place the cutoff in closed form, through ``_cutoff``:
xi(n) = 4n + 5 + t* + [n < n*] for two integers per seed, the offset t*
and the first window n* where the offset alone holds, found once by
``_offset`` with integers only. ``_cutoff`` proves that the cutoff is the
offset or one more, and ``_offset`` that the windows at one more form a
prefix. ``verification.xi_literal`` evaluates the cutoff's
Fibonacci-factor form as an independent reference.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .greedy import TwoTermSum, _require_theta, _terms_of, greedy_two_term
from .rationals import _reciprocal_sum, approx_decimal, format_rational
from .sequences import (
    _NEAR_TIE_BITS,
    SequenceParams,
    SequencePreset,
    _exceeds,
    _fib_pair,
    _require_int,
    seq_pair,
    seq_term,
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


def _positive(x: int, y: int) -> bool:
    """x + y*phi > 0, exactly: 2(x + y*phi) = z + y*sqrt(5) with z = 2x + y,
    whose sign, where z and y differ in sign, is z's exactly when z^2 > 5y^2."""
    z = 2 * x + y
    if z >= 0 and y >= 0:
        return z > 0 or y > 0
    if z <= 0 and y <= 0:
        return False
    return (z * z > 5 * y * y) == (z > 0)


# The offset depends on the seeds alone, so the last few seeds' results are
# kept. An entry holds the seeds and two small integers, t* and n*: about
# 200 bytes beyond the seeds, 1.6 KB for the eight entries, at any seed size
# the CLI accepts (for 4300-digit seeds t* stays under 42 000; n* is 0 for
# (F(20575), F(20576)), the largest near-phi seeds, and at most 5 on every
# seed with a1 < 400).
@lru_cache(maxsize=8)
def _offset(params: SequenceParams) -> tuple[int, int]:
    """(t*, n*) for the seeds: xi(n) = 4n + 5 + t* + [n < n*] in every
    window n, that is the cutoff index is 3(2n+3) + t* from window n* on and
    one more below it. That is the paper's 4n+4 for fibonacci (t* = -1,
    n* = 0) and 4n+6 for lucas (t* = 1, n* = 0); the seeds (F(k), F(k+1)),
    odd k >= 3, have t* = 2k - 3 and n* = 0, and (269, 335) has n* = 5.

    With j = 2n+3 and A = (a1 - a0) + a0*phi, its conjugate Abar = (a1 -
    a0) + a0*psi, sqrt(5)*a_k = A*phi^k - Abar*psi^k and A*Abar = -chi.
    Cubing sqrt(5)*a_j with phi^j*psi^j = -1 (j is odd) and using bound =
    a_{j-1}*a_j*a_{j+1} = a_j^3 + chi*a_j gives, with E_t = 5*chi*phi^t -
    A^2 and its conjugate Ebar_t = 5*chi*psi^t - Abar^2,

        5*sqrt(5)*(chi*a_{3j+t} - bound)
            = A*E_t*phi^(3j) - Abar*Ebar_t*psi^(3j) - 2*sqrt(5)*chi*a_j.

    E_t grows with t and is never 0; t*, the smallest t with E_t > 0, is at
    least -1, since A^2 / (5*chi) > phi^(-2) for every valid seed. With A^2
    = u + v*phi and v > 0, u + v < A^2 < phi*(u + v). So the bit-length
    guess t = (bits(u + v) - 1 - bits(5*chi)) / 0.694242 + 1, rounded down,
    keeps phi^(t-1) <= 2^(bits(u+v)-1) / 2^bits(5*chi) < A^2 / (5*chi),
    where E_{t-1} < 0: it never passes t*, and the walk up from it takes a
    few steps (at most three on every seed tested).

    ``_cutoff`` proves that the cutoff index is 3j + t* or 3j + t* + 1, the
    former exactly when D(n) = chi*a_{3j+t*} - bound > 0. D(n) > 0 implies
    D(n+1) > 0. Take E = E_t* > 0, Ebar = Ebar_t* and w = Abar*Ebar*psi^(3j),
    so that 5*sqrt(5)*D(n) = X(n) - Y(n) with X(n) = A*E*phi^(3j) > 0 and
    Y(n) = 2*sqrt(5)*chi*a_j + w. From ``_cutoff``'s bounds and t* >= -1,
    |Ebar| <= (5*phi + phi^(-2))*a0^2 < 8.5*a0^2; |Abar| = chi/A < chi/a0 and
    j >= 3, so |w| < (chi/a0)*8.5*a0^2/76 < 0.12*chi*a0 <= 0.04*chi*a_j, as
    a_j >= a_3 = a0 + 2*a1 >= 3*a0. So 4.43*chi*a_j < Y(n) < 4.52*chi*a_j,
    with 2*sqrt(5) = 4.472. From n to n+1, j grows by 2: X grows by phi^6 >
    17.9, while a_{j+2} = a_{j+1} + a_j <= 3*a_j, so Y(n+1) < 3*(4.52/4.43)*
    Y(n) < 3.1*Y(n). Once X(n) > Y(n), X(n+1) > 17.9*Y(n) > Y(n+1). And
    D(n) > 0 is reached: X grows as phi^(3j), Y as a_j, that is as phi^j.
    n* is the first n with D(n) > 0, found by doubling and then bisection,
    each probe one exact comparison: at most 2*bits(n*) + 1 probes.

    A bound on n*. E lies in Z[phi] and is not 0, so E*Ebar is a nonzero
    integer, |E*Ebar| >= 1, and E > 1/(8.5*a0^2). Since j is odd, sqrt(5)*a_j
    < A*phi^j, so Y(n) < (4.52/sqrt(5))*chi*A*phi^j, while X(n) >
    A*phi^(3j)/(8.5*a0^2). As 8.5*4.52/sqrt(5) < 17.19, D(n) > 0 once
    phi^(2j) >= 17.19*chi*a0^2: n* is at most the first such n. Since
    sqrt(5)*(phi^k - F(k+1)) = phi^(k-1) + psi^(k+1) > 0 for k >= 1, the
    first n with 100*F(4n+7) > 1719*chi*a0^2 bounds n* too. In the seeds'
    size: chi <= a0^2 < 2^(4*bits(a0)), and n >= 1.45*bits(a0) gives
    phi^(2j) >= phi^6*phi^(5.8*bits(a0)) > 17.9*2^(4*bits(a0)), so n* <=
    ceil(1.45*bits(a0)). Seeds built to make E small reach about a quarter
    of that: n* = 1195 at a0 = 10^1000.
    """
    a0, a1 = params
    chi = params.chi
    k = 5 * chi
    u, v = (a1 - a0) ** 2 + a0 * a0, a0 * (2 * a1 - a0)  # A^2 = u + v*phi
    b = (u + v).bit_length() - 1 - k.bit_length()
    if b >= 0:
        t = b * 1000000 // 694242 + 1
        p, r = _fib_pair(t - 1)  # phi^t = F(t-1) + F(t)*phi
    else:
        t, p, r = -1, -1, 1
    while not _positive(k * p - u, k * r - v):
        t, p, r = t + 1, r, p + r

    # n* by doubling (n = 0, 1, 3, 7, ...) until D(n) > 0, then bisection;
    # D fails in window lo (-1 before any is tested) and holds in hi
    lo, hi, n = -1, None, 0
    while hi is None or hi - lo > 1:
        a2, a3 = seq_pair(params, 2 * n + 2)
        if chi * seq_term(params, 6 * n + 9 + t) > a2 * a3 * (a2 + a3):
            hi = n
        else:
            lo = n
        n = 2 * n + 1 if hi is None else (lo + hi) // 2
    return t, hi


def _cutoff(params: SequenceParams, n: int) -> tuple[int, int, int]:
    """(a_{2n+2}, a_{2n+3}, xi(n)) for window index n >= 0.

    xi(n) is the smallest s >= 0 with chi * a_{2n+4+s} > bound, for bound =
    a_{2n+2} * a_{2n+3} * a_{2n+4}: the first index k with chi * a_k > bound
    is 2n+4 + xi(n). With j = 2n+3 and (t*, n*) from ``_offset``, k = 3j +
    t* + [n < n*], that is xi(n) = 4n + 5 + t* + [n < n*], with neither the
    bound nor any term past a_{2n+3} formed.

    Proof that k is 3j + t* or 3j + t* + 1 for every n >= 0, from the
    identity of ``_offset``. chi > 0 puts a1/a0 below phi, so -a0/phi <=
    Abar < 0, and with a0 <= a1: A > a1 >= a0, chi = a0^2 - a1*(a1 - a0)
    <= a0^2 < A^2 and Abar^2 <= a0^2/phi^2. The psi term,
    Abar*Ebar_t*psi^(3j), is at most (chi/A)*|Ebar_t|*phi^(-3j) in size, and
    |Ebar_t| <= 5*chi*phi^(-t) + Abar^2. Also j >= 3, so phi^(-3j) <=
    phi^(-9) < 1/76, and a_j >= a_3 = a0 + 2*a1 > 2*a1.

    At t = t* - 1, E_t < 0, so the first term is negative. t* >= -1 gives
    phi^(-t) <= phi^2, so |Ebar_t| <= (5*phi^2 + phi^(-2))*a0^2 < 14*a0^2,
    and the psi term is below (chi/A)*a0^2/5 < chi*a_j, far under
    2*sqrt(5)*chi*a_j. So chi*a_{3j+t*-1} < bound, and as terms increase,
    k >= 3j + t*; 3j + t* - 1 >= 6n + 7 >= 2n + 4, so 4n + 5 + t* >= 0.

    At t = t* + 1, E_t = phi*(E_t* + A^2) - A^2 > A^2/phi, so the first term
    exceeds A^3*phi^(3j-1). Since j is odd, Abar*psi^j > 0 and sqrt(5)*a_j <
    A*phi^j, so 2*sqrt(5)*chi*a_j < 2*chi*A*phi^j < A^3*phi^(3j-1)*2/phi^5,
    from chi < A^2 and 2j - 1 >= 5; 2/phi^5 < 0.19. t >= 0 gives |Ebar_t| <=
    5*chi + Abar^2 < 6*a0^2, so the psi term is below (chi/A)*6*a0^2/76 <
    A^3/12 < A^3*phi^(3j-1)/500. The two together stay under the first term,
    so chi*a_{3j+t*+1} > bound: k <= 3j + t* + 1.
    """
    _require_int("window index", n)
    a2, a3 = seq_pair(params, 2 * n + 2)
    t, n_star = _offset(params)
    return a2, a3, 4 * n + 5 + t + (n < n_star)


def xi(params: SequenceParams, n: int) -> XiResult:
    """Cutoff xi(n): largest s with a_{2n+3+s} * chi <= the product bound,
    placed by ``_cutoff``. The bound is part of the result, so it is formed
    here."""
    a2, a3, s = _cutoff(params, n)
    return XiResult(n=n, xi=s, bound=a2 * a3 * (a2 + a3), chi=params.chi)


def xi_closed_form(preset: SequencePreset, n: int) -> int | None:
    """Closed-form cutoff: 4n+4 for fibonacci, 4n+6 for lucas, None for every
    other sequence. The one place that knows which sequences have one."""
    _require_int("window index", n)
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
    a2, a3, x = _cutoff(params, n)
    return _window(params, n, a2, a3, a2 + a3, x, seq_pair(params, 2 * n + 3 + x)[0])


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

    Inside window m the greedy second index is always g2 = 2m+4+xi(m). With
    (a2, a3, a4) = (a_{2m+2}, a_{2m+3}, a_{2m+4}), the left end equals
    1/a2 + chi/bound for bound = a2*a3*a4, so inside the window the remainder
    theta - 1/a2 lies in (chi/bound, 1/a_{2m+3+xi(m)}], and 2m+4+xi(m) is
    the first index whose reciprocal fits under it. Conversely, above the
    left end, a_g2 * chi > bound holds exactly when g2 >= 2m+4+xi(m), that
    is when theta is at most the right end. So theta = p/q is inside exactly
    when r1*a3*a4 > chi*q and a_g2 * chi > a2*a3*a4, where (a2, a3) are the
    greedy search's (a_g1, a_{g1+1}) and r1 = p*a2 - q is its first
    remainder's numerator, which the search formed and this reads rather
    than forms. Past _NEAR_TIE_BITS in a2 both tests go through
    ``sequences._exceeds``: inside a window, theta - 1/a2 lies between
    chi/bound and 1/a_{2m+3+xi(m)}, less than twice chi/bound, which leading
    bits decide. The witness follows from the same terms: xi(m) = g2 -
    (2m+4) and a_{2m+3+xi(m)} = a_{g2+1} - a_g2. No cutoff or index search
    runs beyond the greedy pick's own, and the window's exact endpoints are
    built only when it covers theta. The pick, its terms and r1 stay in
    ``greedy``'s one-entry memo, so an ``oracle_best`` on the same target
    that follows finds them without searching again.
    """
    t, p, q = _require_theta(theta)
    gr = greedy_two_term(params, t)
    witness: BadInterval | None = None
    if gr.g1 % 2 == 0:
        m = gr.g1 // 2 - 1
        a2, a3, c, d, r1 = _terms_of(params, p, q, gr)
        a4 = a2 + a3
        chi = params.chi
        if a2.bit_length() <= _NEAR_TIE_BITS:
            inside = r1 * a3 * a4 > chi * q and c * chi > a2 * a3 * a4
        else:
            inside = _exceeds((r1, a3, a4), (chi, q)) and _exceeds((c, chi), (a2, a3, a4))
        if inside:
            witness = _window(params, m, a2, a3, a4, gr.g2 - (2 * m + 4), d - c)
    if witness is None:
        return Classification(t, gr, True, None, None)
    competitor = TwoTermSum(2 * witness.n + 3, 2 * witness.n + 4, witness.left)
    return Classification(t, gr, False, witness, competitor)
