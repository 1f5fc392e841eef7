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

``xi`` and ``bad_interval`` find the cutoff with integers only. For every
seed there is one integer offset t*, the smallest t with 5*chi*phi^t > A^2
for A = (a1 - a0) + a0*phi, and the cutoff index is 3(2n+3) + t*, that is
xi(n) = 4n + 5 + t*: the paper's 4n+4 for fibonacci (t* = -1) and 4n+6 for
lucas (t* = 1). An integer certificate in the window's own terms proves it
window by window (``_cutoff``); placing the cutoff that way forms neither the
bound nor any term past a_{2n+4}. Where the certificate fails, in the first
few windows, one predict-then-certify index search runs against the formed
bound. The cutoff also has an equivalent definition through Fibonacci
factors, the largest s with a_{2n+2}*F(s) + a_{2n+3}*F(s+1) <= bound/chi;
``verification.xi_literal`` evaluates that form against the integer
bound // chi, by a plain walk up from s = 0, and serves as an independent
reference for ``xi``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import SelfCheckError
from .greedy import TwoTermSum, _require_theta, _terms_of, greedy_two_term
from .rationals import _reciprocal_sum, approx_decimal, format_rational
from .sequences import (
    _NEAR_TIE_BITS,
    SequenceParams,
    SequencePreset,
    _exceeds,
    _fib_pair,
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
# kept. An entry holds the seeds and five integers of at most about
# 4*bits(a1) bits (|N(E)|, at most 57 200 bits for the 4300-digit seeds the
# CLI accepts): at most 27 KB, about 220 KB for the eight entries.
@lru_cache(maxsize=8)
def _offset(params: SequenceParams) -> tuple[int, int, int, int, int]:
    """(t*, |N(E)|, |e0| + |e1|, |c_t*|, |c_{t*-1}|) for the seeds, with E =
    E_t* = e0 + e1*phi; ``_cutoff`` defines them.

    With A^2 = u + v*phi and v > 0, u + v < A^2 < phi*(u + v). So the
    bit-length guess t = (bits(u + v) - 1 - bits(5*chi)) / 0.694242 + 1,
    rounded down, keeps phi^(t-1) <= 2^(bits(u+v)-1) / 2^bits(5*chi) <
    A^2 / (5*chi), where E_{t-1} < 0: it never passes t*, and the walk up
    from it takes a few steps (at most three on every seed tested).
    """
    a0, a1 = params
    k = 5 * params.chi
    u, v = (a1 - a0) ** 2 + a0 * a0, a0 * (2 * a1 - a0)  # A^2 = u + v*phi
    b = (u + v).bit_length() - 1 - k.bit_length()
    if b >= 0:
        t = b * 1000000 // 694242 + 1
        p, r = _fib_pair(t - 1)  # phi^t = F(t-1) + F(t)*phi
    else:
        t, p, r = -1, -1, 1
    while not _positive(k * p - u, k * r - v):
        t, p, r = t + 1, r, p + r
    e0, e1 = k * p - u, k * r - v
    q = a0 * u + a1 * v  # A^3 = P + Q*phi
    c, c_prev = k * (a0 * p + a1 * r) - q, k * (a0 * (r - p) + a1 * p) - q
    return t, abs(e0 * e0 + e0 * e1 - e1 * e1), abs(e0) + abs(e1), abs(c), abs(c_prev)


def _cutoff(
    params: SequenceParams, n: int
) -> tuple[int, int, int, int | None, int, int | None]:
    """(a_{2n+2}, a_{2n+3}, a_{2n+4}, bound, xi(n), a_{2n+3+xi(n)}) for window
    index n >= 0, where bound = a_{2n+2} * a_{2n+3} * a_{2n+4}.

    xi(n) is the smallest s >= 0 with a_{2n+4+s} * chi > bound. With m = 2n+2,
    j = m+1, A = (a1 - a0) + a0*phi and A^3 = P + Q*phi, the terms satisfy
    a_{3j+t} = A*phi^t*F(3j) + a_t*psi^(3j), and bound = a_j^3 + chi*a_j (j is
    odd) gives 5*bound = P*F(3j) + Q*F(3j+1) + 2*chi*a_j, so

        5*(chi*a_{3j+t} - bound) = A*E_t*F(3j) + c_t*psi^(3j) - 2*chi*a_j,

    with E_t = 5*chi*phi^t - A^2 = e0 + e1*phi and c_t = 5*chi*a_t - Q. E_t
    grows with t and is never 0; t*, the smallest t with E_t > 0, is at least
    -1, since A^2 / (5*chi) > phi^(-2) for every valid seed. The cutoff index
    is then 3j + t*, that is xi(n) = 4n + 5 + t* (4n + 4 for fibonacci, 4n + 6
    for lucas), wherever 2*chi*a_j >= |c_{t*-1}|, which puts chi*a_{3j+t*-1}
    strictly below the bound, and

        |N(E)| * a1 * 2^(3*bits(F(j)) - 2) > (|e0| + |e1|) * (2*chi*a_j + |c_t*|),

    which puts chi*a_{3j+t*} strictly above it, from E = N(E) / (e0 + e1*psi)
    with N(E) = e0^2 + e0*e1 - e1^2, A > a1 and F(3j) = 5F(j)^3 - 3F(j) >=
    2^(3*bits(F(j)) - 2). There bound and a_{2n+3+xi(n)} come back as None,
    neither formed. Where either test fails (the first few windows, more of
    them for seeds near phi), one index search from 2n+4 finds the cutoff
    against the formed bound.
    """
    if n < 0:
        raise ValueError(f"window index must be nonnegative, got {n}")
    m = 2 * n + 2
    f, g = _fib_pair(m)  # F(m), F(m+1) = F(j)
    a0, a1, chi = params.a0, params.a1, params.chi
    a2, a3 = a0 * (g - f) + a1 * f, a0 * f + a1 * g
    a4 = a2 + a3
    t, norm, conj, c, c_prev = _offset(params)
    margin = 2 * chi * a3
    if margin >= c_prev and (norm * a1 << 3 * g.bit_length() - 2) > conj * (margin + c):
        return a2, a3, a4, None, 2 * m + 1 + t, None
    bound = a2 * a3 * a4
    if a3 * chi > bound:
        # equivalent to chi > a_{2n+2}*a_{2n+4}, impossible for valid seeds
        raise SelfCheckError(f"cutoff undefined at n={n} for {params}")
    end, a_end, a_next = index_below(params, chi, bound, 1, m + 2, a4, a3 + a4)
    return a2, a3, a4, bound, end - (m + 2), a_next - a_end


def xi(params: SequenceParams, n: int) -> XiResult:
    """Cutoff xi(n): largest s with a_{2n+3+s} * chi <= the product bound.

    Found with integers only: as 4n + 5 + t* from the seeds' offset t*,
    wherever ``_cutoff``'s certificate holds, leaving the term
    a_{2n+3+xi(n)} unformed; otherwise by one index search that predicts
    the cutoff from bit lengths and certifies it exactly. The bound is formed
    either way, since it is part of the result.
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
