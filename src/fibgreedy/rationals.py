"""Exact rational parsing and formatting.

Values are plain ``fractions.Fraction`` objects: arbitrary precision, reduced
to lowest terms at construction, denominator always positive. Fractions
appear only at the edges of a computation: parsing yields the target, and
each returned value is one reduced Fraction; in between, the greedy search,
the window test and the oracle compare unreduced integer cross-products.
Small ones are multiplied out; past ``sequences._NEAR_TIE_BITS`` a
comparison is decided from the factors' bit lengths and leading bits, and
the products are formed only on a near-tie.
Every returned value of the form 1/a_i + 1/a_j is built by
``_reciprocal_sum``: small terms by one ``Fraction`` reduction, larger ones
from the gcd that the index gap j - i gives, with no second normalisation.
No float ever enters a computation; the only decimal output is the
explicitly approximate display helper below, which rounds every value to six
figures in one fixed decimal context.
"""

from __future__ import annotations

import re
from decimal import ROUND_HALF_EVEN, Context, DivisionByZero, InvalidOperation, Overflow
from fractions import Fraction
from functools import partial
from math import gcd

from .errors import RationalParseError
from .sequences import SequenceParams, _fib_pair

__all__ = ["parse_rational", "format_rational", "approx_decimal"]

# sign allowed on both parts of p/q; decimals need digits on both sides of the dot
_FRACTION_RE = re.compile(r"\A([+-]?\d+)/([+-]?\d+)\Z")
_DECIMAL_RE = re.compile(r"\A[+-]?\d+(\.\d+)?\Z")


# The one display context: six digits, and every other setting given as
# decimal's documented default, so no display follows decimal.DefaultContext
# or the caller's context. Its flags accumulate, but a trap fires only on the
# signals of the current operation, so no result depends on an earlier call.
_DISPLAY = Context(
    prec=6, rounding=ROUND_HALF_EVEN, Emin=-999999, Emax=999999, capitals=1, clamp=0,
    flags=[], traps=[InvalidOperation, DivisionByZero, Overflow],
)

# Above this many bits in the numerator or the denominator, approx_decimal
# shortens the operands in integers before the context rounds; below it one
# Decimal division of the integers is cheaper on the small values most
# displays show. Each path forced on 200 random p < q per size, integers over
# division time, each run the best of two alternating rounds (Python 3.11.7):
# 1.06-1.14 at 360 bits (6 runs), 1.02-1.15 at 370 (8), 1.02-1.32 at 380
# (14); from 390 some runs go the other way (3 of 8 there, 1 of 20 at 400),
# 0.93-1.14 at 440, 0.88-0.93 at 520 and 0.78-0.80 at 560 (6 runs each). The
# cut-off is the largest size at which every run found the division cheaper;
# near it the two paths are within a few per cent either way.
_INTEGER_ROUNDING_BITS = 380

# Up to this many bits in the larger term, _reciprocal_sum reduces
# (x + y)/(x*y) by one Fraction normalisation; above it, from the index gap.
# Gap form over product form, median of nine time ratios on fibonacci, lucas
# and custom:4,5 terms, two runs (Python 3.11.7): adjacent terms 1.06-1.11
# at 400 bits, 0.87-0.97 at 600, 0.71-0.83 at 1000 and 0.33-0.42 at 8331;
# gap 4 1.21-1.23, 1.06-1.08, 0.86-0.87 and 0.33-0.43. A gap of twice the
# smaller index, as at a window's right end, pays more for F(j - i):
# 1.48-1.50 at 1000 bits (7.5 against 4.9 us), 0.98-0.99 at 2000 and
# 0.54-0.62 at 8331.
_PRODUCT_FORM_BITS = 1000

# Fraction(n, d) for coprime n and d > 0, skipping the gcd that a Fraction
# normally runs: the private constructor of Python 3.12+, else the
# _normalize flag of 3.10-3.11, else the public constructor, which is only
# slower.
if hasattr(Fraction, "_from_coprime_ints"):
    _coprime = Fraction._from_coprime_ints
else:
    try:
        Fraction(1, 1, _normalize=False)
    except TypeError:
        _coprime = Fraction
    else:
        _coprime = partial(Fraction, _normalize=False)


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or a finite decimal (``"27/50"``, ``"0.54"``, ``"-3"``).

    The result is exact: ``"0.54"`` becomes 27/50, not a float. Raises
    RationalParseError naming the offending text, or ZeroDivisionError for a
    zero denominator.
    """
    s = text.strip()
    m = _FRACTION_RE.match(s)
    if m:
        p, q = int(m.group(1)), int(m.group(2))
        if q == 0:
            raise ZeroDivisionError(f"zero denominator in {text!r}")
        return Fraction(p, q)
    if _DECIMAL_RE.match(s):
        return Fraction(s)
    raise RationalParseError(f"not a rational number: {text!r}")


def format_rational(x: Fraction) -> str:
    """Canonical ``"p/q"`` in lowest terms, or bare ``"p"`` for integers."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _reciprocal_sum(params: SequenceParams, i: int, x: int, j: int, y: int) -> Fraction:
    """1/x + 1/y in lowest terms, for x = a_i and y = a_j with i <= j.

    With g = gcd(a0, a1), gcd(a_i/g, a_{i+1}/g) = 1 and a_j = F(j-i-1)*a_i +
    F(j-i)*a_{i+1}, so G = gcd(x, y) = g*gcd(x/g, F(j-i)). Above
    _PRODUCT_FORM_BITS that gcd runs against F(j-i), about y/x, instead of
    y or x*y: adjacent terms (F(1) = 1) need no big gcd at all, and a
    repeated index (F(0) = 0) gives G = x. With x' = x/G, y' = y/G and
    h = gcd(x' + y', G), the sum is (x' + y')/h over (G/h)*x'*y', already in
    lowest terms, so it is built without a second normalisation.
    """
    if y.bit_length() <= _PRODUCT_FORM_BITS:
        return Fraction(x + y, x * y)
    g = gcd(params.a0, params.a1)
    common = g * gcd(x // g, _fib_pair(j - i)[0])
    x, y = x // common, y // common
    s = x + y
    h = gcd(s, common)
    return _coprime(s // h, common // h * x * y)


def approx_decimal(x: Fraction) -> str:
    """Six significant figures of x, display only: x rounded half-even as one
    Decimal division in _DISPLAY gives it, at any magnitude and with no float.

    Small values go straight to _DISPLAY.divide, which takes the integers
    exactly. Above _INTEGER_ROUNDING_BITS one divmod, scaled by a power of
    ten from the bit lengths, shortens the quotient exactly to seven or more
    figures. A nonzero remainder becomes a trailing 1 digit (sticky: it
    rounds as the lost tail does); an exact quotient sheds its trailing
    zeros down to the units place, as a division would. _DISPLAY then rounds
    that short Decimal, by the division's own precision, exponent limits and
    traps.
    """
    p, q = x.numerator, x.denominator
    if p.bit_length() <= _INTEGER_ROUNDING_BITS and q.bit_length() <= _INTEGER_ROUNDING_BITS:
        return _DISPLAY.to_sci_string(_DISPLAY.divide(p, q))
    a = abs(p)
    d = a.bit_length() - q.bit_length() - 1  # a/q >= 2^d
    # 10^k <= 2^d: log10(2) lies between 0.30102 and 0.30103, so k errs low
    k = d * (30103 if d < 0 else 30102) // 100000
    shift = _DISPLAY.prec - k  # a*10^shift/q >= 10^prec: one figure to round off
    if shift >= 0:
        c, rest = divmod(a * 10**shift, q)
    else:
        c, rest = divmod(a, q * 10**-shift)
    e = -shift
    if rest:
        c, e = 10 * c + 1, e - 1
    else:
        while e < 0 and c % 10 == 0:
            c, e = c // 10, e + 1
    return _DISPLAY.to_sci_string(_DISPLAY.create_decimal(f"{'-' if p < 0 else ''}{c}E{e}"))
