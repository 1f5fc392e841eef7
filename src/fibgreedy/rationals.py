"""Exact rational parsing and formatting.

Values are plain ``fractions.Fraction`` objects: arbitrary precision, reduced
to lowest terms at construction, denominator always positive. Fractions
appear only at the edges of a computation: parsing yields the target, and
each returned value is one reduced Fraction; in between, the greedy search,
the window test and the oracle compare unreduced integer cross-products.
Every returned value of the form 1/x + 1/y is built by ``_reciprocal_sum``,
which picks the cheaper of two reductions by the size of the terms.
No float ever enters a computation; the only decimal output is the
explicitly approximate display helper below, which rounds large values in
integers.
"""

from __future__ import annotations

import re
from decimal import ROUND_HALF_EVEN, Context, Decimal, DivisionByZero, InvalidOperation, Overflow
from fractions import Fraction

from .errors import RationalParseError

__all__ = ["parse_rational", "format_rational", "approx_decimal"]

# sign allowed on both parts of p/q; decimals need digits on both sides of the dot
_FRACTION_RE = re.compile(r"\A([+-]?\d+)/([+-]?\d+)\Z")
_DECIMAL_RE = re.compile(r"\A[+-]?\d+(\.\d+)?\Z")


def _display_context(digits: int) -> Context:
    # Every setting is given (the values are decimal's documented defaults),
    # so the digits follow neither decimal.DefaultContext nor the caller's
    # context.
    return Context(
        prec=digits,
        rounding=ROUND_HALF_EVEN,
        Emin=-999999,
        Emax=999999,
        capitals=1,
        clamp=0,
        flags=[],
        traps=[InvalidOperation, DivisionByZero, Overflow],
    )


_DEFAULT_DIGITS = 6
# Shared by every default-precision call. Its flags accumulate, but a trap
# fires only on the signals of the current operation, so no result depends on
# an earlier call.
_DEFAULT_CONTEXT = _display_context(_DEFAULT_DIGITS)

# Above this many bits in the numerator or the denominator, approx_decimal
# rounds in integers: converting both to Decimal costs more from about 800
# bits on (Python 3.11, six digits: 3.3 against 2.6 us at 1000 bits, 1.4
# against 2.1 us at 300).
_INTEGER_ROUNDING_BITS = 800

# Up to this many bits in the larger term, _reciprocal_sum reduces
# (x + y)/(x*y) directly; above it, it adds Fraction(1, x) and Fraction(1, y),
# whose gcd runs on x and y instead of on x + y and x*y. Measured on the term
# pairs of perfbench's targets and windows (Python 3.11): the product form is
# faster up to about 4000 bits, and on adjacent terms up to about 17000 (175
# against 279 us at 6945 bits); from about 5000 bits the sum form is faster
# when one term has three times the bits of the other (2.3 against 9.3 ms at
# 27771/55539 bits).
_PRODUCT_FORM_BITS = 8000


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


def _reciprocal_sum(x: int, y: int) -> Fraction:
    """1/x + 1/y in lowest terms, for positive integers x and y."""
    if x.bit_length() <= _PRODUCT_FORM_BITS and y.bit_length() <= _PRODUCT_FORM_BITS:
        return Fraction(x + y, x * y)
    return Fraction(1, x) + Fraction(1, y)


def _rounded_quotient(p: int, q: int, digits: int) -> Decimal:
    """p/q for p != 0 and q > 0 rounded half-even to ``digits`` significant
    figures, with the coefficient and exponent Context.divide gives it: an
    exact quotient keeps no trailing zero right of the units place."""
    a = abs(p)
    d = a.bit_length() - q.bit_length() - 1  # a/q >= 2^d
    # 10^k <= 2^d: log10(2) lies between 0.30102 and 0.30103, so k errs low
    k = d * (30103 if d < 0 else 30102) // 100000
    shift = digits - k  # a*10^shift/q >= 10^digits: one figure to round off
    if shift >= 0:
        c, rest = divmod(a * 10**shift, q)
    else:
        c, rest = divmod(a, q * 10**-shift)
    e = -shift
    if not rest:
        while e < 0 and c % 10 == 0:
            c, e = c // 10, e + 1
    drop = len(str(c)) - digits
    if drop > 0:
        unit = 10**drop
        c, tail = divmod(c, unit)
        e += drop
        if 2 * tail > unit or 2 * tail == unit and (rest or c % 2):
            c += 1
            if c == 10**digits:
                c, e = c // 10, e + 1
    return Decimal(f"{'-' if p < 0 else ''}{c}E{e}")


def approx_decimal(x: Fraction, digits: int = _DEFAULT_DIGITS) -> str:
    """Decimal approximation to ``digits`` significant figures, display only.

    The result is x correctly rounded, half-even, as one Decimal division
    gives it, so it works at any magnitude without touching binary floats.
    Small values are divided as Decimals. Above _INTEGER_ROUNDING_BITS the
    same rounding runs in integers: the power of ten comes from the bit
    lengths, one divmod gives the figures and the remainder, and only the
    rounded coefficient becomes a Decimal, so neither operand is converted.
    The division and the string both use a context that fixes every setting
    (``digits`` of precision, ROUND_HALF_EVEN, decimal's default exponent
    limits, traps and capital E), so the result depends neither on
    ``decimal.DefaultContext`` nor on the caller's thread-local context. The
    default six digits share one context made at import; any other
    ``digits`` builds its own.
    """
    context = _DEFAULT_CONTEXT if digits == _DEFAULT_DIGITS else _display_context(digits)
    p, q = x.numerator, x.denominator
    if p.bit_length() > _INTEGER_ROUNDING_BITS or q.bit_length() > _INTEGER_ROUNDING_BITS:
        result = _rounded_quotient(p, q, digits)
        # outside the exponent limits the division's own overflow and
        # subnormal rules apply, so those few values take the Decimal path
        if context.Emin <= result.adjusted() <= context.Emax:
            return context.to_sci_string(result)
    return context.to_sci_string(context.divide(Decimal(p), Decimal(q)))
