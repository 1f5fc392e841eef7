"""Exact rational parsing and formatting.

Values are plain ``fractions.Fraction`` objects: arbitrary precision, reduced
to lowest terms at construction, denominator always positive. Fractions
appear only at the edges of a computation: parsing yields the target, and
each returned value is one reduced Fraction; in between, the greedy search,
the window test and the oracle compare unreduced integer cross-products.
No float ever enters a computation; the only decimal output is the
explicitly approximate display helper below.
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


def approx_decimal(x: Fraction, digits: int = _DEFAULT_DIGITS) -> str:
    """Decimal approximation to ``digits`` significant figures, display only.

    Uses exact integer-to-Decimal conversion plus one correctly rounded
    division, so it works at any magnitude without touching binary floats.
    The division runs in a context that fixes every setting (``digits`` of
    precision, ROUND_HALF_EVEN, decimal's default exponent limits and traps),
    so the result depends neither on ``decimal.DefaultContext`` nor on the
    caller's thread-local context. The default six digits share one context
    made at import; any other ``digits`` builds its own.
    """
    context = _DEFAULT_CONTEXT if digits == _DEFAULT_DIGITS else _display_context(digits)
    return str(context.divide(Decimal(x.numerator), Decimal(x.denominator)))
