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
from decimal import Context, Decimal
from fractions import Fraction

from .errors import RationalParseError

__all__ = ["parse_rational", "format_rational", "approx_decimal"]

# sign allowed on both parts of p/q; decimals need digits on both sides of the dot
_FRACTION_RE = re.compile(r"\A([+-]?\d+)/([+-]?\d+)\Z")
_DECIMAL_RE = re.compile(r"\A[+-]?\d+(\.\d+)?\Z")


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


def approx_decimal(x: Fraction, digits: int = 6) -> str:
    """Decimal approximation to ``digits`` significant figures, display only.

    Uses exact integer-to-Decimal conversion plus one correctly rounded
    division, so it works at any magnitude without touching binary floats.
    The division runs in its own context (``digits`` of precision, the
    module defaults otherwise), so the result does not follow the caller's
    thread-local decimal context.
    """
    return str(Context(prec=digits).divide(Decimal(x.numerator), Decimal(x.denominator)))
