"""Exact rationals as JSON: a pair of hexadecimal strings. Hexadecimal is
not covered by the interpreter's 4300-digit limit on decimal conversion."""

from fractions import Fraction


def enc(x: Fraction) -> list[str]:
    return [hex(x.numerator), hex(x.denominator)]


def dec(pair: list[str]) -> Fraction:
    return Fraction(int(pair[0], 16), int(pair[1], 16))
