"""Exact rational parsing, formatting, and display rounding."""

from decimal import ROUND_DOWN, DefaultContext, localcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibgreedy import RationalParseError, approx_decimal, format_rational, parse_rational


class TestParse:
    def test_plain_fraction(self):
        assert parse_rational("27/50") == Fraction(27, 50)

    def test_reduces(self):
        assert parse_rational("54/100") == Fraction(27, 50)

    def test_integer(self):
        assert parse_rational("3") == Fraction(3)

    def test_decimal_is_exact(self):
        # Decimal input means the exact rational it denotes, not a float.
        assert parse_rational("0.54") == Fraction(27, 50)
        assert parse_rational("0.1") == Fraction(1, 10)

    def test_signs(self):
        assert parse_rational("-3/4") == Fraction(-3, 4)
        assert parse_rational("+3/4") == Fraction(3, 4)
        assert parse_rational("3/-4") == Fraction(-3, 4)

    def test_surrounding_whitespace(self):
        assert parse_rational("  27/50 ") == Fraction(27, 50)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            parse_rational("3/0")

    @pytest.mark.parametrize("bad", ["", "abc", ".5", "5.", "1/2/3", "1 / 2", "1e3", "nan"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(RationalParseError):
            parse_rational(bad)

    @pytest.mark.usefixtures("unlimited_int_strings")
    def test_huge_literal(self):
        # Ten-thousand-digit operands survive a parse/arithmetic round trip.
        big = 10**10000
        value = parse_rational(f"{big + 7}/{big - 3}")
        assert value == Fraction(big + 7, big - 3)
        assert value * (big - 3) - big == 7


class TestFormat:
    def test_fraction(self):
        assert format_rational(Fraction(9, 17)) == "9/17"

    def test_integer_valued(self):
        assert format_rational(Fraction(4, 2)) == "2"

    def test_negative(self):
        assert format_rational(Fraction(-1, 3)) == "-1/3"


    def test_plain_and_negative_integers(self):
        assert format_rational(3) == "3"
        assert format_rational(-3) == "-3"
        assert format_rational(Fraction(-7, 2)) == "-7/2"

    def test_one_third(self):
        assert format_rational(Fraction(1, 3)) == "1/3"

    @pytest.mark.usefixtures("unlimited_int_strings")
    def test_five_thousand_digit_denominator(self):
        assert format_rational(Fraction(1, 10**5000 + 1)) == f"1/{10**5000 + 1}"


class TestApprox:
    def test_six_significant_digits(self):
        assert approx_decimal(Fraction(9, 17)) == "0.529412"

    def test_exact_short_values_stay_short(self):
        assert approx_decimal(Fraction(1, 2)) == "0.5"

    def test_custom_digit_count(self):
        assert approx_decimal(Fraction(1, 3), digits=3) == "0.333"

    def test_plain_and_negative_values(self):
        assert approx_decimal(3) == "3"
        assert approx_decimal(-3) == "-3"
        assert approx_decimal(Fraction(-7, 2)) == "-3.5"
        assert approx_decimal(Fraction(-1, 3)) == "-0.333333"

    def test_one_third(self):
        assert approx_decimal(Fraction(1, 3)) == "0.333333"

    def test_five_thousand_digit_denominator(self):
        assert approx_decimal(Fraction(1, 10**5000 + 1)) == "1.00000E-5000"
        assert approx_decimal(Fraction(1, 10**5000 + 1), digits=3) == "1.00E-5000"

    def test_ignores_the_callers_decimal_context(self):
        with localcontext() as ctx:
            ctx.prec = 2
            ctx.rounding = ROUND_DOWN
            assert approx_decimal(Fraction(2, 3)) == "0.666667"

    def test_ignores_decimal_default_context(self):
        # a fresh Context copies whatever DefaultContext does not set
        saved = DefaultContext.rounding, DefaultContext.Emax
        DefaultContext.rounding, DefaultContext.Emax = ROUND_DOWN, 10
        try:
            assert approx_decimal(Fraction(2, 3)) == "0.666667"
            assert approx_decimal(Fraction(2, 3), digits=3) == "0.667"
            assert approx_decimal(Fraction(10**30, 3), digits=3) == "3.33E+29"
        finally:
            DefaultContext.rounding, DefaultContext.Emax = saved


@given(st.integers(), st.integers(min_value=1))
def test_round_trip(p, q):
    x = Fraction(p, q)
    assert parse_rational(format_rational(x)) == x


@given(
    st.fractions(max_denominator=10**6),
    st.fractions(max_denominator=10**6),
    st.fractions(max_denominator=10**6),
)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(st.fractions(max_denominator=10**6), st.fractions(max_denominator=10**6))
def test_trichotomy(a, b):
    assert (a < b) + (a == b) + (a > b) == 1
