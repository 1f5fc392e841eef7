"""Exact rational parsing, formatting, and display rounding."""

import copy
import pickle
from decimal import (
    ROUND_DOWN,
    ROUND_HALF_EVEN,
    Context,
    Decimal,
    DefaultContext,
    DivisionByZero,
    InvalidOperation,
    Overflow,
    localcontext,
)
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibgreedy import (
    FIBONACCI,
    LUCAS,
    RationalParseError,
    SequenceParams,
    approx_decimal,
    fib,
    format_rational,
    parse_rational,
    rationals,
)
from fibgreedy.rationals import _PRODUCT_FORM_BITS, _reciprocal_sum
from fibgreedy.sequences import seq_terms


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

    @pytest.mark.parametrize("text", [".5", "-.5", "+.25", "5.", "-5."])
    def test_reads_a_decimal_with_a_bare_dot(self, text):
        # a digit on one side of the dot is enough, as for Fraction itself
        assert parse_rational(text) == Fraction(text)

    @pytest.mark.parametrize("bad", ["", "abc", ".", "-.", "5..", "1/2/3", "1 / 2", "1e3", ".5e1", "nan"])
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


class FloatSubclass(float):
    pass


@pytest.mark.parametrize("helper", [format_rational, approx_decimal])
@pytest.mark.parametrize("x", [0.5, 3.0, -0.0, FloatSubclass(0.25)])
def test_display_helpers_refuse_floats(helper, x):
    # a float would otherwise print its binary value: 0.1 as
    # 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match=rf"not {type(x).__name__}\b"):
        helper(x)


class TestApprox:
    def test_six_significant_digits(self):
        assert approx_decimal(Fraction(9, 17)) == "0.529412"

    def test_exact_short_values_stay_short(self):
        assert approx_decimal(Fraction(1, 2)) == "0.5"

    def test_plain_and_negative_values(self):
        assert approx_decimal(3) == "3"
        assert approx_decimal(-3) == "-3"
        assert approx_decimal(Fraction(-7, 2)) == "-3.5"
        assert approx_decimal(Fraction(-1, 3)) == "-0.333333"

    def test_one_third(self):
        assert approx_decimal(Fraction(1, 3)) == "0.333333"

    def test_five_thousand_digit_denominator(self):
        assert approx_decimal(Fraction(1, 10**5000 + 1)) == "1.00000E-5000"

    def test_ignores_the_callers_decimal_context(self):
        with localcontext() as ctx:
            ctx.prec = 2
            ctx.rounding = ROUND_DOWN
            ctx.capitals = 0
            assert approx_decimal(Fraction(2, 3)) == "0.666667"
            # the exponent letter too, for small and large operands
            assert approx_decimal(Fraction(1, 10**50 + 1)) == "1.00000E-50"
            assert approx_decimal(Fraction(1, 10**5000 + 1)) == "1.00000E-5000"

    def test_ignores_decimal_default_context(self):
        # a fresh Context copies whatever DefaultContext does not set
        saved = DefaultContext.rounding, DefaultContext.Emax
        DefaultContext.rounding, DefaultContext.Emax = ROUND_DOWN, 10
        try:
            assert approx_decimal(Fraction(2, 3)) == "0.666667"
            assert approx_decimal(Fraction(10**30, 3)) == "3.33333E+29"
        finally:
            DefaultContext.rounding, DefaultContext.Emax = saved


def divided(p, q):
    # the reference: one Decimal division of the integers p and q in a
    # context with every setting given. Each is an int or its digits as a
    # string, which Decimal reads in linear time; Decimal(int) takes seconds
    # on a million digits.
    context = Context(
        prec=6,
        rounding=ROUND_HALF_EVEN,
        Emin=-999999,
        Emax=999999,
        capitals=1,
        clamp=0,
        flags=[],
        traps=[InvalidOperation, DivisionByZero, Overflow],
    )
    return str(context.divide(Decimal(p), Decimal(q)))


def sized(max_bits):
    # integers of every bit length up to max_bits
    return st.integers(min_value=0, max_value=max_bits).flatmap(
        lambda bits: st.integers(min_value=0, max_value=2**bits)
    )


# the size, in bits, that the display's operands are laid out around: window
# ends pass it from window 68 on fibonacci, and the operands below reach
# three times it
OPERAND_BITS = 380

SIZED = sized(3 * OPERAND_BITS)


@st.composite
def display_values(draw):
    """Any rational, an exact tie at the six figures rounded to, an exact
    decimal quotient, or an integer, with either sign. Operands reach three
    times OPERAND_BITS and ties are scaled by 10^j, |j| <= 400, so each kind
    falls on both sides of it."""
    kind = draw(st.sampled_from(["any", "tie", "exact", "integer"]))
    if kind == "any":
        x = Fraction(draw(SIZED), draw(SIZED) + 1)
    elif kind == "tie":
        # six figures, then a 5 with nothing after it
        c = draw(st.integers(min_value=10**5, max_value=10**6 - 1))
        x = (10 * c + 5) * Fraction(10) ** draw(st.integers(min_value=-400, max_value=400))
    elif kind == "exact":
        x = Fraction(draw(SIZED), 2 ** draw(st.integers(0, 1500)) * 5 ** draw(st.integers(0, 700)))
    else:
        x = Fraction(draw(SIZED))
    return x if draw(st.booleans()) else -x


@settings(max_examples=500, deadline=None)
@given(display_values())
def test_approx_matches_one_decimal_division(x):
    assert approx_decimal(x) == divided(*x.as_integer_ratio())


def test_approx_on_both_sides_of_the_operand_size():
    for bits in (OPERAND_BITS, OPERAND_BITS + 1):
        for x in (Fraction(1, 3 * 2 ** (bits - 2)), Fraction(2**bits - 3, 2**bits - 1)):
            assert max(x.numerator.bit_length(), x.denominator.bit_length()) == bits
            assert approx_decimal(x) == divided(*x.as_integer_ratio())
            assert approx_decimal(-x) == divided(*(-x).as_integer_ratio())


EDGE_BITS = (OPERAND_BITS - 1, OPERAND_BITS, OPERAND_BITS + 1)


def edge_operands():
    # p/q in lowest terms, p and q of every pairing of the EDGE_BITS sizes
    cases = []
    for p_bits in EDGE_BITS:
        for q_bits in EDGE_BITS:
            q = 2**q_bits - 1
            p = 2 ** (p_bits - 1) + 1
            while gcd(p, q) != 1:
                p += 2
            cases.append(Fraction(p, q))
    return cases


@pytest.mark.parametrize(
    "x",
    [
        *edge_operands(),
        Fraction(2**OPERAND_BITS - 1, 2**OPERAND_BITS - 1),  # p = q: 1
        Fraction(1, 8),
        Fraction(3, 2 ** (OPERAND_BITS + 1)),
        Fraction(2 ** (OPERAND_BITS + 1) + 1, 8),
        Fraction(10**115 + 1, 10**115),  # 383 bits
        Fraction(2**OPERAND_BITS + 1, 2 ** (OPERAND_BITS - 1)),
    ],
)
def test_approx_matches_the_decimal_operand_form(x):
    # divided() converts p and q with Decimal() before dividing, while
    # approx_decimal divides the integers itself
    assert approx_decimal(x) == divided(*x.as_integer_ratio())
    assert approx_decimal(-x) == divided(*(-x).as_integer_ratio())


def test_edge_operands_have_the_sizes_they_name():
    sizes = [(x.numerator.bit_length(), x.denominator.bit_length()) for x in edge_operands()]
    assert sizes == [(p, q) for p in EDGE_BITS for q in EDGE_BITS]


@pytest.mark.parametrize(
    "m, k, shown",
    [
        (1, 999999, "1.00000E+999999"),
        (999999, 999994, "9.99999E+999999"),
        (1, 1000000, Overflow),
        (9999995, 999993, Overflow),
        (1, -999999, "1E-999999"),
        (1, -1000004, "1E-1000004"),
        (123456, -1000005, "1.2346E-1000000"),
        (-123456, -1000005, "-1.2346E-1000000"),
        (12, -1000001, "1.2E-1000000"),
        (15, -1000005, "2E-1000004"),
        (5, -1000005, "0E-1000004"),
        (-5, -1000005, "-0E-1000004"),
    ],
    ids=[
        "largest", "largest-six-figures", "overflow", "rounds-up-to-overflow", "small",
        "smallest", "subnormal", "negative-subnormal", "exact-subnormal-sheds-zeros",
        "subnormal-tie-up", "subnormal-tie-to-zero", "negative-subnormal-to-zero",
    ],
)
def test_approx_at_the_exponent_limits(m, k, shown):
    # x = m*10^k. Emax = 999999 and Etiny = Emin - prec + 1 = -1000004, as
    # the division applies them: a larger value overflows, also by rounding
    # up, and a smaller one keeps fewer figures
    x = m * Fraction(10) ** k
    p, q = (f"{m}{'0' * k}", "1") if k >= 0 else (str(m), f"1{'0' * -k}")
    if shown is Overflow:
        with pytest.raises(Overflow):
            divided(p, q)
        with pytest.raises(Overflow):
            approx_decimal(x)
    else:
        assert approx_decimal(x) == divided(p, q) == shown


# every valid pair of seeds with a1 < 30, custom:2,2 (gcd 2) among them
SEEDS = [
    SequenceParams(a0, a1)
    for a1 in range(1, 30)
    for a0 in range(1, a1 + 1)
    if a0 * a0 + a1 * a0 - a1 * a1 > 0
]


# j as a function of i: 3i + c for c = -3..25 (around a window's right end,
# j = 3i + 2 + t*), then 2i + 1, 2.5i and 4i
SHAPES = {f"3i{c:+d}": (lambda i, c=c: 3 * i + c) for c in range(-3, 26)}
SHAPES.update({"2i+1": lambda i: 2 * i + 1, "2.5i": lambda i: 5 * i // 2, "4i": lambda i: 4 * i})


def n_c(params, c):
    # N_c = F(c)e^2 - 2F(c-1)e*a0 + F(c-2)a0^2 with e = a1 - a0, from fib
    a0, e = params.a0, params.a1 - params.a0
    return fib(c) * e * e - 2 * fib(c - 1) * e * a0 + fib(c - 2) * a0 * a0


@pytest.fixture(scope="module")
def term_pairs():
    # (params, i, a_i, j, a_j) at gaps 0, 1, 2 and 6, at gap i and at every
    # shape in SHAPES (gap 2i is 3i+0), each once with a_j just inside the
    # product form's size and once past it. At gap i, F(j - i) is as large
    # as a_i, and gcd(a_i/g, F(j - i)) runs Euclid's worst case on
    # Fibonacci-structured operands.
    cases = []
    for params in SEEDS:
        a = seq_terms(params, 3 * _PRODUCT_FORM_BITS)
        fits = [n for n in range(len(a)) if a[n].bit_length() <= _PRODUCT_FORM_BITS]
        for gap in (0, 1, 2, 6):
            for i in (fits[-1] - gap, fits[-1] + 1):
                cases.append((params, i, a[i], i + gap, a[i + gap]))
        for shape in [lambda i: 2 * i, *SHAPES.values()]:
            inside = max(n for n in fits if shape(n) <= fits[-1])
            for i in (inside, inside + 1):
                cases.append((params, i, a[i], shape(i), a[shape(i)]))
    return cases


def _assert_reduced_product_forms(reciprocal_sum, term_pairs):
    for params, i, x, j, y in term_pairs:
        value = reciprocal_sum(params, i, x, j, y)
        expected = Fraction(x + y, x * y)
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)


def test_reciprocal_sum_is_the_reduced_product_form(fib_pair_calls, gcd_calls, term_pairs):
    assert len(SEEDS) == 181 and SequenceParams(2, 2) in SEEDS
    sizes = [y.bit_length() > _PRODUCT_FORM_BITS for _, _, _, _, y in term_pairs]
    assert sizes.count(True) == sizes.count(False)
    # some pairs share a factor, and some sums share one with it as well
    assert any(gcd(x, y) > 1 for _, _, x, _, y in term_pairs)
    assert any(
        gcd(x + y, x * y) > gcd(x, y) for _, _, x, _, y in term_pairs if gcd(x, y) > 1
    )
    # The route each pair took, read off its _fib_pair calls: none (product
    # form), F(j - i) (index gap), or F(c - 2) or F(1 - c) (small modulus,
    # wherever 3j > 7i past the size). Where N_c = 0 the modulus gives way
    # to a_j/a_i by one squaring, which takes every gcd against a small
    # nonzero integer; G = gcd(a_i, |N_c|) = a_i would take a gcd against
    # zero, then one of two big integers.
    calls = fib_pair_calls
    routes = set()
    for params, i, x, j, y in term_pairs:
        calls.clear()
        gcd_calls.clear()
        _assert_reduced_product_forms(_reciprocal_sum, [(params, i, x, j, y)])
        c = j - 3 * i
        if y.bit_length() <= _PRODUCT_FORM_BITS:
            route, expected = "product", []
        elif 3 * j > 7 * i:
            route, expected = "modulus", [c - 2 if c >= 2 else 1 - c]
            if n_c(params, c) == 0:
                route = "N_c = 0"
                assert all(0 < min(map(abs, args)).bit_length() <= 64 for args in gcd_calls)
        else:
            route, expected = "index gap", [j - i]
        assert calls == expected, (params, i, j)
        routes.add(route)
    assert routes == {"product", "index gap", "modulus", "N_c = 0"}
    # N_c = 0 gives G = a_i: a_i divides a_j. Fibonacci's in-window greedy
    # pair (c = 2), lucas's (c = 4) and custom:2,3's c = 6 are such pairs.
    zeros = set()
    for params, i, x, j, y in term_pairs:
        c = j - 3 * i
        if -3 <= c <= 25 and n_c(params, c) == 0:
            assert y % x == 0
            zeros.add((params, c))
    assert {(FIBONACCI.params, 2), (LUCAS.params, 4), (SequenceParams(2, 3), 6)} <= zeros


@given(st.integers(), st.integers(min_value=1))
def test_coprime_is_indistinguishable_from_the_public_constructor(p, q):
    # every computed value is built by _coprime from its reduced integers;
    # what it returns must be Fraction(n, d) in every way a caller can see
    g = gcd(p, q)
    n, d = p // g, q // g
    value, expected = rationals._coprime(n, d), Fraction(n, d)
    assert type(value) is Fraction
    assert value == expected and hash(value) == hash(expected)
    assert not value < expected and value < expected + 1 and (value < 0) == (n < 0)
    assert (repr(value), str(value)) == (repr(expected), str(expected))
    assert value.as_integer_ratio() == expected.as_integer_ratio() == (n, d)
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is Fraction
        assert copied.as_integer_ratio() == (n, d) and hash(copied) == hash(expected)
    third = Fraction(1, 3)
    assert (value * 3 + third).as_integer_ratio() == (expected * 3 + third).as_integer_ratio()


# p/q, -p/q, p/-q, -p/-q and +p/+q, each with the signs of its parts
SIGN_SPELLINGS = [
    ("{}/{}", 1, 1), ("-{}/{}", -1, 1), ("{}/-{}", 1, -1), ("-{}/-{}", -1, -1), ("+{}/+{}", 1, 1)
]


@given(st.integers(min_value=0, max_value=10**40), st.integers(min_value=1, max_value=10**40))
@settings(max_examples=50)
def test_parse_matches_the_public_constructor_for_every_sign(p, q):
    # one gcd, its sign taken from q, reduces p/q as Fraction(p, q) does,
    # for a zero numerator and a non-reduced p/q too
    for k in (1, 6):
        for spelling, sp, sq in SIGN_SPELLINGS:
            value = parse_rational(spelling.format(k * p, k * q))
            expected = Fraction(sp * p, sq * q)
            assert type(value) is Fraction
            assert value.as_integer_ratio() == expected.as_integer_ratio()


@pytest.mark.parametrize("text", ["0/5", "0/-5", "-0/-5", "+0/+5", "0/1", "-3/-4", "3/-4", "-6/8", "6/-8"])
def test_parse_signs_and_zero(text):
    p, q = map(int, text.split("/"))
    assert parse_rational(text).as_integer_ratio() == Fraction(p, q).as_integer_ratio()


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


def zero_seeds():
    # every valid pair of seeds with a1 < 200 and some N_c = 0 for c from -6
    # to 29, with that c; N_c as in n_c, from F(c), F(c-1), F(c-2) read once
    fibs = {c: (fib(c), fib(c - 1), fib(c - 2)) for c in range(-6, 30)}
    zeros = []
    for a1 in range(1, 200):
        for a0 in range(1, a1 + 1):
            if a0 * a0 + a1 * a0 - a1 * a1 > 0:
                e = a1 - a0
                for c, (f0, f1, f2) in fibs.items():
                    if f0 * e * e - 2 * f1 * e * a0 + f2 * a0 * a0 == 0:
                        zeros.append((SequenceParams(a0, a1), c))
    return zeros


def test_reciprocal_sum_where_a_i_divides_a_j(gcd_calls):
    # N_c = 0 has the seeds g*(F(s), F(s+1)), chi = g^2, or g*(L(s), L(s+1)),
    # chi = 5g^2, with c = 2s; F(s+1) < 200 bounds c by 22. Each pair, at
    # j = 3i + c just inside the product form's size and just past it, is
    # the reduced product form. Past it, a_j/a_i comes by one squaring and
    # every gcd is against a small nonzero integer; some sums reduce further
    # than by a_i, by the common factor h of the quotient plus one and a_i.
    seeds = zero_seeds()
    assert len(seeds) == 378
    assert {c for _, c in seeds} == set(range(2, 23, 2))
    assert len({params for params, _ in seeds}) == len(seeds)
    for params, c in seeds:
        g = gcd(*params)
        assert params.chi in (g * g, 5 * g * g)
    reduced = 0
    for params, c in seeds:
        a = seq_terms(params, 1500)  # a_1500 has more than 1000 bits for every seed
        inside = max(i for i in range(490) if a[3 * i + c].bit_length() <= _PRODUCT_FORM_BITS)
        for i in (inside, inside + 1):
            x, y = a[i], a[3 * i + c]
            assert y % x == 0
            gcd_calls.clear()
            _assert_reduced_product_forms(_reciprocal_sum, [(params, i, x, 3 * i + c, y)])
            if i > inside:
                assert all(0 < min(map(abs, args)).bit_length() <= 64 for args in gcd_calls)
                reduced += Fraction(x + y, x * y).denominator < y
    assert reduced
