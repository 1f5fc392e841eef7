"""Exact rational parsing and formatting.

Values are plain ``fractions.Fraction`` objects in lowest terms, denominator
positive, at the edges of a computation only: parsing yields the target, and
each returned value is one reduced Fraction; in between, the greedy search,
the window test and the oracle compare unreduced integer cross-products.
``_coprime`` builds every value computed from integers, reduced by its
caller, skipping ``Fraction.__new__``; only a decimal string or a target
that is not a Fraction goes through ``Fraction(...)``. Sums 1/a_i + 1/a_j
come from ``_reciprocal_sum``, whose docstring proves how it reduces large
terms. No float ever enters a computation; the only decimal output is the
approximate display helper below: the string that one decimal division of
the value's integers gives at six digits, half-even, within decimal's
default exponent limits, computed in integers with no decimal context: one
divmod, scaled by a power of ten taken from the bit lengths, gives six
figures and a remainder, on which they round half-even, laid out as
``Context.to_sci_string`` lays out a Decimal. Past Emax = 999999 it raises
``decimal.Overflow``; below Etiny = -1000004 it keeps fewer figures.
"""

from __future__ import annotations

import re
from decimal import Overflow
from fractions import Fraction
from math import gcd

from .errors import RationalParseError
from .sequences import SequenceParams, _digit_limit, _fib_pair

__all__ = ["parse_rational", "format_rational", "approx_decimal"]

# sign allowed on both parts of p/q; a decimal needs a digit on one side of
# the dot at least, as Fraction reads it (".5", "5.", "5.25"), and no exponent
_FRACTION_RE = re.compile(r"\A([+-]?\d+)/([+-]?\d+)\Z")
_DECIMAL_RE = re.compile(r"\A[+-]?(\d+\.?\d*|\.\d+)\Z")


# decimal's default exponent limits, as approx_decimal applies them at six
# figures: the largest adjusted exponent, and the exponent of the last figure
# a value far below Emin = -999999 keeps (Etiny = Emin - 6 + 1)
_EMAX = 999999
_ETINY = -1000004

# "0." and then k zeros, at index k: the lead of a plain display below 1
_LEADING = ("0.", "0.0", "0.00", "0.000", "0.0000", "0.00000")

# 10^k for k < 32, the scales of values between about 1e-26 and 1e37; a
# lookup costs a tenth of computing the power, which larger scales do
_POWERS_OF_TEN = tuple(10**k for k in range(32))

# Up to this many bits in the larger term, _reciprocal_sum reduces
# (x + y)/(x*y) by one gcd; above it, from G. Gap forms over Fraction(x + y,
# x*y), medians of nine (Python 3.11.7), at 600 and 1000 bits: adjacent
# terms 0.91-1.00 and 0.77-0.82, a window's right end 0.78-0.96 and
# 0.66-0.73, j = 2i + 1 0.96-1.40 and 0.87-1.28. The cut-off sits where
# every shape measured but j = 2i + 1 is at most even.
_PRODUCT_FORM_BITS = 1000


def _coprime(n: int, d: int) -> Fraction:
    """Fraction(n, d) for coprime n and d > 0, by setting its two slots as
    3.12's private ``Fraction._from_coprime_ints`` does: ``Fraction.__new__``
    is Python code that checks and reduces again, twice the cost on 3.11.
    Every computed value is built here, after at most one gcd by its caller."""
    value = object.__new__(Fraction)
    value._numerator, value._denominator = n, d
    return value


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or a finite decimal (``"27/50"``, ``"0.54"``, ``".5"``, ``"-3"``).

    The result is exact: ``"0.54"`` becomes 27/50, not a float. Raises
    RationalParseError naming the offending text, or the size of a part
    past the interpreter's int-string limit, or ZeroDivisionError for a
    zero denominator.
    """
    s = text.strip()
    m = _FRACTION_RE.match(s)
    if m is None and _DECIMAL_RE.match(s) is None:
        raise RationalParseError(f"not a rational number: {text!r}")
    try:
        if m is None:
            return Fraction(s)
        p, q = int(m.group(1)), int(m.group(2))
    except ValueError:  # the text matched the grammar, so a part is past the digit limit
        longest = max(re.findall(r"\d+", s), key=len)
        raise RationalParseError(_digit_limit("a part of the rational", longest)) from None
    if q == 0:
        raise ZeroDivisionError(f"zero denominator in {text!r}")
    g = gcd(p, q) if q > 0 else -gcd(p, q)  # the sign goes to the numerator
    return _coprime(p // g, q // g)


def format_rational(x: Fraction | int) -> str:
    """Canonical ``"p/q"`` in lowest terms, or bare ``"p"`` for integers.
    Refuses a float with TypeError rather than print its binary value."""
    if isinstance(x, float):
        raise TypeError(f"x must be exact (Fraction or int), not {type(x).__name__}")
    p, q = x.as_integer_ratio()
    return str(p) if q == 1 else f"{p}/{q}"


def _reciprocal_sum(params: SequenceParams, i: int, x: int, j: int, y: int) -> Fraction:
    """1/x + 1/y in lowest terms, for x = a_i and y = a_j with i <= j.

    Up to _PRODUCT_FORM_BITS in y, one gcd of the product form. Above it, with
    G = gcd(x, y), x' = x/G, y' = y/G and h = gcd(x' + y', G), the sum is
    (x' + y')/h over (G/h)*x'*y', already in lowest terms, so it is built
    without a second normalisation. G comes by one of two routes, chosen
    from i and j alone.

    Index gap. With g = gcd(a0, a1), gcd(a_i/g, a_{i+1}/g) = 1 and a_j =
    F(j-i-1)*a_i + F(j-i)*a_{i+1}, so G = g*gcd(x/g, F(j-i)): a gcd against
    F(j-i), about y/x, instead of y. Adjacent terms (F(1) = 1) need no big
    gcd at all, and a repeated index (F(0) = 0) gives G = x.

    Small modulus, wherever 3j > 7i. Write c = j - 3i, e = a1 - a0,
    f = F(i), f' = F(i+1) and N_c = F(c)e^2 - 2F(c-1)e*a0 + F(c-2)a0^2, with
    F(-k) = (-1)^(k+1) F(k). Take g = 1 first; then G = gcd(x, F(j-i)).
    Since a_i = a0*f' + e*f and F(2i+c) = F(c)f'^2 + 2F(c-1)f*f' + F(c-2)f^2,
    modulo a_i, where a0*f' = -e*f,

        a0^2 * F(j-i) = f^2 * N_c   and   e^2 * F(j-i) = f'^2 * N_c.

    Let p^k divide a_i, p prime. If p does not divide a0, it does not divide
    gcd(a_i, f) = gcd(a0, f), so a0 and f are units modulo p^k and the first
    congruence gives: p^k divides F(j-i) exactly when it divides N_c.
    Otherwise p does not divide e (g = 1) nor gcd(a_i, f') = gcd(e, f'), and
    the second one gives the same. Hence G = gcd(x, N_c). For any g, the
    terms and G are g times, and N_c is g^2 times, those of the seeds
    (a0/g, a1/g), so G = gcd(x, |N_c|/g): one remainder of x by a small
    integer, then a gcd of small integers. N_c = 0 gives G = x: a_i divides
    a_j, as for fibonacci at c = 2 and lucas at c = 4, and the route below
    takes over. |N_c|/g is about F(|c|) times the seeds' square, so past
    j = 7i/3 it stays below F(j - i), and below its square root for c < 0;
    nearer j = 2i it grows to the size of x and its gcd costs more than the
    index gap's.

    N_c = 0, by one squaring. N_c is a quadratic form in (e, a0) with
    discriminant 4(F(c-1)^2 - F(c)F(c-2)) = 4(-1)^c, so it has a rational
    zero only for c even, at e/a0 = (F(c-1) ± 1)/F(c). For c = 2s, with
    F(2s) = F(s)L(s) and F(2s-1) ± 1 = F(s)L(s-1) or F(s-1)L(s), those are
    L(s-1)/L(s) and F(s-1)/F(s), in lowest terms (for c < 0, F(c) < 0 <
    F(c-1) - 1 makes both negative, and N_0 = -a0(2e + a0) < 0). So the
    seeds are g*(F(s), F(s+1)), with chi = (-1)^(s+1) g^2, or
    g*(L(s), L(s+1)), with chi = 5(-1)^s g^2; positive chi makes s odd in
    the first family and even in the second, and chi = g^2 or 5g^2 tells
    the two apart. Then x = g*u and y = g*U for u = F(k), U = F(3k) or
    u = L(k), U = L(3k), with k = i + s and j + s = 3k, so y/x is
    Q = 5u^2 + 3(-1)^k or u^2 - 3(-1)^k, by F(3k) = 5F(k)^3 + 3(-1)^k F(k)
    and L(3k) = L(k)^3 - 3(-1)^k L(k).
    Both are Q = (5g^2/chi)*u^2 + r with r = -3(-1)^i, since s is odd in
    the one and even in the other. The sum is (Q + 1)/y, and its common
    factor h = gcd(Q + 1, y) = gcd(Q + 1, x), since Q and Q + 1 are coprime.
    As Q + 1 = (r + 1) + (5g^2/chi)*u^2, every common divisor of Q + 1 and
    g*u divides g*(r + 1), so h = gcd(x, gcd(Q + 1, g*(r + 1))): two
    remainders by small integers. The route takes the greedy value of every
    target inside window n, the pair (2n + 2, 6n + 9 + t*) with c = 3 + t*,
    where c = 2s: on fibonacci, lucas, custom:2,2 and custom:89,144.
    """
    if y.bit_length() <= _PRODUCT_FORM_BITS:
        s, t = x + y, x * y
        h = gcd(s, t)
        return _coprime(s // h, t // h)
    a0, a1 = params
    g = gcd(a0, a1)
    if 3 * j > 7 * i:
        c = j - 3 * i
        if c >= 2:
            f2, f1 = _fib_pair(c - 2)  # F(c-2), F(c-1)
        else:  # (F(c-2), F(c-1)) = ±(F(2-c), -F(1-c)); |N_c| drops the sign
            f1, f2 = _fib_pair(1 - c)
            f1 = -f1
        e = a1 - a0
        n_c = f2 * (e * e + a0 * a0) + f1 * e * (e - 2 * a0)  # F(c) = F(c-1) + F(c-2)
        if n_c == 0:  # y/x = 5u^2 + r or u^2 + r for u = x/g, r = -3(-1)^i
            r = 3 if i & 1 else -3
            quotient = 5 * g * g // params.chi * (x // g) ** 2 + r
            h = gcd(x, gcd(quotient + 1, g * (r + 1)))
            return _coprime((quotient + 1) // h, y // h)
        common = gcd(x, abs(n_c) // g)
    else:
        common = g * gcd(x // g, _fib_pair(j - i)[0])
    x, y = x // common, y // common
    s = x + y
    h = gcd(s, common)
    return _coprime(s // h, common // h * x * y)


def approx_decimal(x: Fraction | int) -> str:
    """Six significant figures of x, display only: the string that one
    division of x's integers gives in a decimal context of six digits,
    ROUND_HALF_EVEN and decimal's default exponent limits, computed in
    integers at any magnitude. It reads no decimal context and refuses a
    float with TypeError.

    Figures. For x = p/q and a = |p|, the bit lengths give d with
    2^d < a/q < 2^(d+2). Then e = floor(d*log10(2)) - 5, with log10(2)
    rounded so that e errs low, puts a/q at 10^5 * 10^e or more, and one
    divmod of a*10^-e by q (or of a by q*10^e) gives six figures or more and
    the remainder. While there are seven, the last one moves into the
    remainder and e rises by one. The figures round half-even on the
    remainder: up when it is over half the divisor, to even on an exact
    half. A carry to 10^6 moves the last figure one place up.

    Limits. No figure is kept below Etiny = -1000004: a smaller value keeps
    fewer figures, rounded at that exponent, down to 0E-1000004. An
    adjusted exponent past Emax = 999999, before or after the carry, raises
    decimal.Overflow.

    Layout, as Context.to_sci_string: plain notation where the exponent is
    at most 0 and the adjusted exponent at least -6, scientific notation
    otherwise. An exact quotient sheds trailing zeros down to the units
    place, as the division's ideal exponent 0 asks.
    """
    if isinstance(x, float):
        raise TypeError(f"x must be exact (Fraction or int), not {type(x).__name__}")
    p, q = x.as_integer_ratio()
    if p > 0:
        a = p
    elif p:
        a = -p
    else:
        return "0"
    d = a.bit_length() - q.bit_length() - 1
    # log10(2) lies between 0.30102 and 0.30103
    e = d * (30103 if d < 0 else 30102) // 100000 - 5
    if e < 0:
        if e < _ETINY:
            e = _ETINY
        den = q
        c, rest = divmod(a * (_POWERS_OF_TEN[-e] if e > -32 else 10**-e), q)
    else:
        den = q * (_POWERS_OF_TEN[e] if e < 32 else 10**e)
        c, rest = divmod(a, den)
    while c >= 1000000:
        c, last = divmod(c, 10)
        rest += last * den
        den *= 10
        e += 1
    if 2 * rest > den or 2 * rest == den and c & 1:
        c += 1
        if c == 1000000:
            c, e = 100000, e + 1
    digits = str(c)
    if -12 < e < 0:  # plain, with all six figures
        point = e + 6  # figures before the decimal point
        text = f"{digits[:point]}.{digits[point:]}" if point > 0 else _LEADING[-point] + digits
        if not rest:
            text = text.rstrip("0").rstrip(".")
    elif not e:
        text = digits
    else:  # scientific: an exponent above 0, or an adjusted exponent below -6
        point = e + len(digits)
        if point - 1 > _EMAX:
            raise Overflow(f"approx_decimal: the value rounds past Emax = {_EMAX}")
        if e < 0 and not rest:
            digits = digits.rstrip("0")
        mantissa = f"{digits[0]}.{digits[1:]}" if len(digits) > 1 else digits
        text = f"{mantissa}E{'+' if point > 0 else ''}{point - 1}"
    return text if p > 0 else "-" + text
