"""Fibonacci numbers on all integer indices, and Fibonacci-type sequences.

A Fibonacci-type sequence is fixed by two seeds (a0, a1) with

    a0 > 0,  a1 >= 1,  a0 <= a1,  chi = a0^2 + a1*a0 - a1^2 > 0,

and every later term the sum of the previous two. The conditions force
1 <= a_1 < a_2 < a_3 < ... , so reciprocals of the usable terms (index >= 1)
are strictly decreasing, and a_{n+2} > 2*a_n for n >= 1.

Two presets are exposed: "fibonacci" (seeds 1, 1; a_n equals the classical
F_{n+1}) and "lucas" (seeds 3, 4; a_n equals the classical L_{n+2}).
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from math import prod

from .errors import SelfCheckError, SequenceValidationError

__all__ = [
    "fib",
    "SequenceParams",
    "SequencePreset",
    "FIBONACCI",
    "LUCAS",
    "seq_term",
    "seq_term_from_fibs",
    "parse_sequence_spec",
    "classical_label",
]


def _fibs_below(limit: int) -> tuple[int, ...]:
    """F(0), F(1), ... up to the last Fibonacci number below limit."""
    fibs, a, b = [], 0, 1
    while a < limit:
        fibs.append(a)
        a, b = b, a + b
    return tuple(fibs)


# F(0)..F(93), every Fibonacci number below 2^64: the base case of
# _fib_pair. At these sizes a doubling level costs call and tuple overhead,
# not arithmetic: a lookup at n = 64 takes about 0.1 us against 1.9 us for
# the recursion down to n = 0 (Python 3.11.7). 94 integers, 3.6 KB; each
# doubling of the table would cut only one more level.
_SMALL_FIBS = _fibs_below(1 << 64)
_SMALL_TOP = len(_SMALL_FIBS) - 1  # pairs (F(n), F(n+1)) for n < 93 are lookups


def _fib_pair(n: int) -> tuple[int, int]:
    """(F(n), F(n+1)) for n >= 0 by fast doubling, two squarings per level,
    recursing down to n < _SMALL_TOP and its two table lookups.

    With a, b = F(k), F(k+1) and k = n >> 1: F(2k+1) = a^2 + b^2 and
    F(2k+3) = 4b^2 - a^2 + 2(-1)^(k+1), so F(2k+2) = F(2k+3) - F(2k+1) =
    3b^2 - 2a^2 + 2(-1)^(k+1) and F(2k) = F(2k+2) - F(2k+1) =
    2b^2 - 3a^2 + 2(-1)^(k+1).
    """
    if n < _SMALL_TOP:
        return _SMALL_FIBS[n], _SMALL_FIBS[n + 1]
    a, b = _fib_pair(n >> 1)
    a, b = a * a, b * b
    sign = 2 if n & 2 else -2  # 2(-1)^(k+1)
    if n & 1:
        return a + b, 3 * b - 2 * a + sign
    return 2 * b - 3 * a + sign, a + b


def _require_int(name: str, value, least: int | None = 0) -> None:
    """The one rule for integer arguments: TypeError naming the argument and
    its type unless value is an int (a bool is refused), and ValueError for a
    value below the floor least. least=None states no floor: the seeds',
    which ``SequenceParams`` states as domain errors."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    if least is not None and value < least:
        floor = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {floor}, got {value}")


def fib(n: int) -> int:
    """Fibonacci number F(n) for any integer n, exactly.

    Negative indices use the reflection F(-k) = (-1)^(k+1) * F(k), which
    agrees with running the recurrence backwards. Comfortable up to |n| of a
    million and beyond.
    """
    if n >= 0:
        return _fib_pair(n)[0]
    k = -n
    f = _fib_pair(k)[0]
    return f if k & 1 else -f


class SequenceParams(namedtuple("SequenceParams", "a0 a1")):
    """Validated seeds of one Fibonacci-type sequence.

    Construction rejects seeds violating any condition, naming the failed one,
    and a seed that is not an int, or is a bool, with TypeError.
    """

    __slots__ = ()

    def __new__(cls, a0: int, a1: int) -> SequenceParams:
        _require_int("a0", a0, least=None)
        _require_int("a1", a1, least=None)
        self = super().__new__(cls, a0, a1)
        if a0 <= 0:
            raise SequenceValidationError(f"a0 must be positive, got {a0}")
        if a1 < 1:
            raise SequenceValidationError(f"a1 must be at least 1, got {a1}")
        if a0 > a1:
            raise SequenceValidationError(f"a0 must not exceed a1, got a0={a0}, a1={a1}")
        if self.chi <= 0:
            raise SequenceValidationError(
                f"chi must be positive: a0={a0}, a1={a1} give chi={self.chi}"
            )
        return self

    @classmethod
    def _make(cls, iterable) -> SequenceParams:
        # the tuple default skips __new__; _replace goes through here too
        return cls(*iterable)

    @property
    def chi(self) -> int:
        """The positive invariant a0^2 + a1*a0 - a1^2."""
        return self.a0 * self.a0 + self.a1 * self.a0 - self.a1 * self.a1


def seq_pair(params: SequenceParams, n: int) -> tuple[int, int]:
    """(a_n, a_{n+1}) from one ``_fib_pair`` call: two table lookups for
    n < 93, else fast doubling down to the table; nothing is retained."""
    _require_int("sequence index", n)
    f, g = _fib_pair(n)  # F(n), F(n+1); F(n-1) = F(n+1) - F(n)
    return params.a0 * (g - f) + params.a1 * f, params.a0 * f + params.a1 * g


def seq_term(params: SequenceParams, n: int) -> int:
    """Term a_n (0-based), by fast doubling in O(log n) big-int operations."""
    return seq_pair(params, n)[0]


def seq_terms(params: SequenceParams, upto: int) -> list[int]:
    """Terms a_0..a_upto by the recurrence itself, in a fresh list.

    Independent of the fast-doubling path of seq_term; the verification
    suites sweep identities over this list and compare it with seq_term.
    """
    _require_int("sequence index", upto)
    terms = [params.a0, params.a1][: upto + 1]
    while len(terms) <= upto:
        terms.append(terms[-1] + terms[-2])
    return terms


# Above this many bits, comparisons decide from leading bits before forming
# any product: in index_below (its docstring says which), in the oracle's
# a_g2 and in the classifier's a_g1. classify + oracle_best with every path
# forced, factored over plain (Python 3.11.7): 1.11-1.14 at 1000 bits,
# 0.72-0.83 at 1750 and 0.71-0.90 at 2000. One comparison that leading bits
# decide takes 2.7 us plain against 1.9 factored at 1000 bits, and 1036
# against 1.8 at 33 000. The cut-off sits past the crossover, near
# Karatsuba's; small targets stay on the plain products.
_NEAR_TIE_BITS = 2000

# Up to this index jump k, index_below steps to a_{s+k} from the pair
# (a_s, a_{s+1}) it holds instead of evaluating a_{s+k} afresh. Step over
# fast-doubling time (Python 3.11.7): 0.69-0.96 at k = 512 for s = 600 to
# 3000, 0.92-1.13 at k = 768. The crossover grows with s, from k near 600 at
# s = 1000 to 11 000 at s = 150 000, so the cut-off sits where no size
# measured loses.
_STEP_JUMP = 512


def _lead(xs: tuple[int, ...]) -> tuple[int, int, int, int]:
    """(sum of bit lengths, lo, hi, shift) for positive integers xs, with
    lo * 2^shift <= prod(xs) <= hi * 2^shift from each factor's leading 64
    bits: x >> s <= x / 2^s < (x >> s) + 1."""
    total, lo, hi, shift = 0, 1, 1, 0
    for x in xs:
        b = x.bit_length()
        total += b
        if b > 64:
            h = x >> (b - 64)
            lo, hi, shift = lo * h, hi * (h + 1), shift + b - 64
        else:
            lo, hi = lo * x, hi * x
    return total, lo, hi, shift


def _leading_exceeds(xs: tuple[int, ...], ys: tuple[int, ...]) -> bool | None:
    """prod(xs) > prod(ys) for tuples of positive integers where leading bits
    decide it, else None: the near-tie that only exact work settles.

    A product of k factors with bit lengths summing to B lies in
    [2^(B-k), 2^B), so bit lengths decide whenever the sums differ by the
    factor counts. Otherwise each side lies between two integer bounds built
    from its factors' leading 64 bits (``_lead``), and bounds that do not
    overlap decide. None is left only where the products agree to about 62
    bits less the factor counts. No float enters.
    """
    bx, lo_x, hi_x, sx = _lead(xs)
    by, lo_y, hi_y, sy = _lead(ys)
    if bx - len(xs) >= by:
        return True
    if by - len(ys) >= bx:
        return False
    # the bit-length sums are close, so the bounds' shifts differ by little
    if sx >= sy:
        lo_x, hi_x = lo_x << (sx - sy), hi_x << (sx - sy)
    else:
        lo_y, hi_y = lo_y << (sy - sx), hi_y << (sy - sx)
    if lo_x > hi_y:
        return True
    if hi_x <= lo_y:
        return False
    return None


def _exceeds(xs: tuple[int, ...], ys: tuple[int, ...]) -> bool:
    """prod(xs) > prod(ys) for tuples of positive integers, exactly: by
    ``_leading_exceeds``, and by the full products on the near-tie it leaves.
    A caller that can settle its near-tie more cheaply than by the products,
    as the index search and the oracle's tests do, takes ``_leading_exceeds``
    alone."""
    decided = _leading_exceeds(xs, ys)
    return prod(xs) > prod(ys) if decided is None else decided


def index_below(
    params: SequenceParams, num: int, q: int, r: int, start: int, a: int, b: int
) -> tuple[int, int, int, int | None]:
    """Smallest n >= start with num*a_n > q*r, i.e. 1/a_n < num/(q*r), as
    (n, a_n, a_{n+1}, rem); (a, b) must be (a_start, a_{start+1}) and num, q
    and r positive. A remainder p/q - 1/a comes as num = p*a - q over (q, a);
    a one-factor bound comes as (q, 1). rem is num*a_n - q*r, the next
    remainder's numerator, where a near-tie made the factored walk form it
    to settle its last comparison, and None otherwise: a caller that needs
    it forms it only then, so a big remainder is multiplied out once.

    Predict, then certify. Since a_{s+1} <= 2*a_s for every valid sequence,
    a_{s+k} <= F(k+2)*a_s < a_s*phi^(k+1), so the bit-length guess
    k = (bits(q*r) - bits(num) - bits(a_s) - 2) / 0.694242, rounded down,
    leaves num*a_{s+k} < 2^(bits(q*r)-1) <= q*r: the constant sits just above
    log2(phi) = 0.6942419, so the guess never overshoots. It is still checked
    exactly: a guess that already satisfies the bound at the walk's first
    comparison raises SelfCheckError. From a_{s+k} >= F(k+1)*a_s, the
    remaining walk up the recurrence is a handful of steps. A jump of at
    most _STEP_JUMP steps from the pair it holds: a_{s+k} = F(k-1)*a_s +
    F(k)*a_{s+1}, from one ``_fib_pair(k)``; a longer one evaluates
    (a_{s+k}, a_{s+k+1}) by ``seq_pair``.

    Each comparison num*a_n > q*r takes one of two forms. Factored: leading
    bits decide it, ``_leading_exceeds((num, a_n), (q, r))``, and on a
    near-tie the difference num*a_n - q*r is formed and its sign decides.
    Plain: den = q*r is formed once, and num*a_n is multiplied only near the
    answer, since while bits(num) + bits(a_n) < bits(den), num*a_n <
    2^(bits(num)+bits(a_n)) <= 2^(bits(den)-1) <= den. The walk is factored
    when a product on either side would multiply two numbers of more than
    _NEAR_TIE_BITS bits: when r has that many, since every term a
    remainder's search compares is at least r, or when num and the answer's
    term, of about bits(q*r) - bits(num) bits, both have. It is plain
    otherwise: a big num times a small term is a cheap product, which
    leading bits would not beat. q*r is formed only for r at or below the
    switch, and for a bigger r the guess takes bits(q) + bits(r) - 1, a
    lower bound on bits(q*r), which only lowers it.
    """
    num_bits = num.bit_length()
    den = None if r.bit_length() > _NEAR_TIE_BITS else q * r
    den_bits = q.bit_length() + r.bit_length() - 1 if den is None else den.bit_length()
    if num_bits > _NEAR_TIE_BITS and den_bits - num_bits > _NEAR_TIE_BITS:
        den = None  # num and the answer's term both big: the factored walk too
    k = (den_bits - num_bits - a.bit_length() - 2) * 1000000 // 694242
    n = start
    if k > 0:
        n = start + k
        if k <= _STEP_JUMP:  # a_{s+k} = F(k-1)*a_s + F(k)*a_{s+1}
            f, g = _fib_pair(k)
            a, b = (g - f) * a + f * b, f * a + g * b
        else:
            a, b = seq_pair(params, n)
    rem = None
    if den is None:
        while True:
            above = _leading_exceeds((num, a), (q, r))
            if above is None:  # a near-tie: the difference's sign settles it
                rem = num * a - q * r
                if rem > 0:
                    break
                rem = None
            elif above:
                break
            n, a, b = n + 1, b, a + b
    else:
        while num_bits + a.bit_length() < den_bits or num * a <= den:
            n, a, b = n + 1, b, a + b
    if k > 0 and n == start + k:
        raise SelfCheckError(f"index guess {n} from start {start} overshoots for {params}")
    return n, a, b, rem


def seq_term_from_fibs(params: SequenceParams, n: int) -> int:
    """a_n through the linear form a0*F(n-1) + a1*F(n).

    Evaluates F(n-1) and F(n) separately, apart from seq_pair's single
    fast-doubling call; the tests compare both with the recurrence.
    """
    _require_int("sequence index", n)
    return params.a0 * fib(n - 1) + params.a1 * fib(n)


class SequencePreset(namedtuple("SequencePreset", "name params")):
    """A named sequence choice: one of the presets or custom seeds."""

    __slots__ = ()


FIBONACCI = SequencePreset("fibonacci", SequenceParams(1, 1))  # a_n = F(n+1)
LUCAS = SequencePreset("lucas", SequenceParams(3, 4))  # a_n = L(n+2)


def _digit_limit(what: str, digits: int) -> str:
    """The message for an integer of this many digits that the interpreter's
    int-string limit refuses to convert, from text (a literal int() refuses)
    or to text (an answer str() refuses): the digit count and the limit, not
    the digits, and no advice to raise the limit, which a command-line user
    cannot follow."""
    return (
        f"{what} has {digits} digits, over the interpreter's "
        f"limit of {sys.get_int_max_str_digits()} digits for integer conversion"
    )


def _seed(text: str, part: str) -> int:
    """A custom seed as int() reads it. int() refuses a well-formed literal
    only past the interpreter's digit limit; that error gives the size."""
    try:
        return int(part)
    except ValueError:
        if re.fullmatch(r"[+-]?\d+(?:_\d+)*", part.strip()) is None:
            raise SequenceValidationError(f"custom seeds must be integers, got {text!r}") from None
        digits = sum(c.isdecimal() for c in part)
        raise SequenceValidationError(_digit_limit("custom seed", digits)) from None


def parse_sequence_spec(text: str) -> SequencePreset:
    """Parse ``"fibonacci"``, ``"lucas"``, or ``"custom:a0,a1"``."""
    s = text.strip()
    if s == "fibonacci":
        return FIBONACCI
    if s == "lucas":
        return LUCAS
    if s.startswith("custom:"):
        body = s[len("custom:") :]
        parts = body.split(",")
        if len(parts) != 2:
            raise SequenceValidationError(f"custom sequence must be 'custom:a0,a1', got {text!r}")
        return SequencePreset("custom", SequenceParams(*(_seed(text, part) for part in parts)))
    raise SequenceValidationError(
        f"unknown sequence spec {text!r} (expected 'fibonacci', 'lucas', or 'custom:a0,a1')"
    )


def classical_label(preset: SequencePreset, index: int) -> str | None:
    """Classical subscript of a_index for presets: F_{index+1} or L_{index+2}."""
    if preset.name == "fibonacci":
        return f"F_{index + 1}"
    if preset.name == "lucas":
        return f"L_{index + 2}"
    return None
