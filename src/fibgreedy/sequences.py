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

from collections import namedtuple

from .errors import SelfCheckError, SequenceValidationError

__all__ = [
    "fib",
    "SequenceParams",
    "SequencePreset",
    "FIBONACCI",
    "LUCAS",
    "seq_term",
    "seq_pair",
    "seq_terms",
    "seq_term_from_fibs",
    "index_below",
    "parse_sequence_spec",
    "classical_label",
]


def _fib_pair(n: int) -> tuple[int, int]:
    # fast doubling: (F(n), F(n+1)) for n >= 0, O(log n) big-int operations
    if n == 0:
        return 0, 1
    a, b = _fib_pair(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    if n & 1:
        return d, c + d
    return c, d


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

    Construction rejects seeds violating any condition, naming the failed one.
    """

    __slots__ = ()

    def __new__(cls, a0: int, a1: int) -> SequenceParams:
        self = super().__new__(cls, a0, a1)
        if a0 <= 0:
            raise SequenceValidationError(f"a0 must be positive, got {a0}")
        if a1 < 1:
            raise SequenceValidationError(f"a1 must be at least 1, got {a1}")
        if a0 > a1:
            raise SequenceValidationError(
                f"a0 must not exceed a1, got a0={a0}, a1={a1}"
            )
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
    """(a_n, a_{n+1}) from one fast-doubling call; nothing is retained."""
    if n < 0:
        raise ValueError(f"sequence index must be nonnegative, got {n}")
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
    if upto < 0:
        raise ValueError(f"sequence index must be nonnegative, got {upto}")
    terms = [params.a0, params.a1][: upto + 1]
    while len(terms) <= upto:
        terms.append(terms[-1] + terms[-2])
    return terms


def index_below(
    params: SequenceParams, num: int, den: int, start: int, a: int, b: int
) -> tuple[int, int, int]:
    """Smallest n >= start with num*a_n > den, i.e. 1/a_n < num/den, as
    (n, a_n, a_{n+1}); (a, b) must be (a_start, a_{start+1}) and num, den > 0.

    Predict, then certify. Since a_{s+1} <= 2*a_s for every valid sequence,
    a_{s+k} <= F(k+2)*a_s < a_s*phi^(k+1), so the bit-length guess
    k = (bits(den) - bits(num) - bits(a_s) - 2) / log2(phi), rounded down,
    leaves num*a_{s+k} < 2^(bits(den)-1) <= den: the guess never overshoots.
    It is still checked exactly, and a guess that already satisfies the bound
    raises SelfCheckError. From a_{s+k} >= F(k+1)*a_s, the remaining walk up
    the recurrence is a handful of steps.
    """
    # 0.6943 sits just above log2(phi) = 0.69424, so k errs low
    k = (den.bit_length() - num.bit_length() - a.bit_length() - 2) * 10000 // 6943
    n = start
    if k > 0:
        n = start + k
        a, b = seq_pair(params, n)
        if num * a > den:
            raise SelfCheckError(
                f"index guess {n} from start {start} overshoots for {params}"
            )
    while num * a <= den:
        n, a, b = n + 1, b, a + b
    return n, a, b


def seq_term_from_fibs(params: SequenceParams, n: int) -> int:
    """a_n through the linear form a0*F(n-1) + a1*F(n).

    Evaluates F(n-1) and F(n) separately, apart from seq_pair's single
    fast-doubling call; the tests compare both with the recurrence.
    """
    if n < 0:
        raise ValueError(f"sequence index must be nonnegative, got {n}")
    return params.a0 * fib(n - 1) + params.a1 * fib(n)


class SequencePreset(namedtuple("SequencePreset", "name params")):
    """A named sequence choice: one of the presets or custom seeds."""

    __slots__ = ()


FIBONACCI = SequencePreset("fibonacci", SequenceParams(1, 1))  # a_n = F(n+1)
LUCAS = SequencePreset("lucas", SequenceParams(3, 4))  # a_n = L(n+2)


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
            raise SequenceValidationError(
                f"custom sequence must be 'custom:a0,a1', got {text!r}"
            )
        try:
            a0, a1 = int(parts[0]), int(parts[1])
        except ValueError:
            raise SequenceValidationError(
                f"custom seeds must be integers, got {text!r}"
            ) from None
        return SequencePreset("custom", SequenceParams(a0, a1))
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
