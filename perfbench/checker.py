"""Independent answer checker for the benchmark.

Imports nothing from ``fibgreedy``: terms come from fast doubling (or a
plain recurrence for small indices), index searches are estimated from bit
lengths and then certified exactly, the cutoff xi is certified by its
defining inequality ``a_{2n+3+s}*chi <= bound < a_{2n+4+s}*chi``, and the best
two-term sum of a small target comes from brute-force pair enumeration.

Sequences are given by their seeds ``(a0, a1)``; a_n = a0*F(n-1) + a1*F(n).
"""

from __future__ import annotations

import math
from fractions import Fraction

LOG2_PHI = math.log2((1 + 5**0.5) / 2)

PRESET_SEEDS = {"fibonacci": (1, 1), "lucas": (3, 4)}
CLOSED_FORM_OFFSET = {"fibonacci": 4, "lucas": 6}  # xi(n) = 4n + offset


def seeds_of(spec: str) -> tuple[int, int]:
    """Seeds of ``fibonacci``, ``lucas`` or ``custom:a0,a1``."""
    if spec in PRESET_SEEDS:
        return PRESET_SEEDS[spec]
    a0, a1 = spec.removeprefix("custom:").split(",")
    return int(a0), int(a1)


def chi(seeds: tuple[int, int]) -> int:
    a0, a1 = seeds
    return a0 * a0 + a1 * a0 - a1 * a1


def fib_pair(n: int) -> tuple[int, int]:
    """(F(n), F(n+1)) for n >= 0 by iterative fast doubling."""
    a, b = 0, 1
    for bit in bin(n)[2:]:
        c = a * (2 * b - a)
        d = a * a + b * b
        a, b = (d, c + d) if bit == "1" else (c, d)
    return a, b


def term_pair(seeds: tuple[int, int], n: int) -> tuple[int, int]:
    """(a_n, a_{n+1}) for n >= 0."""
    a0, a1 = seeds
    if n == 0:
        return a0, a1
    f_prev, f_n = fib_pair(n - 1)  # F(n-1), F(n)
    f_next = f_prev + f_n
    return a0 * f_prev + a1 * f_n, a0 * f_n + a1 * f_next


def term(seeds: tuple[int, int], n: int) -> int:
    return term_pair(seeds, n)[0]


def first_index_above(seeds: tuple[int, int], limit: int, start: int) -> int:
    """Smallest n >= start (start >= 1) with a_n > limit.

    The index is predicted from bit lengths (a_n grows like phi^n), then
    certified by walking from one fast-doubling pair with the recurrence.
    """
    guess = max(start, int(max(limit, 1).bit_length() / LOG2_PHI) - 2)
    n = guess
    a, b = term_pair(seeds, n)
    while a > limit and n > start:  # walk down: a_{n-1} = a_{n+1} - a_n
        n, a, b = n - 1, b - a, a
    while a <= limit:
        n, a, b = n + 1, b, a + b
    return n


def smallest_index_below(seeds: tuple[int, int], bound: Fraction, start: int) -> int:
    """Smallest n >= start with 1/a_n < bound, i.e. a_n > 1/bound."""
    num, den = bound.numerator, bound.denominator
    # a_n > den/num  <=>  a_n > den // num for integers
    return first_index_above(seeds, den // num, start)


def greedy_pair(seeds: tuple[int, int], theta: Fraction) -> tuple[int, int]:
    g1 = smallest_index_below(seeds, theta, 1)
    g2 = smallest_index_below(seeds, theta - Fraction(1, term(seeds, g1)), g1)
    return g1, g2


def xi(seeds: tuple[int, int], n: int, spec: str = "") -> int:
    """Cutoff xi(n), certified by the defining inequality.

    Presets take their closed form 4n+4 / 4n+6; other seeds search for the
    first index j with a_j*chi > bound, so xi = j - (2n+4). Either way the
    value is certified at s and s+1, and a failed certificate raises.
    """
    c = chi(seeds)
    a2, a3 = term_pair(seeds, 2 * n + 2)
    bound = a2 * a3 * (a2 + a3)
    if spec in CLOSED_FORM_OFFSET:
        s = 4 * n + CLOSED_FORM_OFFSET[spec]
    else:
        s = first_index_above(seeds, bound // c, 2 * n + 3) - (2 * n + 4)
    lo, hi = term_pair(seeds, 2 * n + 3 + s)
    if not (s >= 0 and lo * c <= bound < hi * c):
        raise AssertionError(f"xi({n}) = {s} fails its defining inequality for seeds {seeds}")
    return s


def window(seeds: tuple[int, int], n: int, spec: str = "") -> tuple[Fraction, Fraction, int]:
    """Window n as (left, right, xi): left excluded, right included."""
    s = xi(seeds, n, spec)
    a2, a3 = term_pair(seeds, 2 * n + 2)
    left = Fraction(1, a3) + Fraction(1, a2 + a3)
    right = Fraction(1, a2) + Fraction(1, term(seeds, 2 * n + 3 + s))
    return left, right, s


def inside_target_range(seeds: tuple[int, int], n: int, spec: str = "") -> tuple[int, int]:
    """Integers k whose target k/(a_{2n+2}*k - 1) lies inside window n.

    The map k -> k/(a*k - 1) = 1/(a - 1/k) decreases, so the admissible k form
    one range [lo, hi]; its denominators are about a_{4n}.
    """
    left, right, _ = window(seeds, n, spec)
    a = term(seeds, 2 * n + 2)
    lo = math.ceil(1 / (a - 1 / right))
    hi = math.ceil(1 / (a - 1 / left)) - 1
    return lo, hi


def inside_target(seeds: tuple[int, int], n: int, k: int) -> Fraction:
    return Fraction(k, term(seeds, 2 * n + 2) * k - 1)


def _pair_value(terms: list[int], m: int, n: int) -> Fraction:
    return Fraction(terms[m] + terms[n], terms[m] * terms[n])


def brute_force_best(seeds: tuple[int, int], theta: Fraction) -> tuple[int, int, Fraction]:
    """Best sum over distinct pairs m < n, plus the greedy pair, strictly below
    theta; the greedy pair wins ties, then the lexicographically smallest.

    Uses its own term list and plain scans; the only pruning is the trivial
    bound that no pair with first index m can exceed 2/a_m.
    """
    p, q = theta.numerator, theta.denominator
    terms = list(seeds)

    def t(i: int) -> int:
        while len(terms) <= i:
            terms.append(terms[-1] + terms[-2])
        return terms[i]

    def fits(m: int, n: int) -> bool:  # 1/a_m + 1/a_n < p/q
        return q * (t(m) + t(n)) < p * t(m) * t(n)

    g1 = 1
    while q >= p * t(g1):
        g1 += 1
    g2 = g1
    while not fits(g1, g2):
        g2 += 1
    best = (g1, g2, _pair_value(terms, g1, g2))
    m = g1
    while Fraction(2, t(m)) > best[2]:
        n = m + 1
        while not fits(m, n):
            n += 1
        value = _pair_value(terms, m, n)
        if value > best[2]:
            best = (m, n, value)
        m += 1
    return best


def expected_classification(
    seeds: tuple[int, int], theta: Fraction, spec: str = "", brute: bool = True
) -> dict:
    """The answer ``classify`` plus ``oracle_best`` must give for theta.

    With brute=True the best pair comes from pair enumeration (small targets);
    otherwise from certified searches over first indices g1..g1+2, which
    covers every possible winner since a pair starting at g1+2 or later sums
    below 2/a_{g1+2} < 1/a_{g1}.
    """
    g1, g2 = greedy_pair(seeds, theta)
    greedy_value = Fraction(1, term(seeds, g1)) + Fraction(1, term(seeds, g2))
    if brute:
        m, n, best_value = brute_force_best(seeds, theta)
    else:
        m, n, best_value = g1, g2, greedy_value
        for first in (g1 + 1, g1 + 2):
            head = Fraction(1, term(seeds, first))
            partner = smallest_index_below(seeds, theta - head, first + 1)
            value = head + Fraction(1, term(seeds, partner))
            if value > best_value:
                m, n, best_value = first, partner, value
    answer = {
        "g1": g1,
        "g2": g2,
        "greedy_value": greedy_value,
        "is_best": best_value == greedy_value,
        "best_pair": (m, n),
        "best_value": best_value,
        "window": None,
    }
    if g1 % 2 == 0:
        left, right, s = window(seeds, g1 // 2 - 1, spec)
        if left < theta <= right:
            answer["window"] = (g1 // 2 - 1, left, right, s)
    return answer


def show(value) -> str:
    """Text for a message; values too long for decimal output are summarised
    by bit length, since the interpreter refuses to print them."""
    if isinstance(value, tuple):
        return "(" + ", ".join(show(v) for v in value) + ")"
    if isinstance(value, Fraction) and max(value.numerator.bit_length(), value.denominator.bit_length()) > 4000:
        return f"<{value.numerator.bit_length()}-bit/{value.denominator.bit_length()}-bit fraction>"
    return str(value)


def classification_problems(expected: dict, got: dict) -> list[str]:
    """Differences between an expected classification and a reported one.

    ``got`` holds exact values (ints and Fractions) under the same keys; a
    verdict must also agree with the window: losing exactly when covered.
    """
    problems = [
        f"{key}: expected {show(expected[key])}, got {show(got.get(key))}"
        for key in ("g1", "g2", "greedy_value", "is_best", "best_pair", "best_value", "window")
        if got.get(key) != expected[key]
    ]
    if expected["is_best"] != (expected["window"] is None):
        problems.append("checker inconsistent: verdict and window disagree")
    return problems


def self_test() -> None:
    """The paper's worked example: 27/50 over fibonacci lies in window 0 =
    (8/15, 23/42], greedy 1/a_2 + 1/a_8 = 9/17, best 1/a_3 + 1/a_4 = 8/15."""
    fib = PRESET_SEEDS["fibonacci"]
    got = expected_classification(fib, Fraction(27, 50), "fibonacci")
    want = {
        "g1": 2,
        "g2": 8,
        "greedy_value": Fraction(9, 17),
        "is_best": False,
        "best_pair": (3, 4),
        "best_value": Fraction(8, 15),
        "window": (0, Fraction(8, 15), Fraction(23, 42), 4),
    }
    if got != want:
        raise AssertionError(f"worked example failed: {got}")
    for spec, seeds in PRESET_SEEDS.items():
        for n in range(0, 40):
            xi(seeds, n, spec)  # closed form certified by the inequality
