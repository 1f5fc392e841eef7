"""Re-runnable correctness suites over sequences, windows, and the oracle.

Every cross-check of the package lives here; the computing modules carry no
check options. ``xi_literal`` is the reference path for ``xi`` and
``disagreement`` compares the classifier with the exhaustive search.

Each suite sweeps one family of exact checks and reports how many ran, how
many failed, and the first counterexample in a human-readable form. The CLI's
``verify`` subcommand runs them all; the test suite reuses them at the
acceptance bounds. Suites with intrinsically fixed ranges (the double-index
identities and the linear-form equivalence) keep their own defaults; max_n
drives the single-index sweeps and grid_denominator the target sweep.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .errors import SelfCheckError
from .optimality import Classification, bad_interval, classify, xi, xi_closed_form
from .oracle import OracleReport, oracle_best
from .sequences import SequenceParams, SequencePreset, fib, seq_pair, seq_term, seq_terms

__all__ = [
    "SuiteResult",
    "xi_literal",
    "growth_suite",
    "term_formula_suite",
    "shift_identity_suite",
    "cassini_suite",
    "fib_addition_suite",
    "positivity_suite",
    "xi_suite",
    "endpoint_suite",
    "closed_form_suite",
    "grid_equivalence_suite",
    "disagreement",
    "run_all",
]


class SuiteResult:
    """Tally of one suite: checks run, failures, and the first failure's text."""

    __slots__ = ("name", "checks", "failures", "first_counterexample")

    def __init__(
        self,
        name: str,
        checks: int = 0,
        failures: int = 0,
        first_counterexample: str | None = None,
    ) -> None:
        self.name = name
        self.checks = checks
        self.failures = failures
        self.first_counterexample = first_counterexample

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def check(self, ok: bool, detail: Callable[[], str]) -> None:
        """Count one check; on the first failure, keep detail()."""
        self.checks += 1
        if not ok:
            self.failures += 1
            if self.first_counterexample is None:
                self.first_counterexample = detail()


def growth_suite(preset: SequencePreset, max_n: int = 300) -> SuiteResult:
    """Strict growth a_{n+1} > a_n and a_{n+2} > 2*a_n for n >= 1."""
    p = preset.params
    a = seq_terms(p, max_n + 2)
    t = SuiteResult("strict_growth")
    for n in range(1, max_n + 1):
        ok = a[n + 1] > a[n] and a[n + 2] > 2 * a[n]
        t.check(ok, lambda n=n: f"params={p}, n={n}: growth violated")
    return t


def term_formula_suite(preset: SequencePreset, max_n: int = 500) -> SuiteResult:
    """Recurrence terms equal seq_term's fast-doubling linear form
    a0*F(n-1) + a1*F(n)."""
    p = preset.params
    a = seq_terms(p, max_n)
    t = SuiteResult("term_formula")
    for n in range(0, max_n + 1):
        rec, lin = a[n], seq_term(p, n)
        t.check(
            rec == lin,
            lambda n=n, rec=rec, lin=lin: f"params={p}, n={n}: recurrence {rec} != linear form {lin}",
        )
    return t


def shift_identity_suite(preset: SequencePreset, bound: int = 50) -> SuiteResult:
    """a_{n+m} == F(n-1)*a_m + F(n)*a_{m+1} for 0 <= n, m <= bound."""
    p = preset.params
    a = seq_terms(p, 2 * bound + 1)
    t = SuiteResult("shift_identity")
    for n in range(0, bound + 1):
        f0, f1 = fib(n - 1), fib(n)
        for m in range(0, bound + 1):
            t.check(
                a[n + m] == f0 * a[m] + f1 * a[m + 1],
                lambda n=n, m=m: f"params={p}, n={n}, m={m}: shift identity violated",
            )
    return t


def cassini_suite(preset: SequencePreset, max_n: int = 300) -> SuiteResult:
    """a_n*a_{n+3} - a_{n+1}*a_{n+2} == (-1)^n * chi for n <= max_n."""
    p = preset.params
    a = seq_terms(p, max_n + 3)
    t = SuiteResult("cassini_like")
    for n in range(0, max_n + 1):
        t.check(
            a[n] * a[n + 3] - a[n + 1] * a[n + 2] == (p.chi if n % 2 == 0 else -p.chi),
            lambda n=n: f"params={p}, n={n}: alternating product identity violated",
        )
    return t


def fib_addition_suite(bound: int = 30) -> SuiteResult:
    """F(n+m) == F(n-1)*F(m) + F(n)*F(m+1) for -bound <= n, m <= bound."""
    t = SuiteResult("fib_addition")
    for n in range(-bound, bound + 1):
        for m in range(-bound, bound + 1):
            t.check(
                fib(n + m) == fib(n - 1) * fib(m) + fib(n) * fib(m + 1),
                lambda n=n, m=m: f"n={n}, m={m}: addition formula violated",
            )
    return t


def positivity_suite(preset: SequencePreset, max_n: int = 300) -> SuiteResult:
    """Three strict reciprocal inequalities, checked as exact rationals:
    1/a_{2n+1} - 1/a_{2n+2} - 1/a_{2n+3} > 0,
    1/a_{2n+3} + 1/a_{2n+4} - 1/a_{2n+2} > 0,
    1/a_{2n+2} - 1/a_{2n+3} - 1/a_{2n+5} > 0."""
    p = preset.params
    r = [Fraction(1, x) for x in seq_terms(p, 2 * max_n + 5)]
    t = SuiteResult("reciprocal_positivity")
    for n in range(0, max_n + 1):
        t.check(
            r[2 * n + 1] - r[2 * n + 2] - r[2 * n + 3] > 0,
            lambda n=n: f"params={p}, n={n}: odd-gap inequality violated",
        )
        t.check(
            r[2 * n + 3] + r[2 * n + 4] - r[2 * n + 2] > 0,
            lambda n=n: f"params={p}, n={n}: adjacent-pair inequality violated",
        )
        t.check(
            r[2 * n + 2] - r[2 * n + 3] - r[2 * n + 5] > 0,
            lambda n=n: f"params={p}, n={n}: even-gap inequality violated",
        )
    return t


def xi_literal(params: SequenceParams, n: int) -> int:
    """Cutoff via the defining form: largest s with
    a_{2n+2}*F(s) + a_{2n+3}*F(s+1) <= bound/chi, tested exactly as the
    integer cross-product (a_{2n+2}*F(s) + a_{2n+3}*F(s+1))*chi <= bound.

    Kept deliberately independent of the integer index search: it walks s up
    from 0 with no guess, and the products a_{2n+2}*F(s) and a_{2n+3}*F(s+1)
    each advance by the Fibonacci recurrence, by additions alone.
    """
    if n < 0:
        raise ValueError(f"window index must be nonnegative, got {n}")
    a2, a3 = seq_pair(params, 2 * n + 2)
    bound = a2 * a3 * (a2 + a3)
    chi = params.chi
    x, x1 = 0, a2  # a2*F(s), a2*F(s+1) at s = 0
    y, y1 = a3, a3  # a3*F(s+1), a3*F(s+2) at s = 0
    if (x + y) * chi > bound:
        raise SelfCheckError(f"cutoff undefined at n={n} for {params}")
    s = 0
    while True:
        x, x1 = x1, x + x1
        y, y1 = y1, y + y1
        if (x + y) * chi > bound:
            return s
        s += 1


def xi_suite(preset: SequencePreset, max_n: int = 300) -> SuiteResult:
    """Cutoff well-definedness, both characterizations, and path agreement.

    For each n: xi >= 0 with chi <= a_{2n+2}*a_{2n+4}; the reciprocal form
    1/a_{2n+3+xi} >= chi/bound > 1/a_{2n+4+xi} holds exactly; and the literal
    Fibonacci-factor path returns the same cutoff as the index search.
    """
    p = preset.params
    a = seq_terms(p, 2 * max_n + 4)
    t = SuiteResult("xi_cutoff")
    for n in range(0, max_n + 1):
        res = xi(p, n)
        t.check(
            res.xi >= 0 and p.chi <= a[2 * n + 2] * a[2 * n + 4],
            lambda n=n, res=res: f"params={p}, n={n}: cutoff {res.xi} not well defined",
        )
        ratio = Fraction(res.chi, res.bound)
        lo, hi = (Fraction(1, x) for x in seq_pair(p, 2 * n + 3 + res.xi))
        t.check(
            lo >= ratio > hi,
            lambda n=n, res=res: f"params={p}, n={n}: reciprocal characterization fails at xi={res.xi}",
        )
        lit = xi_literal(p, n)
        t.check(
            lit == res.xi,
            lambda n=n, res=res, lit=lit: f"params={p}, n={n}: search xi={res.xi}, literal xi={lit}",
        )
    return t


def endpoint_suite(preset: SequencePreset, max_n: int = 300) -> SuiteResult:
    """Window geometry: left <= right; window n strictly inside the band
    (1/a_{2n+2}, 1/a_{2n+1}); consecutive windows strictly separated."""
    p = preset.params
    a = seq_terms(p, 2 * max_n + 2)
    t = SuiteResult("window_geometry")
    previous_left: Fraction | None = None
    for n in range(0, max_n + 1):
        iv = bad_interval(p, n)
        t.check(
            iv.left <= iv.right,
            lambda n=n, iv=iv: f"params={p}, n={n}: left {iv.left} > right {iv.right}",
        )
        t.check(
            Fraction(1, a[2 * n + 2]) < iv.left and iv.right < Fraction(1, a[2 * n + 1]),
            lambda n=n, iv=iv: f"params={p}, n={n}: window not inside its band",
        )
        if previous_left is not None:
            t.check(
                iv.right < previous_left,
                lambda n=n, iv=iv: f"params={p}, n={n}: window touches the previous one",
            )
        previous_left = iv.left
    return t


def closed_form_suite(preset: SequencePreset, max_n: int = 300) -> SuiteResult:
    """Preset cutoffs match their closed forms (4n+4 / 4n+6)."""
    t = SuiteResult("closed_form")
    for n in range(0, max_n + 1):
        got = xi(preset.params, n).xi
        want = xi_closed_form(preset, n)
        t.check(
            got == want,
            lambda n=n, got=got, want=want: f"{preset.name}, n={n}: xi={got}, closed form {want}",
        )
    return t


def disagreement(theta: Fraction, cls: Classification, report: OracleReport) -> str | None:
    """Why the classifier's verdict for theta and the oracle's search
    disagree, or None when they agree: dominance, strict membership, verdict
    equivalence, winner first index <= g1+1, and on a loss the exact adjacent
    winner whose value is the window's left endpoint."""
    greedy_value = cls.greedy.value
    best = report.best
    if best.value < greedy_value:
        return f"oracle {best.value} below greedy {greedy_value}"
    if not best.value < theta:
        return f"oracle value {best.value} not strictly below theta"
    if (best.value == greedy_value) != cls.is_best:
        return (
            f"verdict is_best={cls.is_best} but oracle best {best.value} "
            f"vs greedy {greedy_value}"
        )
    if best.m > cls.greedy.g1 + 1:
        return f"winner first index {best.m} beyond g1+1"
    if not cls.is_best:
        g1 = cls.greedy.g1
        if (best.m, best.n) != (g1 + 1, g1 + 2):
            return f"winner {(best.m, best.n)} is not the adjacent pair"
        if cls.competitor is None or best.value != cls.competitor.value:
            return "winner value differs from the window's left endpoint"
    return None


def grid_equivalence_suite(preset: SequencePreset, grid_denominator: int = 1000) -> SuiteResult:
    """Classifier versus oracle over theta = k/grid_denominator, one
    ``disagreement`` check per target."""
    p = preset.params
    if grid_denominator < 2:
        raise ValueError(f"grid denominator must be at least 2, got {grid_denominator}")
    t = SuiteResult("grid_equivalence")
    for k in range(1, grid_denominator + 1):
        theta = Fraction(k, grid_denominator)
        problem = disagreement(theta, classify(p, theta), oracle_best(p, theta))
        t.check(problem is None, lambda k=k, problem=problem: f"params={p}, theta={k}/{grid_denominator}: {problem}")
    return t


def run_all(
    preset: SequencePreset, max_n: int = 300, grid_denominator: int = 1000
) -> list[SuiteResult]:
    """Every suite at the given bounds; presets add the closed-form sweep."""
    results = [
        growth_suite(preset, max_n),
        term_formula_suite(preset),
        shift_identity_suite(preset),
        cassini_suite(preset, max_n),
        fib_addition_suite(),
        positivity_suite(preset, max_n),
        xi_suite(preset, max_n),
        endpoint_suite(preset, max_n),
    ]
    if preset.name in ("fibonacci", "lucas"):
        results.append(closed_form_suite(preset, max_n))
    results.append(grid_equivalence_suite(preset, grid_denominator))
    return results
