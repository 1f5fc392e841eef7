"""Re-runnable correctness suites over sequences, windows, and the oracle.

Every cross-check of the package lives here; the computing modules carry no
check options. ``xi_literal`` is the reference path for ``xi`` and
``disagreement`` compares the classifier with the exhaustive search.

Each suite sweeps one family of exact checks and reports how many ran, how
many failed, and the first counterexample in a human-readable form. The CLI's
``verify`` subcommand runs them all; the test suite reuses them at the
acceptance bounds. The double-index identities and the linear-form
equivalence run over fixed ranges; max_n drives the single-index sweeps and
grid_denominator the target sweep, by default DEFAULT_MAX_N and DEFAULT_GRID,
which ``verify`` also takes as its defaults.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .errors import SelfCheckError
from .optimality import Classification, bad_interval, classify, xi, xi_closed_form
from .oracle import OracleReport, oracle_best
from .sequences import SequenceParams, SequencePreset, _require_int, fib, seq_pair, seq_term, seq_terms

__all__ = [
    "DEFAULT_MAX_N",
    "DEFAULT_GRID",
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

DEFAULT_MAX_N = 300
DEFAULT_GRID = 1000


class SuiteResult:
    """Tally of one suite: checks run, failures, and the first failure's text."""

    __slots__ = ("name", "checks", "failures", "first_counterexample")

    def __init__(self, name: str) -> None:
        self.name = name
        self.checks = 0
        self.failures = 0
        self.first_counterexample: str | None = None

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


def growth_suite(preset: SequencePreset, max_n: int = DEFAULT_MAX_N) -> SuiteResult:
    """Strict growth a_{n+1} > a_n and a_{n+2} > 2*a_n for n >= 1."""
    p = preset.params
    a = seq_terms(p, max_n + 2)
    t = SuiteResult("strict_growth")
    for n in range(1, max_n + 1):
        ok = a[n + 1] > a[n] and a[n + 2] > 2 * a[n]
        t.check(ok, lambda n=n: f"params={p}, n={n}: growth violated")
    return t


def term_formula_suite(preset: SequencePreset) -> SuiteResult:
    """Recurrence terms equal seq_term's fast-doubling linear form
    a0*F(n-1) + a1*F(n) for 0 <= n <= 500."""
    p = preset.params
    a = seq_terms(p, 500)
    t = SuiteResult("term_formula")
    for n in range(0, 501):
        rec, lin = a[n], seq_term(p, n)
        t.check(
            rec == lin,
            lambda n=n, rec=rec, lin=lin: f"params={p}, n={n}: recurrence {rec} != linear form {lin}",
        )
    return t


def shift_identity_suite(preset: SequencePreset) -> SuiteResult:
    """a_{n+m} == F(n-1)*a_m + F(n)*a_{m+1} for 0 <= n, m <= 50."""
    p = preset.params
    a = seq_terms(p, 101)
    t = SuiteResult("shift_identity")
    for n in range(0, 51):
        f0, f1 = fib(n - 1), fib(n)
        for m in range(0, 51):
            t.check(
                a[n + m] == f0 * a[m] + f1 * a[m + 1],
                lambda n=n, m=m: f"params={p}, n={n}, m={m}: shift identity violated",
            )
    return t


def cassini_suite(preset: SequencePreset, max_n: int = DEFAULT_MAX_N) -> SuiteResult:
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


def fib_addition_suite() -> SuiteResult:
    """F(n+m) == F(n-1)*F(m) + F(n)*F(m+1) for -30 <= n, m <= 30."""
    t = SuiteResult("fib_addition")
    f = {k: fib(k) for k in range(-61, 62)}
    for n in range(-30, 31):
        for m in range(-30, 31):
            t.check(
                f[n + m] == f[n - 1] * f[m] + f[n] * f[m + 1],
                lambda n=n, m=m: f"n={n}, m={m}: addition formula violated",
            )
    return t


def positivity_suite(preset: SequencePreset, max_n: int = DEFAULT_MAX_N) -> SuiteResult:
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
    z_s = a_{2n+2}*F(s) + a_{2n+3}*F(s+1) <= bound/chi, tested exactly as
    z_s <= bound // chi, which for positive integers is z_s*chi <= bound.

    Kept deliberately independent of ``_cutoff``: it walks s up from 0 and
    knows neither t* nor n*. z_s obeys the recurrence itself, from z_0 =
    a_{2n+3} and z_1 = a_{2n+2} + a_{2n+3}, so one pair advances by
    additions alone.
    """
    _require_int("window index", n)
    a2, a3 = seq_pair(params, 2 * n + 2)
    limit = a2 * a3 * (a2 + a3) // params.chi
    z, z1 = a3, a2 + a3  # z_s, z_{s+1} at s = 0
    if z > limit:
        raise SelfCheckError(f"cutoff undefined at n={n} for {params}")
    s = 0
    while z1 <= limit:
        z, z1 = z1, z + z1
        s += 1
    return s


def xi_suite(preset: SequencePreset, max_n: int = DEFAULT_MAX_N) -> SuiteResult:
    """Cutoff well-definedness, both characterizations, and path agreement.

    For each n: xi >= 0 with chi <= a_{2n+2}*a_{2n+4}; the reciprocal form
    1/a_{2n+3+xi} >= chi/bound > 1/a_{2n+4+xi} holds exactly; and the literal
    Fibonacci-factor path returns the same cutoff as ``xi``, whose closed
    form takes the offset plus one below the seeds' n* and the offset from
    it on.
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


def endpoint_suite(preset: SequencePreset, max_n: int = DEFAULT_MAX_N) -> SuiteResult:
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


def closed_form_suite(preset: SequencePreset, max_n: int = DEFAULT_MAX_N) -> SuiteResult:
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


def disagreement(
    params: SequenceParams, theta: Fraction, cls: Classification, report: OracleReport
) -> str | None:
    """Why the classifier's verdict for theta and the oracle's search
    disagree, or None when they agree: dominance, strict membership, verdict
    equivalence, winner first index <= g1+1, and on a loss the exact adjacent
    winner whose value is the window's left endpoint, and a witness equal to
    the window ``bad_interval`` builds from its own cutoff."""
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
        if g1 % 2 or cls.witness_interval != bad_interval(params, g1 // 2 - 1):
            return f"witness differs from bad_interval at first index {g1}"
    return None


def _require_grid(grid_denominator: int) -> None:
    """The one owner of the grid rule, an int of at least 2: the target
    sweep applies it, and ``run_all`` before its first suite."""
    _require_int("grid denominator", grid_denominator, least=2)


def grid_equivalence_suite(preset: SequencePreset, grid_denominator: int = DEFAULT_GRID) -> SuiteResult:
    """Classifier versus oracle, one ``disagreement`` check per target: theta =
    k/grid_denominator, then both ends of each window whose left end is above
    1/grid_denominator, which no grid point need land on."""
    p = preset.params
    _require_grid(grid_denominator)
    targets = [Fraction(k, grid_denominator) for k in range(1, grid_denominator + 1)]
    n = 0
    while (window := bad_interval(p, n)).left > targets[0]:
        targets += window.left, window.right
        n += 1
    t = SuiteResult("grid_equivalence")
    for theta in targets:
        problem = disagreement(p, theta, classify(p, theta), oracle_best(p, theta))
        t.check(problem is None, lambda theta=theta, problem=problem: f"params={p}, theta={theta}: {problem}")
    return t


def run_all(
    preset: SequencePreset, max_n: int = DEFAULT_MAX_N, grid_denominator: int = DEFAULT_GRID
) -> list[SuiteResult]:
    """Every suite at the given bounds, and the closed-form sweep where one
    exists. A max-n or grid denominator that is not an int, or a max-n below
    1 or a grid denominator below 2, is refused before any suite runs, so no
    sweep passes with no checks."""
    _require_int("max-n", max_n, least=1)
    _require_grid(grid_denominator)
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
    if xi_closed_form(preset, 0) is not None:
        results.append(closed_form_suite(preset, max_n))
    results.append(grid_equivalence_suite(preset, grid_denominator))
    return results
