"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v``. The printed lines bypass
pytest's capture so they appear even on green runs. Grid criteria share one
module-scoped sweep of five sequences times a thousand targets.
"""

import time
from fractions import Fraction

import pytest

from fibgreedy import (
    FIBONACCI,
    LUCAS,
    bad_interval,
    classify,
    oracle_best,
    parse_sequence_spec,
    xi,
)
from fibgreedy.verification import (
    cassini_suite,
    fib_addition_suite,
    positivity_suite,
    shift_identity_suite,
    term_formula_suite,
)

SEQUENCE_SPECS = ("fibonacci", "lucas", "custom:2,2", "custom:2,3", "custom:4,5")
GRID = 1000


def _report(capfd, label, ok, elapsed=None):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    with capfd.disabled():
        print(f"[acceptance] {label}: {status}{suffix}")


@pytest.fixture(scope="module")
def sweep():
    """classify + exhaustive search over theta = k/1000 for five sequences."""
    records = []
    start = time.perf_counter()
    for spec in SEQUENCE_SPECS:
        params = parse_sequence_spec(spec).params
        for k in range(1, GRID + 1):
            theta = Fraction(k, GRID)
            records.append((spec, k, classify(params, theta), oracle_best(params, theta)))
    elapsed = time.perf_counter() - start
    return records, elapsed


def test_criterion_1_fibonacci_cutoff_closed_form(capfd):
    start = time.perf_counter()
    bad = [n for n in range(0, 301) if xi(FIBONACCI.params, n).xi != 4 * n + 4]
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 5.0
    _report(capfd, "criterion 1: fibonacci xi(n) == 4n+4 for n <= 300", ok, elapsed)
    assert bad == []
    assert elapsed < 5.0


def test_criterion_2_lucas_cutoff_closed_form(capfd):
    start = time.perf_counter()
    bad = [n for n in range(0, 301) if xi(LUCAS.params, n).xi != 4 * n + 6]
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 5.0
    _report(capfd, "criterion 2: lucas xi(n) == 4n+6 for n <= 300", ok, elapsed)
    assert bad == []
    assert elapsed < 5.0


def test_criterion_3_classifier_matches_search(capfd, sweep):
    records, elapsed = sweep
    disagreements = [
        (spec, k)
        for spec, k, cls, rep in records
        if (rep.best.value == cls.greedy.value) != cls.is_best
    ]
    ok = not disagreements and len(records) == 5000 and elapsed < 60.0
    _report(
        capfd,
        f"criterion 3: verdict equals search outcome on {len(records)} targets, "
        f"{len(disagreements)} disagreements",
        ok,
        elapsed,
    )
    assert disagreements == []
    assert len(records) == 5000
    assert elapsed < 60.0


def test_criterion_4_first_window_endpoints(capfd):
    start = time.perf_counter()
    fib_window = bad_interval(FIBONACCI.params, 0)
    lucas_window = bad_interval(LUCAS.params, 0)
    elapsed = time.perf_counter() - start
    ok = (
        fib_window.left == Fraction(8, 15)
        and fib_window.right == Fraction(23, 42)
        and lucas_window.left == Fraction(29, 198)
        and lucas_window.right == Fraction(206, 1393)
        and elapsed < 1.0
    )
    _report(capfd, "criterion 4: first windows (8/15, 23/42] and (29/198, 206/1393]", ok, elapsed)
    assert fib_window.left == Fraction(8, 15)
    assert fib_window.right == Fraction(23, 42)
    assert lucas_window.left == Fraction(29, 198)
    assert lucas_window.right == Fraction(206, 1393)
    assert elapsed < 1.0


def test_criterion_5_worked_classification(capfd):
    start = time.perf_counter()
    inside = classify(FIBONACCI.params, Fraction(27, 50))
    boundary = classify(FIBONACCI.params, Fraction(23, 42))
    elapsed = time.perf_counter() - start
    ok = (
        (inside.greedy.g1, inside.greedy.g2) == (2, 8)
        and inside.greedy.value == Fraction(9, 17)
        and not inside.is_best
        and inside.competitor is not None
        and (inside.competitor.m, inside.competitor.n) == (3, 4)
        and inside.competitor.value == Fraction(8, 15)
        and not boundary.is_best
        and elapsed < 1.0
    )
    _report(capfd, "criterion 5: worked example 27/50 and boundary 23/42", ok, elapsed)
    assert (inside.greedy.g1, inside.greedy.g2) == (2, 8)
    assert inside.greedy.value == Fraction(9, 17)
    assert not inside.is_best
    assert (inside.competitor.m, inside.competitor.n) == (3, 4)
    assert inside.competitor.value == Fraction(8, 15)
    assert not boundary.is_best
    assert elapsed < 1.0


def test_criterion_6_identity_suites(capfd):
    start = time.perf_counter()
    failures = []
    checks = 0
    for spec in SEQUENCE_SPECS:
        preset = parse_sequence_spec(spec)
        for result in (
            shift_identity_suite(preset),
            cassini_suite(preset, max_n=300),
            positivity_suite(preset, max_n=300),
            term_formula_suite(preset),
        ):
            checks += result.checks
            if not result.passed:
                failures.append((spec, result.name, result.first_counterexample))
    addition = fib_addition_suite()
    checks += addition.checks
    if not addition.passed:
        failures.append(("-", addition.name, addition.first_counterexample))
    elapsed = time.perf_counter() - start
    # per sequence 51*51 shift + 301 alternating-product + 3*301 reciprocal +
    # 501 term-formula checks, and 61*61 addition-formula checks once
    ok = not failures and checks == 25251 and elapsed < 30.0
    _report(capfd, f"criterion 6: identity suites, {checks} checks", ok, elapsed)
    assert failures == []
    assert checks == 25251
    assert elapsed < 30.0


def test_criterion_7_winner_location(capfd, sweep):
    records, _ = sweep
    out_of_range = [
        (spec, k) for spec, k, cls, rep in records if rep.best.m > cls.greedy.g1 + 1
    ]
    wrong_shape = [
        (spec, k)
        for spec, k, cls, rep in records
        if not cls.is_best
        and (rep.best.m, rep.best.n) != (cls.greedy.g1 + 1, cls.greedy.g1 + 2)
    ]
    losses = sum(1 for _, _, cls, _ in records if not cls.is_best)
    ok = not out_of_range and not wrong_shape
    _report(
        capfd,
        f"criterion 7: winner at or next to g1 on all 5000 targets ({losses} losses "
        f"all from the adjacent pair)",
        ok,
    )
    assert out_of_range == []
    assert wrong_shape == []
