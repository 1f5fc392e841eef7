"""The independent checker: its own arithmetic, and what it catches."""

import random
from fractions import Fraction

import pytest

import checker
import workloads
import worker  # imports the package from the checkout's src/
from fibgreedy import greedy, optimality, oracle


def naive_terms(seeds, count):
    terms = list(seeds)
    while len(terms) < count:
        terms.append(terms[-1] + terms[-2])
    return terms


@pytest.mark.parametrize("spec", ["fibonacci", "lucas", "custom:2,3", "custom:4,5"])
def test_fast_doubling_terms_match_the_recurrence(spec):
    seeds = checker.seeds_of(spec)
    terms = naive_terms(seeds, 300)
    assert [checker.term(seeds, n) for n in range(300)] == terms


def test_certified_index_search_matches_a_linear_scan():
    rng = random.Random(0)
    seeds = checker.seeds_of("custom:4,5")
    terms = naive_terms(seeds, 400)
    for _ in range(200):
        limit = rng.randrange(1, terms[-50])
        start = rng.randrange(1, 30)
        want = next(n for n in range(start, 400) if terms[n] > limit)
        assert checker.first_index_above(seeds, limit, start) == want


def test_worked_example_and_closed_forms():
    checker.self_test()
    for spec in ("fibonacci", "lucas"):
        seeds = checker.seeds_of(spec)
        # the search path and the closed form agree, and both are certified
        for n in range(0, 200):
            assert checker.xi(seeds, n, spec) == checker.xi(seeds, n)


def test_inside_targets_lie_inside_their_window():
    for spec in ("fibonacci", "lucas", "custom:2,2", "custom:4,5"):
        seeds = checker.seeds_of(spec)
        for n in range(2, 40):
            left, right, _ = checker.window(seeds, n, spec)
            lo, hi = checker.inside_target_range(seeds, n, spec)
            for k in (lo, hi):
                assert left < checker.inside_target(seeds, n, k) <= right
            assert not left < checker.inside_target(seeds, n, hi + 1) <= right


def test_checker_accepts_the_package_answer():
    theta = Fraction(27, 50)
    payload = worker.grid_op(worker.params_of("fibonacci"), "27/50")
    expected = checker.expected_classification((1, 1), theta, "fibonacci")
    assert workloads.rendered_problems(expected, theta, payload) == []


def test_checker_flags_a_wrong_verdict_that_classify_and_search_share(monkeypatch):
    """A greedy search that skips index 2 makes classify and oracle_best agree
    that the greedy pick (3, 4) is best possible at 27/50; it is not."""
    real = greedy.greedy_two_term

    def skips_index_two(params, theta):
        if Fraction(theta) == Fraction(27, 50):
            return greedy.GreedyResult(3, 4, Fraction(8, 15))
        return real(params, theta)

    monkeypatch.setattr(optimality, "greedy_two_term", skips_index_two)
    monkeypatch.setattr(oracle, "greedy_two_term", skips_index_two)
    payload = worker.grid_op(worker.params_of("fibonacci"), "27/50")
    # the two package verdicts agree with each other ...
    assert payload["is_best"] is True
    assert payload["best_value"] == payload["greedy_value"]
    # ... and the checker still catches the shared mistake
    expected = checker.expected_classification((1, 1), Fraction(27, 50), "fibonacci")
    problems = workloads.rendered_problems(expected, Fraction(27, 50), payload)
    assert any(p.startswith("is_best") for p in problems)


def test_cli_output_checks_read_every_format_and_flag_a_wrong_answer():
    call = {"sub": "classify", "seq": "fibonacci", "theta": Fraction(27, 50)}
    expected = workloads.cli_expected(call)
    for fmt in ("text", "json", "csv"):
        call = {**call, "format": fmt,
                "args": ["--seq", "fibonacci", "--format", fmt, "classify", "--theta", "27/50"]}
        child = workloads.run_child([workloads.PY, "-m", "fibgreedy", *call["args"]])
        assert child.code == 0
        assert workloads.cli_problems(call, expected, child.out) == []
        wrong = child.out.replace("8/15", "9/17")
        assert workloads.cli_problems(call, expected, wrong) != []
