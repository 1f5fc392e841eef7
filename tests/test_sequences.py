"""Fibonacci numbers, sequence parameters, term generation, identities, and
what callers can see of the package's records."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibgreedy import (
    FIBONACCI,
    LUCAS,
    SequenceParams,
    SequenceValidationError,
    SuiteResult,
    XiResult,
    classical_label,
    classify,
    fib,
    greedy_prefix,
    oracle_best,
    parse_sequence_spec,
    seq_term,
    seq_term_from_fibs,
    xi,
)
from fibgreedy.sequences import seq_terms


def naive_fib(n):
    # Independent oracle: plain iteration, extended backward for n < 0.
    if n >= 0:
        a, b = 0, 1
        for _ in range(n):
            a, b = b, a + b
        return a
    a, b = 0, 1
    for _ in range(-n):
        a, b = b - a, a
    return a


class TestFib:
    @pytest.mark.parametrize(
        "n,value",
        [(0, 0), (1, 1), (2, 1), (3, 2), (10, 55), (20, 6765), (40, 102334155)],
    )
    def test_small_values(self, n, value):
        assert fib(n) == value

    @pytest.mark.parametrize("n,value", [(-1, 1), (-2, -1), (-3, 2), (-4, -3), (-5, 5)])
    def test_negative_values(self, n, value):
        assert fib(n) == value

    def test_matches_iteration(self):
        for n in range(-30, 101):
            assert fib(n) == naive_fib(n)

    @pytest.mark.usefixtures("unlimited_int_strings")
    def test_large_index(self):
        value = fib(10**6)
        digits = str(value)
        assert len(digits) == 208988
        assert digits[-1] == "5"

    def test_large_negative_reflection(self):
        n = 10**5 + 1
        assert fib(-n) == fib(n)
        assert fib(-(n + 1)) == -fib(n + 1)

    @given(st.integers(min_value=-300, max_value=300))
    def test_recurrence_everywhere(self, n):
        assert fib(n + 2) == fib(n + 1) + fib(n)


class TestParams:
    def test_chi(self):
        assert SequenceParams(1, 1).chi == 1
        assert SequenceParams(3, 4).chi == 5
        assert SequenceParams(2, 2).chi == 4
        assert SequenceParams(2, 3).chi == 1
        assert SequenceParams(4, 5).chi == 11

    def test_rejects_nonpositive_a0(self):
        with pytest.raises(SequenceValidationError, match="a0 must be positive"):
            SequenceParams(0, 1)

    def test_rejects_small_a1(self):
        with pytest.raises(SequenceValidationError, match="a1 must be at least 1"):
            SequenceParams(1, 0)

    def test_rejects_a0_above_a1(self):
        with pytest.raises(SequenceValidationError, match="a0 must not exceed a1"):
            SequenceParams(5, 4)

    def test_rejects_nonpositive_chi(self):
        with pytest.raises(SequenceValidationError, match="chi must be positive"):
            SequenceParams(1, 2)
        with pytest.raises(SequenceValidationError, match="chi must be positive"):
            SequenceParams(3, 5)

    def test_make_params(self):
        # Params built from a starting pair equal the presets' own.
        fib_params = SequenceParams(a0=1, a1=1)
        luc_params = SequenceParams(a0=3, a1=4)
        assert fib_params == FIBONACCI.params and fib_params.chi == 1
        assert luc_params == LUCAS.params and luc_params.chi == 5
        assert (luc_params.a0, luc_params.a1) == (3, 4)
        with pytest.raises(SequenceValidationError, match="chi must be positive"):
            SequenceParams(a0=1, a1=2)

    def test_replace_validates(self):
        # _replace builds through the constructor, so it validates too
        with pytest.raises(SequenceValidationError, match="chi must be positive"):
            FIBONACCI.params._replace(a1=2)
        assert LUCAS.params._replace(a0=4) == SequenceParams(4, 4)


def _records():
    # one of each of the nine records, from a losing target (27/50 lies in
    # window 0 of fibonacci), so that every field is filled
    params = FIBONACCI.params
    theta = Fraction(27, 50)
    cls = classify(params, theta)
    report = oracle_best(params, theta)
    return [
        params,
        FIBONACCI,
        cls.greedy,
        greedy_prefix(params, theta, 3),
        xi(params, 0),
        cls.witness_interval,
        cls,
        report.best,
        report,
    ]


class TestRecords:
    def test_repr(self):
        assert repr(FIBONACCI.params) == "SequenceParams(a0=1, a1=1)"
        assert repr(xi(FIBONACCI.params, 0)) == "XiResult(n=0, xi=4, bound=30, chi=1)"
        assert repr(oracle_best(FIBONACCI.params, Fraction(27, 50))) == (
            "OracleReport(best=TwoTermSum(m=3, n=4, value=Fraction(8, 15)), "
            "candidates_examined=2)"
        )
        for record in _records():
            fields = ", ".join(f"{name}={value!r}" for name, value in record._asdict().items())
            assert repr(record) == f"{type(record).__name__}({fields})"

    def test_immutable(self):
        for record in _records():
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, 0)
            with pytest.raises(AttributeError):
                record.extra = 0

    def test_hashable(self):
        for record, again in zip(_records(), _records()):
            assert record == again
            assert hash(record) == hash(again)
            assert len({record, again}) == 1

    def test_equal_to_plain_tuples_and_unpack(self):
        # records are named tuples: a record equals the plain tuple of its
        # fields, and unpacks into them
        assert FIBONACCI.params == (1, 1)
        n, s, bound, chi = xi(FIBONACCI.params, 0)
        assert (n, s, bound, chi) == (0, 4, 30, 1) == XiResult(0, 4, 30, 1)
        for record in _records():
            assert record == tuple(record)

    def test_suite_result_stays_mutable(self):
        result = SuiteResult("demo")
        assert (result.name, result.checks, result.failures) == ("demo", 0, 0)
        assert result.first_counterexample is None and result.passed
        result.check(True, lambda: "unused")
        result.check(False, lambda: "first")
        result.check(False, lambda: "second")
        assert (result.checks, result.failures, result.first_counterexample) == (3, 2, "first")
        assert not result.passed
        result.name = "renamed"
        assert result.name == "renamed"


class TestTerms:
    def test_fibonacci_preset_shifts_classical(self):
        # Terms are the classical Fibonacci numbers advanced by one index.
        for n in range(0, 30):
            assert seq_term(FIBONACCI.params, n) == naive_fib(n + 1)

    def test_lucas_preset_shifts_classical(self):
        lucas = [2, 1]
        while len(lucas) < 40:
            lucas.append(lucas[-1] + lucas[-2])
        for n in range(0, 30):
            assert seq_term(LUCAS.params, n) == lucas[n + 2]

    def test_specific_terms(self):
        assert seq_term(FIBONACCI.params, 7) == 21
        assert seq_term(LUCAS.params, 4) == 18

    def test_custom_start(self):
        p = SequenceParams(4, 5)
        assert [seq_term(p, n) for n in range(8)] == [4, 5, 9, 14, 23, 37, 60, 97]
        assert seq_terms(p, 7) == [4, 5, 9, 14, 23, 37, 60, 97]
        assert seq_terms(p, 0) == [4]

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            seq_term(FIBONACCI.params, -1)
        with pytest.raises(ValueError):
            seq_terms(FIBONACCI.params, -1)

    @pytest.mark.parametrize("params", [SequenceParams(1, 1), SequenceParams(3, 4), SequenceParams(2, 3)])
    def test_linear_form_agrees(self, params):
        # both fast-doubling paths against the recurrence
        terms = seq_terms(params, 119)
        assert [seq_term(params, n) for n in range(120)] == terms
        assert [seq_term_from_fibs(params, n) for n in range(120)] == terms


class TestIdentities:
    def test_shift_spot_checks(self):
        # a_{n+m} = F(n-1)*a_m + F(n)*a_{m+1}
        # fibonacci: a_{3+4} = F(2)*a_4 + F(3)*a_5 -> 21 == 1*5 + 2*8
        p = SequenceParams(1, 1)
        assert seq_term(p, 7) == fib(2) * seq_term(p, 4) + fib(3) * seq_term(p, 5) == 21
        # lucas: a_{5+2} = F(4)*a_2 + F(5)*a_3 -> 76 == 3*7 + 5*11
        p = SequenceParams(3, 4)
        assert seq_term(p, 7) == fib(4) * seq_term(p, 2) + fib(5) * seq_term(p, 3) == 76

    def test_cassini_alternates_sign(self):
        p = SequenceParams(3, 4)
        for n in range(0, 20):
            lhs = seq_term(p, n) * seq_term(p, n + 3) - seq_term(p, n + 1) * seq_term(p, n + 2)
            assert lhs == (-1) ** n * p.chi

    def test_fib_addition_negative_indices(self):
        # F(n+m) = F(n-1)*F(m) + F(n)*F(m+1) on all integers
        for n, m in ((-7, 11), (0, 0), (-3, -5)):
            assert fib(n + m) == fib(n - 1) * fib(m) + fib(n) * fib(m + 1)

    @given(
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=-40, max_value=40),
    )
    def test_fib_addition_property(self, n, m):
        assert fib(n + m) == fib(n - 1) * fib(m) + fib(n) * fib(m + 1)


class TestParseSpec:
    def test_presets(self):
        assert parse_sequence_spec("fibonacci").params == SequenceParams(1, 1)
        assert parse_sequence_spec("lucas").params == SequenceParams(3, 4)

    def test_custom(self):
        preset = parse_sequence_spec("custom:2,3")
        assert preset.params == SequenceParams(2, 3)
        assert preset.name == "custom"

    @pytest.mark.parametrize("bad", ["fib", "custom:", "custom:1", "custom:1,2,3", "custom:a,b", ""])
    def test_rejects_malformed(self, bad):
        with pytest.raises(SequenceValidationError):
            parse_sequence_spec(bad)

    def test_custom_validates_params(self):
        with pytest.raises(SequenceValidationError, match="chi must be positive"):
            parse_sequence_spec("custom:1,2")


class TestClassicalLabel:
    def test_fibonacci_labels(self):
        assert classical_label(FIBONACCI, 0) == "F_1"
        assert classical_label(FIBONACCI, 7) == "F_8"

    def test_lucas_labels(self):
        assert classical_label(LUCAS, 0) == "L_2"
        assert classical_label(LUCAS, 4) == "L_6"

    def test_custom_has_no_label(self):
        assert classical_label(parse_sequence_spec("custom:2,3"), 5) is None
