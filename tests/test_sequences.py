"""Fibonacci numbers, sequence parameters, term generation, identities."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibgreedy import (
    FIBONACCI,
    LUCAS,
    SequenceParams,
    SequenceValidationError,
    classical_label,
    fib,
    parse_sequence_spec,
    seq_term,
    seq_term_from_fibs,
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
