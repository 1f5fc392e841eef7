"""Greedy selection: first index, two-term sums, longer prefixes."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibgreedy import (
    DEFAULT_TERM_LIMIT,
    FIBONACCI,
    LUCAS,
    SequenceParams,
    TermLimitError,
    ThetaDomainError,
    classify,
    greedy_prefix,
    greedy_two_term,
    seq_term,
)

FIB = FIBONACCI.params
LUC = LUCAS.params


class TestFirstIndex:
    def test_examples(self):
        assert greedy_two_term(FIB, Fraction(27, 50)).g1 == 2
        assert greedy_two_term(FIB, Fraction(1, 4)).g1 == 4
        assert greedy_two_term(LUC, Fraction(1, 2)).g1 == 1

    def test_strict_inequality_at_reciprocal(self):
        # theta equal to 1/a_n must push the choice one index further; at
        # n = 30000 (a_n of 20 800 bits) both searches guess from bit lengths
        # and decide at a product of the full size.
        for n in [*range(1, 12), 30000]:
            theta = Fraction(1, seq_term(FIB, n))
            pick = greedy_two_term(FIB, theta)
            assert pick.g1 == n + 1
            first, second, before = (
                Fraction(1, seq_term(FIB, k)) for k in (n + 1, pick.g2, pick.g2 - 1)
            )
            assert second < theta - first <= before
            assert pick.value == first + second

    @pytest.mark.parametrize("theta", [Fraction(0), Fraction(-1, 2), Fraction(3, 2)])
    def test_domain_errors(self, theta):
        with pytest.raises(ThetaDomainError):
            greedy_two_term(FIB, theta)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            greedy_two_term(FIB, 0.54)


class _FractionSubclass(Fraction):
    pass


class TestThetaContract:
    # every exact form of theta the entry points take, and what they refuse

    @pytest.mark.parametrize(
        "theta",
        [Fraction(1, 2), _FractionSubclass(1, 2), "1/2", Decimal("0.5")],
    )
    def test_accepts_exact_halves(self, theta):
        result = greedy_two_term(FIB, theta)
        assert (result.g1, result.g2, result.value) == (3, 5, Fraction(11, 24))
        assert classify(FIB, theta).theta == Fraction(1, 2)

    @pytest.mark.parametrize("theta", [1, True])
    def test_accepts_integer_one(self, theta):
        result = greedy_two_term(FIB, theta)
        assert (result.g1, result.g2) == (2, 3)
        assert classify(FIB, theta).theta == 1

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            greedy_two_term(FIB, 0.5)
        with pytest.raises(TypeError):
            classify(FIB, 0.5)

    @pytest.mark.parametrize("theta", [Fraction(0), Fraction(-1, 2), Fraction(3, 2), 0, "3/2"])
    def test_domain_errors(self, theta):
        with pytest.raises(ThetaDomainError):
            greedy_two_term(FIB, theta)
        with pytest.raises(ThetaDomainError):
            classify(FIB, theta)


class TestTwoTerm:
    def test_worked_example(self):
        result = greedy_two_term(FIB, Fraction(27, 50))
        assert (result.g1, result.g2) == (2, 8)
        assert result.value == Fraction(9, 17)

    def test_theta_one_fibonacci(self):
        result = greedy_two_term(FIB, Fraction(1))
        assert (result.g1, result.g2) == (2, 3)
        assert result.value == Fraction(5, 6)

    def test_repeated_index_when_first_term_is_small(self):
        # Over lucas at theta = 1 the first reciprocal 1/4 still leaves
        # room for another 1/4, so both picks land on index 1.
        result = greedy_two_term(LUC, Fraction(1))
        assert (result.g1, result.g2) == (1, 1)
        assert result.value == Fraction(1, 2)

    def test_lucas_interval_right_endpoint(self):
        theta = Fraction(206, 1393)
        result = greedy_two_term(LUC, theta)
        assert (result.g1, result.g2) == (2, 10)
        assert result.value == Fraction(47, 322)

    def test_value_below_theta(self):
        for k in range(1, 60):
            theta = Fraction(k, 60)
            result = greedy_two_term(FIB, theta)
            assert result.value < theta
            assert result.g2 >= result.g1 >= 1


class TestPrefix:
    def test_three_terms(self):
        prefix = greedy_prefix(FIB, Fraction(27, 50), 3)
        assert prefix.indices == (2, 8, 11)
        assert prefix.denominators == (2, 34, 144)
        assert prefix.partial_sum == Fraction(1313, 2448)

    def test_four_terms_with_repeats(self):
        prefix = greedy_prefix(LUC, Fraction(1), 4)
        assert prefix.indices == (1, 1, 1, 2)
        assert prefix.denominators == (4, 4, 4, 7)
        assert prefix.partial_sum == Fraction(25, 28)

    def test_two_terms_matches_two_term_result(self):
        for k in (7, 27, 53, 99):
            theta = Fraction(k, 100)
            result = greedy_two_term(FIB, theta)
            prefix = greedy_prefix(FIB, theta, 2)
            assert prefix.indices == (result.g1, result.g2)
            assert prefix.partial_sum == result.value

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            greedy_prefix(FIB, Fraction(1, 2), 0)

    def test_rejects_count_over_limit(self):
        with pytest.raises(TermLimitError, match="exceeds the limit"):
            greedy_prefix(FIB, Fraction(1, 2), 65)

    def test_accepts_count_at_limit(self):
        assert DEFAULT_TERM_LIMIT == 64
        prefix = greedy_prefix(FIB, Fraction(9, 10), 64)
        assert len(prefix.indices) == 64
        assert prefix.partial_sum < Fraction(9, 10)


@st.composite
def theta_values(draw):
    q = draw(st.integers(min_value=2, max_value=5000))
    p = draw(st.integers(min_value=1, max_value=q))
    return Fraction(p, q)


@given(theta_values())
def test_prefix_properties(theta):
    prefix = greedy_prefix(FIB, theta, 5)
    indices = prefix.indices
    # Greedy choices never revisit an earlier pool position out of order.
    assert all(a <= b for a, b in zip(indices, indices[1:]))
    assert prefix.partial_sum < theta
    # Minimality: stepping any chosen index back by one overshoots.
    total = Fraction(0)
    for pos, n in enumerate(indices):
        if n > 1 and (pos == 0 or n > indices[pos - 1]):
            assert total + Fraction(1, seq_term(FIB, n - 1)) >= theta
        total += Fraction(1, seq_term(FIB, n))


@given(theta_values(), theta_values())
def test_first_index_antitone(theta_a, theta_b):
    # A larger target can only move the first pick earlier in the pool.
    lo, hi = sorted((theta_a, theta_b))
    assert greedy_two_term(FIB, lo).g1 >= greedy_two_term(FIB, hi).g1


@given(theta_values(), st.integers(min_value=1, max_value=6))
def test_prefix_consistency(theta, k):
    longer = greedy_prefix(FIB, theta, k + 1)
    shorter = greedy_prefix(FIB, theta, k)
    assert longer.indices[:k] == shorter.indices


@given(theta_values())
def test_two_term_dominates_each_pick(theta):
    params = SequenceParams(2, 3)
    result = greedy_two_term(params, theta)
    first = Fraction(1, seq_term(params, result.g1))
    assert first < theta
    assert result.value == first + Fraction(1, seq_term(params, result.g2))
    assert result.value < theta
