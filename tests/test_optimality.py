"""Cutoffs, failure windows, and the best-possible classifier."""

from fractions import Fraction

import pytest

from fibgreedy import (
    FIBONACCI,
    LUCAS,
    SequenceParams,
    ThetaDomainError,
    bad_interval,
    bad_interval_record,
    classify,
    parse_sequence_spec,
    rationals,
    seq_term,
    xi,
    xi_closed_form,
)
from fibgreedy.sequences import seq_terms
from fibgreedy.verification import xi_literal

FIB = FIBONACCI.params
LUC = LUCAS.params

# every valid pair of seeds with a1 < 30
SEEDS = [
    SequenceParams(a0, a1)
    for a1 in range(1, 30)
    for a0 in range(1, a1 + 1)
    if a0 * a0 + a1 * a0 - a1 * a1 > 0
]
# the seeds the CI sweep runs
CI_SEEDS = ("fibonacci", "lucas", "custom:4,5", "custom:2,2", "custom:1,1", "custom:89,144")


def assert_reduced_ends(params, n, terms):
    # both ends equal Fraction(x + y, x*y), numerator and denominator: the
    # verify suites compare ends only by <, which an unreduced value passes
    iv = bad_interval(params, n)
    for value, x, y in (
        (iv.left, terms[2 * n + 3], terms[2 * n + 4]),
        (iv.right, terms[2 * n + 2], terms[2 * n + 3 + iv.xi]),
    ):
        expected = Fraction(x + y, x * y)
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)
    return iv


class TestXi:
    def test_fibonacci_first_values(self):
        assert xi(FIB, 0).xi == 4
        assert xi(FIB, 1).xi == 8
        assert xi(FIB, 5).xi == 24

    def test_lucas_first_values(self):
        assert xi(LUC, 0).xi == 6
        assert xi(LUC, 1).xi == 10

    def test_custom_square_start(self):
        assert xi(SequenceParams(2, 2), 0).xi == 4

    def test_result_fields(self):
        res = xi(FIB, 0)
        assert res.n == 0
        assert res.chi == 1
        # bound = a_2 * a_3 * a_4 = 2 * 3 * 5
        assert res.bound == 30

    def test_defining_inequalities(self):
        # xi is the last s where a_{2n+3+s} * chi stays within the bound.
        for params in (FIB, LUC, SequenceParams(2, 3)):
            for n in range(0, 25):
                res = xi(params, n)
                assert seq_term(params, 2 * n + 3 + res.xi) * res.chi <= res.bound
                assert seq_term(params, 2 * n + 4 + res.xi) * res.chi > res.bound

    @pytest.mark.parametrize(
        "params",
        [FIB, LUC, SequenceParams(2, 2), SequenceParams(2, 3), SequenceParams(4, 5)],
    )
    def test_literal_path_agrees(self, params):
        for n in range(0, 40):
            assert xi_literal(params, n) == xi(params, n).xi

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError):
            xi(FIB, -1)


class TestClosedForm:
    def test_fibonacci(self):
        for n in range(0, 50):
            assert xi_closed_form(FIBONACCI, n) == 4 * n + 4
            assert xi(FIB, n).xi == 4 * n + 4

    def test_lucas(self):
        for n in range(0, 50):
            assert xi_closed_form(LUCAS, n) == 4 * n + 6
            assert xi(LUC, n).xi == 4 * n + 6

    def test_custom_has_none(self):
        # custom:1,1 has fibonacci's terms, but only the presets carry a
        # closed form
        for spec in ("custom:2,3", "custom:1,1"):
            preset = parse_sequence_spec(spec)
            for n in range(0, 5):
                assert xi_closed_form(preset, n) is None


class TestBadInterval:
    def test_fibonacci_first_window(self):
        iv = bad_interval(FIB, 0)
        assert iv.left == Fraction(8, 15)
        assert iv.right == Fraction(23, 42)
        assert iv.xi == 4

    def test_lucas_first_window(self):
        iv = bad_interval(LUC, 0)
        assert iv.left == Fraction(29, 198)
        assert iv.right == Fraction(206, 1393)
        assert iv.xi == 6

    def test_custom_first_window(self):
        iv = bad_interval(SequenceParams(2, 2), 0)
        assert iv.left == Fraction(4, 15)
        assert iv.right == Fraction(23, 84)

    def test_fibonacci_second_window(self):
        iv = bad_interval(FIB, 1)
        assert iv.left == Fraction(21, 104)
        assert iv.right == Fraction(382, 1885)

    def test_covers_half_open(self):
        iv = bad_interval(FIB, 0)
        assert not iv.covers(Fraction(8, 15))
        assert iv.covers(Fraction(27, 50))
        assert iv.covers(Fraction(23, 42))
        assert not iv.covers(Fraction(24, 42))

    def test_nonempty_for_many_windows(self):
        for n in range(0, 40):
            for params in (FIB, LUC):
                iv = bad_interval(params, n)
                assert iv.left < iv.right

    def test_ends_are_reduced_through_the_gap_forms(self, monkeypatch, fib_pair_calls):
        # with no product form, every left end (adjacent terms) reduces
        # from F(1), and every right end (j = 3i + 2 + t*) through the small
        # modulus, not F(j - i)
        monkeypatch.setattr(rationals, "_PRODUCT_FORM_BITS", 0)
        for params in SEEDS:
            terms = seq_terms(params, 84 + xi(params, 40).xi)
            for n in range(41):
                fib_pair_calls.clear()
                iv = assert_reduced_ends(params, n, terms)
                c = iv.xi - 4 * n - 3  # j - 3i at the right end: 2 + t*
                assert fib_pair_calls == [1, c - 2 if c >= 2 else 1 - c], (params, n)

    @pytest.mark.parametrize("spec", CI_SEEDS)
    def test_large_ends_are_reduced(self, spec):
        params = parse_sequence_spec(spec).params
        terms = seq_terms(params, 2004 + xi(params, 1000).xi)
        for n in (300, 1000):
            assert_reduced_ends(params, n, terms)

    def test_record_shape(self):
        record = bad_interval_record(bad_interval(FIB, 0))
        assert record == {
            "n": 0,
            "xi": 4,
            "left": "8/15",
            "right": "23/42",
            "left_approx": "0.533333",
            "right_approx": "0.547619",
        }


class TestClassify:
    def test_worked_example_not_best(self):
        result = classify(FIB, Fraction(27, 50))
        assert not result.is_best
        assert (result.greedy.g1, result.greedy.g2) == (2, 8)
        assert result.greedy.value == Fraction(9, 17)
        assert result.witness_interval is not None
        assert result.witness_interval.n == 0
        assert result.competitor is not None
        assert (result.competitor.m, result.competitor.n) == (3, 4)
        assert result.competitor.value == Fraction(8, 15)

    def test_theta_one_is_best(self):
        result = classify(FIB, Fraction(1))
        assert result.is_best
        assert result.witness_interval is None
        assert result.competitor is None

    def test_right_endpoint_included(self):
        result = classify(FIB, Fraction(23, 42))
        assert not result.is_best
        assert result.witness_interval.n == 0

    def test_left_endpoint_excluded(self):
        result = classify(FIB, Fraction(8, 15))
        assert result.is_best
        assert (result.greedy.g1, result.greedy.g2) == (2, 8)
        assert result.greedy.value == Fraction(9, 17)

    def test_odd_first_index_is_always_best(self):
        # Window tests only arise when the first greedy index is even.
        for theta in (Fraction(9, 25), Fraction(2, 5), Fraction(1, 6)):
            result = classify(FIB, theta)
            assert result.greedy.g1 % 2 == 1
            assert result.is_best

    def test_deep_window(self):
        theta = Fraction(382, 1885)  # right endpoint of window 1
        result = classify(FIB, theta)
        assert not result.is_best
        assert result.greedy.g1 == 4
        assert result.witness_interval.n == 1
        assert (result.competitor.m, result.competitor.n) == (5, 6)
        assert result.competitor.value == Fraction(21, 104)

    def test_cross_check_scan_agrees(self):
        # Scanning windows 0..11 for membership hits exactly the one window
        # that classify's single test names, or none.
        for params in (FIB, LUC):
            windows = [bad_interval(params, j) for j in range(12)]
            targets = [Fraction(k, 1000) for k in (14, 270, 540, 547, 999)]
            targets += [(iv.left + iv.right) / 2 for iv in windows[:4]]
            targets += [iv.right for iv in windows[:4]] + [iv.left for iv in windows[:4]]
            for theta in targets:
                hits = [iv.n for iv in windows if iv.covers(theta)]
                witness = classify(params, theta).witness_interval
                assert hits == ([] if witness is None else [witness.n])

    def test_domain_error(self):
        with pytest.raises(ThetaDomainError):
            classify(FIB, Fraction(2))

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            classify(FIB, 0.54)


class TestIntervalTable:
    def test_count_and_order(self):
        table = [bad_interval(FIB, n) for n in range(6)]
        assert [iv.n for iv in table] == [0, 1, 2, 3, 4, 5]
        # Windows shrink toward zero and never touch.
        for a, b in zip(table, table[1:]):
            assert b.right < a.left
