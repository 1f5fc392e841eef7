"""Fibonacci numbers, sequence parameters, term generation, identities, and
what callers can see of the package's records."""

import sys
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
    bad_interval,
    classical_label,
    classify,
    fib,
    greedy_prefix,
    oracle_best,
    parse_sequence_spec,
    seq_term,
    seq_term_from_fibs,
    xi,
    xi_closed_form,
)
from fibgreedy.cli import cmd_intervals
from fibgreedy.sequences import _SMALL_FIBS, seq_pair, seq_terms
from fibgreedy.verification import grid_equivalence_suite, run_all, xi_literal


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
        # past three times the small table, so fib's first two doubling
        # levels above it are checked too
        for n in range(-30, 3 * len(_SMALL_FIBS) + 2):
            assert fib(n) == naive_fib(n)

    def test_small_table_holds_every_fibonacci_number_below_2_64(self):
        assert _SMALL_FIBS == tuple(naive_fib(n) for n in range(len(_SMALL_FIBS)))
        assert _SMALL_FIBS[-1] < 1 << 64 <= naive_fib(len(_SMALL_FIBS))

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
        with pytest.raises(TypeError, match="a1 must be an int, not float"):
            FIBONACCI.params._replace(a1=1.0)
        assert LUCAS.params._replace(a0=4) == SequenceParams(4, 4)

    @pytest.mark.parametrize(
        "a0, a1, message",
        [
            (1.5, 2, "a0 must be an int, not float"),
            (1.0, 1, "a0 must be an int, not float"),
            (Fraction(3, 2), 2, "a0 must be an int, not Fraction"),
            (1, 1.0, "a1 must be an int, not float"),
        ],
    )
    def test_rejects_non_integer_seeds(self, a0, a1, message):
        # such seeds pass every value condition and would fail later, deep in
        # the term arithmetic
        with pytest.raises(TypeError, match=message):
            SequenceParams(a0, a1)


# (name, call, what a negative value raises): every entry point that takes
# a count or an index, and the seeds
INTEGER_ARGUMENTS = [
    ("a0", lambda v: SequenceParams(v, 1), (SequenceValidationError, "a0 must be positive")),
    ("a1", lambda v: SequenceParams(1, v), (SequenceValidationError, "a1 must be at least 1")),
    ("sequence index", lambda v: seq_pair(LUCAS.params, v), None),
    ("sequence index", lambda v: seq_term(LUCAS.params, v), None),
    ("sequence index", lambda v: seq_terms(LUCAS.params, v), None),
    ("sequence index", lambda v: seq_term_from_fibs(LUCAS.params, v), None),
    ("window index", lambda v: xi(LUCAS.params, v), None),
    ("window index", lambda v: bad_interval(LUCAS.params, v), None),
    ("window index", lambda v: xi_closed_form(LUCAS, v), None),
    ("window index", lambda v: xi_literal(LUCAS.params, v), None),
    ("term count", lambda v: greedy_prefix(LUCAS.params, Fraction(1, 2), v),
     (ValueError, "term count must be at least 1")),
]


@pytest.mark.parametrize(
    "name, call, negative",
    INTEGER_ARGUMENTS,
    ids=["a0", "a1", "seq_pair", "seq_term", "seq_terms", "seq_term_from_fibs", "xi",
         "bad_interval", "xi_closed_form", "xi_literal", "greedy_prefix"],
)
def test_integer_arguments_follow_one_rule(name, call, negative):
    # a float, a Fraction or a bool is refused by type, naming the argument,
    # before any arithmetic; a negative int keeps its entry point's message
    for value in (2.0, 200.0, Fraction(2), True, False):
        with pytest.raises(TypeError, match=f"^{name} must be an int, not {type(value).__name__}$"):
            call(value)
    error, message = negative or (ValueError, f"{name} must be nonnegative")
    with pytest.raises(error, match=f"^{message}, got -1$"):
        call(-1)
    call(1)


# (name, call, floor): every count or bound with a floor above 0, from the
# library and the command line; the floor 0 of indices is checked above
FLOORS = [
    ("term count", lambda v: greedy_prefix(LUCAS.params, Fraction(1, 2), v), 1),
    ("interval count", lambda v: cmd_intervals(LUCAS, "json", v), 1),
    ("max-n", lambda v: run_all(LUCAS, v, 2), 1),
    ("grid denominator", lambda v: run_all(LUCAS, 1, v), 2),
    ("grid denominator", lambda v: grid_equivalence_suite(LUCAS, v), 2),
]


@pytest.mark.parametrize(
    "name, call, least",
    FLOORS,
    ids=["greedy_prefix", "cmd_intervals", "run_all-max_n", "run_all-grid", "grid_equivalence_suite"],
)
def test_each_floor_is_stated_once(name, call, least):
    # one below the floor is refused with the floor in the message; the
    # floor itself is accepted
    with pytest.raises(ValueError, match=f"^{name} must be at least {least}, got {least - 1}$"):
        call(least - 1)
    call(least)


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

    @pytest.mark.parametrize("params", [FIBONACCI.params, SequenceParams(4, 5)])
    def test_fast_doubling_at_every_depth(self, params):
        # F(2k+3) carries 2(-1)^(k+1), so each recursion level needs k of both
        # parities: every n <= 3000, and 2^k - 1, 2^k, 2^k + 1 up to k = 14,
        # whose halvings run through all-ones, single-one and 1...01 bits.
        # Mismatches are reported as indices, not as the terms' digits.
        indices = sorted({*range(3001), *(2**k + d for k in range(15) for d in (-1, 0, 1))})
        terms = seq_terms(params, indices[-1] + 1)
        assert [n for n in indices if seq_pair(params, n) != (terms[n], terms[n + 1])] == []


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

    @pytest.mark.parametrize(
        "spec, seeds",
        [("custom:+3, 4", (3, 4)), ("custom: 4,5 ", (4, 5)), ("custom:1_0,1_0", (10, 10))],
    )
    def test_custom_seeds_read_as_int_reads_them(self, spec, seeds):
        assert parse_sequence_spec(spec).params == seeds

    def test_long_malformed_seed_is_not_an_integer(self):
        digits = sys.get_int_max_str_digits() + 100
        with pytest.raises(SequenceValidationError, match="must be integers"):
            parse_sequence_spec(f"custom:1,{'7' * digits}x")

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
