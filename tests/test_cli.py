"""Command line behavior: output formats, exit codes, error reporting."""

import csv
import inspect
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fibgreedy
from fibgreedy import format_rational, parse_rational, parse_sequence_spec, run_all, verification
from fibgreedy.cli import _build_parser, main

# stdout, stderr and exit code of a small matrix of calls: three sequences in
# each format through every subcommand, plus the bad-input cases below, and
# fibonacci targets with a 1000-digit denominator inside and just above
# window 716, whose values take the display rounding's integer path, and a
# four-term greedy expansion of 7/10^300, whose partial sums reach about 4000
# bits.
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_json_worked_example(self, capsys):
        code, out, err = run_cli(capsys, "--format", "json", "classify", "--theta", "27/50")
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["sequence"] == "fibonacci"
        assert payload["g1"] == 2
        assert payload["g2"] == 8
        assert payload["greedy_value"] == "9/17"
        assert payload["is_best"] is False
        assert payload["best_pair"] == [3, 4]
        assert payload["best_value"] == "8/15"
        assert payload["bad_interval"]["left"] == "8/15"
        assert payload["bad_interval"]["right"] == "23/42"
        # Every rational field round-trips through the parser.
        assert parse_rational(payload["greedy_value"]) == Fraction(9, 17)
        assert parse_rational(payload["theta"]) == Fraction(27, 50)

    def test_text_verdict_lines(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--theta", "27/50")
        assert code == 0
        assert "not best possible" in out
        assert "9/17" in out
        assert "(8/15, 23/42]" in out

    def test_best_case_has_no_interval(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "classify", "--theta", "1/2")
        assert code == 0
        payload = json.loads(out)
        assert payload["is_best"] is True
        assert "bad_interval" not in payload

    @pytest.mark.parametrize("theta, is_best, rendered", [("27/50", False, 4), ("1/2", True, 2)])
    def test_each_distinct_value_renders_once(self, capsys, monkeypatch, theta, is_best, rendered):
        # theta and greedy's value, plus on a loss the window's two ends: the
        # best value is the left end on a loss and greedy's value on a win
        calls = []

        def counting(x):
            calls.append(x)
            return format_rational(x)

        monkeypatch.setattr(fibgreedy.cli, "format_rational", counting)
        monkeypatch.setattr(fibgreedy.optimality, "format_rational", counting)
        code, out, _ = run_cli(capsys, "--format", "json", "classify", "--theta", theta)
        assert code == 0
        payload = json.loads(out)
        assert payload["is_best"] is is_best
        assert len(calls) == rendered
        assert len(set(calls)) == rendered

    def test_disagreement_exits_3(self, capsys, monkeypatch):
        # a search that claims the greedy pair wins where the classifier
        # finds it beaten: an internal error, with nothing on stdout
        real = fibgreedy.cli.oracle_best

        def greedy_wins(params, theta):
            report = real(params, theta)
            greedy = fibgreedy.greedy_two_term(params, theta)
            return report._replace(best=fibgreedy.TwoTermSum(*greedy))

        monkeypatch.setattr(fibgreedy.cli, "oracle_best", greedy_wins)
        code, out, err = run_cli(capsys, "classify", "--theta", "27/50")
        assert (code, out) == (3, "")
        assert err == (
            "internal error: classifier and search disagree at theta=27/50: "
            "verdict is_best=False but oracle best 9/17 vs greedy 9/17\n"
        )

    @pytest.mark.parametrize(
        "target, error, argv",
        [
            ("classify", TypeError("bad operand"), ["classify", "--theta", "27/50"]),
            ("run_all", RecursionError("too deep"), ["verify", "--max-n", "1"]),
        ],
    )
    def test_unexpected_exception_exits_3(self, capsys, monkeypatch, target, error, argv):
        # any exception the bad-input rule does not name is a bug: exit 3,
        # one stderr line with its type, nothing on stdout, never exit 1,
        # which means a verify suite failed
        def broken(*args):
            raise error

        monkeypatch.setattr(fibgreedy.cli, target, broken)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"internal error: {type(error).__name__}: {error}\n"

    def test_broken_pipe_passes_through_main(self, monkeypatch):
        # run() turns it into exit 141; main must not report it as a bug
        def closed(*args):
            raise BrokenPipeError

        monkeypatch.setattr(fibgreedy.cli, "classify", closed)
        with pytest.raises(BrokenPipeError):
            main(["classify", "--theta", "27/50"])

    def test_decimal_theta(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "classify", "--theta", "0.54")
        assert code == 0
        assert json.loads(out)["theta"] == "27/50"

    @pytest.mark.parametrize("short, full", [(".5", "0.5"), ("1.", "1")])
    def test_decimal_theta_with_digits_on_one_side_of_the_dot(self, capsys, short, full):
        code, out, err = run_cli(capsys, "classify", "--theta", short)
        assert code == 0
        assert (code, out, err) == run_cli(capsys, "classify", "--theta", full)

    def test_lucas_duplicate_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "--seq", "lucas", "--format", "json", "classify", "--theta", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["g1"] == 1
        assert payload["g2"] == 1
        assert payload["greedy_value"] == "1/2"
        assert payload["is_best"] is True

    def test_invalid_seeds_fail_cleanly(self, capsys):
        code, out, err = run_cli(capsys, "--seq", "custom:1,2", "classify", "--theta", "1/2")
        assert code == 2
        assert out == ""
        assert "chi must be positive" in err

    def test_seed_past_the_digit_limit(self, capsys):
        # the error names the seed's size and the limit instead of echoing
        # thousands of digits
        digits = sys.get_int_max_str_digits() + 100
        code, out, err = run_cli(
            capsys, "--seq", f"custom:1,{'1' * digits}", "intervals"
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: custom seed has {digits} digits, over the interpreter's limit of "
            f"{sys.get_int_max_str_digits()} digits for integer conversion\n"
        )

    @pytest.mark.parametrize(
        "theta",
        [
            lambda d: "1/1" + "0" * (d - 1),  # a denominator of d digits
            lambda d: "0." + "1" * d,  # a fractional part of d digits
            lambda d: "1" * d + "/" + "3" * d,  # both parts of d digits
        ],
    )
    def test_theta_past_the_digit_limit(self, capsys, theta):
        # each grammar names the longest part's size and the limit, as a
        # seed's error does, instead of Python's advice to raise the limit
        digits = sys.get_int_max_str_digits() + 1
        code, out, err = run_cli(capsys, "classify", "--theta", theta(digits))
        assert code == 2
        assert out == ""
        assert err == (
            f"error: a part of the rational has {digits} digits, over the interpreter's "
            f"limit of {sys.get_int_max_str_digits()} digits for integer conversion\n"
        )

    def test_theta_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--theta", "3/2")
        assert code == 2
        assert "theta" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--theta", "-1/2"],
            ["--theta=-1/2"],
            ["--theta", "-0.5"],
            ["--theta", "-2/4"],
            ["--the", "-1/2"],
            ["--seq", "lucas", "--theta", "-1/2"],
            ["--theta", "-.5"],
        ],
    )
    def test_negative_theta_reaches_the_domain_check(self, capsys, argv):
        # a value after --theta that starts with '-' is the target, in every
        # spelling, not an unknown option for argparse to refuse
        code, out, err = run_cli(capsys, "classify", *argv)
        assert (code, out) == (2, "")
        assert err == "error: theta must be in (0, 1], got -1/2\n"

    def test_unparseable_theta(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--theta", "one half")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_search_depth_option_is_refused(self, capsys, command):
        # The search depth is not a CLI option; argparse refuses it as bad
        # input instead of the search reporting a false internal error.
        argv = [command, "--theta", "27/50"] if command == "classify" else [command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--extra-depth", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --extra-depth 0" in err
        assert "internal error" not in err

    def test_unknown_sequence(self, capsys):
        code, _, err = run_cli(capsys, "--seq", "tribonacci", "classify", "--theta", "1/2")
        assert code == 2
        assert "unknown sequence" in err


class TestIntervals:
    def test_csv_first_window(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "intervals", "--count", "1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        row = rows[0]
        assert row["n"] == "0"
        assert row["left"] == "8/15"
        assert row["right"] == "23/42"
        assert row["xi"] == "4"
        assert row["xi_closed_form"] == "4"
        assert row["closed_form_match"] == "True"

    def test_json_custom_has_no_closed_form_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "--seq", "custom:2,2", "--format", "json", "intervals", "--count", "2"
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 2
        assert rows[0]["left"] == "4/15"
        assert rows[0]["right"] == "23/84"
        assert "xi_closed_form" not in rows[0]

    @pytest.mark.parametrize("output_format", ["json", "csv"])
    def test_fibonacci_terms_under_a_custom_name_have_no_closed_form(self, capsys, output_format):
        code, out, _ = run_cli(
            capsys, "--seq", "custom:1,1", "--format", output_format, "intervals", "--count", "2"
        )
        assert code == 0
        rows = json.loads(out) if output_format == "json" else list(csv.DictReader(io.StringIO(out)))
        assert [row["xi"] for row in rows] == ([4, 8] if output_format == "json" else ["4", "8"])
        assert all(set(row) == {"n", "xi", "left", "right", "left_approx", "right_approx"} for row in rows)

    def test_default_count(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "intervals")
        assert code == 0
        assert len(json.loads(out)) == 10

    def test_rejects_zero_count(self, capsys):
        code, _, err = run_cli(capsys, "intervals", "--count", "0")
        assert code == 2
        assert err == "error: interval count must be at least 1, got 0\n"


class TestGreedy:
    @pytest.mark.parametrize("argv", [["--theta", "-3/7"], ["--theta=-3/7"]])
    def test_negative_theta_reaches_the_domain_check(self, capsys, argv):
        code, out, err = run_cli(capsys, "greedy", *argv, "--terms", "2")
        assert (code, out) == (2, "")
        assert err == "error: theta must be in (0, 1], got -3/7\n"

    def test_fibonacci_two_steps(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "greedy", "--theta", "27/50")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["denominator"] for r in rows] == ["2", "34"]
        assert rows[0]["label"] == "F_3"
        assert rows[1]["partial_sum"] == "9/17"

    def test_lucas_denominators(self, capsys):
        code, out, _ = run_cli(
            capsys, "--seq", "lucas", "--format", "csv", "greedy", "--theta", "1/2"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["denominator"] for r in rows] == ["4", "7"]
        assert rows[0]["label"] == "L_3"

    def test_json_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "greedy", "--theta", "27/50", "--terms", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["indices"] == [2, 8, 11]
        assert payload["sum"] == "1313/2448"
        assert len(payload["steps"]) == 3

    def test_text_shows_gap(self, capsys):
        code, out, _ = run_cli(capsys, "greedy", "--theta", "27/50", "--terms", "3")
        assert code == 0
        assert "remaining gap: 223/61200" in out

    def test_rejects_too_many_terms(self, capsys):
        code, _, err = run_cli(capsys, "greedy", "--theta", "1/2", "--terms", "65")
        assert code == 2
        assert "exceeds the limit" in err

    def test_rejects_zero_terms(self, capsys):
        code, _, err = run_cli(capsys, "greedy", "--theta", "1/2", "--terms", "0")
        assert code == 2


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-n", "8", "--grid", "40")
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 10
        assert all(line.startswith("PASS") for line in lines)
        assert any("grid_equivalence" in line for line in lines)

    def test_custom_sequence_skips_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "--seq", "custom:2,3", "verify", "--max-n", "8", "--grid", "40"
        )
        assert code == 0
        assert "closed_form" not in out

    def test_fibonacci_terms_under_a_custom_name_skip_closed_form(self):
        results = run_all(parse_sequence_spec("custom:1,1"), 4, 20)
        assert [result.name for result in results] == [
            "strict_growth",
            "term_formula",
            "shift_identity",
            "cassini_like",
            "fib_addition",
            "reciprocal_positivity",
            "xi_cutoff",
            "window_geometry",
            "grid_equivalence",
        ]
        assert all(result.passed for result in results)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "verify", "--max-n", "4", "--grid", "20")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["status"] == "PASS" for r in rows)
        assert all(r["failures"] == "0" for r in rows)

    def test_bounds_are_declared_once(self):
        # every suite, run_all and the command line take verify's two bounds
        # from verification's constants
        max_n, grid = verification.DEFAULT_MAX_N, verification.DEFAULT_GRID
        functions = [getattr(verification, name) for name in verification.__all__]
        defaults = {
            (function.__name__, parameter.name): parameter.default
            for function in functions
            if inspect.isfunction(function)
            for parameter in inspect.signature(function).parameters.values()
            if parameter.default is not inspect.Parameter.empty
        }
        suites = ["growth_suite", "cassini_suite", "positivity_suite", "xi_suite",
                  "endpoint_suite", "closed_form_suite", "run_all"]
        want = {(name, "max_n"): max_n for name in suites}
        want["grid_equivalence_suite", "grid_denominator"] = grid
        want["run_all", "grid_denominator"] = grid
        assert defaults == want
        args = _build_parser().parse_args(["verify"])
        assert (args.max_n, args.grid) == (max_n, grid)

    def test_rejects_zero_bound(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--max-n", "0")
        assert code == 2
        assert "at least 1" in err

    def test_rejects_tiny_grid(self, capsys, monkeypatch):
        # verification owns the rule, and run_all applies it before its
        # first suite: none runs
        ran = []
        monkeypatch.setattr(verification, "growth_suite", lambda *args: ran.append(args))
        code, _, err = run_cli(capsys, "verify", "--grid", "1")
        assert code == 2
        assert "at least 2" in err
        assert ran == []

    @pytest.mark.parametrize(
        "max_n, error, text",
        [
            (0, ValueError, "max-n must be at least 1, got 0"),
            (-5, ValueError, "max-n must be at least 1, got -5"),
            (2.0, TypeError, "max-n must be an int, not float"),
        ],
    )
    def test_run_all_refuses_a_bad_max_n_before_any_suite(self, monkeypatch, max_n, error, text):
        # one owner in verification for the library and the command line: no
        # sweep passes with 0 checks, and the error names max-n
        ran = []
        monkeypatch.setattr(verification, "growth_suite", lambda *args: ran.append(args))
        with pytest.raises(error, match=text):
            run_all(parse_sequence_spec("fibonacci"), max_n, 10)
        assert ran == []

    @pytest.mark.parametrize("grid", [3.0, True])
    def test_run_all_refuses_a_non_int_grid_before_any_suite(self, monkeypatch, grid):
        # a float grid would run every other suite and then fail in range();
        # a bool would pass as 1 or 0
        ran = []
        monkeypatch.setattr(verification, "growth_suite", lambda *args: ran.append(args))
        with pytest.raises(TypeError, match=f"^grid denominator must be an int, not {type(grid).__name__}$"):
            run_all(parse_sequence_spec("fibonacci"), 5, grid)
        assert ran == []


class TestFlagPlacement:
    def test_common_flags_after_subcommand(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--seq", "fibonacci", "--theta", "27/50", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["is_best"] is False
        assert payload["greedy_value"] == "9/17"
        assert payload["best_value"] == "8/15"

    def test_common_flags_before_subcommand(self, capsys):
        code, out, _ = run_cli(
            capsys, "--seq", "lucas", "--format", "json", "intervals", "--count", "1"
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["left"] == "29/198"
        assert rows[0]["right"] == "206/1393"

    def test_mixed_placement(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "greedy", "--seq", "lucas", "--theta", "1/2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sequence"] == "lucas"
        assert [step["denominator"] for step in payload["steps"]] == ["4", "7"]

    def test_single_term_expansion(self, capsys):
        code, out, _ = run_cli(
            capsys, "greedy", "--seq", "fibonacci", "--theta", "1", "--terms", "1", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["denominator"] for r in rows] == ["2"]


LIMIT_MESSAGE = (
    "error: an answer's denominator has {} digits, over the interpreter's limit of 4300 digits "
    "for integer conversion\n"
)


@pytest.mark.usefixtures("default_int_strings")
class TestAnswerPastTheDigitLimit:
    # Valid input whose exact answer has a part past the int-string limit
    # exits 2 with the part's digit count and the limit, not Python's advice
    # to raise the limit, and writes nothing to stdout; one step inside each
    # threshold the answer prints.
    @pytest.mark.parametrize(
        "argv, digits",
        [
            (["intervals", "--count", "2572"], 4301),  # window 2571's right end
            (["greedy", "--theta", "7/1" + "0" * 2000, "--terms", "2"], 5999),  # the text gap
            (["greedy", "--theta", "7/1" + "0" * 1434, "--terms", "2"], 4301),
            (["classify", "--theta", "1/1" + "0" * 2150], 4301),  # the greedy value
        ],
        ids=["intervals", "greedy", "greedy-threshold", "classify"],
    )
    def test_named_error(self, capsys, argv, digits):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", LIMIT_MESSAGE.format(digits))

    @pytest.mark.parametrize(
        "argv",
        [
            ["intervals", "--count", "2571"],
            ["greedy", "--theta", "7/1" + "0" * 1433, "--terms", "2"],
            ["classify", "--theta", "1/1" + "0" * 2149],
        ],
        ids=["intervals", "greedy", "classify"],
    )
    def test_just_inside_prints(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.endswith("\n")


def golden_id(case):
    # long targets are cut short; pytest numbers the ids that then repeat
    return " ".join(arg if len(arg) <= 40 else f"{arg[:12]}..." for arg in case["argv"])


@pytest.mark.parametrize("case", GOLDEN, ids=golden_id)
def test_golden_output(capsys, case):
    # Pins the exact layouts, which the tests above only sample.
    assert run_cli(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("output_format", ["text", "json", "csv"])
def test_closed_pipe_exits_141_quietly(output_format):
    # Like `fibgreedy intervals --count 1000 | head -c 10`: the 2 MB answer
    # cannot fit in the pipe, so the reader leaves while it is being written.
    env = {**os.environ, "PYTHONPATH": str(Path(fibgreedy.__file__).parents[1])}
    argv = ["--format", output_format, "intervals", "--count", "1000"]
    with subprocess.Popen(
        [sys.executable, "-m", "fibgreedy", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


def test_version_module_entry():
    import fibgreedy

    assert fibgreedy.__version__ == "0.1.0"


def test_version_matches_pyproject():
    # read with a regex: tomllib is new in Python 3.11
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    declared = re.findall(r'^version = "([^"]*)"$', pyproject, re.MULTILINE)
    assert declared == [fibgreedy.__version__]
