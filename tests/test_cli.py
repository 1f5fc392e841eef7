"""Command line behavior: output formats, exit codes, error reporting."""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fibgreedy
from fibgreedy import parse_rational
from fibgreedy.cli import main

# stdout, stderr and exit code of a small matrix of calls: three sequences in
# each format through every subcommand, plus the bad-input cases below.
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

    def test_decimal_theta(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "classify", "--theta", "0.54")
        assert code == 0
        assert json.loads(out)["theta"] == "27/50"

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

    def test_theta_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--theta", "3/2")
        assert code == 2
        assert "theta" in err

    def test_unparseable_theta(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--theta", "one half")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_extra_depth_is_refused(self, capsys, command):
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

    def test_default_count(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "intervals")
        assert code == 0
        assert len(json.loads(out)) == 10

    def test_rejects_zero_count(self, capsys):
        code, _, err = run_cli(capsys, "intervals", "--count", "0")
        assert code == 2
        assert "at least 1" in err


class TestGreedy:
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

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "verify", "--max-n", "4", "--grid", "20")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["status"] == "PASS" for r in rows)
        assert all(r["failures"] == "0" for r in rows)

    def test_rejects_zero_bound(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--max-n", "0")
        assert code == 2
        assert "at least 1" in err

    def test_rejects_tiny_grid(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--grid", "1")
        assert code == 2
        assert "at least 2" in err


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


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
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
