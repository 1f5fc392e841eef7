"""Command line front end.

Four subcommands share a small set of flags:

* ``classify`` decides whether the greedy two-term sum for one target is
  best possible, double-checking the verdict against the exhaustive search.
* ``intervals`` prints the first windows where greediness fails.
* ``greedy`` expands a target into a short greedy sum, step by step.
* ``verify`` runs the internal correctness suites and reports PASS/FAIL.

Exit codes: 0 success, 1 a verify suite failed, 2 bad input, 3 an internal
error (a failed cross-check or any other exception: a bug), 141 the reader
closed stdout before the answer was written.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from .errors import FibgreedyError, SelfCheckError
from .greedy import DEFAULT_TERM_LIMIT, greedy_prefix
from .optimality import bad_interval, bad_interval_record, classify, xi_closed_form
from .oracle import oracle_best
from .rationals import approx_decimal, format_rational, parse_rational
from .sequences import SequencePreset, _require_int, classical_label, parse_sequence_spec
from .verification import DEFAULT_GRID, DEFAULT_MAX_N, disagreement, run_all

__all__ = ["main", "run"]


def _emit(output_format: str, data: object, rows: list[dict], lines: list[str]) -> None:
    """Write one answer to stdout as json ``data``, csv ``rows`` or text ``lines``."""
    # json and csv load only for the format that needs them: start-up of every
    # other call skips them
    if output_format == "json":
        import json

        json.dump(data, sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif output_format == "csv":
        import csv

        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    else:
        for line in lines:
            print(line)


def cmd_classify(preset: SequencePreset, output_format: str, theta: Fraction) -> int:
    params = preset.params
    result = classify(params, theta)
    report = oracle_best(params, theta)
    greedy, best = result.greedy, report.best

    # The two verdicts come from unrelated code paths; a mismatch here is a
    # bug in this package, not bad input.
    problem = disagreement(params, theta, result, report)
    if problem is not None:
        raise SelfCheckError(
            f"classifier and search disagree at theta={format_rational(theta)}: {problem}"
        )

    theta_s, theta_a = format_rational(theta), approx_decimal(theta)
    greedy_s, greedy_a = format_rational(greedy.value), approx_decimal(greedy.value)
    # With the verdicts agreed, the best value is greedy's on a win and the
    # window's left end on a loss: each distinct value renders once.
    if result.witness_interval is None:
        record = None
        best_s, best_a = greedy_s, greedy_a
    else:
        record = bad_interval_record(result.witness_interval)
        best_s, best_a = record["left"], record["left_approx"]
    data: dict[str, object] = {
        "sequence": preset.name,
        "a0": params.a0,
        "a1": params.a1,
        "theta": theta_s,
        "theta_approx": theta_a,
        "g1": greedy.g1,
        "g2": greedy.g2,
        "greedy_value": greedy_s,
        "greedy_value_approx": greedy_a,
        "is_best": result.is_best,
        "best_pair": [best.m, best.n],
        "best_value": best_s,
        "best_value_approx": best_a,
    }
    row = {**data, "best_pair": f"{best.m} {best.n}"}
    lines = [
        f"sequence: {preset.name} (a0={params.a0}, a1={params.a1})",
        f"theta = {theta_s} ~ {theta_a}",
        f"greedy: 1/a_{greedy.g1} + 1/a_{greedy.g2} = {greedy_s} ~ {greedy_a}",
        f"verdict: {'best possible' if result.is_best else 'not best possible'}",
    ]
    if record is not None:
        data["bad_interval"] = record
        row |= {f"interval_{key}": record[key] for key in ("n", "left", "right")}
        lines.append(f"inside window n={record['n']}: ({record['left']}, {record['right']}]")
    lines.append(f"best two-term sum: 1/a_{best.m} + 1/a_{best.n} = {best_s} ~ {best_a}")
    _emit(output_format, data, [row], lines)
    return 0


def cmd_intervals(preset: SequencePreset, output_format: str, count: int) -> int:
    _require_int("interval count", count, least=1)
    rows, lines = [], []
    for n in range(count):
        interval = bad_interval(preset.params, n)
        row = bad_interval_record(interval)
        line = (
            f"n={n}: ({row['left']}, {row['right']}] "
            f"~ ({row['left_approx']}, {row['right_approx']}], xi={interval.xi}"
        )
        closed = xi_closed_form(preset, n)
        if closed is not None:
            row["xi_closed_form"] = closed
            row["closed_form_match"] = interval.xi == closed
            if interval.xi != closed:
                line += f" (closed form predicts {closed})"
        rows.append(row)
        lines.append(line)
    _emit(output_format, rows, rows, lines)
    return 0


def cmd_greedy(preset: SequencePreset, output_format: str, theta: Fraction, terms: int) -> int:
    prefix = greedy_prefix(preset.params, theta, terms)
    theta_s = format_rational(theta)
    rows, lines = [], [f"greedy expansion of {theta_s} over {preset.name}:"]
    total = Fraction(0)
    steps = zip(prefix.indices, prefix.denominators)
    for step, (index, denominator) in enumerate(steps, start=1):
        total += Fraction(1, denominator)
        label = classical_label(preset, index) or ""
        row = {
            "step": step,
            "index": index,
            "label": label,
            "denominator": str(denominator),
            "term": f"1/{denominator}",
            "partial_sum": format_rational(total),
            "partial_sum_approx": approx_decimal(total),
        }
        rows.append(row)
        lines.append(
            f"  step {step}: index {index}{f' = {label}' if label else ''}, term {row['term']}, "
            f"sum {row['partial_sum']} ~ {row['partial_sum_approx']}"
        )
    if output_format == "text":
        # Only text shows the gap: its numbers can be far longer than any sum
        # json or csv prints, and rendering them could fail where those succeed.
        gap = theta - total
        lines.append(f"remaining gap: {format_rational(gap)} ~ {approx_decimal(gap)}")
    data = {
        "sequence": preset.name,
        "theta": theta_s,
        "indices": list(prefix.indices),
        "sum": rows[-1]["partial_sum"],
        "sum_approx": rows[-1]["partial_sum_approx"],
        "steps": rows,
    }
    _emit(output_format, data, rows, lines)
    return 0


def cmd_verify(preset: SequencePreset, output_format: str, max_n: int, grid: int) -> int:
    results = run_all(preset, max_n, grid)
    rows, lines = [], []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failure = result.first_counterexample or ""
        rows.append(
            {
                "suite": result.name,
                "status": status,
                "checks": result.checks,
                "failures": result.failures,
                "first_counterexample": failure,
            }
        )
        suffix = f" first failure: {failure}" if failure else ""
        lines.append(f"{status}  {result.name} ({result.checks} checks){suffix}")
    _emit(output_format, rows, rows, lines)
    return 0 if all(result.passed for result in results) else 1


def _add_common(parser: argparse.ArgumentParser, top_level: bool) -> None:
    # The same pair of flags is legal both before and after the subcommand.
    # Subparsers must not write their defaults over an already parsed value,
    # hence SUPPRESS below the top level.
    parser.add_argument(
        "--seq",
        default="fibonacci" if top_level else argparse.SUPPRESS,
        help="sequence: 'fibonacci', 'lucas', or 'custom:a0,a1' (default fibonacci)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text" if top_level else argparse.SUPPRESS,
        dest="output_format",
        help="output format (default text)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibgreedy",
        description="Greedy two-term unit-fraction sums over Fibonacci-type sequences.",
    )
    _add_common(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="is the greedy two-term sum best possible?")
    _add_common(p_classify, top_level=False)
    p_classify.add_argument("--theta", required=True, help="target in (0, 1], e.g. 27/50 or 0.54")

    p_intervals = sub.add_parser("intervals", help="list windows where greediness fails")
    _add_common(p_intervals, top_level=False)
    p_intervals.add_argument("--count", type=int, default=10, help="how many windows (default 10)")

    p_greedy = sub.add_parser("greedy", help="print a short greedy expansion")
    _add_common(p_greedy, top_level=False)
    p_greedy.add_argument("--theta", required=True, help="target in (0, 1]")
    p_greedy.add_argument(
        "--terms",
        type=int,
        default=2,
        help=f"number of terms, at most {DEFAULT_TERM_LIMIT} (default 2)",
    )

    p_verify = sub.add_parser("verify", help="run the internal correctness suites")
    _add_common(p_verify, top_level=False)
    p_verify.add_argument(
        "--max-n", type=int, default=DEFAULT_MAX_N, help="window sweep bound (default %(default)s)"
    )
    p_verify.add_argument(
        "--grid",
        type=int,
        default=DEFAULT_GRID,
        help="denominator of the theta sweep grid (default %(default)s)",
    )
    return parser


def _attach_theta(argv: list[str]) -> list[str]:
    """argv with a number-like value that starts with '-', such as -1/2,
    attached to the --theta before it (or any prefix argparse accepts for
    it) as --theta=-1/2. argparse reads such a token as an unknown option
    unless it is a plain negative integer or decimal, so ``--theta -1/2``
    would stop at "expected one argument"; attached, every spelling of a
    negative target reaches the domain check."""
    out: list[str] = []
    for token in argv:
        if out and len(out[-1]) > 2 and "--theta".startswith(out[-1]) and re.match(r"-[\d.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(_attach_theta(sys.argv[1:] if argv is None else argv))
    try:
        preset = parse_sequence_spec(args.seq)
        if args.command == "classify":
            return cmd_classify(preset, args.output_format, parse_rational(args.theta))
        if args.command == "intervals":
            return cmd_intervals(preset, args.output_format, args.count)
        if args.command == "greedy":
            return cmd_greedy(preset, args.output_format, parse_rational(args.theta), args.terms)
        return cmd_verify(preset, args.output_format, args.max_n, args.grid)
    except SelfCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (FibgreedyError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise
    except Exception as exc:  # a bug, whatever its type: not a failed suite
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (``fibgreedy intervals | head -1``): silence the
        # exit-time flush and exit as SIGPIPE would, without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)
