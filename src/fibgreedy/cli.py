"""Command line front end.

Four subcommands share a small set of flags:

* ``classify`` decides whether the greedy two-term sum for one target is
  best possible, double-checking the verdict against the exhaustive search.
* ``intervals`` prints the first windows where greediness fails.
* ``greedy`` expands a target into a short greedy sum, step by step.
* ``verify`` runs the internal correctness suites and reports PASS/FAIL.

Exit codes: 0 success, 1 a verify suite failed, 2 bad input, 3 an internal
cross-check failed (classifier and search disagree, which indicates a bug),
141 the reader closed stdout before the answer was written.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from .errors import FibgreedyError, SelfCheckError
from .greedy import DEFAULT_TERM_LIMIT, greedy_prefix
from .optimality import bad_interval, bad_interval_record, classify, xi_closed_form
from .oracle import oracle_best
from .rationals import approx_decimal, format_rational, parse_rational
from .sequences import SequencePreset, classical_label, parse_sequence_spec, seq_term
from .verification import disagreement, run_all

__all__ = ["main", "run"]


def _emit(output_format: str, data: object, rows: list[dict], lines: list[str]) -> None:
    """Write one answer to stdout as json ``data``, csv ``rows`` or text ``lines``."""
    if output_format == "json":
        json.dump(data, sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif output_format == "csv":
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
    problem = disagreement(theta, result, report)
    if problem is not None:
        raise SelfCheckError(
            f"classifier and search disagree at theta={format_rational(theta)}: {problem}"
        )

    theta_s, theta_a = format_rational(theta), approx_decimal(theta)
    greedy_s, greedy_a = format_rational(greedy.value), approx_decimal(greedy.value)
    best_s, best_a = format_rational(best.value), approx_decimal(best.value)
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
    if result.witness_interval is not None:
        record = bad_interval_record(result.witness_interval)
        data["bad_interval"] = record
        row |= {f"interval_{key}": record[key] for key in ("n", "left", "right")}
        lines.append(f"inside window n={record['n']}: ({record['left']}, {record['right']}]")
    lines.append(f"best two-term sum: 1/a_{best.m} + 1/a_{best.n} = {best_s} ~ {best_a}")
    _emit(output_format, data, [row], lines)
    return 0


def cmd_intervals(preset: SequencePreset, output_format: str, count: int) -> int:
    if count < 1:
        raise ValueError(f"interval count must be at least 1, got {count}")
    is_preset = preset.name in ("fibonacci", "lucas")
    rows, lines = [], []
    for n in range(count):
        interval = bad_interval(preset.params, n)
        row = bad_interval_record(interval)
        line = (
            f"n={n}: ({row['left']}, {row['right']}] "
            f"~ ({row['left_approx']}, {row['right_approx']}], xi={interval.xi}"
        )
        if is_preset:
            closed = xi_closed_form(preset, n)
            row["xi_closed_form"] = closed
            row["closed_form_match"] = interval.xi == closed
            if interval.xi != closed:
                line += f" (closed form predicts {closed})"
        rows.append(row)
        lines.append(line)
    _emit(output_format, rows, rows, lines)
    return 0


def cmd_greedy(preset: SequencePreset, output_format: str, theta: Fraction, terms: int) -> int:
    params = preset.params
    prefix = greedy_prefix(params, theta, terms)
    theta_s = format_rational(theta)
    rows, lines = [], [f"greedy expansion of {theta_s} over {preset.name}:"]
    total = Fraction(0)
    for step, index in enumerate(prefix.indices, start=1):
        denominator = seq_term(params, index)
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
    if max_n < 1:
        raise ValueError(f"max-n must be at least 1, got {max_n}")
    if grid < 2:
        raise ValueError(f"grid denominator must be at least 2, got {grid}")
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
    p_verify.add_argument("--max-n", type=int, default=300, help="window sweep bound (default 300)")
    p_verify.add_argument(
        "--grid",
        type=int,
        default=1000,
        help="denominator of the theta sweep grid (default 1000)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
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
