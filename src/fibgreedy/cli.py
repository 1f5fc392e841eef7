"""Command line front end.

Four subcommands share a small set of flags:

* ``classify`` decides whether the greedy two-term sum for one target is
  best possible, double-checking the verdict against the exhaustive search.
* ``intervals`` prints the first windows where greediness fails.
* ``greedy`` expands a target into a short greedy sum, step by step.
* ``verify`` runs the internal correctness suites and reports PASS/FAIL.

Exit codes: 0 success, 1 a verify suite failed, 2 bad input, 3 an internal
cross-check failed (classifier and search disagree, which indicates a bug).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import FibgreedyError, SelfCheckError
from .greedy import DEFAULT_TERM_LIMIT, greedy_prefix
from .optimality import bad_interval_record, classify, interval_table, xi_closed_form
from .oracle import oracle_best
from .rationals import approx_decimal, format_rational, parse_rational
from .sequences import SequencePreset, classical_label, parse_sequence_spec, seq_term
from .verification import disagreement, run_all

__all__ = ["main", "run"]


@dataclass
class _Config:
    preset: SequencePreset
    output_format: str


def _emit_json(payload: object) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _emit_csv(rows: list[dict[str, object]]) -> None:
    if not rows:
        return
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    sys.stdout.write(buffer.getvalue())


def _classify_payload(config: _Config, theta: Fraction) -> dict[str, object]:
    params = config.preset.params
    result = classify(params, theta)
    report = oracle_best(params, theta)
    greedy = result.greedy
    best = report.best

    # The two verdicts come from unrelated code paths; a mismatch here is a
    # bug in this package, not bad input.
    problem = disagreement(theta, result, report)
    if problem is not None:
        raise SelfCheckError(
            f"classifier and search disagree at theta={format_rational(theta)}: {problem}"
        )

    payload: dict[str, object] = {
        "sequence": config.preset.name,
        "a0": params.a0,
        "a1": params.a1,
        "theta": format_rational(theta),
        "theta_approx": approx_decimal(theta),
        "g1": greedy.g1,
        "g2": greedy.g2,
        "greedy_value": format_rational(greedy.value),
        "greedy_value_approx": approx_decimal(greedy.value),
        "is_best": result.is_best,
        "best_pair": [best.m, best.n],
        "best_value": format_rational(best.value),
        "best_value_approx": approx_decimal(best.value),
    }
    if result.witness_interval is not None:
        payload["bad_interval"] = bad_interval_record(result.witness_interval)
    return payload


def cmd_classify(config: _Config, theta: Fraction) -> int:
    payload = _classify_payload(config, theta)
    if config.output_format == "json":
        _emit_json(payload)
    elif config.output_format == "csv":
        flat = dict(payload)
        interval = flat.pop("bad_interval", None)
        if isinstance(interval, dict):
            flat["interval_n"] = interval["n"]
            flat["interval_left"] = interval["left"]
            flat["interval_right"] = interval["right"]
        flat["best_pair"] = " ".join(str(i) for i in payload["best_pair"])  # type: ignore[union-attr]
        _emit_csv([flat])
    else:
        verdict = "best possible" if payload["is_best"] else "not best possible"
        print(f"sequence: {config.preset.name} (a0={config.preset.params.a0}, a1={config.preset.params.a1})")
        print(f"theta = {payload['theta']} ~ {payload['theta_approx']}")
        print(
            f"greedy: 1/a_{payload['g1']} + 1/a_{payload['g2']} "
            f"= {payload['greedy_value']} ~ {payload['greedy_value_approx']}"
        )
        print(f"verdict: {verdict}")
        if "bad_interval" in payload:
            interval = payload["bad_interval"]
            print(
                f"inside window n={interval['n']}: "  # type: ignore[index]
                f"({interval['left']}, {interval['right']}]"  # type: ignore[index]
            )
        pair = payload["best_pair"]
        print(
            f"best two-term sum: 1/a_{pair[0]} + 1/a_{pair[1]} "  # type: ignore[index]
            f"= {payload['best_value']} ~ {payload['best_value_approx']}"
        )
    return 0


def cmd_intervals(config: _Config, count: int) -> int:
    if count < 1:
        raise ValueError(f"interval count must be at least 1, got {count}")
    params = config.preset.params
    is_preset = config.preset.name in ("fibonacci", "lucas")
    rows = []
    for interval in interval_table(params, count):
        row = bad_interval_record(interval)
        if is_preset:
            closed = xi_closed_form(config.preset, interval.n)
            row["xi_closed_form"] = closed
            row["closed_form_match"] = interval.xi == closed
        rows.append(row)
    if config.output_format == "json":
        _emit_json(rows)
    elif config.output_format == "csv":
        _emit_csv(rows)
    else:
        for row in rows:
            line = (
                f"n={row['n']}: ({row['left']}, {row['right']}] "
                f"~ ({row['left_approx']}, {row['right_approx']}], xi={row['xi']}"
            )
            if is_preset and not row["closed_form_match"]:
                line += f" (closed form predicts {row['xi_closed_form']})"
            print(line)
    return 0


def cmd_greedy(config: _Config, theta: Fraction, terms: int) -> int:
    params = config.preset.params
    prefix = greedy_prefix(params, theta, terms)
    rows = []
    total = Fraction(0)
    for step, index in enumerate(prefix.indices, start=1):
        denominator = seq_term(params, index)
        total += Fraction(1, denominator)
        label = classical_label(config.preset, index)
        rows.append(
            {
                "step": step,
                "index": index,
                "label": label if label is not None else "",
                "denominator": str(denominator),
                "term": f"1/{denominator}",
                "partial_sum": format_rational(total),
                "partial_sum_approx": approx_decimal(total),
            }
        )
    if config.output_format == "json":
        _emit_json(
            {
                "sequence": config.preset.name,
                "theta": format_rational(theta),
                "indices": list(prefix.indices),
                "sum": format_rational(prefix.partial_sum),
                "sum_approx": approx_decimal(prefix.partial_sum),
                "steps": rows,
            }
        )
    elif config.output_format == "csv":
        _emit_csv(rows)
    else:
        print(f"greedy expansion of {format_rational(theta)} over {config.preset.name}:")
        for row in rows:
            label = f" = {row['label']}" if row["label"] else ""
            print(
                f"  step {row['step']}: index {row['index']}{label}, term {row['term']}, "
                f"sum {row['partial_sum']} ~ {row['partial_sum_approx']}"
            )
        gap = theta - prefix.partial_sum
        print(f"remaining gap: {format_rational(gap)} ~ {approx_decimal(gap)}")
    return 0


def cmd_verify(config: _Config, max_n: int, grid_denominator: int) -> int:
    if max_n < 1:
        raise ValueError(f"max-n must be at least 1, got {max_n}")
    if grid_denominator < 2:
        raise ValueError(f"grid denominator must be at least 2, got {grid_denominator}")
    results = run_all(config.preset, max_n, grid_denominator)
    rows = []
    failed = False
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failed = failed or not result.passed
        rows.append(
            {
                "suite": result.name,
                "status": status,
                "checks": result.checks,
                "failures": result.failures,
                "first_counterexample": result.first_counterexample or "",
            }
        )
    if config.output_format == "json":
        _emit_json(rows)
    elif config.output_format == "csv":
        _emit_csv(rows)
    else:
        for row in rows:
            line = f"{row['status']}  {row['suite']} ({row['checks']} checks)"
            if row["first_counterexample"]:
                line += f" first failure: {row['first_counterexample']}"
            print(line)
    return 1 if failed else 0


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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        preset = parse_sequence_spec(args.seq)
        config = _Config(preset=preset, output_format=args.output_format)
        if args.command == "classify":
            return cmd_classify(config, parse_rational(args.theta))
        if args.command == "intervals":
            return cmd_intervals(config, args.count)
        if args.command == "greedy":
            return cmd_greedy(config, parse_rational(args.theta), args.terms)
        if args.command == "verify":
            return cmd_verify(config, args.max_n, args.grid)
        raise AssertionError(f"unhandled command {args.command!r}")
    except SelfCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (FibgreedyError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
