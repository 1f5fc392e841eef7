"""The traced run: per-layer self times and counts, and tracing overhead.

It covers every layer, so it traces one pass of every workload whatever
``--workload`` names. Spans are recorded around the benchmark's own calls
into each module's public functions; nothing inside the package changes.
Per-rung probes run in fresh children so that "cold" means a new process.
Tracing overhead is a traced op's root span minus the same op untraced.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from fractions import Fraction

import calib
import checker
import inputs
import tracing
import wire
import workloads as w

GRID_PASSES = 3
PREFIX_REPS = 20


def _median_us(values_ns: list[int]) -> float:
    return statistics.median(values_ns) / 1e3


def _by_name(spans: list[list]) -> dict[str, list[int]]:
    out = defaultdict(list)
    for name, _op, self_ns in tracing.self_times_ns(spans):
        out[name].append(self_ns)
    return out


def _durations(spans: list[list], name: str) -> list[int]:
    return [s[2] - s[1] for s in spans if s[0] == name]


def trace_grid(seed: int, spans: list, metrics: dict, tally: w.Tally) -> None:
    targets = inputs.grid_targets(seed)
    expected = w.grid_expected(targets)
    child = w.worker("grid", {"targets": targets, "trace": True, "passes": GRID_PASSES})
    tally.child(child)
    if child.code != 0:
        tally.fail("grid trace worker", w.child_error(child))
        return
    result = child.result()
    tally.untimed += len(targets)
    for index, (why, wrong) in w.grid_answer_problems(targets, expected, result).items():
        tally.fail(" ".join(targets[index]), why, wrong=wrong)
    tracing.merge(spans, result["spans"], "grid")
    self_ns = _by_name(result["spans"])
    greedy_us = _median_us(self_ns["greedy.two_term"])
    metrics["rationals.parse_us"] = (_median_us(self_ns["rationals.parse"]), "us")
    metrics["rationals.format_us"] = (_median_us(self_ns["rationals.format"]), "us")
    metrics["greedy.two_term_us"] = (greedy_us, "us")
    metrics["optimality.classify_us"] = (_median_us(self_ns["optimality.classify"]) - greedy_us, "us")
    metrics["oracle.best_us"] = (_median_us(self_ns["oracle.best"]), "us")
    metrics["oracle.candidates"] = (result["candidates"], "count")
    overhead = _median_us(_durations(result["spans"], "op")) - _median_us(result["untraced_ns"])
    metrics["trace.overhead_ms.grid"] = (overhead / 1e3, "ms")


def _probe(rung: str, seq: str, index: int, theta: Fraction | None, spans: list) -> tuple[dict, dict]:
    job = {"rung": rung, "seq": seq, "index": index, "theta": wire.enc(theta) if theta else None}
    child = w.worker("probe", job)
    if child.code != 0:
        raise RuntimeError(f"probe {rung} failed: {w.child_error(child)}")
    result = child.result()
    if not result["terms_agree"]:
        raise RuntimeError(f"probe {rung}: seq_term and seq_term_from_fibs disagree")
    tracing.merge(spans, result["spans"], f"probe {rung}")
    ms = {s[0]: (s[2] - s[1]) / 1e6 for s in result["spans"]}
    ms["rss_mb"] = child.rss_mb
    return ms, result


def _traced_op(name: str, op, untraced_op, spans: list, rung: str, overheads: list) -> dict | None:
    """One traced cold run of the rung; returns its result and span durations
    in ms (None when the op failed). Rungs that take under a second are also
    rerun untraced for the overhead; on longer ones a few spans cannot show."""
    result = op()
    if result is None:
        return None
    tracing.merge(spans, result["spans"], f"{name} {rung}")
    ms = {s[0]: (s[2] - s[1]) / 1e6 for s in result["spans"]}
    if ms["op"] < 1000:
        plain = untraced_op()
        if plain is not None:
            overheads.append(ms["op"] - plain["op_ns"] / 1e6)
    return {"ms": ms, "result": result}


def trace_theta(seed: int, spans: list, metrics: dict, tally: w.Tally) -> None:
    rungs = inputs.theta_rungs(seed)
    expected = w.theta_expected(rungs)
    scratch = w.Tally()  # untraced reruns count once, in the traced tally
    overheads: list[float] = []
    for rung, want in zip(rungs, expected):
        r = rung["rung"]
        traced = _traced_op("theta", lambda: w.theta_op(tally, rung, want, trace=True),
                            lambda: w.theta_op(scratch, rung, want), spans, r, overheads)
        touched = max(want["g2"], want["g1"] + 9)
        if want["g1"] % 2 == 0:
            n = want["g1"] // 2 - 1
            touched = max(touched, 2 * n + 4 + checker.xi(checker.seeds_of(rung["seq"]), n, rung["seq"]))
        probe, result = _probe(r, rung["seq"], touched, rung["theta"], spans)
        if result["g1"] != want["g1"]:
            tally.fail(r, f"probe greedy g1 {result['g1']}, expected {want['g1']}", wrong=True)
        metrics[f"greedy.two_term_ms.{r}"] = (probe["greedy.two_term"], "ms")
        metrics[f"greedy.g1.{r}"] = (result["g1"], "count")
        metrics[f"sequences.seq_term_ms.{r}"] = (probe["sequences.seq_term"], "ms")
        metrics[f"sequences.term_from_fibs_ms.{r}"] = (probe["sequences.term_from_fibs"], "ms")
        metrics[f"sequences.rss_mb.{r}"] = (probe["rss_mb"], "MB")
        if traced is not None:
            ms = traced["ms"]
            metrics[f"optimality.classify_ms.{r}"] = (ms["optimality.classify"], "ms")
            metrics[f"oracle.best_ms.{r}"] = (ms["oracle.best"], "ms")
            metrics[f"rationals.render_ms.{r}"] = (ms["rationals.format"], "ms")
            metrics[f"rationals.render_failed.{r}"] = (int(traced["result"]["error"] is not None), "count")
    metrics["trace.overhead_ms.theta_ladder"] = (statistics.median(overheads), "ms")


def trace_window(seed: int, spans: list, metrics: dict, tally: w.Tally) -> None:
    rungs = inputs.window_rungs(seed)
    expected = w.window_expected(rungs)
    scratch = w.Tally()
    overheads: list[float] = []
    for rung, want in zip(rungs, expected):
        r = rung["rung"]
        traced = _traced_op("window", lambda: w.window_op(tally, rung, want, trace=True),
                            lambda: w.window_op(scratch, rung, want), spans, r, overheads)
        probe, _ = _probe(r, rung["seq"], 2 * rung["n"] + 4 + want[2], None, spans)
        metrics[f"sequences.seq_term_ms.{r}"] = (probe["sequences.seq_term"], "ms")
        metrics[f"sequences.term_from_fibs_ms.{r}"] = (probe["sequences.term_from_fibs"], "ms")
        metrics[f"sequences.rss_mb.{r}"] = (probe["rss_mb"], "MB")
        if traced is not None:
            ms, raw = traced["ms"], traced["result"]["raw"]
            metrics[f"optimality.xi_ms.{r}"] = (ms["optimality.xi"], "ms")
            metrics[f"optimality.bad_interval_ms.{r}"] = (ms["optimality.bad_interval"], "ms")
            metrics[f"optimality.xi.{r}"] = (raw["xi"], "count")
            metrics[f"optimality.max_bits.{r}"] = (raw["max_bits"], "count")
            metrics[f"rationals.render_ms.{r}"] = (ms["rationals.format"], "ms")
            metrics[f"rationals.render_failed.{r}"] = (int(traced["result"]["error"] is not None), "count")
    metrics["trace.overhead_ms.window_ladder"] = (statistics.median(overheads), "ms")


def trace_cli(seed: int, spans: list, metrics: dict, tally: w.Tally, floor_s, import_s) -> None:
    calls = inputs.cli_calls(seed)
    expected = [w.cli_expected(c) for c in calls]
    tracer = tracing.Tracer()
    plain, traced = [], []
    by_sub = defaultdict(list)
    for i, (call, want) in enumerate(zip(calls, expected)):
        # overhead: the same spawn timed with and without a span around it;
        # checking the output stays outside both
        if call["sub"] != "verify":
            start = time.perf_counter_ns()
            w.run_child(w.cli_argv(call))
            plain.append(time.perf_counter_ns() - start)
        with tracer.span(f"cli.{call['sub']}", i):
            child = w.run_child(w.cli_argv(call))
        if call["sub"] != "verify":
            traced.append(tracer.spans[-1][2] - tracer.spans[-1][1])
        w.cli_record(tally, call, want, child, calib.REFERENCE_S)  # unscaled: no rates here
        by_sub[call["sub"]].append(child.wall_s)
    tracing.merge(spans, tracer.spans, "cli client")
    floor_ms = statistics.median(floor_s) * 1e3
    metrics["cli.interp_floor_ms"] = (floor_ms, "ms")
    metrics["cli.import_ms"] = (statistics.median(import_s) * 1e3 - floor_ms, "ms")
    for sub in (*inputs.CLI_SUBCOMMANDS, "verify"):
        metrics[f"cli.{sub}_ms"] = (statistics.median(by_sub[sub]) * 1e3, "ms")
    metrics["trace.overhead_ms.cli"] = ((statistics.median(traced) - statistics.median(plain)) / 1e6, "ms")

    thetas = [(c["seq"], f"{c['theta'].numerator}/{c['theta'].denominator}") for c in calls if c["theta"]]
    child = w.worker("prefix", {"targets": thetas, "reps": PREFIX_REPS})
    metrics["greedy.prefix_us"] = (_median_us(child.result()["lat_ns"]), "us")

    suite_s: dict[str, float] = defaultdict(float)
    checks = 0
    for spec in inputs.CLI_SEQS:  # a fresh process per sequence
        child = w.worker("suites", {"seq": spec})
        for suite in child.result()["suites"]:
            suite_s[suite["suite"]] += suite["ns"] / 1e9
            checks += suite["checks"]
            if suite["failures"]:
                tally.fail(f"verification {spec} {suite['suite']}", "suite reported failures", wrong=True)
    for name, seconds in suite_s.items():
        metrics[f"verification.{name}_s"] = (seconds, "s")
    metrics["verification.checks"] = (checks, "count")


def run(seed: int, floor_s: list[float], import_s: list[float]) -> tuple[dict, w.Tally, list]:
    spans: list = []
    metrics: dict = {}
    tally = w.Tally()
    trace_grid(seed, spans, metrics, tally)
    trace_theta(seed, spans, metrics, tally)
    trace_window(seed, spans, metrics, tally)
    trace_cli(seed, spans, metrics, tally, floor_s, import_s)
    return metrics, tally, spans
