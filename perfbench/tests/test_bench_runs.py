"""Counts repeat exactly, spans give self times, and a bare copy fails."""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import inputs
import tracing
import wire
import workloads as w

BENCH = Path(__file__).resolve().parent.parent


def counts_once() -> dict:
    targets = inputs.grid_targets(7)[:60]
    grid = w.worker("grid", {"targets": targets, "trace": True, "passes": 1}).result()
    window = w.worker("window", {"rung": "fib-n100", "seq": "fibonacci", "n": 100, "trace": True}).result()
    theta = Fraction(7, 10**100)
    probe = w.worker("probe", {"rung": "fib-e100-out", "seq": "custom:4,5", "index": 480,
                               "theta": wire.enc(theta)}).result()
    suites = w.worker("suites", {"seq": "lucas"}).result()
    return {
        "oracle.candidates": grid["candidates"],
        "optimality.xi": window["raw"]["xi"],
        "optimality.max_bits": window["raw"]["max_bits"],
        "greedy.g1": probe["g1"],
        "verification.checks": sum(s["checks"] for s in suites["suites"]),
    }


def test_counts_repeat_exactly_across_runs():
    first, second = counts_once(), counts_once()
    assert first == second
    assert first["optimality.xi"] == 4 * 100 + 4


def test_self_time_subtracts_direct_children():
    spans = [["op", 0, 100, -1, 1], ["a", 10, 40, 0, 1], ["b", 50, 60, 1, 1]]
    assert tracing.self_times_ns(spans) == [("op", 1, 70), ("a", 1, 20), ("b", 1, 10)]


def test_tracer_records_nesting():
    tracer = tracing.Tracer()
    with tracer.span("outer", 3):
        with tracer.span("inner", 3):
            pass
    (outer, inner) = tracer.spans
    assert outer[3] == -1 and inner[3] == 0 and inner[4] == 3
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_declared_metrics_fit_the_benchmark_file():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and len(spec["per_layer"]) <= 128
    assert {wl["name"] for wl in spec["workloads"]} == {"grid", "theta_ladder", "window_ladder", "cli"}
