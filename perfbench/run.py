"""Benchmark for fibgreedy: four workloads, checked answers, one JSON line.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload in turn. With ``--trace 0`` the last
line of stdout carries the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` it carries the per-layer metrics of the traced run, which
covers every layer whatever the workload. Lines before it give the
environment header, every metric with its unit, and each failure with its
error text. Full results, and the spans of a traced run, are written under
perfbench/out/. Run it from the root of a checkout; it exits nonzero
without a result when the package sources are not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import checker
import workloads as w

WORKLOADS = ("grid", "theta_ladder", "window_ladder", "cli")
OUT = Path(__file__).resolve().parent / "out"


def git_commit() -> str:
    """The checked-out commit, or "unknown" outside a git repository."""
    git_dir = w.ROOT / ".git"
    if not git_dir.exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:  # no git
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def mem_total_mb() -> float | None:
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def environment(seed: int, floor_s: list[float], import_s: list[float]) -> dict:
    floor_ms = statistics.median(floor_s) * 1e3
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_total_mb(),
        "git_commit": git_commit(),
        "seed": seed,
        "cli.interp_floor_ms": floor_ms,
        "cli.import_ms": statistics.median(import_s) * 1e3 - floor_ms,
    }


def run_workload(name: str, seed: int, seconds: float) -> w.Tally:
    if name == "grid":
        return w.grid(seed, seconds)
    if name == "theta_ladder":
        return w.theta_ladder(seed, seconds)
    if name == "window_ladder":
        return w.window_ladder(seed, seconds)
    return w.cli(seed, seconds)


def print_failures(label: str, tally: w.Tally) -> None:
    for what, count in sorted(tally.failures.items()):
        print(f"# failed [{label}] {what} (x{count})")


def spec() -> dict:
    return json.loads((w.ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec()[kind]}


def select(metrics: dict, names: dict[str, str]) -> dict:
    missing = [n for n in names if n not in metrics]
    if missing:
        raise SystemExit(f"metrics not measured: {', '.join(missing)}")
    return {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all",
                        help="with --trace 1 it only names the output files: "
                             "the traced run covers every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (w.ROOT / "src" / "fibgreedy" / "__init__.py").is_file():
        print(f"error: no package sources under {w.ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    checker.self_test()
    floor_s, import_s = w.start_probes()
    env = environment(args.seed, floor_s, import_s)
    print("# env " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        import traced

        metrics, tally, spans = traced.run(args.seed, floor_s, import_s)
        for name, (value, unit) in metrics.items():
            print(f"trace  {name:48s} {value:14.6g} {unit}")
        print_failures("trace", tally)
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent", "op", "process"], "spans": spans}))
        report = {"env": env, "per_layer": metrics, "failures": dict(tally.failures)}
        chosen = select(metrics, declared("per_layer"))
        totals = [tally]
    else:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        report = {"env": env, "workloads": {}}
        totals, chosen = [], {}
        for name in names:
            tally = run_workload(name, args.seed, args.seconds)
            metrics = tally.metrics()
            for metric, (value, unit) in metrics.items():
                print(f"{name:14s} {metric:14s} {value:14.6g} {unit}")
            print(f"{name:14s} {'attempted':14s} {tally.attempted:14d} ops")
            print_failures(name, tally)
            report["workloads"][name] = {
                "metrics": metrics, "attempted": tally.attempted, "failed": tally.failed,
                "failures": dict(tally.failures),
                "op_median_scaled_ms": {str(k): v * 1e3 for k, v in tally.median_s().items()} if name != "grid" else None,
            }
            totals.append(tally)
            picked = select(metrics, declared("end_to_end"))
            if args.workload == "all":
                picked = {f"{name}.{k}": v for k, v in picked.items()}
            chosen.update(picked)
    (OUT / f"result-{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    print(json.dumps({
        "correct": all(t.wrong == 0 for t in totals),
        "attempted": sum(t.attempted for t in totals),
        "failed": sum(t.failed for t in totals),
        "metrics": chosen,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
