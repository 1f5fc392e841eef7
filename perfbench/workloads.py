"""The four workloads, timed from one client process in a closed loop.

Only one child process runs at a time. Every answer is checked by the
independent checker after its op has been timed; an op fails if it raises,
exits nonzero on valid input, or gives a wrong answer, and a failed op
counts in the timed wall time but not in ``ops_per_s``.
"""

from __future__ import annotations

import atexit
import base64
import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import calib
import checker
import inputs
from wire import dec, enc

ROOT = Path(__file__).resolve().parent.parent
PY = sys.executable
WORKER = str(Path(__file__).resolve().parent / "worker.py")
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
GRID_CHILDREN = 8
SETUP_PROBES = 7
PROBE_EVERY = 4  # cli calls per set-up probe
IMPORT_PROBE = [PY, "-c", "import fibgreedy.cli"]


@dataclass
class Child:
    out: str
    err: str
    code: int
    wall_s: float
    ready_s: float | None
    rss_mb: float

    def result(self) -> dict:
        if self.code != 0 or not self.out.strip():
            raise RuntimeError(f"child failed: {child_error(self)}")
        return json.loads(self.out.splitlines()[-1])


class Launcher:
    """The small process that spawns every child (see launcher.py)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [PY, "-S", str(Path(__file__).resolve().parent / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


_launcher: Launcher | None = None


def run_child(argv: list[str], job: dict | None = None, ready: bool = False) -> Child:
    """Run one child to completion: its output, exit code, wall time and peak
    RSS. With ready=True the child prints ``ready`` when set up, and ready_s
    is the time from spawn to that line."""
    global _launcher
    if _launcher is None:
        _launcher = Launcher()
        atexit.register(_launcher.close)
    reply = _launcher.run({"argv": argv, "cwd": str(ROOT), "env": ENV, "ready": ready,
                           "stdin": json.dumps(job) if job is not None else None})
    return Child(**reply)


def worker(mode: str, job: dict) -> Child:
    return run_child([PY, WORKER, mode], job, ready=True)


def child_error(child: Child) -> str:
    lines = child.err.strip().splitlines()
    return f"exit {child.code}: {lines[-1] if lines else 'no output'}"


@dataclass
class Tally:
    """Timed ops of one workload, and what went wrong with them.

    Every timed op has a kind: a grid target, a ladder rung or a cli call.
    Each op and each set-up is bracketed by readings of the reference task
    and scaled by them (see calib.py). ``ops_per_s`` is the share of ops
    answered over the mean of the kinds' median scaled times: the arithmetic
    mean (one pass over the kinds), or for a ladder, whose rungs span four
    orders of magnitude, the geometric mean, so that every rung counts the
    same. ``setup_s`` is the median scaled set-up. The ``_raw`` metrics are
    unscaled: the median set-up, and answered ops per second of wall time.
    """

    geometric: bool = False
    lat_s: list[float] = field(default_factory=list)
    by_kind: dict = field(default_factory=lambda: defaultdict(list))  # scaled
    setup_s: list[float] = field(default_factory=list)  # scaled
    setup_raw_s: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)
    rss_mb: float = 0.0
    untimed: int = 0  # ops checked but not timed (traced grid pass)
    failed: int = 0
    wrong: int = 0
    failures: Counter = field(default_factory=Counter)
    failed_by_kind: Counter = field(default_factory=Counter)
    extra: dict = field(default_factory=dict)
    _last_reference: float | None = None

    def around(self, run):
        """``run()`` between two readings of the reference task: its result
        and the readings' mean. Consecutive ops share the reading between them."""
        before = self._last_reference if self._last_reference is not None else calib.reference_s()
        result = run()
        self._last_reference = calib.reference_s()
        self.reference_s.append(self._last_reference)
        return result, (before + self._last_reference) / 2

    def child(self, child: Child) -> None:
        self.rss_mb = max(self.rss_mb, child.rss_mb)

    def setup(self, seconds: float, reference: float) -> None:
        self.setup_raw_s.append(seconds)
        self.setup_s.append(calib.scaled(seconds, reference))

    def timed(self, kind, seconds: float, reference: float) -> None:
        self.lat_s.append(seconds)
        self.by_kind[kind].append(calib.scaled(seconds, reference))

    def fail(self, what: str, why: str, wrong: bool = False, kind=None) -> None:
        """Record a failure; ``kind`` names the timed op that failed."""
        self.failed += 1
        self.wrong += wrong
        self.failures[f"{what}: {why}"[:300]] += 1
        if kind is not None:
            self.failed_by_kind[kind] += 1

    @property
    def attempted(self) -> int:
        return len(self.lat_s) + self.untimed

    def median_s(self) -> dict:
        return {kind: statistics.median(times) for kind, times in self.by_kind.items()}

    def metrics(self) -> dict:
        lat = sorted(self.lat_s)
        attempted = len(lat)
        # a kind that failed in some repetitions counts for the share that did not
        answered = sum(1 - self.failed_by_kind[k] / len(v) for k, v in self.by_kind.items())
        medians = list(self.median_s().values())
        mean = statistics.geometric_mean if self.geometric else statistics.fmean
        metrics = {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "ops_per_s": (answered / len(medians) / mean(medians), "1/s"),
            "peak_rss_mb": (self.rss_mb, "MB"),
            "failed_ratio": (self.failed / attempted, "ratio"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        }
        if attempted >= 100:  # at least ten samples lie beyond the 90th percentile
            metrics["op_p90_ms"] = (lat[math.ceil(0.9 * attempted) - 1] * 1e3, "ms")
        metrics["setup_raw_s"] = (statistics.median(self.setup_raw_s), "s")
        metrics["ops_per_s_raw"] = ((attempted - self.failed) / sum(lat), "1/s")
        metrics["reference_ms"] = (statistics.median(self.reference_s) * 1e3, "ms")
        metrics.update(self.extra)
        return metrics


# ---- answer checks --------------------------------------------------------


def approx_problem(label: str, text: str, value: Fraction) -> list[str]:
    """A 6-significant-figure display value must be within half a unit in its
    last place of the exact value."""
    if abs(Fraction(Decimal(text)) - value) > abs(value) * Fraction(5, 10**6):
        return [f"{label} {text} is not {value} to 6 figures"]
    return []


def rendered_got(payload: dict) -> dict:
    """Exact values back from a rendered classify payload (json field names)."""
    got = {
        "g1": payload["g1"],
        "g2": payload["g2"],
        "greedy_value": Fraction(payload["greedy_value"]),
        "is_best": payload["is_best"],
        "best_pair": tuple(payload["best_pair"]),
        "best_value": Fraction(payload["best_value"]),
        "window": None,
    }
    w = payload.get("bad_interval")
    if w is not None:
        got["window"] = (w["n"], Fraction(w["left"]), Fraction(w["right"]), w["xi"])
    return got


def rendered_problems(expected: dict, theta: Fraction, payload: dict) -> list[str]:
    problems = checker.classification_problems(expected, rendered_got(payload))
    if Fraction(payload["theta"]) != theta:
        problems.append(f"theta rendered as {payload['theta']}")
    for key in ("theta", "greedy_value", "best_value"):
        problems += approx_problem(key, payload[key + "_approx"], Fraction(payload[key]))
    return problems


def raw_got(raw: dict) -> dict:
    w = raw["window"]
    return {
        "g1": raw["g1"],
        "g2": raw["g2"],
        "greedy_value": dec(raw["greedy_value"]),
        "is_best": raw["is_best"],
        "best_pair": tuple(raw["best_pair"]),
        "best_value": dec(raw["best_value"]),
        "window": None if w is None else (w[0], dec(w[1]), dec(w[2]), w[3]),
    }


def window_problems(expected: tuple, raw: dict, record: dict | None) -> list[str]:
    left, right, xi = expected
    problems = []
    if (dec(raw["left"]), dec(raw["right"]), raw["xi"], raw["interval_xi"]) != (left, right, xi, xi):
        problems.append(f"window differs from checker (xi {raw['xi']}, expected {xi})")
    if record is not None:
        if (Fraction(record["left"]), Fraction(record["right"]), record["xi"]) != (left, right, xi):
            problems.append("rendered window differs from checker")
        problems += approx_problem("left", record["left_approx"], left)
        problems += approx_problem("right", record["right_approx"], right)
    return problems


def greedy_expansion(seeds: tuple[int, int], theta: Fraction, terms: int) -> list[int]:
    indices, total, n = [], Fraction(0), 1
    for _ in range(terms):
        n = checker.smallest_index_below(seeds, theta - total, n)
        indices.append(n)
        total += Fraction(1, checker.term(seeds, n))
    return indices


def cli_expected(call: dict):
    seeds = checker.seeds_of(call["seq"])
    if call["sub"] == "classify":
        return checker.expected_classification(seeds, call["theta"], call["seq"])
    if call["sub"] == "greedy":
        return greedy_expansion(seeds, call["theta"], 8)
    if call["sub"] == "intervals":
        return [checker.window(seeds, n, call["seq"]) for n in range(10)]
    return None


def _text_fields(out: str, prefix: str) -> str:
    return next(line for line in out.splitlines() if line.startswith(prefix))


def cli_problems(call: dict, expected, out: str) -> list[str]:
    """Parse one command's stdout in its format and compare with the checker."""
    sub, fmt = call["sub"], call["format"]
    if sub == "verify":
        lines = out.splitlines()
        if len(lines) < 9 or not all(line.startswith("PASS") for line in lines):
            return ["verify did not report PASS on every suite"]
        return []
    if sub == "classify":
        if fmt == "json":
            return rendered_problems(expected, call["theta"], json.loads(out))
        if fmt == "csv":
            row = next(iter(_csv_rows(out)))
            got = {
                "g1": int(row["g1"]), "g2": int(row["g2"]),
                "greedy_value": Fraction(row["greedy_value"]),
                "is_best": row["is_best"] == "True",
                "best_pair": tuple(int(i) for i in row["best_pair"].split()),
                "best_value": Fraction(row["best_value"]),
                "window": None,
            }
            if row.get("interval_n"):
                got["window"] = (int(row["interval_n"]), Fraction(row["interval_left"]),
                                 Fraction(row["interval_right"]))
            return _compare_partial_window(expected, got)
        greedy = _text_fields(out, "greedy: ").split()
        best = _text_fields(out, "best two-term sum: ").split()
        got = {
            "g1": int(greedy[1].removeprefix("1/a_")), "g2": int(greedy[3].removeprefix("1/a_")),
            "greedy_value": Fraction(greedy[5]),
            "is_best": _text_fields(out, "verdict: ") == "verdict: best possible",
            "best_pair": (int(best[3].removeprefix("1/a_")), int(best[5].removeprefix("1/a_"))),
            "best_value": Fraction(best[7]),
            "window": None,
        }
        if "inside window n=" in out:
            line = _text_fields(out, "inside window n=")
            n, rest = line.removeprefix("inside window n=").split(": ")
            left, right = rest.strip("(]").split(", ")
            got["window"] = (int(n), Fraction(left), Fraction(right))
        return _compare_partial_window(expected, got)
    if sub == "greedy":
        if fmt == "json":
            indices = json.loads(out)["indices"]
        elif fmt == "csv":
            indices = [int(row["index"]) for row in _csv_rows(out)]
        else:
            indices = [int(line.split("index ")[1].split()[0].rstrip(","))
                       for line in out.splitlines() if line.strip().startswith("step ")]
        return [] if indices == expected else [f"greedy indices {indices}, expected {expected}"]
    # intervals
    if fmt == "json":
        rows = [(r["n"], Fraction(r["left"]), Fraction(r["right"]), r["xi"]) for r in json.loads(out)]
    elif fmt == "csv":
        rows = [(int(r["n"]), Fraction(r["left"]), Fraction(r["right"]), int(r["xi"]))
                for r in _csv_rows(out)]
    else:
        rows = []
        for line in out.splitlines():
            n, rest = line.removeprefix("n=").split(": ", 1)
            left, right = rest.split("]")[0].strip("(").split(", ")
            rows.append((int(n), Fraction(left), Fraction(right), int(line.split("xi=")[1].split()[0])))
    want = [(n, left, right, xi) for n, (left, right, xi) in enumerate(expected)]
    return [] if rows == want else ["intervals differ from checker"]


def _csv_rows(out: str):
    return csv.DictReader(io.StringIO(out))


def _compare_partial_window(expected: dict, got: dict) -> list[str]:
    """Text and csv output omit xi from the window; compare what is shown."""
    trimmed = dict(expected)
    if expected["window"] is not None:
        trimmed["window"] = expected["window"][:3]
    return checker.classification_problems(trimmed, got)


# ---- workloads --------------------------------------------------------------


def grid_expected(targets: list[tuple[str, str]]) -> list[dict]:
    return [
        checker.expected_classification(checker.seeds_of(spec), Fraction(text), spec)
        for spec, text in targets
    ]


def grid_answer_problems(targets, expected, result: dict) -> dict[int, tuple[str, bool]]:
    """Per target index whose (warm-up) answer is missing or wrong: the reason,
    and whether it was a wrong answer rather than an error."""
    bad = {int(i): (error, False) for i, error in result["errors"].items()}
    for i, payload in enumerate(result["answers"]):
        if payload is not None:
            problems = rendered_problems(expected[i], Fraction(targets[i][1]), payload)
            if problems:
                bad[i] = ("wrong answer: " + problems[0], True)
    return bad


def grid(seed: int, seconds: float) -> Tally:
    """In-process and warm: each of a few children imports the package, runs
    the whole target set once as warm-up (part of set-up), then loops over
    it for its share of the run."""
    targets = inputs.grid_targets(seed)
    expected = grid_expected(targets)
    tally = Tally()
    losing = sum(not e["is_best"] for e in expected)
    tally.extra["losing_share"] = (losing / len(targets), "ratio")
    for _ in range(GRID_CHILDREN):
        child = worker("grid", {"targets": targets, "seconds": seconds / GRID_CHILDREN, "trace": False})
        tally.child(child)
        if child.code != 0:
            tally.timed("grid worker", child.wall_s, calib.reference_s())
            tally.fail("grid worker", child_error(child), kind="grid worker")
            continue
        result = child.result()
        # readings of the reference task: after set-up, then after each pass
        refs = [ns / 1e9 for ns in result["reference_ns"]]
        tally.reference_s += refs
        tally.setup(child.ready_s, refs[0])
        bad = grid_answer_problems(targets, expected, result)
        mismatched = set(result["mismatched"])
        for i, ns in enumerate(array("q", base64.b64decode(result["lat_ns"]))):
            index, p = i % len(targets), i // len(targets)
            tally.timed(index, ns / 1e9, (refs[p] + refs[p + 1]) / 2)
            spec, text = targets[index]
            if index in bad:
                tally.fail(f"{spec} {text}", bad[index][0], wrong=bad[index][1], kind=index)
            elif i in mismatched:
                tally.fail(f"{spec} {text}", "answer differs from its warm-up answer", wrong=True, kind=index)
    return tally


def ladder_op(tally: Tally, mode: str, job: dict, problems_of) -> dict | None:
    """One rung, cold in a fresh child; returns the child's result, or None
    if the child failed. problems_of(result) lists wrong answers."""
    rung = job["rung"]
    child, reference = tally.around(lambda: worker(mode, job))
    tally.child(child)
    if child.code != 0:
        tally.timed(rung, child.wall_s, reference)
        tally.fail(rung, child_error(child), kind=rung)
        return None
    tally.setup(child.ready_s, reference)
    result = child.result()
    tally.timed(rung, result["op_ns"] / 1e9, reference)
    problems = problems_of(result)
    if problems:
        tally.fail(rung, "wrong answer: " + problems[0], wrong=True, kind=rung)
    elif result["error"] is not None:
        tally.fail(rung, result["error"], kind=rung)
    return result


def theta_op(tally: Tally, rung: dict, expected: dict, trace: bool = False) -> dict | None:
    def problems_of(result):
        problems = checker.classification_problems(expected, raw_got(result["raw"]))
        if result["rendered"] is not None:
            problems += rendered_problems(expected, rung["theta"], result["rendered"])
        return problems

    job = {"rung": rung["rung"], "seq": rung["seq"], "theta": enc(rung["theta"]), "trace": trace}
    return ladder_op(tally, "theta", job, problems_of)


def window_op(tally: Tally, rung: dict, expected: tuple, trace: bool = False) -> dict | None:
    job = {"rung": rung["rung"], "seq": rung["seq"], "n": rung["n"], "trace": trace}
    return ladder_op(tally, "window", job,
                     lambda result: window_problems(expected, result["raw"], result["rendered"]))


def theta_expected(rungs: list[dict]) -> list[dict]:
    return [
        checker.expected_classification(checker.seeds_of(r["seq"]), r["theta"], r["seq"], brute=False)
        for r in rungs
    ]


def window_expected(rungs: list[dict]) -> list[tuple]:
    return [checker.window(checker.seeds_of(r["seq"]), r["n"], r["seq"]) for r in rungs]


def cycles(seconds: float, run_cycle) -> None:
    """Whole cycles until the run has lasted ``seconds``, so every run has
    the same mix of rungs or calls."""
    start = time.perf_counter()
    while True:
        run_cycle()
        if time.perf_counter() - start >= seconds:
            return


def theta_ladder(seed: int, seconds: float) -> Tally:
    rungs = inputs.theta_rungs(seed)
    expected = theta_expected(rungs)
    tally = Tally(geometric=True)
    cycles(seconds, lambda: [theta_op(tally, r, e) for r, e in zip(rungs, expected)])
    return tally


def window_ladder(seed: int, seconds: float) -> Tally:
    rungs = inputs.window_rungs(seed)
    expected = window_expected(rungs)
    tally = Tally(geometric=True)
    cycles(seconds, lambda: [window_op(tally, r, e) for r, e in zip(rungs, expected)])
    return tally


def cli_argv(call: dict) -> list[str]:
    return [PY, "-m", "fibgreedy", *call["args"]]


def cli_call(tally: Tally, call: dict, expected) -> Child:
    child, reference = tally.around(lambda: run_child(cli_argv(call)))
    cli_record(tally, call, expected, child, reference)
    return child


def cli_record(tally: Tally, call: dict, expected, child: Child, reference: float) -> None:
    """Count one finished command in the tally and check its output."""
    tally.child(child)
    name = " ".join(call["args"])
    tally.timed(name, child.wall_s, reference)
    if child.code != 0:
        tally.fail(name, child_error(child), kind=name)
        return
    try:
        problems = cli_problems(call, expected, child.out)
    except (ValueError, KeyError, IndexError, StopIteration) as exc:
        problems = [f"unreadable output ({type(exc).__name__}: {exc})"]
    if problems:
        tally.fail(name, "wrong answer: " + problems[0], wrong=True, kind=name)


def cli(seed: int, seconds: float) -> Tally:
    """``python -m fibgreedy`` per op. Set-up is a fresh interpreter importing
    the command line module, probed before every PROBE_EVERY-th call."""
    calls = inputs.cli_calls(seed)
    expected = [cli_expected(c) for c in calls]
    tally = Tally()

    def run_cycle():
        for i, (call, want) in enumerate(zip(calls, expected)):
            if i % PROBE_EVERY == 0:
                probe, reference = tally.around(lambda: run_child(IMPORT_PROBE))
                tally.setup(probe.wall_s, reference)
            cli_call(tally, call, want)

    cycles(seconds, run_cycle)
    medians = tally.median_s()
    tally.extra["verify_s"] = (sum(medians[" ".join(c["args"])] for c in calls if c["sub"] == "verify"), "s")
    return tally


def start_probes() -> tuple[list[float], list[float]]:
    """Bare interpreter start-up and start-up plus ``import fibgreedy.cli``,
    interleaved, as wall seconds per spawn."""
    floor, imports = [], []
    for _ in range(SETUP_PROBES):
        floor.append(run_child([PY, "-c", "pass"]).wall_s)
        imports.append(run_child(IMPORT_PROBE).wall_s)
    return floor, imports
