"""Child process that calls the package in-process.

Run as ``python3 perfbench/worker.py MODE`` from the checkout root with a
JSON job on stdin. The child imports the package, reads the job, does any
warm-up, prints ``ready`` (the parent times set-up up to that line), runs
the timed work and prints one JSON result line. Large integers travel as
hexadecimal strings, which the interpreter's 4300-digit limit on decimal
conversion does not cover.
"""

from __future__ import annotations

import base64
import json
import sys
import time
from array import array
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fibgreedy  # noqa: E402
from fibgreedy import verification  # noqa: E402

import calib  # noqa: E402
from tracing import Tracer  # noqa: E402
from wire import dec, enc  # noqa: E402

# run_all's suites in run_all's order, with run_all's defaults; closed_form
# runs for presets only.
SUITES = (
    ("strict_growth", "growth_suite"),
    ("term_formula", "term_formula_suite"),
    ("shift_identity", "shift_identity_suite"),
    ("cassini_like", "cassini_suite"),
    ("fib_addition", "fib_addition_suite"),
    ("reciprocal_positivity", "positivity_suite"),
    ("xi_cutoff", "xi_suite"),
    ("window_geometry", "endpoint_suite"),
    ("closed_form", "closed_form_suite"),
    ("grid_equivalence", "grid_equivalence_suite"),
)


def params_of(spec: str):
    return fibgreedy.parse_sequence_spec(spec).params


def raw_classification(cls, rep) -> dict:
    w = cls.witness_interval
    return {
        "g1": cls.greedy.g1,
        "g2": cls.greedy.g2,
        "greedy_value": enc(cls.greedy.value),
        "is_best": cls.is_best,
        "best_pair": [rep.best.m, rep.best.n],
        "best_value": enc(rep.best.value),
        "window": None if w is None else [w.n, enc(w.left), enc(w.right), w.xi],
    }


def render_classification(theta: Fraction, cls, rep) -> dict:
    """The exact and ``_approx`` rendering the ``classify`` command prints."""
    fmt, approx = fibgreedy.format_rational, fibgreedy.approx_decimal
    payload = {
        "theta": fmt(theta),
        "theta_approx": approx(theta),
        "g1": cls.greedy.g1,
        "g2": cls.greedy.g2,
        "greedy_value": fmt(cls.greedy.value),
        "greedy_value_approx": approx(cls.greedy.value),
        "is_best": cls.is_best,
        "best_pair": [rep.best.m, rep.best.n],
        "best_value": fmt(rep.best.value),
        "best_value_approx": approx(rep.best.value),
    }
    if cls.witness_interval is not None:
        payload["bad_interval"] = fibgreedy.bad_interval_record(cls.witness_interval)
    return payload


def grid_op(params, text: str, tracer: Tracer | None = None, op: object = None) -> dict:
    """parse -> classify -> oracle_best -> exact and approximate rendering."""
    if tracer is None:
        theta = fibgreedy.parse_rational(text)
        cls = fibgreedy.classify(params, theta)
        rep = fibgreedy.oracle_best(params, theta)
        return render_classification(theta, cls, rep)
    with tracer.span("op", op):
        with tracer.span("rationals.parse", op):
            theta = fibgreedy.parse_rational(text)
        with tracer.span("optimality.classify", op):
            cls = fibgreedy.classify(params, theta)
        with tracer.span("oracle.best", op):
            rep = fibgreedy.oracle_best(params, theta)
        with tracer.span("rationals.format", op):
            return render_classification(theta, cls, rep)


def run_grid(job: dict) -> dict:
    targets = [(params_of(spec), text) for spec, text in job["targets"]]
    answers, errors = [], {}
    for i, (params, text) in enumerate(targets):  # warm-up, part of set-up
        try:
            answers.append(grid_op(params, text))
        except Exception as exc:  # a failed op is recorded, not fatal
            answers.append(None)
            errors[i] = f"{type(exc).__name__}: {exc}"
    ready()
    if job["trace"]:
        return trace_grid(job, targets, answers, errors)
    # arrays, not lists of int objects, so the child's peak RSS does not
    # grow with the number of ops a run happens to fit
    lat_ns, mismatched = array("q"), []
    reference_ns = array("q", [reference_ns_now()])  # and after every pass
    deadline = time.perf_counter() + job["seconds"]
    i = 0
    while time.perf_counter() < deadline:
        if i and i % len(targets) == 0:
            reference_ns.append(reference_ns_now())
        index = i % len(targets)
        params, text = targets[index]
        start = time.perf_counter_ns()
        try:
            payload = grid_op(params, text)
        except Exception as exc:
            payload = None
            errors.setdefault(index, f"{type(exc).__name__}: {exc}")
        lat_ns.append(time.perf_counter_ns() - start)
        if payload != answers[index]:
            mismatched.append(i)
        i += 1
    reference_ns.append(reference_ns_now())
    return {"answers": answers, "errors": errors, "mismatched": mismatched,
            "lat_ns": base64.b64encode(lat_ns.tobytes()).decode(),
            "reference_ns": reference_ns.tolist()}


def reference_ns_now() -> int:
    return round(calib.reference_s() * 1e9)


def trace_grid(job: dict, targets: list, answers: list, errors: dict) -> dict:
    """Alternate untraced and traced passes over the targets. Also time a
    separate warm greedy_two_term per target, so classify's self time can
    be taken net of its greedy search, and count oracle candidates."""
    tracer = Tracer()
    untraced_ns = []
    for _ in range(job["passes"]):
        for params, text in targets:
            start = time.perf_counter_ns()
            grid_op(params, text)
            untraced_ns.append(time.perf_counter_ns() - start)
        for i, (params, text) in enumerate(targets):
            grid_op(params, text, tracer, i)
            theta = fibgreedy.parse_rational(text)
            with tracer.span("greedy.two_term", i):
                fibgreedy.greedy_two_term(params, theta)
    candidates = sum(
        fibgreedy.oracle_best(params, fibgreedy.parse_rational(text)).candidates_examined
        for params, text in targets
    )
    return {"answers": answers, "errors": errors, "spans": tracer.spans,
            "untraced_ns": untraced_ns, "candidates": candidates}


def spans_for(job: dict):
    """span(name) for the rung's spans, or a no-op when the run is untraced;
    a ladder op lasts long enough that the no-op costs nothing measurable."""
    if not job["trace"]:
        return None, lambda name: nullcontext()
    tracer = Tracer()
    return tracer, lambda name: tracer.span(name, job["rung"])


def run_theta(job: dict) -> dict:
    params, theta = params_of(job["seq"]), dec(job["theta"])
    ready()
    tracer, span = spans_for(job)
    result = {"rendered": None, "error": None}
    start = time.perf_counter_ns()
    with span("op"):
        with span("optimality.classify"):
            cls = fibgreedy.classify(params, theta)
        with span("oracle.best"):
            rep = fibgreedy.oracle_best(params, theta)
        with span("rationals.format"):
            try:
                result["rendered"] = render_classification(theta, cls, rep)
            except ValueError as exc:
                result["error"] = f"ValueError: {exc}"
    result["op_ns"] = time.perf_counter_ns() - start
    result["raw"] = raw_classification(cls, rep)
    result["spans"] = tracer.spans if tracer else []
    return result


def run_window(job: dict) -> dict:
    params, n = params_of(job["seq"]), job["n"]
    ready()
    tracer, span = spans_for(job)
    result = {"rendered": None, "error": None}
    start = time.perf_counter_ns()
    with span("op"):
        with span("optimality.xi"):
            res = fibgreedy.xi(params, n)
        with span("optimality.bad_interval"):
            interval = fibgreedy.bad_interval(params, n)
        with span("rationals.format"):
            try:
                result["rendered"] = fibgreedy.bad_interval_record(interval)
            except ValueError as exc:
                result["error"] = f"ValueError: {exc}"
    result["op_ns"] = time.perf_counter_ns() - start
    result["raw"] = {
        "xi": res.xi,
        "max_bits": res.bound.bit_length(),
        "left": enc(interval.left),
        "right": enc(interval.right),
        "interval_xi": interval.xi,
    }
    result["spans"] = tracer.spans if tracer else []
    return result


def run_probe(job: dict) -> dict:
    """Term evaluation at the rung's largest index: fast doubling first
    (it leaves no state), then the memoised term, cold; then, for targets,
    the greedy index search on the now-warm terms."""
    params, index = params_of(job["seq"]), job["index"]
    ready()
    tracer = Tracer()
    op = job["rung"]
    with tracer.span("sequences.term_from_fibs", op):
        fast = fibgreedy.seq_term_from_fibs(params, index)
    with tracer.span("sequences.seq_term", op):
        memo = fibgreedy.seq_term(params, index)
    result = {"spans": tracer.spans, "terms_agree": fast == memo, "g1": None}
    if job.get("theta"):
        with tracer.span("greedy.two_term", op):
            result["g1"] = fibgreedy.greedy_two_term(params, dec(job["theta"])).g1
    return result


def run_prefix(job: dict) -> dict:
    """Warm 64-term greedy expansions of the cli targets."""
    calls = [(params_of(spec), fibgreedy.parse_rational(text)) for spec, text in job["targets"]]
    for params, theta in calls:
        fibgreedy.greedy_prefix(params, theta, 64)
    ready()
    lat_ns = []
    for _ in range(job["reps"]):
        for params, theta in calls:
            start = time.perf_counter_ns()
            fibgreedy.greedy_prefix(params, theta, 64)
            lat_ns.append(time.perf_counter_ns() - start)
    return {"lat_ns": lat_ns}


def run_suites(job: dict) -> dict:
    """Each verification suite at the ``verify`` defaults, timed alone."""
    preset = fibgreedy.parse_sequence_spec(job["seq"])
    ready()
    suites = []
    for name, function in SUITES:
        if name == "closed_form" and preset.name not in ("fibonacci", "lucas"):
            continue
        args = () if name == "fib_addition" else (preset,)  # sequence-free suite
        start = time.perf_counter_ns()
        result = getattr(verification, function)(*args)
        suites.append({"suite": name, "ns": time.perf_counter_ns() - start,
                       "checks": result.checks, "failures": result.failures})
    return {"suites": suites}


def ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


MODES = {
    "grid": run_grid,
    "theta": run_theta,
    "window": run_window,
    "probe": run_probe,
    "prefix": run_prefix,
    "suites": run_suites,
}

if __name__ == "__main__":
    job = json.loads(sys.stdin.read())
    result = MODES[sys.argv[1]](job)
    sys.stdout.write(json.dumps(result) + "\n")
