"""Seeded inputs for the four workloads.

The seed picks targets, never sizes: every seed gives the same rungs, the
same number of grid targets per kind and the same cli call mix, so the cost
of a run does not depend on the seed. Inputs are built with the independent
checker, never with the package under test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import checker

GRID_SEQS = ("fibonacci", "lucas", "custom:2,2", "custom:2,3", "custom:4,5")
GRID_GRID_TARGETS = 150  # k/1000 targets per sequence
GRID_WINDOW_TARGETS = 50  # targets inside windows 0..GRID_MAX_WINDOW per sequence
GRID_MAX_WINDOW = 30

SHORT = {"fibonacci": "fib", "lucas": "luc", "custom:4,5": "c45"}
THETA_SEQS = ("fibonacci", "custom:4,5")
THETA_DIGITS = (10, 100, 1000, 10000)
WINDOW_RUNGS = (
    ("fibonacci", (10, 100, 1000, 5000, 20000)),
    ("custom:4,5", (10, 100, 1000, 5000)),
)

CLI_SEQS = ("fibonacci", "lucas", "custom:4,5")
CLI_FORMATS = ("text", "json", "csv")
CLI_SUBCOMMANDS = ("classify", "greedy", "intervals")


def _inside(seeds: tuple[int, int], m: int, spec: str, rng: random.Random) -> Fraction:
    """A seeded target k/(a_{2m+2}*k - 1) inside window m, or the window's
    right endpoint where no such k exists (custom:4,5 windows 0 and 1)."""
    lo, hi = checker.inside_target_range(seeds, m, spec)
    if lo > hi:
        return checker.window(seeds, m, spec)[1]
    return checker.inside_target(seeds, m, rng.randint(lo, hi))


def grid_targets(seed: int) -> list[tuple[str, str]]:
    """(sequence spec, theta text) pairs: per sequence, k/1000 targets with
    one k drawn from each of GRID_GRID_TARGETS equal strata of 1..1000, and
    targets k/(a_{2m+2}*k - 1) inside windows m = 0, 1, ..., 30, 0, 1, ...
    with k drawn. Stratifying keeps the cost of the mix the same for every
    seed."""
    rng = random.Random(f"grid-{seed}")
    targets = []
    for spec in GRID_SEQS:
        seeds = checker.seeds_of(spec)
        for i in range(GRID_GRID_TARGETS):
            k = rng.randint(i * 1000 // GRID_GRID_TARGETS + 1, (i + 1) * 1000 // GRID_GRID_TARGETS)
            targets.append((spec, f"{k}/1000"))
        for i in range(GRID_WINDOW_TARGETS):
            theta = _inside(seeds, i % (GRID_MAX_WINDOW + 1), spec, rng)
            targets.append((spec, f"{theta.numerator}/{theta.denominator}"))
    return targets


def theta_window_index(digits: int) -> int:
    """Window m whose inside targets have denominators near 10^digits
    (they are about a_{4m})."""
    return round(digits * math.log2(10) / (4 * checker.LOG2_PHI))


def theta_rungs(seed: int) -> list[dict]:
    """Per sequence and size 10^d: one target k/10^d outside every window,
    and one inside window theta_window_index(d).

    The outside numerator is drawn until the greedy first index is odd:
    odd first indices lie outside every window, and an even one would add a
    cutoff computation whose size depends on the draw.
    """
    rng = random.Random(f"theta-{seed}")
    rungs = []
    for spec in THETA_SEQS:
        seeds = checker.seeds_of(spec)
        for d in THETA_DIGITS:
            while True:
                outside = Fraction(rng.randint(2, 99), 10**d)
                if checker.smallest_index_below(seeds, outside, 1) % 2 == 1:
                    break
            inside = _inside(seeds, theta_window_index(d), spec, rng)
            for kind, theta in (("out", outside), ("in", inside)):
                rungs.append({"rung": f"{SHORT[spec]}-e{d}-{kind}", "seq": spec, "theta": theta})
    return rungs


def window_rungs(seed: int) -> list[dict]:
    """The window indices are fixed; the seed only orders the rungs."""
    rungs = [
        {"rung": f"{SHORT[spec]}-n{n}", "seq": spec, "n": n}
        for spec, ns in WINDOW_RUNGS
        for n in ns
    ]
    random.Random(f"window-{seed}").shuffle(rungs)
    return rungs


def cli_calls(seed: int) -> list[dict]:
    """One cycle: every subcommand x format x sequence once with a seeded
    k/1000 target, plus ``verify`` at defaults per sequence, in seeded order."""
    rng = random.Random(f"cli-{seed}")
    calls = []
    for spec in CLI_SEQS:
        for fmt in CLI_FORMATS:
            for sub in CLI_SUBCOMMANDS:
                args = ["--seq", spec, "--format", fmt, sub]
                theta = None
                if sub == "intervals":
                    args += ["--count", "10"]
                else:
                    theta = Fraction(rng.randint(1, 1000), 1000)
                    args += ["--theta", f"{theta.numerator}/{theta.denominator}"]
                    if sub == "greedy":
                        args += ["--terms", "8"]
                calls.append({"sub": sub, "seq": spec, "format": fmt, "theta": theta, "args": args})
        calls.append({"sub": "verify", "seq": spec, "format": "text", "theta": None,
                      "args": ["--seq", spec, "verify"]})
    rng.shuffle(calls)
    return calls
