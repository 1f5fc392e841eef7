"""Kill matrix of one-line mutants for ``fibgreedy verify``.

Each mutant replaces one piece of source text in a temporary copy of the
package. ``python -m fibgreedy --seq SEQ verify`` then runs at its defaults
on four seeds against that copy, and the script prints a markdown table: on
each seed the mutant is killed, with the suites that failed, or passes.
With ``--tier1`` a last column gives the package's own tests against the
same copy. A first row runs the unmutated copy, which passes everywhere.

    python tools/verify_mutants.py [--tier1]

The table is a report, not a gate: the script exits 1 only when a mutant's
anchor text is not found exactly once in its module, which means the code
moved and the mutant needs a new anchor, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = ("fibonacci", "lucas", "custom:4,5", "custom:89,144")

# (name, what it breaks, module, anchor, replacement). The oracle's
# candidate test with >= for > is left out: it differs only on an exact tie
# chi*a_g2 = a_g1*a_{g1+1}*a_{g1+2}, which no known seed and target reaches,
# so neither verify nor the tests can kill it.
MUTANTS = [
    (
        "no_repeat",
        "g2 searched from g1 + 1",
        "greedy.py",
        "index_below(params, r1, q, a, g1, a, b)",
        "index_below(params, r1, q, a, g1 + 1, b, a + b)",
    ),
    (
        "lead_hi",
        "`_lead` takes hi·h, not hi·(h + 1)",
        "sequences.py",
        "lo, hi, shift = lo * h, hi * (h + 1), shift + b - 64",
        "lo, hi, shift = lo * h, hi * h, shift + b - 64",
    ),
    (
        "jump_pair",
        "a_{s+k+1} + 1 on a short jump",
        "sequences.py",
        "a, b = (g - f) * a + f * b, f * a + g * b",
        "a, b = (g - f) * a + f * b, f * a + g * b + 1",
    ),
    (
        "classify_chi",
        "χ + 1 in the window test",
        "optimality.py",
        "a4 = a2 + a3\n        chi = params.chi\n",
        "a4 = a2 + a3\n        chi = params.chi + 1\n",
    ),
    (
        "nstar_le",
        "`n <= n_star`",
        "optimality.py",
        "(n < n_star)",
        "(n <= n_star)",
    ),
    (
        "oracle_stop",
        "stop test doubled",
        "oracle.py",
        "2 * x * y > (x + y) * a",
        "2 * x * y > 2 * (x + y) * a",
    ),
    (
        "recip_swap",
        "x + y + 1 in the product form",
        "rationals.py",
        "s, t = x + y, x * y",
        "s, t = x + y + 1, x * y",
    ),
    (
        "fit_ge",
        "`>=` in the oracle's plain fit test",
        "oracle.py",
        "p * a * b > q * (a + b)",
        "p * a * b >= q * (a + b)",
    ),
    (
        "adjacent_ge",
        "`>=` in `_adjacent_fits`' identity test",
        "oracle.py",
        "return r1 * (a + b) + p * s > 0",
        "return r1 * (a + b) + p * s >= 0",
    ),
]


def _run(args: list[str], tree: Path) -> subprocess.CompletedProcess:
    # -B: no bytecode, so nothing compiled from one mutant is read by the next
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run(
        [sys.executable, "-B", *args], cwd=tree, env=env, capture_output=True, text=True
    )


def _verify(tree: Path, seq: str) -> str:
    done = _run(["-m", "fibgreedy", "--seq", seq, "verify"], tree)
    if done.returncode == 0:
        return "passes"
    failed = re.findall(r"^FAIL\s+(\w+)", done.stdout, flags=re.MULTILINE)
    return f"killed ({', '.join(failed)})" if failed else f"killed (exit {done.returncode})"


def _tier1(tree: Path) -> str:
    done = _run(["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"], tree)
    return "passes" if done.returncode == 0 else "killed"


def _cells(tree: Path, tier1: bool) -> list[str]:
    cells = [_verify(tree, seq) for seq in SEEDS]
    return cells + [_tier1(tree)] if tier1 else cells


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tier1", action="store_true", help="also run the tests on each mutant")
    args = parser.parse_args()

    header = ["mutant", "change", *SEEDS] + (["tier-1"] if args.tier1 else [])
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    missing = []
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch)
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
        if args.tier1:
            shutil.copytree(ROOT / "tests", tree / "tests", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "pyproject.toml", tree)
        print("| none | unmutated | " + " | ".join(_cells(tree, args.tier1)) + " |", flush=True)
        for name, change, module, anchor, replacement in MUTANTS:
            path = tree / "src" / "fibgreedy" / module
            original = path.read_text()
            if original.count(anchor) != 1:
                missing.append(name)
                print(f"| {name} | {change} | anchor not found once in {module} |")
                continue
            path.write_text(original.replace(anchor, replacement))
            cells = _cells(tree, args.tier1)
            path.write_text(original)
            print(f"| {name} | {change} | " + " | ".join(cells) + " |", flush=True)
    if missing:
        print(f"\nanchors to renew: {', '.join(missing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
