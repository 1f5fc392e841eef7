"""The computing modules stay free of checks: none of them imports from
``verification`` or ``cli``, and none defers an import into a function. The
command line's import stays light: no module on its path pulls in
``dataclasses``, ``inspect`` or ``typing``, and ``json`` and ``csv`` wait for
the output format that needs them. The computing modules import one another
only downward through fixed layers, so the classifier and the search are
siblings. Only the modules that compare big products read the near-tie
switch, only ``_require_theta`` reads a target's numerator and
denominator, one constructor builds every computed value, the classifier's
module runs no index search, and the display takes nothing from ``decimal``
but ``Overflow``. The package exports a fixed set of names."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import fibgreedy

PACKAGE = Path(fibgreedy.__file__).parent
COMPUTING = ("sequences", "greedy", "oracle", "optimality", "rationals", "errors")
CHECKING = {"verification", "cli"}


def _imported_modules(node):
    if isinstance(node, ast.Import) or node.module is None:  # import x / from . import x
        return [alias.name for alias in node.names]
    return [node.module]


@pytest.mark.parametrize("module", COMPUTING)
def test_computing_module_layering(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in _imported_modules(node):
                assert name.split(".")[-1] not in CHECKING, f"{module} imports {name}"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = [n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
            assert not nested, f"{module}.{node.name} imports inside its body"


# errors < sequences < rationals < greedy < {oracle, optimality}: a module
# imports only from a lower layer, so oracle and optimality never import
# each other
LAYER = {"errors": 0, "sequences": 1, "rationals": 2, "greedy": 3, "oracle": 4, "optimality": 4}


@pytest.mark.parametrize("module", COMPUTING)
def test_computing_modules_import_only_lower_layers(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:  # from .x import y
            for name in _imported_modules(node):
                assert LAYER[name] < LAYER[module], f"{module} imports {name}"


def _reads(path, name):
    # a name, an attribute or an imported alias; docstrings and comments do
    # not count
    return any(
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and node.name == name)
        for node in ast.walk(ast.parse(path.read_text()))
    )


def test_near_tie_switch_readers():
    # the index search alone chooses plain or factored comparisons for its
    # callers; the oracle's and the classifier's own cross-products are the
    # only other forks at the switch
    readers = {path.stem for path in PACKAGE.glob("*.py") if _reads(path, "_NEAR_TIE_BITS")}
    assert readers == {"sequences", "oracle", "optimality"}


def test_optimality_runs_no_index_search():
    # the cutoff is the offset plus one below the seeds' n* and the offset
    # from it on (proofs at optimality._offset and _cutoff), so the module
    # neither searches nor keeps a self-check for a search gone wrong
    path = PACKAGE / "optimality.py"
    assert not _reads(path, "index_below")
    assert not _reads(path, "SelfCheckError")


def test_oracle_stays_free_of_the_window_theorem():
    # the oracle certifies the classifier, so it places no window or cutoff
    # and forms chi from the seeds itself: a fault in params.chi or in the
    # cutoff is not one the two share
    path = PACKAGE / "oracle.py"
    for name in ("chi", "xi", "_offset", "_cutoff", "bad_interval", "_window"):
        assert not _reads(path, name), name


def _owned(path, matches):
    # (owner, node) for each node that matches, the owner being the name of
    # the innermost function around it, or None at module level
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if matches(child):
                found.append((owner, child))
            visit(child, owner)

    visit(ast.parse(path.read_text()), None)
    return found


def _readers_of(path, attrs):
    # names of the functions that read any of attrs; None for module level
    reads = _owned(path, lambda node: isinstance(node, ast.Attribute) and node.attr in attrs)
    return {owner for owner, _ in reads}


def test_target_integers_have_one_reader():
    # _require_theta hands every entry point (theta, p, q); no other code in
    # the greedy, search or classifier modules takes a target apart, by its
    # properties or by as_integer_ratio()
    modules = ("greedy", "oracle", "optimality")
    reads = {"numerator", "denominator", "as_integer_ratio"}
    readers = {m: _readers_of(PACKAGE / f"{m}.py", reads) for m in modules}
    assert readers == {"greedy": {"_require_theta"}, "oracle": set(), "optimality": set()}


def _calls_by_owner(path, name):
    # (function, source) of each call to a name or an attribute called name
    def call(node):
        func = getattr(node, "func", None)
        return getattr(func, "id", None) == name or getattr(func, "attr", None) == name

    return {(owner, ast.unparse(node)) for owner, node in _owned(path, call)}


def test_computed_values_have_one_constructor():
    # rationals._coprime builds every value computed from integers, reduced
    # by its caller; Fraction(...) converts only foreign input, a target
    # that is not a Fraction and a decimal string
    modules = ("sequences", "rationals", "greedy", "optimality", "oracle")
    public = {m: _calls_by_owner(PACKAGE / f"{m}.py", "Fraction") for m in modules}
    assert public == {
        "sequences": set(),
        "rationals": {("parse_rational", "Fraction(s)")},
        "greedy": {("_require_theta", "Fraction(theta)")},
        "optimality": set(),
        "oracle": set(),
    }
    builders = {
        (m, owner)
        for m in modules
        for owner, _ in _calls_by_owner(PACKAGE / f"{m}.py", "_coprime")
    }
    assert builders == {
        ("rationals", "parse_rational"),
        ("rationals", "_reciprocal_sum"),
        ("greedy", "greedy_prefix"),
    }


def test_display_takes_only_overflow_from_decimal():
    # approx_decimal rounds in integers: rationals raises decimal's Overflow
    # and takes no context, rounding mode, signal or Decimal from the module
    taken = set()
    for node in ast.walk(ast.parse((PACKAGE / "rationals.py").read_text())):
        if isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "decimal" for alias in node.names)
        if isinstance(node, ast.ImportFrom) and node.module == "decimal":
            taken.update(alias.name for alias in node.names)
    assert taken == {"Overflow"}


def test_cli_import_skips_heavy_modules():
    # -I -S: no site, no environment, so nothing but the package's own
    # imports can load these modules. -B as well: -I ignores
    # PYTHONDONTWRITEBYTECODE, and bytecode written into the source tree
    # would be read by every later run from it.
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import fibgreedy.cli; "
        "heavy = ('dataclasses', 'inspect', 'typing', 'json', 'csv'); "
        "print(' '.join(m for m in heavy if m in sys.modules))"
    )
    src = str(PACKAGE.parent)
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", probe, src],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == []


PUBLIC_NAMES = {
    "BadInterval", "Classification", "DEFAULT_TERM_LIMIT", "FIBONACCI",
    "FibgreedyError", "GreedyPrefix", "GreedyResult", "LUCAS", "OracleReport",
    "RationalParseError", "SelfCheckError", "SequenceParams", "SequencePreset",
    "SequenceValidationError", "SuiteResult", "TermLimitError", "ThetaDomainError",
    "TwoTermSum", "XiResult", "__version__", "approx_decimal", "bad_interval",
    "bad_interval_record", "classical_label", "classify", "fib", "format_rational",
    "greedy_prefix", "greedy_two_term", "oracle_best", "parse_rational",
    "parse_sequence_spec", "run_all", "seq_term", "seq_term_from_fibs", "xi",
    "xi_closed_form",
}


def test_public_names():
    assert len(fibgreedy.__all__) == len(PUBLIC_NAMES) == 37
    assert set(fibgreedy.__all__) == PUBLIC_NAMES
    namespace = {}
    exec("from fibgreedy import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
