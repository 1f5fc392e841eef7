"""The computing modules stay free of checks: none of them imports from
``verification`` or ``cli``, and none defers an import into a function. The
command line's import stays light: no module on its path pulls in
``dataclasses``, ``inspect`` or ``typing``."""

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


def test_cli_import_skips_heavy_modules():
    # -I -S: no site, no environment, so nothing but the package's own
    # imports can load these modules
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import fibgreedy.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    src = str(PACKAGE.parent)
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe, src],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == []
