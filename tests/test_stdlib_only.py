"""The runtime stays stdlib-only: every module of the package imports only
the standard library and the package itself."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "tdual"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "expr.py", "geometry.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_tdual(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = sorted({root for root in _imported_roots(tree)
                      if root != "tdual" and root not in sys.stdlib_module_names})
    assert outside == []


def _load_time_roots(tree):
    """The roots a module imports when it is loaded: every import outside a
    function body (a function imports its own when it runs)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from _imported_roots(node)
        stack.extend(ast.iter_child_nodes(node))


# Modules on an integer-side command's start-up path. ``dataclasses`` costs
# each command 10-13 ms through inspect, ast, dis and tokenize; ``json`` and
# ``fractions`` are imported by the functions that use them.
START_UP = ("intlin.py", "complexes.py", "cohomology.py", "gerbes.py", "semifree.py", "cli.py")


@pytest.mark.parametrize("name", START_UP)
def test_start_up_modules_load_no_dataclasses_json_or_fractions(name):
    path = PACKAGE / name
    tree = ast.parse(path.read_text(), filename=str(path))
    assert set(_load_time_roots(tree)) & {"dataclasses", "json", "fractions"} == set()
