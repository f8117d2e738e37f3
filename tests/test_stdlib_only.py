"""The runtime stays stdlib-only: every module of the package imports only
the standard library and the package itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "tdual").glob("*.py"))


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
