"""Print the lines of ``src/tdual`` that a run never executes.

    PYTHONPATH=src python tools/line_sweep.py [pytest arguments]

runs pytest in this process (the tier-1 suite when no argument is given)
under ``sys.settrace`` and prints each executable line of ``src/tdual`` that
never ran, as ``file:line: source``, then on stderr the id of each test
that failed and the count of lines. It exits 1 when pytest fails or a line
is missed, else 0. Only frames whose code lives
in ``src/tdual`` get a line tracer, so the rest of the run pays one call
event per frame. Code that runs only in a subprocess, such as the
``__main__`` guard of ``cli.py``, is never seen, and module-level lines
count only when the module is first imported during the run.

Standard library and pytest only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tdual").glob("*.py"))


def _executable_lines(path: Path) -> set:
    """The lines that hold an instruction of the module or of any code
    object nested in it, less the body of a module-level ``if __name__ ==
    "__main__":``, which only a run of the file as a script reaches."""
    text = path.read_text()
    lines, stack = set(), [compile(text, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)   # 0: module entry
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    for node in ast.parse(text).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            lines.difference_update(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
    return lines


def missed_lines(run) -> list:
    """Call ``run()`` under a line tracer and return the executable lines of
    ``src/tdual`` that it never ran, as sorted (path, line, source) tuples.
    The tracer in place before the call is restored after it."""
    files = {str(p): p for p in SOURCES}
    ran = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    before = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(before)
    missed = []
    for name, path in files.items():
        source = path.read_text().splitlines()
        missed.extend((path, line, source[line - 1].strip())
                      for line in sorted(_executable_lines(path) - ran[name]))
    return missed


class _Failures:
    """A pytest plugin that keeps the id of each test or collector that fails."""

    def __init__(self):
        self.ids = {}

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.ids[report.nodeid] = None

    pytest_collectreport = pytest_runtest_logreport


def main(argv: list) -> int:
    import pytest

    status, failures = [], _Failures()
    missed = missed_lines(lambda: status.append(pytest.main(
        argv or ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT)],
        plugins=[failures])))
    for path, line, source in missed:
        print(f"{path.relative_to(ROOT)}:{line}: {source}")
    for test in failures.ids:
        print(f"FAILED {test}", file=sys.stderr)
    print(f"{len(missed)} line(s) never ran", file=sys.stderr)
    return 1 if status[0] or missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
