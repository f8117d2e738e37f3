"""``tools/line_sweep.py`` reports the lines of ``src/tdual`` a run skips."""

import importlib.util
import sys
from pathlib import Path

from tdual.expr import MAX_DEPTH, sin_, sym, table_to_json
from tdual.intlin import IMat, invariant_factors

_SWEEP_PY = Path(__file__).resolve().parent.parent / "tools" / "line_sweep.py"


def _load_sweep():
    spec = importlib.util.spec_from_file_location("line_sweep", _SWEEP_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_missed_lines_follow_the_branches_a_call_takes():
    before = sys.gettrace()
    missed = _load_sweep().missed_lines(lambda: invariant_factors(IMat.identity(3)))
    assert sys.gettrace() is before
    intlin = {source: (path, line) for path, line, source in missed if path.name == "intlin.py"}
    # every entry is a unit, so the unit pass runs and the dense route does not
    assert "units += 1" not in intlin
    dense = "a = [[x % det for x in row] for row in a]"
    path, line = intlin[dense]
    assert path.read_text().splitlines()[line - 1].strip() == dense


def test_main_names_each_failed_test_beside_the_count(tmp_path, capsys):
    tests = tmp_path / "test_two.py"
    tests.write_text("def test_passes():\n    pass\n\n\ndef test_fails():\n    assert False\n")
    assert _load_sweep().main(["-q", "-p", "no:cacheprovider", str(tests)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[:-1] == ["FAILED test_two.py::test_fails"]     # ids relative to the rootdir
    assert err[-1].endswith(" line(s) never ran")


def test_a_walk_as_deep_as_the_reader_takes_runs_under_the_tracer():
    # a traced frame takes about two levels of the recursion limit
    e = sym("r")
    for _ in range(MAX_DEPTH):
        e = sin_(e)
    limit, counted = sys.getrecursionlimit(), []
    _load_sweep().missed_lines(lambda: counted.append(len(table_to_json([e])[0])))
    assert counted == [MAX_DEPTH + 1]
    assert sys.getrecursionlimit() == limit


def test_the_main_guard_body_is_not_an_executable_line():
    path = _SWEEP_PY.parent.parent / "src" / "tdual" / "cli.py"
    source = path.read_text().splitlines()
    guard = source.index('if __name__ == "__main__":') + 1
    lines = _load_sweep()._executable_lines(path)
    assert guard in lines and guard + 1 not in lines
    assert source[guard].strip() == "sys.exit(main())"
