"""``tools/fuzz_inputs.py`` runs mutated inputs through the command line and
reports each case that breaks the input contract."""

import importlib.util
import subprocess
import sys
import time
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "fuzz_inputs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("fuzz_inputs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_fixed_seed_reports_nothing():
    run = subprocess.run([sys.executable, str(_TOOL), "--seed", "1", "--cases", "40"],
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout) == (0, "")
    assert run.stderr.startswith("fuzz_inputs: seed 1, 200 cases (")
    assert run.stderr.endswith("), 0 reported\n")


def test_each_seed_input_reads_back_unmutated(tmp_path):
    tool = _load_tool()
    for name, (doc, command) in tool.seed_inputs().items():
        path = tmp_path / f"{name}.json"
        path.write_text(tool.json.dumps(doc))
        argv = [str(path) if arg == "{path}" else arg for arg in command]
        assert tool.run_case(argv) == (0, ""), name


def test_a_traceback_and_a_slow_case_are_reported(monkeypatch, capsys):
    from tdual import cli
    tool = _load_tool()

    def broken(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "main", broken)
    assert tool.main(["--seed", "1", "--cases", "1"]) == 1
    out = capsys.readouterr().out
    assert out.count(": traceback: ") == 5 and out.count("RuntimeError: boom") == 5
    assert "input: " in out
    monkeypatch.setattr(tool, "LIMIT_S", 0.05)
    monkeypatch.setattr(cli, "main", lambda argv: time.sleep(5))
    start = time.perf_counter()
    assert tool.run_case(["spectrum"])[0] == "slow"
    assert time.perf_counter() - start < 2


def test_only_one_error_line_keeps_the_contract():
    tool = _load_tool()
    assert not tool.breaks_contract(0, "") and not tool.breaks_contract(1, "")
    assert not tool.breaks_contract(2, "error: cannot read gerbe: missing field 'space'\n")
    for outcome, detail in ((2, "error: one\nerror: two\n"), (2, "usage: tdual\n"), (2, ""),
                            (3, ""), ("slow", ""), ("traceback", "Traceback ...\n")):
        assert tool.breaks_contract(outcome, detail), (outcome, detail)


def test_a_metric_refusal_must_name_what_it_refuses():
    tool = _load_tool()
    head = "error: cannot read metric from /tmp/x/metric.json: "
    for why in ("g entry 0 must be [i, j, node], got [0, 0]", "missing field 'chart'",
                "chart must be a dict, got 5",
                "node reference 9 is to no earlier table entry"):
        assert not tool.unnamed_metric_refusal(2, head + why + "\n"), why
    for why in ("'int' object is not subscriptable",
                "not enough values to unpack (expected 3, got 1)"):
        assert tool.unnamed_metric_refusal(2, head + why + "\n"), why
    assert not tool.unnamed_metric_refusal(2, "error: cannot read gerbe: 'int' object\n")
    assert not tool.unnamed_metric_refusal(1, "")

