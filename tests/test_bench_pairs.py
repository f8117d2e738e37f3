"""``tools/bench_pairs.py`` turns alternating run lines into a BENCH file and a table."""

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_PAIRS_PY = _ROOT / "tools" / "bench_pairs.py"


def _load_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", _PAIRS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCHMARK = json.loads((_ROOT / "BENCHMARK.json").read_text())


def _stdout(p90: float, rss: float, failed: int = 0) -> str:
    """A run's stdout as bench/run.py prints it: comment lines, then one JSON line."""
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in BENCHMARK["end_to_end"]}
    metrics["op_p90_s"]["value"], metrics["peak_rss_mb"]["value"] = p90, rss
    return ("# dualize seed=1: 64 ops x 2 passes\n"
            + json.dumps({"correct": not failed, "attempted": 128, "failed": failed,
                          "metrics": metrics}) + "\n")


def test_seed_lists_and_the_last_json_line():
    pairs = _load_pairs()
    assert pairs.parse_seeds("1-10") == list(range(1, 11))
    assert pairs.parse_seeds("11-13,2,5-5") == [11, 12, 13, 2, 5]
    assert pairs.last_json(_stdout(0.5, 20.0) + "# trailing comment\n")["metrics"][
        "op_p90_s"]["value"] == 0.5
    with pytest.raises(ValueError):
        pairs.last_json("# no result\n{not json\n")


def test_canned_runs_alternate_and_summarize_into_the_table():
    pairs = _load_pairs()
    order = []
    # the change reads 10% lower on p90 in nine of ten pairs, and its RSS 20% higher
    lines = {(side, seed): _stdout((1.0 + seed / 100) * (0.9 if side == "change" and seed != 4
                                                         else 1.0),
                                   20.0 * (1.2 if side == "change" else 1.0),
                                   failed=int(side == "change" and seed == 7))
             for side in pairs.SIDES for seed in range(1, 11)}

    def run(side, workload, seed):
        order.append((side, seed))
        return pairs.last_json(lines[(side, seed)])

    results = pairs.run_pairs(run, "dualize", list(range(1, 11)))
    assert order[:4] == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2)]
    entry = pairs.summarize(results, "dualize", list(range(1, 11)), BENCHMARK)
    assert entry["runs"]["change"]["failed"] == [0] * 6 + [1] + [0] * 3
    p90, rss, p50 = (entry["metrics"][name] for name in ("op_p90_s", "peak_rss_mb", "op_p50_s"))
    assert p90["pairs_better"] == 9 and p90["gain"] and p90["bound_holds"]
    assert p90["parent"]["values"] == [1.0 + seed / 100 for seed in range(1, 11)]
    assert p90["parent"]["median"] == pytest.approx(1.055)
    assert p90["ratio"] == pytest.approx(0.9 * 1.06 / 1.055, rel=0.01)
    assert rss["ratio"] == pytest.approx(1.2) and not rss["bound_holds"] and not rss["gain"]
    assert p50["pairs_better"] == 0 and not p50["gain"] and p50["bound_holds"]
    report = {"parent": "aaaaaaa", "change": "bbbbbbb", "seconds": 10, "entries": [entry]}
    text = pairs.table(json.loads(json.dumps(report)))
    rows = text.splitlines()
    assert rows[2].startswith("| workload | seeds | metric |")
    assert "| `dualize` | 1-10 | `op_p90_s` | 1.055 (" in text
    assert rows[-1] == "| `dualize` | 1-10 | failed ops | 0 | 1 | | | | |"
    assert [row.split(" | ")[-1] for row in rows[4:-1]] == ["yes |"] * 4 + ["NO |"]


def test_the_table_prints_from_a_written_file(tmp_path, capsys):
    pairs = _load_pairs()
    results = pairs.run_pairs(lambda side, workload, seed: pairs.last_json(_stdout(0.5, 20.0)),
                              "cli", [11, 12, 13])
    report = {"parent": "aaaaaaa", "change": "bbbbbbb", "seconds": 10,
              "entries": [pairs.summarize(results, "cli", [11, 12, 13], BENCHMARK)]}
    path = tmp_path / "BENCH_bbbbbbb.json"
    path.write_text(json.dumps(report))
    assert pairs.main(["--table", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == pairs.table(report) + "\n"
    assert "| `cli` | 11-13 | `op_p90_s` | 0.5 (0.5-0.5) | 0.5 | 1.000 | 0/3 | no | yes |" in out
