"""Run a benchmark workload on two commits in alternating pairs, and report.

    python tools/bench_pairs.py PARENT CHANGE --workload dualize --seeds 1-10
    python tools/bench_pairs.py --table BENCH_<sha>.json

exports both commits with ``git archive`` into fresh directories, so no
bytecode or untracked file is carried over, and runs the command of
``BENCHMARK.json`` in each with ``PYTHONDONTWRITEBYTECODE=1``: one run per
seed and side, parent first on odd seeds and change first on even ones,
each with ``--workload W --seed N --seconds <run_seconds>``. The last JSON
line of each run's stdout is its result. ``--workload`` may be repeated.

It writes ``BENCH_<short sha of CHANGE>.json`` at the repository root, one
entry per workload and seed list; a second call for the same commit adds
its entries, replacing any for the same workload and seeds. An entry holds
each side's attempted and failed op counts and, per end-to-end metric, each
side's per-run values with their median and quartiles
(``statistics.quantiles(values, n=4)``), the ratio of the medians (change
over parent), the pairs in which the change reads better, whether that is a
gain (better in at least nine of ten pairs, and in the median by more than
the parent's quartile distance), and whether the metric's bound in
``BENCHMARK.json`` holds (the change median worse than the parent's by at
most ``bound`` times the parent's). It then prints the table for
``CHANGES.md`` from that file; ``--table`` prints it from a file already
written. CHANGE may be any commit, such as the one ``git stash create``
makes of a staged tree; the file also records the hash of each side's
``src`` tree, which a later commit of the same code shares.

Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list:
    """``1-10`` or ``1,3,5`` or a mix: the seeds in the order given."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def last_json(stdout: str) -> dict:
    """The last line of ``stdout`` that parses as a JSON object."""
    for line in reversed(stdout.splitlines()):
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                continue
    raise ValueError("no JSON line in the run's output")


def run_pairs(run, workload: str, seeds: list) -> dict:
    """Per side, the result of ``run(side, workload, seed)`` for each seed,
    in seed order; the parent runs first on odd seeds, the change on even."""
    results = {side: [] for side in SIDES}
    for seed in seeds:
        for side in SIDES if seed % 2 else SIDES[::-1]:
            results[side].append(run(side, workload, seed))
    return results


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(results: dict, workload: str, seeds: list, benchmark: dict) -> dict:
    """The entry of a BENCH file for one workload's results over ``seeds``."""
    out = {"workload": workload, "seeds": seeds,
           "runs": {side: {key: [r[key] for r in results[side]] for key in ("attempted", "failed")}
                    for side in SIDES},
           "metrics": {}}
    for metric in benchmark["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        stats = {side: {"values": v, "median": statistics.median(v),
                        "quartiles": list(_quartiles(v))} for side, v in values.items()}
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        better = sum((c < p) if lower else (c > p)
                     for p, c in zip(values["parent"], values["change"]))
        q1, q3 = stats["parent"]["quartiles"]
        gap = parent - change if lower else change - parent
        worse = change - parent if lower else parent - change
        out["metrics"][name] = {
            **stats, "unit": metric["unit"], "better": metric["better"],
            "ratio": change / parent if parent else None,
            "pairs_better": better, "pairs": len(seeds),
            "gain": better >= 0.9 * len(seeds) and gap > q3 - q1,
            "bound": metric["bound"], "bound_holds": worse <= metric["bound"] * abs(parent)}
    return out


def table(report: dict) -> str:
    """The CHANGES.md table of a BENCH file."""
    lines = [f"Parent {report['parent']} vs change {report['change']}, "
             f"`--seconds {report['seconds']}`, medians at reference speed.", "",
             "| workload | seeds | metric | parent (q1-q3) | change | ratio | pairs better "
             "| gain | bound holds |",
             "|---|---|---|---|---|---|---|---|---|"]
    for entry in report["entries"]:
        workload, seeds = entry["workload"], entry["seeds"]
        span = f"{seeds[0]}-{seeds[-1]}" if seeds == list(range(seeds[0], seeds[-1] + 1)) \
            else ",".join(map(str, seeds))
        for name, m in entry["metrics"].items():
            q1, q3 = m["parent"]["quartiles"]
            ratio = "-" if m["ratio"] is None else f"{m['ratio']:.3f}"
            lines.append(f"| `{workload}` | {span} | `{name}` | {m['parent']['median']:.4g} "
                         f"({q1:.4g}-{q3:.4g}) | {m['change']['median']:.4g} | {ratio} "
                         f"| {m['pairs_better']}/{m['pairs']} | {'yes' if m['gain'] else 'no'} "
                         f"| {'yes' if m['bound_holds'] else 'NO'} |")
        failed = {side: sum(entry["runs"][side]["failed"]) for side in SIDES}
        if any(failed.values()):
            lines.append(f"| `{workload}` | {span} | failed ops | {failed['parent']} | "
                         f"{failed['change']} | | | | |")
    return "\n".join(lines)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(commit: str, into: Path):
    """The tree of ``commit`` written into ``into`` by ``git archive``."""
    data = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into)


def _runner(dirs: dict, command: list, seconds: int):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")

    def run(side: str, workload: str, seed: int) -> dict:
        proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds)], cwd=dirs[side], env=env,
                              capture_output=True, text=True)
        if proc.returncode not in (0, 1):       # 1: some op failed its check, still a result
            raise RuntimeError(f"{side} {workload} seed {seed}: exit {proc.returncode}\n"
                               f"{proc.stderr[-2000:]}")
        result = last_json(proc.stdout)
        print(f"{side} {workload} seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)
        return result
    return run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", nargs="?")
    p.add_argument("change", nargs="?")
    p.add_argument("--workload", action="append", default=[])
    p.add_argument("--seeds", default="1-10", type=parse_seeds)
    p.add_argument("--table", metavar="BENCH_FILE", help="print the table of a written file")
    args = p.parse_args(argv)
    if args.table:
        print(table(json.loads(Path(args.table).read_text())))
        return 0
    if not (args.parent and args.change and args.workload):
        p.error("need PARENT, CHANGE and at least one --workload")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    shas = {side: _git("rev-parse", "--short", commit)
            for side, commit in zip(SIDES, (args.parent, args.change))}
    path = ROOT / f"BENCH_{shas['change']}.json"
    report = json.loads(path.read_text()) if path.exists() else {}
    if report.get("parent", shas["parent"]) != shas["parent"]:
        p.error(f"{path.name} compares against another parent, {report['parent']}")
    report.update({"parent": shas["parent"], "change": shas["change"],
                   "src_trees": {side: _git("rev-parse", f"{commit}:src")
                                 for side, commit in zip(SIDES, (args.parent, args.change))},
                   "seconds": benchmark["run_seconds"], "command": benchmark["command"],
                   "env": {"PYTHONDONTWRITEBYTECODE": "1"}})
    report.setdefault("entries", [])
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: Path(tmp) / side for side in SIDES}
        for side, commit in zip(SIDES, (args.parent, args.change)):
            dirs[side].mkdir()
            export(commit, dirs[side])
        run = _runner(dirs, benchmark["command"], benchmark["run_seconds"])
        for workload in args.workload:
            entry = summarize(run_pairs(run, workload, args.seeds), workload, args.seeds,
                              benchmark)
            report["entries"] = [e for e in report["entries"]
                                 if (e["workload"], e["seeds"]) != (workload, args.seeds)]
            report["entries"].append(entry)
            path.write_text(json.dumps(report, indent=1) + "\n")
    print(table(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
