"""Print the time of each rung of a benchmark workload's ladder.

    python tools/rung_times.py --workload identity --seed 1 [--blocks B] [--passes P]

builds the workload's op list for the seed through ``bench/workloads.py``
and runs it in this process, pinned to one CPU, ``P`` times (default: the
workload's own passes); an op's time is the fastest of its runs, as in
``bench/run.py``. ``B`` blocks (default: as many as ``bench/run.py``
builds for the ``run_seconds`` of ``BENCHMARK.json``) give the op list.
It prints one line per op kind, in ladder order, with the kind's op count
and the median and total of its ops' times in ms. Times are raw: unlike
the benchmark, they are not scaled to the reference kernel's speed, so
compare two commits by alternating runs on one quiet machine. The ``cli``
workload runs each argv through ``tdual.cli.main`` in this process. The
code under test is the ``src`` beside this file, so to time another commit,
run a copy of this file in a ``git archive`` export of it.

Standard library only.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rung_times(ops: list, execute, passes: int) -> dict:
    """Op kind -> the times in ms of its ops, each the fastest of ``passes`` runs,
    with the kinds in the order of their first op."""
    runs = []
    for _ in range(passes):
        times = []
        for op in ops:
            t0 = time.perf_counter()
            execute(op)
            times.append(time.perf_counter() - t0)
        runs.append(times)
    out: dict = {}
    for op, *times in zip(ops, *runs):
        out.setdefault(op.kind, []).append(1e3 * min(times))
    return out


def main(argv: list) -> int:
    workloads = _workloads()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--blocks", type=int)
    p.add_argument("--passes", type=int)
    args = p.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]()
    passes = wl.passes if args.passes is None else args.passes
    blocks = args.blocks if args.blocks is not None else workloads.n_blocks(
        json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"] / wl.passes,
        wl.block_seconds, wl.min_blocks)
    if blocks < 1 or passes < 1:
        p.error("--blocks and --passes must be >= 1")
    sys.path.insert(0, str(workloads.SRC))
    for name in wl.modules:         # imported before the first op, as bench/run.py does
        importlib.import_module(name)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    here = os.getcwd()
    os.chdir(ROOT)                  # the cli argvs name their input files relative to it
    try:
        ops = wl.make_ops(args.seed, blocks)
        times = rung_times(ops, wl.run_in_process if args.workload == "cli" else wl.run, passes)
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup()
        os.chdir(here)
    ladder = dict.fromkeys([*getattr(wl, "block", ()), *getattr(wl, "rotating", ()), *times])
    print(f"# {args.workload} seed={args.seed}: {len(ops)} ops x {passes} passes, "
          f"fastest run per op, raw ms")
    print(f"{'rung':<16} {'ops':>5} {'median_ms':>10} {'total_ms':>10}")
    for kind in ladder:
        if kind in times:
            t = times[kind]
            print(f"{kind:<16} {len(t):>5} {statistics.median(t):>10.3f} {sum(t):>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
