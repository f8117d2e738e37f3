"""tdual benchmark: one workload, seeded inputs, checked answers, named metrics.

    python3 bench/run.py --workload identity --seed 1 --seconds 10 --trace 0

Runs the workload's fixed, seeded op list in this process, twice (``cli``:
once, as one fresh ``python -m tdual.cli`` process per op, one at a time),
and prints as the last line of stdout one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed/attempted`` is the
failure ratio. ``--trace 0`` reports the end-to-end metrics. ``--trace 1``
runs the first block untraced to warm the caches, then the op list
untraced, traced and untraced again, then the first block under
tracemalloc, and reports the per-layer metrics. See ``bench/README.md``
for the metric map and for comparing two commits.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 5         # fresh set-up processes before the first pass and after each
# Nominal time of the reference kernel (the median of min-of-2 samples, as
# around each op); the quietest stretches seen measured 0.98-1.05 ms.
REFERENCE_S = 0.001
SPEED_WINDOW = 5          # reference samples on each side of an op that set its speed
SETUP_EXPONENT = 0.5      # set-up times grow as this power of the kernel's (README.md)
IMPORT_SAMPLES = 5        # fresh `import tdual.cli` processes for cli.import_s
MAX_ERRORS_SHOWN = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True,
                   help="run length at the first baseline; sets the op count")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def setup(args):
    """Import the workload's tdual modules and generate its op list."""
    sys.path.insert(0, str(workloads.SRC))
    wl = workloads.WORKLOADS[args.workload]()
    for name in wl.modules:
        importlib.import_module(name)
    blocks = workloads.n_blocks(args.seconds / wl.passes, wl.block_seconds, wl.min_blocks)
    return wl, wl.make_ops(args.seed, blocks), blocks


def pin_to_one_cpu():
    """Run this process and every child it starts on one CPU, so the
    reference kernel times the CPU the ops run on. The CPUs of a shared
    machine are slowed unequally, and a child would run on either."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reference_kernel():
    """Fixed interpreter work: integer arithmetic, list and dict updates."""
    table, acc = {}, []
    for i in range(8000):
        acc.append(i * i % 7)
        table[i & 127] = acc[-1]
    return sum(acc)


def reference_s() -> float:
    """The faster of two back-to-back kernel runs: the first one after an op
    also pays for the caches the op left behind."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def to_reference_speed(t: float, ref: float, exponent: float) -> float:
    """``t`` as it would read if the kernel had taken REFERENCE_S, not ``ref``;
    ``exponent`` is how the timed work slows with the kernel."""
    return t * (REFERENCE_S / ref) ** exponent


def at_reference_speed(times, refs, exponent: float) -> list:
    """Scale each time by the median reference time taken around it. Other
    tenants of a shared machine slow it by up to half for seconds to
    minutes, and interpreter work slows with the kernel, so the scaled
    times drift far less than the raw ones."""
    out = []
    for i, t in enumerate(times):
        near = refs[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1]
        out.append(to_reference_speed(t, statistics.median(near), exponent))
    return out


def setup_samples(args, count: int) -> list:
    """Times from spawning a fresh interpreter until it has run set-up, at
    reference speed. The child times the reference kernel itself once it
    is ready, so the scaling sees the CPU that did the set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        ref = proc.stdout.readline()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up process failed: {line!r}")
        samples.append(to_reference_speed(elapsed, float(ref), SETUP_EXPONENT))
    return samples


def measure_import_s() -> float:
    """Median time of `import tdual.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import tdual.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(workloads.SRC))
    samples = [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                    capture_output=True, text=True).stdout)
               for _ in range(IMPORT_SAMPLES)]
    return statistics.median(samples)


def run_pass(ops, execute):
    """Run every op once, in order, each after one reference sample; returns
    (latencies, reference samples, failures, wall)."""
    latencies, refs, failures = [], [], []
    t_start = time.perf_counter()
    for op in ops:
        refs.append(reference_s())
        t0 = time.perf_counter()
        try:
            execute(op)
        except Exception as exc:      # a failed op is counted, never aborts the run
            failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t0)
    return latencies, refs, failures, time.perf_counter() - t_start


def end_to_end(args, wl, ops):
    """Run the op list ``wl.passes`` times; times are at reference speed. An
    op's latency is the fastest of its runs, which lie a pass apart, so a
    burst of load that the reference scaling misses rarely hits all of them.
    wall_s is the sum of the latencies."""
    setup = setup_samples(args, SETUP_SAMPLES)
    passes, failures, raw, speed = [], [], [], []
    for _ in range(wl.passes):
        lat, refs, failed, _ = run_pass(ops, wl.run)
        passes.append(at_reference_speed(lat, refs, wl.speed_exponent))
        raw.append(lat)
        speed.append(statistics.median(refs) / REFERENCE_S)
        failures += failed
        setup += setup_samples(args, SETUP_SAMPLES)
    latencies = [min(times) for times in zip(*passes)]
    setup_s = statistics.median(setup)
    wall = sum(latencies)
    peak = wl.peak_rss_mb() if args.workload == "cli" else workloads.self_peak_rss_mb()
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10)[8]
    beyond = sum(1 for x in latencies if x > p90)
    print(f"# {args.workload} seed={args.seed}: {len(ops)} ops x {wl.passes} passes, "
          f"{len(failures)} failed (failed_ratio {len(failures) / (wl.passes * len(ops)):.4f}); "
          f"wall {wall:.3f} s; p50 {p50:.5f} s; p90 {p90:.5f} s ({beyond} samples beyond "
          f"p90); peak RSS {peak:.1f} MB; setup {setup_s:.4f} s; machine "
          f"{' / '.join(f'{x:.2f}' for x in speed)}x slower than the reference, raw wall "
          f"{sum(min(t) for t in zip(*raw)):.3f} s")
    metrics = {"setup_s": (setup_s, "s"), "wall_s": (wall, "s"), "op_p50_s": (p50, "s"),
               "op_p90_s": (p90, "s"), "peak_rss_mb": (peak, "MB")}
    return failures, metrics


def per_layer(args, wl, ops, blocks):
    """The first block untraced, so every compared pass runs with warm
    caches; the op list untraced, traced, and untraced again; then the first
    block once more under tracemalloc alone: it slows allocation several-fold,
    so it stays out of the traced pass and its overhead ratio. The overhead
    ratio compares sums of op latencies at reference speed, not the passes'
    walls, which include the untraced reference samples, and takes the mean
    of the two untraced passes, so a drift in load cancels."""
    from layers import Tracer
    execute = wl.run_in_process if args.workload == "cli" else wl.run

    def timed_pass(batch):
        latencies, refs, failed, _ = run_pass(batch, execute)
        failures.extend(failed)
        return latencies, sum(at_reference_speed(latencies, refs, wl.speed_exponent))

    failures = []
    first_block = ops[:len(ops) // blocks]
    timed_pass(first_block)
    latencies, before_s = timed_pass(ops)
    tracer = Tracer()
    with tracer:
        _, traced_s = timed_pass(ops)
    _, after_s = timed_pass(ops)
    untraced_s = (before_s + after_s) / 2
    gc.collect()
    tracemalloc.start()
    start_mem = tracemalloc.get_traced_memory()[0]
    timed_pass(first_block)
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0] - start_mem
    tracemalloc.stop()
    metrics = tracer.metrics()
    metrics["complexes.retained_mb"] = (retained / 2 ** 20, "MB")
    metrics["cli.import_s"] = (measure_import_s(), "s")
    metrics["cli.main_s"] = (statistics.median(latencies) if args.workload == "cli" else 0.0, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "1")
    print(f"# {args.workload} seed={args.seed} traced: {len(ops)} ops, untraced "
          f"{before_s:.3f} s and {after_s:.3f} s, traced {traced_s:.3f} s; retained "
          f"{retained / 2 ** 20:.2f} MB over the first {len(first_block)} ops")
    return failures, metrics, 3 * len(ops) + 2 * len(first_block)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    if not (workloads.SRC / "tdual" / "__init__.py").is_file():
        sys.stderr.write(f"error: no tdual package under {workloads.SRC}\n")
        return 2
    wl, ops, blocks = setup(args)
    try:
        if args.setup_only:
            print("ready", flush=True)
            print(statistics.median(reference_s() for _ in range(3)), flush=True)
            return 0
        if args.trace:
            failures, metrics, attempted = per_layer(args, wl, ops, blocks)
        else:
            failures, metrics = end_to_end(args, wl, ops)
            attempted = wl.passes * len(ops)
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup()
    for line in failures[:MAX_ERRORS_SHOWN]:
        sys.stderr.write(f"failed op: {line}\n")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
