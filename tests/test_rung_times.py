"""``tools/rung_times.py`` prints each rung's op count and times, in ladder order."""

import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "rung_times.py"


def test_one_block_of_homology_prints_each_rung_once_in_ladder_order():
    run = subprocess.run([sys.executable, str(_TOOL), "--workload", "homology", "--seed", "1",
                          "--blocks", "1", "--passes", "1"],
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    head, columns, *rows = run.stdout.splitlines()
    assert head == "# homology seed=1: 20 ops x 1 passes, fastest run per op, raw ms"
    assert columns.split() == ["rung", "ops", "median_ms", "total_ms"]
    # the block's rungs in its order, then the first block's rotating rung
    fields = [row.split() for row in rows]
    assert [(kind, int(ops)) for kind, ops, *_ in fields] == [
        ("lens", 4), ("lens-x-circle", 4), ("wedge200", 6), ("codim4", 2), ("wedge600", 3),
        ("wedge1600", 1)]
    for _, ops, median, total in fields:      # the total is printed to 0.1 ms
        assert 0 < float(median) <= float(total) + 0.05


def test_a_count_below_one_is_a_usage_error():
    run = subprocess.run([sys.executable, str(_TOOL), "--workload", "homology", "--seed", "1",
                          "--passes", "0"], capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.endswith("error: --blocks and --passes must be >= 1\n")
