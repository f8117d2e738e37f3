"""Regime self-check: each workload still loads the layers it was chosen for.

Runs the cheap rungs of one block of each workload untraced, then traced, and
asserts the predicted zeros and cache regimes, so a change cannot silently
move a workload onto other layers. Run with ``python -m pytest bench``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from layers import Tracer  # noqa: E402

sys.path.insert(0, str(workloads.SRC))

CHEAP = {
    "identity": {"taub-nut-gh", "taub-nut-inv", "dyonic", "multi2", "multi3",
                 "coupling25-gh", "coupling25-inv"},
    "homology": {"lens", "lens-x-circle", "wedge200", "codim4"},
    "dualize": {"kk-round-trip", "cover2", "cover3", "cover4", "gauge4", "cover6"},
}


def traced_metrics(name: str) -> dict:
    wl = workloads.WORKLOADS[name]()
    ops = [op for op in wl.make_ops(seed=7, blocks=1) if op.kind in CHEAP[name]]
    assert ops
    for op in ops:                # untraced first, as in the traced benchmark run
        wl.run(op)
    with Tracer() as tracer:
        for op in ops:
            wl.run(op)
    return {k: v for k, (v, _) in tracer.metrics().items()}


def test_identity_bypasses_the_integer_layers():
    m = traced_metrics("identity")
    assert m["intlin.snf_calls"] == 0
    assert m["intlin.solve_calls"] == 0
    assert m["cohomology.space_calls"] == 0
    assert m["expr.evaluate_calls"] > 0 and m["expr.trials"] > 0
    assert m["geometry.buscher_calls"] > 0


def test_homology_runs_cold_without_expressions():
    m = traced_metrics("homology")
    assert m["expr.evaluate_calls"] == 0
    assert m["expr.simplify_calls"] == 0
    assert m["intlin.snf_calls"] > 0
    assert m["complexes.product_hit_ratio"] == 0
    assert m["cohomology.space_hit_ratio"] < 0.5


def test_dualize_runs_hot():
    m = traced_metrics("dualize")
    assert m["expr.evaluate_calls"] == 0
    assert m["gerbes.check_calls"] > 0 and m["semifree.calls"] > 0
    assert m["cohomology.space_hit_ratio"] > 0.9
    assert m["complexes.product_hit_ratio"] > 0.9


def test_tracer_restores_every_name():
    from tdual import cohomology, complexes, expr, gerbes, intlin
    before = (intlin.smith_normal_form, cohomology.solve, gerbes.solve, expr.evaluate,
              complexes.CellComplex.__dict__["__post_init__"])
    with Tracer():
        assert cohomology.solve is not before[1]
    after = (intlin.smith_normal_form, cohomology.solve, gerbes.solve, expr.evaluate,
             complexes.CellComplex.__dict__["__post_init__"])
    assert after == before
