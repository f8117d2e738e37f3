"""The traced benchmark (``bench/layers.py``) finds its spans by name.

A renamed function or method leaves its hook, or the metric that reads its
span, counting nothing, while the benchmark still runs. So every span the
tracer hooks or reads by name must name a callable in ``tdual.<layer>``: a
public function defined in that module, or a method in its class's own
``__dict__``.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

_LAYERS_PY = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", _LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()

# counters the hooks keep under their own names; they are not spans
COUNTERS = {"intlin.snf_entries", "complexes.cells_built", "complexes.product_hits",
            "cohomology.space_hits", "gerbes.nerve_tuples", "expr.trials",
            "expr.domain_errors", "expr.nodes"}


class _Reads(Counter):
    """A counter that records every name looked up in it."""

    def __init__(self, names):
        super().__init__()
        self.names = names

    def __getitem__(self, key):
        self.names.add(key)
        return super().__getitem__(key)


def _spans_read_by_metrics() -> set:
    tracer, names = layers.Tracer(), set()
    tracer.counts, tracer.span_s = _Reads(names), _Reads(names)
    tracer.metrics()
    return names - COUNTERS


def _hooked_spans() -> set:
    spans = set(layers._HOOKS)
    spans.update(f"{layer}.{qual}" for layer, quals in layers.METHODS.items() for qual in quals)
    spans.update(f"intlin.{name}" for name in layers.INTLIN_FUNCTIONS)
    spans.update(f"cohomology.{name}" for name in layers.SPACE_FUNCTIONS)
    return spans


def test_metrics_read_the_spans_not_hooked_elsewhere():
    assert {"expr.simplify_basic", "expr.evaluate", "geometry.buscher_transform",
            "geometry.metrics_equal"} <= _spans_read_by_metrics() - _hooked_spans()


@pytest.mark.parametrize("span", sorted(_hooked_spans() | _spans_read_by_metrics()))
def test_span_names_a_callable_of_its_layer(span):
    layer, *path = span.split(".")
    assert layer in layers.LAYERS
    module = importlib.import_module(f"tdual.{layer}")
    if len(path) == 1:
        fn = vars(module).get(path[0])
        assert callable(fn) and not isinstance(fn, type), span
        assert not path[0].startswith("_") and fn.__module__ == module.__name__, span
    else:
        cls_name, method = path
        cls = vars(module).get(cls_name)
        assert isinstance(cls, type) and callable(cls.__dict__.get(method)), span
