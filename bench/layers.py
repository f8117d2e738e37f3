"""Per-layer spans and counters for the traced benchmark run.

The tracer wraps the public functions of each ``tdual`` module (plus a short
list of methods that do a layer's work) from outside the package. Every
module-level name bound to a wrapped function is rebound, so callers that
did ``from .intlin import solve`` see the wrapper too. Each recorded call is
a span: its duration goes to the span's own total, and its duration minus
the time covered by its child spans goes to its layer's self time. A
self-recursive function (``evaluate``, ``simplify_basic``,
``expr_from_json``) records only its outermost call.

Nothing under ``src/`` changes; ``uninstall`` restores every name.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("intlin", "complexes", "cohomology", "gerbes", "semifree", "expr", "geometry")

# Functions that do most of their layer's work outside any public
# module-level function, or whose calls are counted.
METHODS = {
    "complexes": ("CellComplex.__post_init__", "CellComplex.subcomplex"),
    "cohomology": ("SubquotientSpace.__init__", "SubquotientSpace.reduce",
                   "SubquotientSpace.generators", "GroupHom.__init__",
                   "GroupHom.preimage"),
    "gerbes": ("CoverNerve.__post_init__", "TwoGerbe.__post_init__",
               "ThreeGerbe.__post_init__"),
    "geometry": ("MetricData.from_json", "MetricData.to_json",
                 "MultiCenterFamily.__init__"),
}

# intlin is traced only at its two costly entry points; kernel and lattice
# helpers are thin and count towards their caller's layer.
INTLIN_FUNCTIONS = ("smith_normal_form", "solve")


def count_nodes(e) -> int:
    """Number of nodes of an expression tree (shared subtrees count once per use)."""
    total = 0
    stack = [e]
    while stack:
        node = stack.pop()
        total += 1
        for f in dataclasses.fields(node):
            v = getattr(node, f.name)
            if dataclasses.is_dataclass(v):
                stack.append(v)
            elif isinstance(v, tuple):
                stack.extend(x for x in v if dataclasses.is_dataclass(x))
    return total


class Tracer:
    """Installs wrappers on the tdual layers and aggregates their spans."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.span_s: defaultdict = defaultdict(float)    # "layer.function" -> s
        self.self_s: defaultdict = defaultdict(float)    # layer -> s
        self._stack: list = []                           # child time per open span
        self._patches: list = []                         # (owner, name, original)

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every traced function and rebind it in all tdual modules."""
        mods = {layer: importlib.import_module(f"tdual.{layer}") for layer in LAYERS}
        owners = [m for n, m in sorted(sys.modules.items())
                  if n == "tdual" or n.startswith("tdual.")]
        for layer, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if not callable(fn) or name.startswith("_") or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                if layer == "intlin" and name not in INTLIN_FUNCTIONS:
                    continue
                wrapper = self._wrap(fn, layer, name)
                for owner in owners:
                    for attr, val in list(vars(owner).items()):
                        if val is fn:
                            self._patch(owner, attr, wrapper)
            for qual in METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    self._patch(cls, meth, staticmethod(self._wrap(raw.__func__, layer, qual)))
                else:
                    self._patch(cls, meth, self._wrap(raw, layer, qual))
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    # -- spans ----------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        span = f"{layer}.{name}"
        pre, post = _HOOKS.get(span, (None, None))
        counts, span_s, self_s, stack = self.counts, self.span_s, self.self_s, self._stack
        active = [False]

        def wrapper(*args, **kwargs):
            if active[0]:                 # inner call of a self-recursive function
                return fn(*args, **kwargs)
            h0 = perf_counter()
            token = pre(counts, args) if pre else None
            active[0] = True
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[0] = False
                self_s[layer] += t1 - t0 - frame[0]
                span_s[span] += t1 - t0
                counts[span] += 1
                if stack:                 # the caller's self time excludes hooks too
                    stack[-1][0] += t1 - h0
            if post:
                post(counts, args, result, token)
                if stack:
                    stack[-1][0] += perf_counter() - t1
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- results --------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics by name; ratios with no calls read 0."""
        c, s = self.counts, self.span_s

        def ratio(hits, calls):
            return hits / calls if calls else 0.0

        product_calls = c["complexes.product_complex"]
        space_calls = sum(c[f"cohomology.{f}"] for f in SPACE_FUNCTIONS)
        return {
            "intlin.snf_calls": (c["intlin.smith_normal_form"], "count"),
            "intlin.snf_entries": (c["intlin.snf_entries"], "count"),
            "intlin.snf_s": (s["intlin.smith_normal_form"], "s"),
            "intlin.solve_calls": (c["intlin.solve"], "count"),
            "intlin.solve_s": (s["intlin.solve"], "s"),
            "complexes.product_calls": (product_calls, "count"),
            "complexes.product_hit_ratio": (ratio(c["complexes.product_hits"], product_calls), "1"),
            "complexes.cells_built": (c["complexes.cells_built"], "count"),
            "complexes.self_s": (self.self_s["complexes"], "s"),
            "cohomology.space_calls": (space_calls, "count"),
            "cohomology.space_hit_ratio": (ratio(c["cohomology.space_hits"], space_calls), "1"),
            "cohomology.hom_calls": (c["cohomology.GroupHom.__init__"], "count"),
            "cohomology.self_s": (self.self_s["cohomology"], "s"),
            "gerbes.check_calls": (c["gerbes.check_two_gerbe"] + c["gerbes.check_three_gerbe"], "count"),
            "gerbes.nerve_tuples": (c["gerbes.nerve_tuples"], "count"),
            "gerbes.self_s": (self.self_s["gerbes"], "s"),
            "semifree.calls": (sum(v for k, v in c.items() if k.startswith("semifree.")), "count"),
            "semifree.self_s": (self.self_s["semifree"], "s"),
            "expr.simplify_calls": (c["expr.simplify_basic"], "count"),
            "expr.simplify_s": (s["expr.simplify_basic"], "s"),
            "expr.evaluate_calls": (c["expr.evaluate"], "count"),
            "expr.evaluate_s": (s["expr.evaluate"], "s"),
            "expr.trials": (c["expr.trials"], "count"),
            "expr.domain_errors": (c["expr.domain_errors"], "count"),
            "expr.nodes": (c["expr.nodes"], "count"),
            "geometry.buscher_calls": (c["geometry.buscher_transform"], "count"),
            "geometry.buscher_s": (s["geometry.buscher_transform"], "s"),
            "geometry.equal_s": (s["geometry.metrics_equal"], "s"),
            "geometry.self_s": (self.self_s["geometry"], "s"),
        }


SPACE_FUNCTIONS = ("cochain_space", "chain_space", "relative_cochain_space")


# -- counters taken at span boundaries ------------------------------------
# Each entry is (pre, post): pre(counts, args) runs before the call and
# returns a token; post(counts, args, result, token) runs after it returns.

def _snf_pre(counts, args):
    counts["intlin.snf_entries"] += args[0].rows * args[0].cols


def _complex_built(counts, args, result, token):
    counts["complexes.built"] += 1
    counts["complexes.cells_built"] += sum(len(v) for v in args[0].cells.values())


def _built_before(key):
    return lambda counts, args: counts[key]


def _hit_if_nothing_built(key, hits):
    # a call that built nothing new was answered from a cache
    def post(counts, args, result, token):
        if counts[key] == token:
            counts[hits] += 1
    return post


def _space_built(counts, args, result, token):
    counts["cohomology.spaces_built"] += 1


def _check_pre(counts, args):
    cover = args[0].cover
    counts["gerbes.nerve_tuples"] += sum(len(cover.tuples(q)) for q in range(cover.size))


def _equal_pre(counts, args):
    counts["expr.nodes"] += count_nodes(args[0]) + count_nodes(args[1])


def _equal_post(counts, args, result, token):
    counts["expr.trials"] += result.trials
    counts["expr.domain_errors"] += result.domain_errors


_HOOKS = {
    "intlin.smith_normal_form": (_snf_pre, None),
    "complexes.CellComplex.__post_init__": (None, _complex_built),
    "complexes.product_complex": (_built_before("complexes.built"),
                                  _hit_if_nothing_built("complexes.built",
                                                        "complexes.product_hits")),
    "cohomology.SubquotientSpace.__init__": (None, _space_built),
    "gerbes.check_two_gerbe": (_check_pre, None),
    "gerbes.check_three_gerbe": (_check_pre, None),
    "expr.equal_numeric": (_equal_pre, _equal_post),
}
_HOOKS.update({f"cohomology.{f}": (_built_before("cohomology.spaces_built"),
                                   _hit_if_nothing_built("cohomology.spaces_built",
                                                         "cohomology.space_hits"))
               for f in SPACE_FUNCTIONS})
