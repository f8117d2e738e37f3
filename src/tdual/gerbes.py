"""Cech cocycle algebra for gerbes on finite covers, stored pattern by pattern.

A cover assigns to each index a subcomplex of a fixed cell model. The
pattern of a cell is the sorted tuple of the indices whose sets hold it.
The nerve is read off the distinct patterns: its nonempty tuples of degree
q are the (q+1)-subsets of the patterns, in combinations order, enumerated
only when a view, a report's conditions or a gauge support reads them, and
a tuple's model is the subcomplex on the cells of the patterns that contain
it, cached once, in the space's subcomplex cache. Tables are built on first
use and freed with the cover; the crossed cover of X x S^1 shares the
patterns and the nerve.

A gerbe type declares its layers ``(label, attribute, nerve degree q, cell
degree d)``, q + d fixed: an integer cochain of degree d on every nonempty
(q+1)-fold intersection, one Bockstein degree up from its circle-valued
sheaf degree. ``TwoGerbe`` has p (1, 2), theta (2, 1), mu (3, 0);
``ThreeGerbe`` has A (1, 3), gamma (2, 2), eta (3, 1), nu (4, 0). A layer
is stored as one stream per pattern P, subset-major over the (q+1)-subsets
of P in combinations order, with the d-cells of P in space order inside
each. Only outside input (the public constructors, so the JSON readers) is
validated, and folded with sign bookkeeping from tuple-keyed data in any
key order; the operators build canonical streams directly, and ``g.p``,
``g.theta``, ... are tuple-keyed views. Their layout, each tuple's (pattern,
stream index) pairs, is built in one pass over the cells in space order.

Everything else is one total differential D = delta_nerve + (-1)^q
delta_cell of the Cech/cell double complex, pattern by pattern: the nerve
half is the coboundary of the full simplex on P, the cell half sends the
cells of P to their faces (whose patterns contain P), both through index
plans in bounded caches; the ranks of P's subsets among those of a face's
pattern come from the combinatorial number system. A source stream that is
all zero adds nothing, so no gather reads one: the dual's zero top layer,
or a crossed layer on a pattern where the input layer has no cell. Validity
is D(data) = 0, slot by slot, one report per gerbe, kept on it; a gauge
change adds D(x) for x one degree lower; the class (degree = number of
layers) is the explicit staircase, added to the report when first asked
for, whose row contraction reads each cell on the first index of its
pattern. Dualization crosses every layer with the circle generator,
(q, d) -> (q, d + 1), under a zero top layer; the cross product commutes
with both differentials and the contraction, so the dual's class is the
cross product of the input's.
"""

from __future__ import annotations

import random
from array import array
from functools import cached_property, lru_cache
from itertools import chain, combinations, repeat
from math import comb
from operator import add, itemgetter, sub
from typing import NamedTuple

from .complexes import (CellComplex, _is_circle, circle, circle_product_ids, cone_on_s2,
                        product_with_circle, s3_two_disc, sphere, trivial_disc_bundle)
from .cohomology import (CohClass, cochain_space, connecting_hom, excision_hom,
                         relative_inclusion_hom)
from .intlin import _Record, solve


class MalformedNerve(ValueError):
    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class InvalidGerbe(ValueError):
    pass


class ModelMismatch(ValueError):
    pass


# bound on the entries of the random gauge cochains of gauge_perturb
_GAUGE_BOUND = 3


def _parity(t: tuple) -> int:
    return (-1) ** sum(1 for a in range(len(t)) for b in range(a + 1, len(t)) if t[a] > t[b])


class CoverNerve(_Record):
    """Nerve of a subcomplex cover, read off its cell patterns. ``sets[i]``
    is the cell-id set of U_i; the distinct patterns are ``_patterns``, the
    cells of each ``_members``, and ``_pattern_of[cell]`` indexes its own.
    ``_groups`` maps each pattern to its cells, when that is already known."""

    _fields = ("space", "sets")
    __slots__ = (*_fields, "_patterns", "_members", "_pattern_of", "_nerve", "_tables")

    def __init__(self, space: CellComplex, sets: list, _groups: dict | None = None):
        self.space, self.sets = space, sets
        self.__post_init__(_groups)     # the entry bench/layers.py traces

    def __post_init__(self, _groups=None):
        self.sets = [frozenset(s) for s in self.sets]
        if _groups is None:
            # cell -> indices of its sets, in space order
            held = dict.fromkeys(chain.from_iterable(self.space.cells.values()), ())
            for i, s in enumerate(self.sets):
                for cell in self.space.check_subcomplex(s):
                    held[cell] += (i,)
            _groups = {}
            for cell, pattern in held.items():
                _groups.setdefault(pattern, []).append(cell)
            missing = _groups.pop((), None)
            if missing:
                raise MalformedNerve("cover does not exhaust the space",
                                     witness=sorted(map(str, missing)))
        self._patterns = list(_groups)
        self._members = [frozenset(cells) for cells in _groups.values()]
        self._pattern_of = {cell: p for p, cells in enumerate(self._members) for cell in cells}
        self._nerve = {}      # q -> tuples(q)
        self._tables = {}     # d -> _cells(d); (q, d) -> _layout(q, d); ("faces", d)

    @property
    def size(self) -> int:
        return len(self.sets)

    def cochain_size(self, q: int) -> int:
        """The entries of a cochain of nerve degree q over all cells: C(|P|, q+1)
        for each cell of each pattern P, counted off the patterns alone."""
        return sum(comb(len(pattern), q + 1) * len(cells)
                   for pattern, cells in zip(self._patterns, self._members))

    def tuples(self, q: int) -> list:
        """Nonempty sorted tuples of nerve degree q (length q+1), in
        combinations order: the (q+1)-subsets of the patterns."""
        found = self._nerve.get(q)
        if found is None:
            found = self._nerve[q] = sorted(set().union(*(combinations(pattern, q + 1)
                                                          for pattern in self._patterns)))
        return found

    def model(self, t: tuple) -> CellComplex:
        """The intersection model of a nonempty nerve tuple in any order: the
        subcomplex on the cells its sets share, cached once, in the space's
        subcomplex cache."""
        key = tuple(sorted(t))
        if key and 0 <= key[0] and key[-1] < self.size and len(set(key)) == len(key):
            ids = self.sets[key[0]]
            for i in key[1:]:
                ids = ids & self.sets[i]
            if ids:
                return self.space.subcomplex(ids, name=f"U{key}")
        raise MalformedNerve(f"tuple {t} is not a nonempty nerve tuple", witness=t)

    def crossed(self, xs1: CellComplex) -> "CoverNerve":
        """The induced cover of X x S^1 by the U_i x S^1. A cell A x c lies in
        the sets that hold A, so the patterns and the nerve are this cover's."""
        base, fiber = xs1.product_of or (None, None)
        if base is not self.space or not _is_circle(fiber):
            raise ModelMismatch(f"{xs1.name} is not {self.space.name} x S^1")
        out = CoverNerve(xs1, [circle_product_ids(s) for s in self.sets],
                         dict(zip(self._patterns, map(circle_product_ids, self._members))))
        out._nerve = self._nerve
        return out

    def _cells(self, d: int) -> tuple:
        """Per pattern, its d-cells in space order; and per d-cell, its
        pattern and its position there."""
        found = self._tables.get(d)
        if found is None:
            own, at = [[] for _ in self._patterns], {}
            for cell in self.space.cell_ids(d):
                p = self._pattern_of[cell]
                at[cell] = (p, len(own[p]))
                own[p].append(cell)
            found = self._tables[d] = (own, at)
        return found

    def _zeros(self, q: int, d: int) -> list:
        """The streams of zero data of nerve degree q and cell degree d."""
        return [[0] * (comb(len(pattern), q + 1) * len(cells))
                for pattern, cells in zip(self._patterns, self._cells(d)[0])]

    def _layout(self, q: int, d: int) -> dict:
        """Each tuple of ``tuples(q)`` with the (pattern, stream index) of the
        d-cells of its model, in space order."""
        found = self._tables.get((q, d))
        if found is None:
            found, (own, at) = {t: [] for t in self.tuples(q)}, self._cells(d)
            for p, i in at.values():        # the d-cells in space order
                k = len(own[p])
                for r, t in enumerate(combinations(self._patterns[p], q + 1)):
                    found[t].append((p, r * k + i))
            self._tables[(q, d)] = found
        return found

    def _tuple_major(self, streams: list, q: int, d: int) -> dict:
        """The tuple-keyed view of streams: each tuple's cochain on its model."""
        return {t: [streams[p][x] for p, x in at] for t, at in self._layout(q, d).items()}

    def _faces(self, d: int) -> list:
        """Per pattern P, the incidences of its d-cells grouped by the
        pattern P' of the face, which contains P: (P', the positions of the
        indices of P in P', [(i, j, coefficient)]) for the i-th d-cell of P
        and the j-th (d-1)-cell of P'."""
        found = self._tables.get(("faces", d))
        if found is None:
            face_at = list(self._cells(d - 1)[1].values())     # (pattern, position) by index
            found, patterns = [{} for _ in self._patterns], self._patterns
            for (p, i), row in zip(self._cells(d)[1].values(), self.space.rows.get(d, ())):
                for f, x in row.items():
                    pf, j = face_at[f]
                    found[p].setdefault(pf, []).append((i, j, x))
            for p, blocks in enumerate(found):
                found[p] = [(pf, tuple(map(patterns[pf].index, patterns[p])), entries)
                            for pf, entries in blocks.items()]
            self._tables[("faces", d)] = found
        return found


# ---------------------------------------------------------------------------
# bigraded cochain bookkeeping: data of nerve degree q and cell degree d is
# one stream per pattern, and every operator keeps full support

def _add(a: list, b: list, op=add) -> list:
    """a + b, or a - b for ``op`` sub, for two data of the same (q, d)."""
    return [list(map(op, x, y)) for x, y in zip(a, b)]


# Bound on each plan cache. A 12-set cover's largest plan, (12, 5, 1), holds
# 5544 indices; a dualize run over covers of 2-12 sets builds 59 plans.
_PLANS = 256


def _gather(at: array):
    """A stream's entries at the indices ``at``, as a tuple, in one C call."""
    return itemgetter(*at) if len(at) > 1 else lambda s: tuple(map(s.__getitem__, at))


@lru_cache(maxsize=_PLANS)
def _plan(m: int, q: int, k: int, contract: bool) -> tuple:
    """Index gathers for one pattern P of m = |P| indices with k cells of the
    degree at hand, on its streams.

    The nerve coboundary (``contract`` false) reads a stream over q-subsets:
    face a gives entry j of the i-th (q+1)-subset t from entry j of t minus
    its a-th vertex, and the faces alternate in sign. The row contraction
    (``contract`` true) reads a stream over (q+1)-subsets: the i-th q-subset
    s gets (0,) + s, or the k zeros appended after the stream when s holds
    vertex 0."""
    low = combinations(range(m), q + 1 if contract else q)
    rank = {s: r * k for r, s in enumerate(low)}
    if contract:
        zeros, out = len(rank) * k, array("I")
        for s in combinations(range(m), q):
            base = zeros if s[0] == 0 else rank[(0,) + s]
            out.extend(range(base, base + k))
        return (_gather(out),)
    faces = tuple(array("I") for _ in range(q + 1))
    for t in combinations(range(m), q + 1):
        for a, face in enumerate(faces):
            base = rank[t[:a] + t[a + 1:]]
            face.extend(range(base, base + k))
    return tuple(map(_gather, faces))


@lru_cache(maxsize=_PLANS)
def _ranks(m: int, within: tuple, q: int) -> array:
    """The ranks among the (q+1)-subsets of range(m), in combinations order,
    of the (q+1)-subsets of ``within`` (increasing, below m) in that order."""
    last = comb(m, q + 1) - 1       # combinatorial number system, counted from the end
    return array("I", [last - sum(comb(m - 1 - x, q + 1 - i) for i, x in enumerate(s))
                       for s in combinations(within, q + 1)])


def _apply(plan: tuple, stream: list):
    """The alternating sum of the plan's gathers from ``stream``, lazily."""
    acc = plan[0](stream)
    for a in range(1, len(plan)):
        acc = map(sub if a % 2 else add, acc, plan[a](stream))
    return acc


def _cell_half(cover: CoverNerve, data: list, p: int, q: int, d: int) -> list | None:
    """(-1)^q delta_cell of data of nerve degree q and cell degree d - 1 on
    the stream of pattern p in cell degree d, or None if no d-cell of p has
    a face. On a subset S of P, a cell of P reads each face's pattern
    stream at the rank of S among that pattern's subsets."""
    blocks = cover._faces(d)[p]
    if not blocks:
        return None
    k, m = len(cover._cells(d)[0][p]), len(cover._patterns[p])
    out = [0] * (comb(m, q + 1) * k)
    for pf, within, entries in blocks:
        src, kf, mf = data[pf], len(cover._cells(d - 1)[0][pf]), len(cover._patterns[pf])
        if not any(src):
            continue
        ranks = range(comb(m, q + 1)) if mf == m else _ranks(mf, within, q)
        for i, j, x in entries:
            x *= -1 if q % 2 else 1
            out[i::k] = map(add, out[i::k], [x * src[r * kf + j] for r in ranks])
    return out


def total_coboundary(cover: CoverNerve, comps: dict, degree: int) -> dict:
    """The total differential D = delta_nerve + (-1)^q delta_cell of data
    ``comps[q]`` of cell degree (degree - q), for consecutive nerve degrees
    q, each given as its streams. Returns every component of D as streams:
    ``out[q]`` has cell degree (degree + 1 - q), for q from the lowest input
    degree to the highest plus one."""
    qs, out = sorted(comps), {}
    for q in range(qs[0], qs[-1] + 2):
        d, cell, nerve = degree + 1 - q, comps.get(q), comps.get(q - 1)
        slot = out.setdefault(q, [])
        for p, (pattern, cells) in enumerate(zip(cover._patterns, cover._cells(d)[0])):
            m, k = len(pattern), len(cells)
            n = comb(m, q + 1) * k
            acc = (None if nerve is None or not n or not any(nerve[p])
                   else _apply(_plan(m, q, k, False), nerve[p]))
            half = None if cell is None or not n else _cell_half(cover, cell, p, q, d)
            if half is None:
                slot.append([0] * n if acc is None else list(acc))
            else:
                slot.append(half if acc is None else list(map(add, acc, half)))
    return out


def _contract(cover: CoverNerve, data: list, q: int, d: int) -> list:
    """Row contraction h with the least-index choice function:
    (h x)_S(cell) = x_{(c,) + S}(cell) for c the first index of the cell's
    pattern, and 0 where c is in S; (c,) + S is sorted, as S lies in the
    pattern. Requires delta_nerve(data) = 0."""
    out = cover._zeros(q - 1, d)
    for p, (pattern, cells, high) in enumerate(zip(cover._patterns, cover._cells(d)[0], data)):
        if any(high):   # else all zero, S is the whole pattern, or no cell has it
            k = len(cells)
            out[p] = list(_apply(_plan(len(pattern), q, k, True), high + [0] * k))
    return out


def total_class(cover: CoverNerve, components: dict, total_degree: int) -> CohClass:
    """Characteristic class of a total cocycle with components
    ``components[q]`` = the streams of degree (total_degree - q) data, for
    q = 1 .. total_degree.

    Runs the staircase down the double complex and returns the glued class
    in H^total_degree of the covered space.
    """
    comps = dict(components)
    comps[0] = cover._zeros(0, total_degree)
    for q in range(total_degree, 0, -1):
        if not any(map(any, comps[q])):
            continue
        w = _contract(cover, comps[q], q, total_degree - q)
        # subtract D(w): kills level q, moves the residue one nerve degree down
        dw = total_coboundary(cover, {q - 1: w}, total_degree - 1)
        if dw[q] != comps[q]:
            raise InvalidGerbe(f"contraction failed at nerve degree {q}; "
                               "data was not a total cocycle")
        comps[q - 1] = _add(comps[q - 1], dw[q - 1], sub)
    # glue the delta_nerve-closed residue over single indices: each cell reads its
    # least index, whose entries lead its pattern's stream
    at = cover._cells(total_degree)[1]
    glued = [comps[0][p][i] for p, i in map(at.__getitem__, cover.space.cell_ids(total_degree))]
    # sign convention: the two-patch wrap of a class pushed through the
    # connecting map of the pair reproduces that class on the nose
    return CohClass(cochain_space(cover.space, total_degree), tuple(glued))


# ---------------------------------------------------------------------------
# gerbe data

class GerbeCondition(NamedTuple):
    name: str
    where: tuple
    ok: bool
    witness: object = None
    __hash__ = None


class GerbeReport(_Record):
    """The slots of D(data) on ``cover``, each (name, its nerve degree q, the witness cell
    of each failing tuple), read as one condition per tuple of ``cover.tuples(q)``, enumerated
    when first read. The check sets ``characteristic_class`` once every slot passes."""

    _fields = ("slots",)

    def __init__(self, slots: list, cover=None):
        self.slots, self.characteristic_class, self.cover = slots, None, cover

    @cached_property
    def conditions(self) -> list:
        return [GerbeCondition(name, t, t not in bad, bad.get(t))
                for name, q, bad in self.slots for t in self.cover.tuples(q)]

    @property
    def passed(self) -> bool:
        return not any(bad for _, _, bad in self.slots)

    def failures(self) -> list:
        return [c for c in self.conditions if not c.ok]

    def to_json(self) -> dict:
        out = {"passed": self.passed,
               "conditions": [{"name": c.name, "tuple": list(c.where), "ok": c.ok,
                               "witness": None if c.witness is None else str(c.witness)}
                              for c in self.conditions]}
        if self.characteristic_class is not None:
            out["class"] = list(self.characteristic_class.reduced())
        return out


class _Layer(NamedTuple):
    label: str      # name in reports and JSON
    attr: str       # attribute of the tuple-keyed view
    q: int          # nerve degree: data lives on (q+1)-fold intersections
    d: int          # cell degree of each cochain


def _view(i: int) -> property:
    """The i-th layer as a dict from each sorted nerve tuple to its cochain."""
    return property(lambda g: g.cover._tuple_major(g._streams[i], g.layers[i].q, g.layers[i].d))


class _Gerbe:
    """Locally trivialized gerbe data, the streams of each row of ``layers``
    (ordered by nerve degree 1, 2, ...). Each type's ``__post_init__``
    validates outside input, one tuple-keyed dict per layer, stored once per
    sorted tuple (odd reorderings flip the sign); the operators build their
    results through ``_trusted``."""

    layers: tuple = ()
    _report = None      # the GerbeReport of the first check: no operator writes into _streams

    def __init__(self, cover: CoverNerve, *data: dict, **named: dict):
        self.cover = cover
        self.__post_init__(*data, **named)      # per type: the entry bench/layers.py traces

    @classmethod
    def _trusted(cls, cover: CoverNerve, streams: list) -> "_Gerbe":
        g = cls.__new__(cls)
        g.cover, g._streams = cover, streams
        return g


class TwoGerbe(_Gerbe):
    """Locally trivialized 2-gerbe: pair cocycles p (degree 2), triple
    sections theta (degree 1), 4-fold matching data mu (degree 0)."""

    layers = (_Layer("p", "p", 1, 2), _Layer("theta", "theta", 2, 1), _Layer("mu", "mu", 3, 0))
    p, theta, mu = map(_view, range(3))

    def __post_init__(self, p: dict | None = None, theta: dict | None = None,
                      mu: dict | None = None):
        self._streams = list(map(_validated, repeat(self.cover), self.layers, (p, theta, mu)))


class ThreeGerbe(_Gerbe):
    """Locally trivialized 3-gerbe on a circle product: pair data A (degree
    3), triple trivializations gamma (degree 2), 4-fold sections eta (degree
    1), 5-fold data nu (degree 0)."""

    layers = (_Layer("A", "a", 1, 3), _Layer("gamma", "gamma", 2, 2),
              _Layer("eta", "eta", 3, 1), _Layer("nu", "nu", 4, 0))
    a, gamma, eta, nu = map(_view, range(4))

    def __post_init__(self, a: dict | None = None, gamma: dict | None = None,
                      eta: dict | None = None, nu: dict | None = None):
        self._streams = list(map(_validated, repeat(self.cover), self.layers, (a, gamma, eta, nu)))


def _validated(cover: CoverNerve, layer: _Layer, data: dict | None) -> list:
    """The streams of outside input: fold arbitrary-order keys into sorted
    storage with sign bookkeeping; reject inconsistent duplicates and
    wrong-length tuples and vectors."""
    layout, out, seen = cover._layout(layer.q, layer.d), cover._zeros(layer.q, layer.d), {}
    for key, vec in (data or {}).items():
        key = tuple(key)
        if len(key) != layer.q + 1:
            raise MalformedNerve(f"{layer.label} tuple {key} has length {len(key)}; "
                                 f"the {layer.label} layer expects {layer.q + 1}", witness=key)
        if len(set(key)) != len(key):
            raise MalformedNerve(f"tuple {key} has repeated indices")
        skey = tuple(sorted(key))
        if skey not in layout:
            raise MalformedNerve(f"tuple {key} is not a nonempty nerve tuple", witness=key)
        sign = _parity(key)
        stored = [sign * v for v in vec]
        if len(stored) != len(layout[skey]):
            raise MalformedNerve(f"cochain on {key} has wrong length", witness=key)
        if seen.setdefault(skey, stored) != stored:
            raise MalformedNerve(f"inconsistent reorderings supplied for {skey}",
                                 witness=skey)
        for (p, x), v in zip(layout[skey], stored):
            out[p][x] = v
    return out


# ---------------------------------------------------------------------------
# validity checks

def _check(g: _Gerbe) -> GerbeReport:
    """The report of ``g``, made by its first check and kept on it: the slots
    of D(data), the cell-cocycle slot of the lowest layer, the matching slot
    delta_n(lower) + (-1)^q delta_c(upper) at each upper layer's nerve degree
    q, and the nerve-cocycle slot of the top layer. A failing slot's witness
    is the id of its first nonzero cell."""
    if g._report is None:
        cover, n = g.cover, len(g.layers)
        comps = {layer.q: data for layer, data in zip(g.layers, g._streams)}
        labels = [layer.label for layer in g.layers]
        names = ([f"{labels[0]}_cocycle"]
                 + [f"{lower}_{upper}_matching" for lower, upper in zip(labels, labels[1:])]
                 + [f"{labels[-1]}_nerve_cocycle"])
        slots = []
        for name, (q, slot) in zip(names, total_coboundary(cover, comps, n).items()):
            bad, d = {}, n + 1 - q
            for t, vec in cover._tuple_major(slot, q, d).items() if any(map(any, slot)) else ():
                if any(vec):
                    bad[t] = cover.model(t).cell_ids(d)[next(i for i, v in enumerate(vec) if v)]
            slots.append((name, q, bad))
        g._report = GerbeReport(slots, cover=cover)
    return g._report


def _classified(g: _Gerbe) -> GerbeReport:
    """``_check(g)``, with the class the staircase adds when first asked for, if all pass."""
    report = _check(g)
    if report.passed and report.characteristic_class is None:
        report.characteristic_class = total_class(
            g.cover, {layer.q: data for layer, data in zip(g.layers, g._streams)}, len(g.layers))
    return report


def _valid(report: GerbeReport) -> GerbeReport:
    """``report``, or InvalidGerbe naming its first failing condition."""
    if not report.passed:
        f = report.failures()[0]
        raise InvalidGerbe(f"gerbe fails validity: {f.name} at {f.where}")
    return report


def check_two_gerbe(g: TwoGerbe) -> GerbeReport:
    """Pair antisymmetry is structural (canonical sorted storage); the
    report verifies the cocycle, triple-trivialization (delta_n p = -delta_c
    theta up to the total-complex sign), section-coboundary, and top nerve
    coherence conditions, then computes the characteristic class in H^3."""
    return _classified(g)


def check_three_gerbe(g: ThreeGerbe) -> GerbeReport:
    """The same slots for A, gamma, eta and nu; the class lies in H^4."""
    return _classified(g)


def characteristic_class_two_gerbe(g: TwoGerbe) -> CohClass:
    return _valid(check_two_gerbe(g)).characteristic_class


# ---------------------------------------------------------------------------
# dualization (the constructive map of the main theorem)

def tdualize_two_gerbe(g: TwoGerbe, xs1: CellComplex | None = None) -> ThreeGerbe:
    """Cross every layer with the circle generator: pairs p x z become the
    degree-3 pair data, triple sections theta x z the trivializing line
    bundles, 4-fold data mu x z the sections eta; nu = 0. The output passes
    the 3-gerbe checks and its class is (class of g) x z."""
    _valid(_check(g))
    dual = g.cover.crossed(xs1 or product_with_circle(g.cover.space))
    e, top, out = circle().cell_ids(1)[0], ThreeGerbe.layers[-1], []
    for layer, data in zip(g.layers, g._streams):
        (wide, at), crossed = dual._cells(layer.d + 1), dual._zeros(layer.q, layer.d + 1)
        for p, cells in enumerate(g.cover._cells(layer.d)[0]):
            for i, cell in enumerate(cells):    # c(A) on A x e in every subset, else 0
                crossed[p][at[(cell, e)][1]::len(wide[p])] = data[p][i::len(cells)]
        out.append(crossed)
    return ThreeGerbe._trusted(dual, out + [dual._zeros(top.q, top.d)])


# ---------------------------------------------------------------------------
# construction helpers

def two_gerbe_from_class(cover: CoverNerve, cocycle,
                         scramble_seed: int | None = None) -> TwoGerbe:
    """Realize a degree-3 cocycle on the covered space as a 2-gerbe.

    Requires each patch to kill the restricted class (solvable t_i with
    delta t_i = s|U_i); pair data is the patch discrepancy t_i - t_j on
    U_ij. A seeded gauge scramble then produces generic-looking theta and mu
    data without changing the class.
    """
    ids = cover.space.cell_ids(3)
    if len(cocycle) != len(ids):
        raise ModelMismatch(f"cocycle has {len(cocycle)} entries; {cover.space.name} "
                            f"has {len(ids)} 3-cells")
    cocycle = dict(zip(ids, cocycle))
    ts = []
    for i in range(cover.size):
        ui = cover.model((i,))
        t = solve(ui.coboundary(3), [cocycle[c] for c in ui.cell_ids(3)])
        if t is None:
            raise ModelMismatch(f"patch {i} does not trivialize the class "
                                "(H^3 of the patch obstructs)")
        ts.append(dict(zip(ui.cell_ids(2), t)))
    p = [[ts[i][c] - ts[j][c] for i, j in combinations(pattern, 2) for c in cells]
         for pattern, cells in zip(cover._patterns, cover._cells(2)[0])]
    g = TwoGerbe._trusted(cover, [p] + [cover._zeros(layer.q, layer.d)
                                        for layer in TwoGerbe.layers[1:]])
    return g if scramble_seed is None else gauge_perturb(g, scramble_seed)


def gauge_perturb(g: _Gerbe, seed: int, pair: tuple | None = None,
                  triple: tuple | None = None) -> _Gerbe:
    """Gauge transformation by a random total-complex coboundary D(x).

    x has one layer at (q, d - 1) per layer (q, d) of ``g`` except the top
    one, so layer q gains delta_n x_{q-1} + (-1)^q delta_c x_q. Entries are
    drawn per cell, tuple by tuple, from nerve degree 1 up. ``pair`` and
    ``triple`` restrict the support to a single datum's gauge freedom (all
    other tuples get zero): perturbing a pair cocycle by a cell coboundary
    drags the induced rephasing through the sections, exactly as changing a
    line bundle representative does. Each must be a nerve tuple of its
    degree, in any order; one whose model has no cells of the gauge degree
    leaves ``g`` as it is.
    """
    # choice makes randint's one _randbelow call per entry: the same stream
    draw, entries = random.Random(seed).choice, range(-_GAUGE_BOUND, _GAUGE_BOUND + 1)
    cover, support, x = g.cover, {1: pair, 2: triple}, {}
    localized = pair is not None or triple is not None
    for layer in g.layers[:-1]:
        q, d, chosen = layer.q, layer.d - 1, support.get(layer.q)
        layout, x[q] = cover._layout(q, d), cover._zeros(q, d)
        key = None if chosen is None else tuple(sorted(chosen))
        if key is not None and key not in layout:
            raise MalformedNerve(f"tuple {chosen} is not a nonempty nerve tuple of degree {q}",
                                 witness=chosen)
        for at in layout.values() if not localized else [layout[key]] if key else []:
            for p, i in at:
                x[q][p][i] = draw(entries)
    dx = total_coboundary(cover, x, len(g.layers) - 1)
    return g._trusted(cover, [_add(data, dx[layer.q])
                              for layer, data in zip(g.layers, g._streams)])


def _two_patch_gerbe(cover: CoverNerve, values: dict) -> TwoGerbe:
    """The 2-gerbe whose one datum is the 2-cochain ``values`` (cell -> value) on U_01."""
    return TwoGerbe(cover, p={(0, 1): [values.get(c, 0) for c in cover.model((0, 1)).cell_ids(2)]})


def monopole_two_gerbe(n: int):
    """The standard two-patch gerbe on the two-disc 3-sphere with clutching
    class n on the equatorial 2-sphere; its class is n times the generator."""
    return _two_patch_gerbe(kk_gerbe_models().cover(), {"f2": n})


# ---------------------------------------------------------------------------
# from semi-free data to gerbes

class GerbeModels(NamedTuple):
    """Compact models tying a semi-free classification datum to a gerbe.

    ``b`` models the base B with the fixed locus and a compact complement
    model; ``bplus`` is the compactification, covered by the neighborhood
    patch and the complement patch.
    """

    b: CellComplex
    f_ids: frozenset
    complement_ids: frozenset
    bplus: CellComplex
    bplus_minus_f_ids: frozenset
    patch_neighborhood: frozenset
    patch_complement: frozenset

    def complement_model(self) -> CellComplex:
        return self.b.subcomplex(self.complement_ids)

    def cover(self) -> CoverNerve:
        return CoverNerve(self.bplus, [self.patch_neighborhood, self.patch_complement])


def kk_gerbe_models() -> GerbeModels:
    """The single-monopole family: B = cone on S^2 (= R^3), F its vertex,
    compactification the two-disc 3-sphere."""
    return GerbeModels(
        b=cone_on_s2(),
        f_ids=frozenset({"v"}),
        complement_ids=frozenset({"u", "f2"}),
        bplus=s3_two_disc(),
        bplus_minus_f_ids=frozenset({"u", "f2", "c3out"}),
        patch_neighborhood=frozenset({"v", "u", "a", "f2", "c3"}),
        patch_complement=frozenset({"u", "f2", "c3out"}),
    )


def trivial_bundle_gerbe_models(rank: int) -> GerbeModels:
    """F = S^2 with trivial rank-k normal bundle: B = S^2 x D^k, complement
    model its boundary sphere bundle. B is closed, so it is its own
    compactification. Codimension k > 3 kills the pushed class."""
    base = sphere(2)
    total, sphere_ids, f_ids = trivial_disc_bundle(base, rank)
    return GerbeModels(
        b=total,
        f_ids=f_ids,
        complement_ids=sphere_ids,
        bplus=total,
        bplus_minus_f_ids=sphere_ids,
        patch_neighborhood=frozenset(total.all_ids()),
        patch_complement=sphere_ids,
    )


def semifree_class_to_two_gerbe(lam: CohClass, models: GerbeModels):
    """Push lambda in H^2(B-F) through the connecting map, excision, and the
    inclusion-induced map to H^3(B+), and wrap it as a two-patch gerbe.

    Returns (gerbe, pushed class in H^3(B+)); the gerbe's characteristic
    class equals the pushed class.
    """
    comp_model = models.complement_model()
    if lam.space is not cochain_space(comp_model, 2):
        raise ModelMismatch("lambda must live on the complement model's H^2")
    rel_cls = connecting_hom(models.b, models.complement_ids, 2).apply(lam)
    exc = excision_hom(models.bplus, models.bplus_minus_f_ids,
                       models.b, models.complement_ids, 3)
    rel_plus = exc.preimage(rel_cls)
    if rel_plus is None:
        raise ModelMismatch("excision preimage failed; models are inconsistent")
    pushed = relative_inclusion_hom(models.bplus, models.bplus_minus_f_ids, 3).apply(rel_plus)

    return _two_patch_gerbe(models.cover(), dict(zip(comp_model.cell_ids(2), lam.vector))), pushed
