"""Cech cocycle algebra for gerbes on finite covers, one table per degree.

A cover assigns to each index a subcomplex of a fixed cell model, so the
nerve is downward closed by construction (hand-built nerve flags can also
be validated, and violations are reported with a witness tuple). The nerve
is one table: each degree is enumerated once, on first use, and every
nonempty sorted tuple is stored with its intersection model. The cover also
records each cell's pattern, the indices whose sets hold it. The nerve
tuples whose intersection holds a cell are exactly the subsets of its
pattern, so the nerve half of every operator below acts, pattern by
pattern, on a full simplex: its data is regrouped into one stream per
pattern, gathered through an index plan that depends only on the pattern's
size, the degree and the pattern's cell count (so plans are shared across
covers, in one bounded cache), and read back tuple by tuple.

A gerbe type declares its data once, as a table of layers
``(label, attribute, nerve degree q, cell degree d)``. Each layer stores,
for every nonempty sorted (q+1)-tuple (full support: a tuple is never
missing), an integer cochain of degree d on the intersection model, one
Bockstein degree up from its circle-valued sheaf degree, and q + d is the
same for every layer:

* ``TwoGerbe``: pair cocycles p (1, 2), triple sections theta (2, 1) and
  four-fold matching data mu (3, 0);
* ``ThreeGerbe``: pair data A (1, 3), triple trivializations gamma (2, 2),
  four-fold sections eta (3, 1) and five-fold data nu (4, 0).

Everything else is written once over that table, through the total
differential D = delta_nerve + (-1)^q delta_cell of the Cech/cell double
complex. The validity conditions are the components of D(data), which is
exactly the tensor-triviality and coboundary bookkeeping of the defining
data: the cell-cocycle condition on the lowest layer, one matching slot
between consecutive layers, and the nerve-cocycle condition on the top
layer. A gauge transformation adds D(x) for x one degree lower. The
characteristic class lives in degree = number of layers (H^3 for
2-gerbes, H^4 for 3-gerbes on the circle product) and is computed by the
explicit staircase through the double complex, using the row contraction
given by a least-index choice function (the first index of each cell's
pattern); the rows are exact because every cell's index simplex is a full
simplex. Dualization crosses every layer with the circle generator
(q, d) -> (q, d + 1), and the new top layer is zero; since the cross
product commutes with both differentials and with the staircase
contraction on the product cover, the dual's class is exactly the cross
product of the input's class.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, repeat
from math import comb
from operator import add, sub
from typing import ClassVar, NamedTuple

from .complexes import (CellComplex, circle_product_ids, cone_on_s2, product_with_circle,
                        s3_two_disc, sphere, trivial_disc_bundle)
from .cohomology import (CohClass, cochain_space, connecting_hom, cross_with_z_vector,
                         excision_hom, relative_inclusion_hom)
from .intlin import solve


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
    inv = sum(1 for a in range(len(t)) for b in range(a + 1, len(t)) if t[a] > t[b])
    return -1 if inv % 2 else 1


@dataclass
class CoverNerve:
    """Nerve of a subcomplex cover, with intersection models.

    ``sets[i]`` is the cell-id set of U_i. Each nerve degree is enumerated
    once, on first use: the nonempty sorted tuples of that degree go into
    one table together with their intersection models. The pattern of a cell
    is the sorted tuple of the indices whose sets hold it: the cover's
    distinct patterns are ``_patterns``, and ``_pattern_of[cell]`` is the
    position of the cell's own among them. All of it is freed with the cover.
    """

    space: CellComplex
    sets: list

    def __post_init__(self):
        self.sets = [frozenset(s) for s in self.sets]
        groups = {(): self.space.all_ids()}      # pattern -> its cells
        for i, s in enumerate(self.sets):
            self.space.check_subcomplex(s)
            split = {}
            for pattern, cells in groups.items():
                inside = cells & s
                if inside:
                    split[pattern + (i,)] = inside
                if len(inside) < len(cells):
                    split[pattern] = cells - inside
            groups = split
        missing = groups.pop((), None)
        if missing:
            raise MalformedNerve("cover does not exhaust the space",
                                 witness=sorted(map(str, missing)))
        self._patterns = list(groups)
        self._pattern_of = {}
        for p, cells in enumerate(groups.values()):
            self._pattern_of.update(dict.fromkeys(cells, p))
        self._tuples = {}     # nerve degree -> its nonempty sorted tuples
        self._models = {}     # nonempty sorted tuple -> intersection model
        self._cells = {}      # (q, d) -> _cell_patterns(q, d)

    @property
    def size(self) -> int:
        return len(self.sets)

    def intersection_ids(self, t: tuple) -> frozenset:
        out = self.sets[t[0]]
        for i in t[1:]:
            out = out & self.sets[i]
        return out

    def tuples(self, q: int) -> list:
        """Nonempty sorted tuples of nerve degree q (length q+1)."""
        if q not in self._tuples:
            found, models = [], {}      # the few distinct intersections, each named once
            for t in combinations(range(self.size), q + 1):
                ids = self.intersection_ids(t)
                if ids:
                    model = models.get(ids)
                    if model is None:
                        model = models[ids] = self.space.subcomplex(ids, name=f"U{t}")
                    self._models[t] = model
                    found.append(t)
            self._tuples[q] = found
        return self._tuples[q]

    def _cell_patterns(self, q: int, d: int) -> list:
        """For each tuple of ``tuples(q)``, the patterns of the degree-d cells
        of its model in order (one tuple of patterns per model)."""
        found = self._cells.get((q, d))
        if found is None:
            found, shared = [], {}
            for t in self.tuples(q):
                model = self._models[t]
                patterns = shared.get(id(model))
                if patterns is None:
                    patterns = shared[id(model)] = tuple(map(self._pattern_of.__getitem__,
                                                             model.cell_ids(d)))
                found.append(patterns)
            self._cells[(q, d)] = found
        return found

    def model(self, t: tuple) -> CellComplex:
        """The intersection model of a nonempty nerve tuple in any order."""
        found = self._models.get(t)
        if found is not None:
            return found
        key = tuple(sorted(t))
        if key and len(key) - 1 not in self._tuples:
            self.tuples(len(key) - 1)
        if key not in self._models:
            raise MalformedNerve(f"tuple {t} is not a nonempty nerve tuple", witness=t)
        return self._models[key]

    def crossed(self, xs1: CellComplex) -> "CoverNerve":
        """The induced cover of X x S^1 by the U_i x S^1."""
        return CoverNerve(xs1, [circle_product_ids(s) for s in self.sets])


def validate_nerve_flags(flags: dict) -> tuple | None:
    """Downward closure check for hand-built nerve data; returns a witness
    tuple on violation (a nonempty tuple with an empty subtuple), else None."""
    nonempty = {tuple(sorted(t)) for t, flag in flags.items() if flag}
    for t in nonempty:
        for k in range(1, len(t)):
            for sub in combinations(t, k):
                if sub not in nonempty:
                    return t
    return None


# ---------------------------------------------------------------------------
# bigraded cochain bookkeeping: data of nerve degree q holds one vector for
# every tuple of cover.tuples(q), and every operator keeps that full support

def _add(a: dict, b: dict, k: int = 1) -> dict:
    """a + k*b for two full-support data of the same (q, d)."""
    return {t: [x + k * y for x, y in zip(vec, b[t])] for t, vec in a.items()}


# Bound on the plans kept. A 12-set cover's largest plan, (12, 5, 1), holds
# 5544 indices; a dualize run over covers of 2-12 sets builds 59 plans.
_PLANS = 256


@lru_cache(maxsize=_PLANS)
def _plan(m: int, q: int, k: int, contract: bool) -> tuple:
    """Index arrays for one pattern P of m = |P| indices with k cells of the
    degree at hand. A stream lists P's data subset-major, over the subsets
    of P in combinations order (as cover.tuples meets them), the k cells in
    space order within each subset.

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
        return (out,)
    faces = tuple(array("I") for _ in range(q + 1))
    for t in combinations(range(m), q + 1):
        for a, face in enumerate(faces):
            base = rank[t[:a] + t[a + 1:]]
            face.extend(range(base, base + k))
    return faces


def _by_pattern(cover: CoverNerve, data: dict, q: int, d: int) -> list:
    """The streams of tuple-major data of nerve degree q and cell degree d,
    one list per pattern (empty where no cell of degree d has the pattern)."""
    streams = [[] for _ in cover._patterns]
    into = streams.__getitem__
    for t, patterns in zip(cover.tuples(q), cover._cell_patterns(q, d)):
        any(map(list.append, map(into, patterns), data[t]))     # append gives None: any reads all
    return streams


def _by_tuple(cover: CoverNerve, streams: list, q: int, d: int) -> dict:
    """Tuple-major data of nerve degree q and cell degree d read from one
    iterator per pattern: each model's cells draw from their patterns' in
    turn, which meets every stream in its own order."""
    take = streams.__getitem__
    return {t: list(map(next, map(take, patterns)))
            for t, patterns in zip(cover.tuples(q), cover._cell_patterns(q, d))}


def _apply(plan: tuple, stream: list):
    """The alternating sum of the plan's gathers from ``stream``, lazily."""
    take = stream.__getitem__
    acc = map(take, plan[0])
    for a in range(1, len(plan)):
        acc = map(sub if a % 2 else add, acc, map(take, plan[a]))
    return acc


def total_coboundary(cover: CoverNerve, comps: dict, degree: int) -> dict:
    """The total differential D = delta_nerve + (-1)^q delta_cell of data
    ``comps[q]`` of cell degree (degree - q), for consecutive nerve degrees
    q. Returns every component of D: ``out[q]`` has cell degree
    (degree + 1 - q), for q from the lowest input degree to the highest
    plus one, each slot in ``cover.tuples(q)`` order. The nerve half is one
    plan per cell pattern; the cell half is each model's coboundary."""
    qs, models, out = sorted(comps), cover._models, {}
    for q in range(qs[0], qs[-1] + 2):
        d, cell, nerve = degree + 1 - q, comps.get(q), comps.get(q - 1)
        tuples = cover.tuples(q)
        if nerve is None or not tuples:
            slot = out[q] = {t: [0] * models[t].n_cells(d) for t in tuples}
        else:
            # a pattern is read only if it has cells of degree d and > q indices
            streams = [None] * len(cover._patterns)
            for p, low in enumerate(_by_pattern(cover, nerve, q - 1, d)):
                m = len(cover._patterns[p])
                if low and m > q:
                    streams[p] = _apply(_plan(m, q, len(low) // comb(m, q), False), low)
            slot = out[q] = _by_tuple(cover, streams, q, d)
        if cell is not None:
            sign = sub if q % 2 else add
            for t, vec in slot.items():
                slot[t] = list(map(sign, vec, models[t].coboundary(d).mul_vec(cell[t])))
    return out


def _contract(cover: CoverNerve, data: dict, q: int, d: int) -> dict:
    """Row contraction h with the least-index choice function:
    (h x)_S(cell) = x_{(c,) + S}(cell) for c the first index of the cell's
    pattern, and 0 where c is in S; (c,) + S is sorted, as S lies in the
    pattern. Requires delta_nerve(data) = 0."""
    streams = [repeat(0)] * len(cover._patterns)
    for p, high in enumerate(_by_pattern(cover, data, q, d)):
        if high:        # else S is the whole pattern, or no cell has it: c is in S
            m = len(cover._patterns[p])
            k = len(high) // comb(m, q + 1)
            high += [0] * k
            streams[p] = _apply(_plan(m, q, k, True), high)
    return _by_tuple(cover, streams, q - 1, d)


def _glue(cover: CoverNerve, data: dict, d: int) -> list:
    """Invert the augmentation: a delta_nerve-closed family over single
    indices glues to a global cochain, each cell read on its least index,
    whose entries lead its pattern's stream."""
    streams = list(map(iter, _by_pattern(cover, data, 0, d)))
    return [next(streams[p]) for p in map(cover._pattern_of.__getitem__,
                                          cover.space.cell_ids(d))]


def total_class(cover: CoverNerve, components: dict, total_degree: int) -> CohClass:
    """Characteristic class of a total cocycle with components
    ``components[q]`` = tuple-indexed degree (total_degree - q) data, for
    q = 1 .. total_degree.

    Runs the staircase down the double complex and returns the glued class
    in H^total_degree of the covered space.
    """
    comps = dict(components)
    comps[0] = {t: [0] * cover.model(t).n_cells(total_degree) for t in cover.tuples(0)}
    for q in range(total_degree, 0, -1):
        if not any(any(vec) for vec in comps[q].values()):
            continue
        w = _contract(cover, comps[q], q, total_degree - q)
        # subtract D(w): kills level q, moves the residue one nerve degree down
        dw = total_coboundary(cover, {q - 1: w}, total_degree - 1)
        if dw[q] != comps[q]:
            raise InvalidGerbe(f"contraction failed at nerve degree {q}; "
                               "data was not a total cocycle")
        comps[q - 1] = _add(comps[q - 1], dw[q - 1], -1)
    glued = _glue(cover, comps[0], total_degree)
    space = cochain_space(cover.space, total_degree)
    # sign convention: the two-patch wrap of a class pushed through the
    # connecting map of the pair reproduces that class on the nose
    return CohClass(space, tuple(glued))


# ---------------------------------------------------------------------------
# gerbe data

@dataclass
class GerbeCondition:
    name: str
    where: tuple
    ok: bool
    witness: object = None


@dataclass
class GerbeReport:
    conditions: list
    characteristic_class: CohClass | None = None

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.conditions)

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
    attr: str       # field holding the tuple-indexed data
    q: int          # nerve degree: data lives on (q+1)-fold intersections
    d: int          # cell degree of each cochain


@dataclass
class _Gerbe:
    """Locally trivialized gerbe data, one dict per row of ``layers``
    (ordered by nerve degree 1, 2, ...). Data is stored once per sorted
    tuple; odd reorderings flip the sign."""

    cover: CoverNerve
    layers: ClassVar[tuple] = ()

    def _canonicalize_layers(self):
        for layer in self.layers:
            setattr(self, layer.attr, _canonicalize(self.cover, getattr(self, layer.attr), layer))

    def _data(self) -> list:
        return [(layer, getattr(self, layer.attr)) for layer in self.layers]

    def pair_class(self, i: int, j: int) -> CohClass:
        """The class of the pair datum on U_ij, sign-adjusted."""
        layer, data = self._data()[0]
        model = self.cover.model((i, j))     # rejects a repeated index
        vec = data[tuple(sorted((i, j)))]
        return CohClass(cochain_space(model, layer.d),
                        tuple(_parity((i, j)) * v for v in vec))

    def tensor(self, other):
        if self.cover is not other.cover and \
                (self.cover.space is not other.cover.space
                 or self.cover.sets != other.cover.sets):
            raise ModelMismatch("tensor requires a common cover")
        return type(self)(self.cover, *(_add(data, getattr(other, layer.attr))
                                        for layer, data in self._data()))


@dataclass
class TwoGerbe(_Gerbe):
    """Locally trivialized 2-gerbe: pair cocycles p (degree 2), triple
    sections theta (degree 1), 4-fold matching data mu (degree 0)."""

    layers: ClassVar[tuple] = (_Layer("p", "p", 1, 2), _Layer("theta", "theta", 2, 1),
                               _Layer("mu", "mu", 3, 0))
    p: dict = field(default_factory=dict)
    theta: dict = field(default_factory=dict)
    mu: dict = field(default_factory=dict)

    def __post_init__(self):
        self._canonicalize_layers()


@dataclass
class ThreeGerbe(_Gerbe):
    """Locally trivialized 3-gerbe on a circle product: pair data A (degree
    3), triple trivializations gamma (degree 2), 4-fold sections eta (degree
    1), 5-fold data nu (degree 0)."""

    layers: ClassVar[tuple] = (_Layer("A", "a", 1, 3), _Layer("gamma", "gamma", 2, 2),
                               _Layer("eta", "eta", 3, 1), _Layer("nu", "nu", 4, 0))
    a: dict = field(default_factory=dict)
    gamma: dict = field(default_factory=dict)
    eta: dict = field(default_factory=dict)
    nu: dict = field(default_factory=dict)

    def __post_init__(self):
        self._canonicalize_layers()


def _canonicalize(cover: CoverNerve, data: dict, layer: _Layer) -> dict:
    """Fold arbitrary-order keys into sorted storage with sign bookkeeping;
    reject inconsistent duplicates and wrong-length tuples and vectors."""
    out = {t: [0] * cover.model(t).n_cells(layer.d) for t in cover.tuples(layer.q)}
    seen = {}
    for key, vec in data.items():
        key = tuple(key)
        if len(key) != layer.q + 1:
            raise MalformedNerve(f"{layer.label} tuple {key} has length {len(key)}; "
                                 f"the {layer.label} layer expects {layer.q + 1}", witness=key)
        if len(set(key)) != len(key):
            raise MalformedNerve(f"tuple {key} has repeated indices")
        skey = tuple(sorted(key))
        sign = 1 if key == skey else _parity(key)
        if skey not in out:
            raise MalformedNerve(f"tuple {key} is not a nonempty nerve tuple",
                                 witness=key)
        stored = [sign * v for v in vec]
        if len(stored) != len(out[skey]):
            raise MalformedNerve(f"cochain on {key} has wrong length", witness=key)
        if skey in seen and seen[skey] != stored:
            raise MalformedNerve(f"inconsistent reorderings supplied for {skey}",
                                 witness=skey)
        seen[skey] = stored
        out[skey] = stored
    return out


# ---------------------------------------------------------------------------
# validity checks

def _check(g: _Gerbe) -> GerbeReport:
    """Verify the vanishing slots of the total differential D(data): the
    cell-cocycle slot of the lowest layer, the matching slot
    delta_n(lower) + (-1)^q delta_c(upper) at each upper layer's nerve degree
    q, and the nerve-cocycle slot of the top layer. A failing slot's witness
    is the id of its first nonzero cell. The class is computed if all pass."""
    comps = {layer.q: data for layer, data in g._data()}
    labels = [layer.label for layer in g.layers]
    names = ([f"{labels[0]}_cocycle"]
             + [f"{lower}_{upper}_matching" for lower, upper in zip(labels, labels[1:])]
             + [f"{labels[-1]}_nerve_cocycle"])
    n = len(g.layers)
    report = GerbeReport([])
    for name, (q, slot) in zip(names, total_coboundary(g.cover, comps, n).items()):
        for t, vec in slot.items():
            if any(vec):
                bad = next(i for i, v in enumerate(vec) if v)
                report.conditions.append(GerbeCondition(
                    name, t, False, g.cover.model(t).cell_ids(n + 1 - q)[bad]))
            else:
                report.conditions.append(GerbeCondition(name, t, True))
    if report.passed:
        report.characteristic_class = total_class(g.cover, comps, n)
    return report


def _class_or_raise(report: GerbeReport) -> CohClass:
    if not report.passed:
        f = report.failures()[0]
        raise InvalidGerbe(f"gerbe fails validity: {f.name} at {f.where}")
    return report.characteristic_class


def check_two_gerbe(g: TwoGerbe) -> GerbeReport:
    """Pair antisymmetry is structural (canonical sorted storage); the
    report verifies the cocycle, triple-trivialization (delta_n p = -delta_c
    theta up to the total-complex sign), section-coboundary, and top nerve
    coherence conditions, then computes the characteristic class in H^3."""
    return _check(g)


def check_three_gerbe(g: ThreeGerbe) -> GerbeReport:
    """The same slots for A, gamma, eta and nu; the class lies in H^4."""
    return _check(g)


def characteristic_class_two_gerbe(g: TwoGerbe) -> CohClass:
    return _class_or_raise(check_two_gerbe(g))


# ---------------------------------------------------------------------------
# dualization (the constructive map of the main theorem)

def tdualize_two_gerbe(g: TwoGerbe, xs1: CellComplex | None = None) -> ThreeGerbe:
    """Cross every layer with the circle generator: pairs p x z become the
    degree-3 pair data, triple sections theta x z the trivializing line
    bundles, 4-fold data mu x z the sections eta; nu = 0. The output passes
    the 3-gerbe checks and its class is (class of g) x z."""
    _class_or_raise(check_two_gerbe(g))
    xs1 = xs1 or product_with_circle(g.cover.space)
    dual_cover = g.cover.crossed(xs1)

    def crossed(data, d):
        return {t: cross_with_z_vector(g.cover.model(t), dual_cover.model(t), vec, d)
                for t, vec in data.items()}

    return ThreeGerbe(dual_cover, *(crossed(data, layer.d) for layer, data in g._data()))


# ---------------------------------------------------------------------------
# construction helpers

def two_gerbe_from_class(cover: CoverNerve, cocycle,
                         scramble_seed: int | None = None) -> TwoGerbe:
    """Realize a degree-3 cocycle on the covered space as a 2-gerbe.

    Requires each patch to kill the restricted class (solvable t_i with
    delta t_i = s|U_i); pair data is the patch discrepancy t_j - t_i. A
    seeded gauge scramble then produces generic-looking theta and mu data
    without changing the class.
    """
    cocycle = dict(zip(cover.space.cell_ids(3), cocycle))
    ts = []
    for i in range(cover.size):
        ui = cover.model((i,))
        t = solve(ui.coboundary(3), [cocycle[c] for c in ui.cell_ids(3)])
        if t is None:
            raise ModelMismatch(f"patch {i} does not trivialize the class "
                                "(H^3 of the patch obstructs)")
        ts.append(dict(zip(ui.cell_ids(2), t)))
    p = {(i, j): [ts[i][c] - ts[j][c] for c in cover.model((i, j)).cell_ids(2)]
         for (i, j) in cover.tuples(1)}
    g = TwoGerbe(cover, p=p)
    if scramble_seed is not None:
        g = gauge_perturb(g, scramble_seed)
    return g


def gauge_perturb(g: _Gerbe, seed: int, pair: tuple | None = None,
                  triple: tuple | None = None) -> _Gerbe:
    """Gauge transformation by a random total-complex coboundary D(x).

    x has one layer at (q, d - 1) per layer (q, d) of ``g`` except the top
    one, so layer q gains delta_n x_{q-1} + (-1)^q delta_c x_q. Entries are
    drawn per cell, tuple by tuple, from nerve degree 1 up. ``pair`` and
    ``triple`` restrict the support to a single datum's gauge freedom (all
    other tuples get zero): perturbing a pair cocycle by a cell coboundary
    drags the induced rephasing through the sections, exactly as changing a
    line bundle representative does.
    """
    rng = random.Random(seed)
    cover = g.cover
    support = {1: pair, 2: triple}
    localized = pair is not None or triple is not None

    def draw(t, q, d):
        n = cover.model(t).n_cells(d)
        chosen = support.get(q)
        if localized and (chosen is None or tuple(sorted(chosen)) != t):
            return [0] * n
        return [rng.randint(-_GAUGE_BOUND, _GAUGE_BOUND) for _ in range(n)]

    x = {layer.q: {t: draw(t, layer.q, layer.d - 1) for t in cover.tuples(layer.q)}
         for layer in g.layers[:-1]}
    dx = total_coboundary(cover, x, len(g.layers) - 1)
    return type(g)(cover, *(_add(data, dx[layer.q]) for layer, data in g._data()))


def monopole_two_gerbe(n: int):
    """The standard two-patch gerbe on the two-disc 3-sphere with clutching
    class n on the equatorial 2-sphere; its class is n times the generator."""
    cover = kk_gerbe_models().cover()
    u12 = cover.model((0, 1))
    vec = [0] * u12.n_cells(2)
    vec[u12.index(2, "f2")] = n
    return TwoGerbe(cover, p={(0, 1): vec})


# ---------------------------------------------------------------------------
# from semi-free data to gerbes

@dataclass
class GerbeModels:
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
    lam_space = cochain_space(comp_model, 2)
    if lam.space is not lam_space:
        raise ModelMismatch("lambda must live on the complement model's H^2")
    rel_cls = connecting_hom(models.b, models.complement_ids, 2).apply(lam)
    exc = excision_hom(models.bplus, models.bplus_minus_f_ids,
                       models.b, models.complement_ids, 3)
    rel_plus = exc.preimage(rel_cls)
    if rel_plus is None:
        raise ModelMismatch("excision preimage failed; models are inconsistent")
    pushed = relative_inclusion_hom(models.bplus, models.bplus_minus_f_ids, 3).apply(rel_plus)

    cover = models.cover()
    u12 = cover.model((0, 1))
    vec = [0] * u12.n_cells(2)
    for j, cell in enumerate(comp_model.cell_ids(2)):
        vec[u12.index(2, cell)] = lam.vector[j]
    gerbe = TwoGerbe(cover, p={(0, 1): vec})
    return gerbe, pushed
