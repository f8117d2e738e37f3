"""The hand-written 2-gerbe gauge transformation and the face-by-face
double-complex differentials, kept as the test oracle.

``gauge_perturb`` in ``tdual.gerbes`` adds the total coboundary D(x) of a
random cochain x read off the layer table. This module keeps the explicit
p/theta/mu formulas it replaced, with their own sparse cochain arithmetic
(a tuple missing from a dict is a zero cochain), so the two are compared
draw for draw. ``total_coboundary`` sums the per-face restrictions of
``nerve_coboundary`` and the transposed boundaries of ``cell_coboundary``
slot by slot, which is what ``tdual.gerbes.total_coboundary`` computes
through one plan per cell pattern. ``total_class`` runs the staircase with
the row contraction and the gluing written cell by cell: each cell's least
index is found by scanning the cover's sets, and each reordered tuple's
sign by counting inversions. ``layout`` is the sorted construction of
``CoverNerve._layout``: per pattern, the stream index of each cell on each
subset, tagged with its space index and sorted by it.

``TupleMajor`` keeps the tuple-major operators that the pattern-major
streams replaced: the nerve from intersecting every combination of sets,
layer data as dicts keyed by sorted tuple, canonicalized from any key
order, and each operator regrouping that data into one stream per cell
pattern and back around the same per-pattern plans. Its ``by_pattern`` and
``by_tuple`` convert between the two layouts for the differential tests.
"""

import random
from itertools import combinations, repeat
from math import comb

from tdual.cohomology import CohClass, cochain_space, cross_with_z_vector
from tdual.complexes import circle_product_ids
from tdual.gerbes import (_GAUGE_BOUND, CoverNerve, InvalidGerbe, MalformedNerve, TwoGerbe,
                          _apply, _plan)


def _restrict(vec, frm, to, d):
    return [vec[frm.index(d, c)] for c in to.cell_ids(d)]


def nerve_coboundary(cover, data, q, d):
    out = {}
    for t in cover.tuples(q + 1):
        model_t = cover.model(t)
        vec = [0] * model_t.n_cells(d)
        for a in range(len(t)):
            sub = t[:a] + t[a + 1:]
            comp = data.get(sub)
            if comp is None:
                continue
            restricted = _restrict(comp, cover.model(sub), model_t, d)
            vec = [v + (-1) ** a * r for v, r in zip(vec, restricted)]
        out[t] = vec
    return out


def cell_coboundary(cover, data, d):
    return {t: cover.model(t).bmat(d + 1).transpose().mul_vec(vec)
            for t, vec in data.items()}


def _plus(a, b, k=1):
    out = {t: list(vec) for t, vec in a.items()}
    for t, vec in b.items():
        base = out.get(t, [0] * len(vec))
        out[t] = [x + k * y for x, y in zip(base, vec)]
    return out


def total_coboundary(cover, comps, degree):
    """delta_nerve(comps[q - 1]) + (-1)^q delta_cell(comps[q]) in every nerve
    degree q from the lowest input degree to the highest plus one."""
    qs = sorted(comps)
    out = {}
    for q in range(qs[0], qs[-1] + 2):
        d = degree + 1 - q
        slot = {t: [0] * cover.model(t).n_cells(d) for t in cover.tuples(q)}
        if q in comps:
            slot = _plus(slot, cell_coboundary(cover, comps[q], d - 1), (-1) ** q)
        if q - 1 in comps:
            slot = _plus(slot, nerve_coboundary(cover, comps[q - 1], q - 1, d))
        out[q] = slot
    return out


def _parity(t):
    inversions = sum(a > b for i, a in enumerate(t) for b in t[i + 1:])
    return -1 if inversions % 2 else 1


def _least_index(cover, cell):
    return next(i for i, s in enumerate(cover.sets) if cell in s)


def _contract(cover, data, q, d):
    out = {}
    for s in cover.tuples(q - 1):
        vec = []
        for cell in cover.model(s).cell_ids(d):
            c = _least_index(cover, cell)
            if c in s:
                vec.append(0)
                continue
            key = tuple(sorted((c,) + s))
            vec.append(_parity((c,) + s) * data[key][cover.model(key).index(d, cell)])
        out[s] = vec
    return out


def total_class(cover, components, total_degree):
    """The staircase: contract each level, subtract D of the contraction,
    and glue the nerve-degree-0 residue on least indices."""
    comps = dict(components)
    comps[0] = {t: [0] * cover.model(t).n_cells(total_degree) for t in cover.tuples(0)}
    for q in range(total_degree, 0, -1):
        w = _contract(cover, comps[q], q, total_degree - q)
        dw = total_coboundary(cover, {q - 1: w}, total_degree - 1)
        if dw[q] != comps[q]:
            raise InvalidGerbe(f"contraction failed at nerve degree {q}")
        comps[q - 1] = _plus(comps[q - 1], dw[q - 1], -1)
    glued = []
    for cell in cover.space.cell_ids(total_degree):
        i = _least_index(cover, cell)
        glued.append(comps[0][(i,)][cover.model((i,)).index(total_degree, cell)])
    return CohClass(cochain_space(cover.space, total_degree), tuple(glued))


def layout(cover, q, d):
    """Each tuple of ``cover.tuples(q)`` with the (pattern, stream index) of
    the d-cells of its model, sorted by space index."""
    spots = {t: [] for t in cover.tuples(q)}     # (space index, pattern, stream index)
    for p, (pattern, cells) in enumerate(zip(cover._patterns, cover._cells(d)[0])):
        order = [cover.space.index(d, c) for c in cells]
        for r, t in enumerate(combinations(pattern, q + 1)):
            spots[t] += [(s, p, r * len(cells) + i) for i, s in enumerate(order)]
    return {t: [(p, x) for _, p, x in sorted(spot)] for t, spot in spots.items()}


def gauge_perturb(g: TwoGerbe, seed: int, pair=None, triple=None) -> TwoGerbe:
    """p - delta_c a, theta + delta_n a + delta_c b, mu + delta_n b for
    random a on pairs (degree 1) and b on triples (degree 0)."""
    rng = random.Random(seed)
    cover = g.cover
    localized = pair is not None or triple is not None
    a = {}
    if not localized or pair is not None:
        for t in cover.tuples(1):
            if pair is not None and tuple(sorted(pair)) != t:
                continue
            a[t] = [rng.randint(-_GAUGE_BOUND, _GAUGE_BOUND)
                    for _ in range(cover.model(t).n_cells(1))]
    b = {}
    if not localized or triple is not None:
        for t in cover.tuples(2):
            if triple is not None and tuple(sorted(triple)) != t:
                continue
            b[t] = [rng.randint(-_GAUGE_BOUND, _GAUGE_BOUND)
                    for _ in range(cover.model(t).n_cells(0))]
    new_p = _plus(g.p, cell_coboundary(cover, a, 1), -1)
    new_theta = _plus(_plus(g.theta, nerve_coboundary(cover, a, 1, 1)),
                      cell_coboundary(cover, b, 0))
    new_mu = _plus(g.mu, nerve_coboundary(cover, b, 2, 0))
    return TwoGerbe(cover, new_p, new_theta, new_mu)


# ---------------------------------------------------------------------------
# the tuple-major operators: layer data is a dict from each nonempty sorted
# tuple to its model's cochain, the nerve comes from intersecting every
# combination of sets, and each operator regroups the data into one stream
# per cell pattern, applies the per-pattern plans and reads it back

class TupleMajor:
    """The tuple-major operators on one cover, with its nerve and its cell
    patterns recomputed from the sets alone. Streams follow the order of
    ``cover._patterns``."""

    def __init__(self, cover):
        self.cover, self.space = cover, cover.space
        held = {c: tuple(i for i, s in enumerate(cover.sets) if c in s)
                for c in cover.space.all_ids()}
        self.patterns = list(cover._patterns)
        assert sorted(set(held.values())) == sorted(self.patterns)
        self.pattern_of = {c: self.patterns.index(pattern) for c, pattern in held.items()}
        self._tuples, self._models = {}, {}

    def tuples(self, q):
        if q not in self._tuples:
            found = []
            for t in combinations(range(len(self.cover.sets)), q + 1):
                ids = frozenset.intersection(*(self.cover.sets[i] for i in t))
                if ids:
                    self._models[t] = self.space.subcomplex(ids)
                    found.append(t)
            self._tuples[q] = found
        return self._tuples[q]

    def model(self, t):
        self.tuples(len(t) - 1)
        return self._models[t]

    def _cell_patterns(self, q, d):
        return [[self.pattern_of[c] for c in self.model(t).cell_ids(d)] for t in self.tuples(q)]

    def by_pattern(self, data, q, d):
        streams = [[] for _ in self.patterns]
        for t, patterns in zip(self.tuples(q), self._cell_patterns(q, d)):
            for p, v in zip(patterns, data[t]):
                streams[p].append(v)
        return streams

    def by_tuple(self, streams, q, d):
        its = [iter(s) for s in streams]
        return {t: [next(its[p]) for p in patterns]
                for t, patterns in zip(self.tuples(q), self._cell_patterns(q, d))}

    def zeros(self, q, d):
        return {t: [0] * self.model(t).n_cells(d) for t in self.tuples(q)}

    def canonicalize(self, data, layer):
        """Sorted full-support storage of tuple-keyed data in any key order."""
        out = self.zeros(layer.q, layer.d)
        seen = {}
        for key, vec in data.items():
            key = tuple(key)
            if len(key) != layer.q + 1:
                raise MalformedNerve(f"{layer.label} tuple {key} has length {len(key)}; "
                                     f"the {layer.label} layer expects {layer.q + 1}",
                                     witness=key)
            if len(set(key)) != len(key):
                raise MalformedNerve(f"tuple {key} has repeated indices")
            skey = tuple(sorted(key))
            if skey not in out:
                raise MalformedNerve(f"tuple {key} is not a nonempty nerve tuple", witness=key)
            stored = [_parity(key) * v for v in vec]
            if len(stored) != len(out[skey]):
                raise MalformedNerve(f"cochain on {key} has wrong length", witness=key)
            if skey in seen and seen[skey] != stored:
                raise MalformedNerve(f"inconsistent reorderings supplied for {skey}",
                                     witness=skey)
            seen[skey] = out[skey] = stored
        return out

    def total_coboundary(self, comps, degree):
        qs, out = sorted(comps), {}
        for q in range(qs[0], qs[-1] + 2):
            d, cell, nerve = degree + 1 - q, comps.get(q), comps.get(q - 1)
            if nerve is None or not self.tuples(q):
                slot = self.zeros(q, d)
            else:
                streams = []
                for p, low in enumerate(self.by_pattern(nerve, q - 1, d)):
                    m = len(self.patterns[p])
                    k = len(low) // comb(m, q) if low else 0
                    streams.append(list(_apply(_plan(m, q, k, False), low))
                                   if low and m > q else [])
                slot = self.by_tuple(streams, q, d)
            if cell is not None:
                for t, vec in slot.items():
                    delta = self.model(t).coboundary(d).mul_vec(cell[t])
                    slot[t] = [v + (-1) ** q * x for v, x in zip(vec, delta)]
            out[q] = slot
        return out

    def _contract(self, data, q, d):
        streams = []
        for p, high in enumerate(self.by_pattern(data, q, d)):
            m = len(self.patterns[p])
            if high:
                k = len(high) // comb(m, q + 1)
                streams.append(list(_apply(_plan(m, q, k, True), high + [0] * k)))
            else:
                streams.append(repeat(0))
        return self.by_tuple(streams, q - 1, d)

    def total_class(self, components, total_degree):
        comps = dict(components)
        comps[0] = self.zeros(0, total_degree)
        for q in range(total_degree, 0, -1):
            if not any(any(vec) for vec in comps[q].values()):
                continue
            w = self._contract(comps[q], q, total_degree - q)
            dw = self.total_coboundary({q - 1: w}, total_degree - 1)
            if dw[q] != comps[q]:
                raise InvalidGerbe(f"contraction failed at nerve degree {q}")
            comps[q - 1] = _plus(comps[q - 1], dw[q - 1], -1)
        streams = [iter(s) for s in self.by_pattern(comps[0], 0, total_degree)]
        glued = [next(streams[self.pattern_of[c]]) for c in self.space.cell_ids(total_degree)]
        return CohClass(cochain_space(self.space, total_degree), tuple(glued))

    def layers(self, g):
        """The canonical tuple-keyed data of each layer of ``g``."""
        return [self.canonicalize(getattr(g, layer.attr), layer) for layer in g.layers]

    def check(self, g):
        """(name, tuple, ok, witness) per condition, and the class or None."""
        n = len(g.layers)
        comps = {layer.q: data for layer, data in zip(g.layers, self.layers(g))}
        labels = [layer.label for layer in g.layers]
        names = ([f"{labels[0]}_cocycle"]
                 + [f"{lo}_{up}_matching" for lo, up in zip(labels, labels[1:])]
                 + [f"{labels[-1]}_nerve_cocycle"])
        rows = []
        for name, (q, slot) in zip(names, self.total_coboundary(comps, n).items()):
            for t, vec in slot.items():
                bad = next((i for i, v in enumerate(vec) if v), None)
                rows.append((name, t, bad is None,
                             None if bad is None else self.model(t).cell_ids(n + 1 - q)[bad]))
        ok = all(row[2] for row in rows)
        return rows, self.total_class(comps, n) if ok else None

    def gauge_perturb(self, g, seed, pair=None, triple=None):
        """The tuple-major data of g + D(x), x drawn tuple by tuple."""
        rng = random.Random(seed)
        support = {1: pair, 2: triple}
        localized = pair is not None or triple is not None

        def draw(t, q, d):
            n = self.model(t).n_cells(d)
            chosen = support.get(q)
            if localized and (chosen is None or tuple(sorted(chosen)) != t):
                return [0] * n
            return [rng.randint(-_GAUGE_BOUND, _GAUGE_BOUND) for _ in range(n)]

        x = {layer.q: {t: draw(t, layer.q, layer.d - 1) for t in self.tuples(layer.q)}
             for layer in g.layers[:-1]}
        dx = self.total_coboundary(x, len(g.layers) - 1)
        return [_plus(data, dx[layer.q]) for layer, data in zip(g.layers, self.layers(g))]

    def dualize(self, g, xs1):
        """The tuple-major layers of the dual: each crossed model by model on
        the cover of X x S^1 split from the crossed sets."""
        dual = TupleMajor(CoverNerve(xs1, [circle_product_ids(s) for s in self.cover.sets]))
        out = [{t: cross_with_z_vector(self.model(t), dual.model(t), vec, layer.d)
                for t, vec in data.items()}
               for layer, data in zip(g.layers, self.layers(g))]
        return out + [dual.zeros(4, 0)]
