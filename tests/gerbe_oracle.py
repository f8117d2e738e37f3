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
sign by counting inversions.
"""

import random

from tdual.cohomology import CohClass, cochain_space
from tdual.gerbes import _GAUGE_BOUND, InvalidGerbe, TwoGerbe


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
