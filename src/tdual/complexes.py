"""Finite cell complexes with integer incidences.

A complex stores ordered cell ids per degree and, as its one incidence
store, the rows of its coboundary matrices ``coboundary(k): C^{k-1} -> C^k``
(row j: the faces of the j-th k-cell by index, in index order; ``bmat(k)``
is the transpose). ``build_complex`` sorts incidences given by id into
rows; a product writes each row by index arithmetic on its factors' rows
(Koszul signs, ids that are pairs of factor ids), and a subcomplex
renumbers its parent's rows, which checks closure in the same pass.

The cache rule: each object derived from a complex (a subcomplex, a
product, a class space of ``tdual.cohomology``) is cached exactly once, in
the ``derived`` dict of one owner, so it is canonical while the owner lives
and is freed with it; and no complex that lives for the process holds one
that would otherwise be freed. Process-lived are the fixed builtins and the
cubes I^k, kept in one table, ``_process_lived``. A subcomplex or class
space is owned by its complex; a product by its first factor, unless that
factor is process-lived and the second is not, then by the second. A
gerbe of ``tdual.gerbes`` owns its validity report, the same way.

The builtin registry holds the spaces the toolkit's identities live on:
spheres, the cone on the 2-sphere (compact stand-in for R^3), the two-disc
3-sphere used by the monopole gluing, CP^2, lens spaces, and wedges of
2-spheres.
"""

from __future__ import annotations

import re
from itertools import product
from weakref import WeakValueDictionary

from . import BUILTIN_NAMES, MAX_CELLS  # noqa: F401  (BUILTIN_NAMES re-exported: the registry)
from .intlin import IMat, _Record


class NotASubcomplex(ValueError):
    pass


class MissingCell(KeyError):
    """An incidence names a missing cell: ``args`` is ``(cell,)``, ``str()`` a sentence."""

    def __init__(self, cell, message: str):
        super().__init__(cell)
        self.message = message

    def __str__(self) -> str:
        return self.message


class UnknownSpace(KeyError):
    """No builtin space has the name: ``args`` is ``(message,)``, ``str()`` the message."""

    def __str__(self) -> str:
        return self.args[0]


class CellComplex(_Record):
    """``cells``: degree -> ordered list of ids, in ascending degree order;
    ``rows``: degree -> the rows of ``coboundary(k)``, one {face index:
    coefficient} dict per k-cell in index order; ``product_of``: the (X, Y)
    of a product. ``derived`` caches what the module's cache rule gives it
    to own: subcomplexes by cell set, products by (id(Y), name) or ("x",
    id(X), name), class spaces by kind.

    A complex built directly trusts its rows: ``build_complex`` checks
    boundary squared zero where cell data enters, and products and
    subcomplexes of a checked complex satisfy it by construction."""

    _fields = ("name", "cells", "rows", "product_of")
    __slots__ = (*_fields, "derived", "_position", "_coboundary", "__weakref__")

    def __init__(self, name: str, cells: dict, rows: dict, product_of: tuple | None = None):
        self.name, self.cells, self.rows, self.product_of = name, cells, rows, product_of
        self.derived = {}
        self.__post_init__()        # the entry bench/layers.py traces

    def __post_init__(self):
        """Index every cell within its degree, and wrap each degree's rows,
        without copying them, as its coboundary matrix."""
        self.cells = {k: list(v) for k, v in sorted(self.cells.items()) if v}
        self._position = {c: i for v in self.cells.values() for i, c in enumerate(v)}
        if len(self._position) < sum(map(len, self.cells.values())):
            raise ValueError(f"cell ids of {self.name} are not distinct")
        self.rows = {k: self.rows[k] for k in self.cells}
        self._coboundary = {k: IMat.of(len(v), self.n_cells(k - 1), v)
                            for k, v in self.rows.items()}

    @property
    def top(self) -> int:
        return max(self.cells) if self.cells else 0

    def degrees(self):
        return range(self.top + 1)

    def n_cells(self, k: int) -> int:
        return len(self.cells.get(k, ()))

    def cell_ids(self, k: int) -> list:
        return self.cells.get(k, [])

    def all_ids(self) -> set:
        return set(self._position)

    def index(self, k: int, cell) -> int:
        """The index of the k-cell ``cell`` among the k-cells."""
        return self._position[cell]

    def coboundary(self, k: int) -> IMat:
        """delta: C^{k-1} -> C^k as an n_k x n_{k-1} matrix; row j holds the
        faces of the j-th k-cell."""
        if k in self._coboundary:
            return self._coboundary[k]
        return IMat(self.n_cells(k), self.n_cells(k - 1))

    def bmat(self, k: int) -> IMat:
        """The boundary C_k -> C_{k-1}, the transpose of ``coboundary(k)``."""
        return self.coboundary(k).transpose()

    def validate_square_zero(self):
        for k in range(2, self.top + 1):
            # the rows of cells with faces: a wedge of spheres has thousands without
            faced = [row for row in self.coboundary(k).nz if row]
            square = IMat.of(len(faced), self.n_cells(k - 1), faced) @ self.coboundary(k - 1)
            if not square.is_zero():
                raise ValueError(f"boundary squared nonzero at degree {k} in {self.name}")

    # -- subcomplexes --------------------------------------------------

    def check_subcomplex(self, ids) -> frozenset:
        ids = frozenset(ids)
        if ids in self.derived:     # a cell set was checked when its subcomplex was built
            return ids
        unknown = ids.difference(self._position)
        if unknown:
            raise NotASubcomplex(f"cells {sorted(map(str, unknown))} not in {self.name}")
        for k, v in self.cells.items():
            lower = self.cells.get(k - 1)
            for cell, row in zip(v, self.rows[k]):
                if row and cell in ids:
                    for i in row:
                        if lower[i] not in ids:
                            raise NotASubcomplex(
                                f"boundary of {cell} leaves the cell set at {lower[i]}")
        return ids

    def subcomplex(self, ids, name: str | None = None) -> "CellComplex":
        """Canonical subcomplex on the given cells; instances are cached per
        cell set so class spaces computed through different call sites agree.
        A cell set is validated, and the name taken, when it is first built:
        self's rows are renumbered to the cells kept, and a face left out fails."""
        ids = frozenset(ids)
        sub = self.derived.get(ids)
        if sub is None:
            kept = {k: [i for i, c in enumerate(v) if c in ids] for k, v in self.cells.items()}
            if sum(map(len, kept.values())) < len(ids):
                self.check_subcomplex(ids)          # raises, naming the cells not in self
            rows = {}
            for k, at in kept.items():
                new, cob = {i: j for j, i in enumerate(kept.get(k - 1, ()))}, self.rows[k]
                try:
                    rows[k] = [{new[f]: x for f, x in cob[i].items()} for i in at]
                except KeyError:                    # a face left out: the scan names the first
                    self.check_subcomplex(ids)
            sub = self.derived[ids] = CellComplex(name or f"{self.name}|sub", {
                k: [self.cells[k][i] for i in at] for k, at in kept.items()}, rows)
        return sub


def build_complex(name: str, cells: dict, incidences: dict | None = None) -> CellComplex:
    """Construct from per-degree id lists and sparse incidence data.

    ``incidences[k]`` maps (lower_id, upper_id) to the integer coefficient of
    lower_id in the boundary of upper_id. The face must be a (k-1)-cell and
    the upper cell a k-cell; otherwise MissingCell names the face, or else
    the cell, that is missing. A boundary whose square is nonzero raises
    ValueError naming the degree.
    """
    at = {k: {c: i for i, c in enumerate(v)} for k, v in cells.items()}
    rows = {k: [{} for _ in v] for k, v in cells.items()}
    for k, entries in (incidences or {}).items():
        found = []
        for (low, up), coeff in entries.items():
            for cell, degree, what in ((low, k - 1, "face"), (up, k, "cell")):
                if cell not in at.get(degree, ()):
                    raise MissingCell(cell, f"degree {k} incidence of {low!r} in {up!r}: "
                                            f"there is no {what} {cell!r} of degree {degree}")
            if coeff:
                found.append((at[k][up], at[k - 1][low], coeff))
        for i, j, coeff in sorted(found):       # each row in face index order
            rows[k][i][j] = coeff
    x = CellComplex(name, cells, rows)
    x.validate_square_zero()
    return x


# ---------------------------------------------------------------------------
# products

def product_complex(x: CellComplex, y: CellComplex, name: str | None = None) -> CellComplex:
    """Cellular product; cell ids are (x_id, y_id), boundaries carry the
    Koszul sign: d(a x b) = da x b + (-1)^|a| a x db. Canonical per factor
    pair by the cache rule: on ``x`` under ``(id(y), name)``, or on ``y`` under
    ``("x", id(x), name)`` when only ``x`` lives for the process; the product
    holds both factors through ``product_of``, so the ids stay unique."""
    if _process_lived.get(x.name) is x and _process_lived.get(y.name) is not y:
        owner, key = y, ("x", id(x), name)
    else:
        owner, key = x, (id(y), name)
    out = owner.derived.get(key)
    if out is None:
        out = owner.derived[key] = _product(x, y, name)
    return out


def _product(x: CellComplex, y: CellComplex, name: str | None) -> CellComplex:
    """X x Y built afresh, each row by index arithmetic on the factors' rows."""
    cells, rows, first = {}, {}, {}     # first[k, da]: index of the first k-cell with |a| = da
    for da, db in sorted(product(x.cells, y.cells), key=lambda d: (sum(d), d)):
        k, sign, n_b, n_face_b = da + db, (-1) ** da, y.n_cells(db), y.n_cells(db - 1)
        first[k, da], k_rows = len(cells.setdefault(k, [])), rows.setdefault(k, [])
        # the faces f x b (|f| = da - 1) come first, then a x g, each in index order
        at_fb, at_ag = first.get((k - 1, da - 1), 0), first.get((k - 1, da), 0)
        for i_a, (a, x_row) in enumerate(zip(x.cells[da], x.rows[da])):
            for i_b, (b, y_row) in enumerate(zip(y.cells[db], y.rows[db])):
                cells[k].append((a, b))
                row = {at_fb + f * n_b + i_b: c for f, c in x_row.items()} if x_row else {}
                if y_row:
                    row.update((at_ag + i_a * n_face_b + g, sign * c) for g, c in y_row.items())
                k_rows.append(row)
    return CellComplex(name or f"{x.name}x{y.name}", cells, rows, product_of=(x, y))


def product_with_circle(x: CellComplex) -> CellComplex:
    """X x S^1 with the one-vertex circle model; ids traceable to factors."""
    return product_complex(x, circle(), name=f"{x.name}xS1")


def _is_circle(y: CellComplex) -> bool:
    """Whether ``y`` has the circle model's cells and coboundary rows: the one
    test that a product X x Y is X x S^1, for crossing and fiber integration."""
    return (y.cells, y.rows) == (circle().cells, circle().rows)


def circle_product_ids(ids) -> frozenset:
    """The cells A x S^1 of ``product_with_circle(X)`` for cells A of X."""
    s1 = circle().all_ids()
    return frozenset((c, y) for c in ids for y in s1)


# ---------------------------------------------------------------------------
# builtin spaces
#
# One canonical instance per space puts the classes computed through different
# call sites in one coordinate space. By the cache rule the fixed builtins and
# the cubes I^k live for the process, built on first use; the families
# ``sphere``, ``lens`` and ``wedge_of_spheres`` only while referenced.

_live_families: WeakValueDictionary = WeakValueDictionary()


def _family(key: tuple, build) -> CellComplex:
    return _live_families.get(key) or _live_families.setdefault(key, build())


_FIXED = {      # name -> (cells, incidences) of each fixed builtin
    "pt": ({0: ["v"]}, None),
    "S1": ({0: ["a"], 1: ["e"]}, None),
    "I": ({0: ["p", "q"], 1: ["i"]}, {1: {("q", "i"): 1, ("p", "i"): -1}}),
    "coneS2": ({0: ["v", "u"], 1: ["a"], 2: ["f2"], 3: ["c3"]},
               {1: {("u", "a"): 1, ("v", "a"): -1}, 3: {("f2", "c3"): 1}}),
    "S3+": ({0: ["v", "u"], 1: ["a"], 2: ["f2"], 3: ["c3", "c3out"]},
            {1: {("u", "a"): 1, ("v", "a"): -1}, 3: {("f2", "c3"): 1, ("f2", "c3out"): -1}}),
    "CP2": ({0: ["v"], 2: ["c2"], 4: ["c4"]}, None),
    "D2": ({0: ["a"], 1: ["e"], 2: ["f"]}, {2: {("e", "f"): 1}}),
}


class _ProcessLived(dict):
    """Name -> the process-lived complex of that name, built by the first
    lookup: a fixed builtin, or a cube ``I^k`` by the uncached ``_product``.
    ``get`` builds nothing: ``_process_lived.get(x.name) is x`` tests ``x``."""

    def __missing__(self, name: str) -> CellComplex:
        if name in _FIXED:
            x = build_complex(name, *_FIXED[name])
        else:
            x = _product(interval_power(int(name[2:]) - 1), interval(), name)
        self[name] = x
        return x


_process_lived = _ProcessLived()


def point() -> CellComplex:
    return _process_lived["pt"]


def circle() -> CellComplex:
    return _process_lived["S1"]


def interval() -> CellComplex:
    return _process_lived["I"]


def sphere(n: int) -> CellComplex:
    if n < 2:
        raise ValueError("use circle() for S^1")
    return _family(("sphere", n), lambda: build_complex(f"S{n}", {0: ["v"], n: [f"c{n}"]}))


def cone_on_s2() -> CellComplex:
    """Compact model of the cone C^0 S^2 (= R^3, = D^3): the 2-sphere
    {u, f2} joined to the cone vertex v, filled by one 3-cell."""
    return _process_lived["coneS2"]


def s3_two_disc() -> CellComplex:
    """S^3 as two 3-discs glued along the equatorial S^2 {u, f2}.

    Contains cone_on_s2 (the inner disc) as a subcomplex; the outer disc
    {u, f2, c3out} is a compact model of S^3 minus the inner vertex.
    """
    return _process_lived["S3+"]


def cp2() -> CellComplex:
    return _process_lived["CP2"]


def lens(p: int) -> CellComplex:
    """L(1,p): one cell per degree 0..3 with degree-p attaching in the middle."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return _family(("lens", p), lambda: build_complex(
        f"L(1,{p})", {0: ["e0"], 1: ["e1"], 2: ["e2"], 3: ["e3"]}, {2: {("e1", "e2"): p}}))


def wedge_of_spheres(count: int) -> CellComplex:
    return _family(("wedge", count), lambda: build_complex(
        f"wedge{count}S2", {0: ["v"], 2: [f"s{i}" for i in range(count)]} if count
        else {0: ["v"]}))


def disc2() -> CellComplex:
    """D^2 with its boundary circle {a, e} as a subcomplex."""
    return _process_lived["D2"]


def interval_power(k: int) -> CellComplex:
    """I^k = I^(k-1) x I, which lives for the process: built once per k and
    cached only in ``_process_lived``, in no cube's ``derived``. Its boundary
    sphere is the set of product cells with at least one endpoint factor."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return interval() if k == 1 else _process_lived[f"I^{k}"]


def interval_power_boundary_ids(cube: CellComplex, k: int) -> frozenset:
    def has_endpoint(cell, depth) -> bool:
        if depth == 1:
            return cell in ("p", "q")
        a, b = cell
        return has_endpoint(a, depth - 1) or b in ("p", "q")

    return frozenset(c for c in cube.all_ids() if has_endpoint(c, k))


def trivial_disc_bundle(base: CellComplex, rank: int):
    """(D(F), S(F)-ids, F-ids) for the trivial rank-k disc bundle over base.

    F is embedded as base x (corner point), a deformation retract of the
    zero section.
    """
    cube = interval_power(rank)
    total = product_complex(base, cube, name=f"{base.name}xD{rank}")
    boundary = interval_power_boundary_ids(cube, rank)
    sphere_ids = frozenset((a, b) for a in base.all_ids() for b in boundary)
    corner = cube.cell_ids(0)[0]        # (...(p, p), ..., p), the first vertex
    f_ids = frozenset((a, corner) for a in base.all_ids())
    return total, sphere_ids, f_ids


# registry ------------------------------------------------------------------

_FAMILY_MODEL_NAME = re.compile(r"L\(1,(?P<p>.*)\)|wedge(?P<k>.*)S2")


def builtin_space(name: str) -> CellComplex:
    """Resolve a registry name: S2, S3, S2xS1, S3xS1, CP2, L1p:<p>, coneS2,
    D3, S1, pt, S3plus, wedge:<k>. A builtin model's own name (L(1,p),
    wedge<k>S2, S3+) resolves too, so a name written from a model reads back."""
    if shown := _FAMILY_MODEL_NAME.fullmatch(name):
        name = f"L1p:{shown['p']}" if shown["p"] is not None else f"wedge:{shown['k']}"
    if name.startswith("L1p:"):
        return lens(_size_suffix(name, "p", 1))
    if name.startswith("wedge:"):
        return wedge_of_spheres(_size_suffix(name, "k", 0, MAX_CELLS - 1))
    table = {
        "pt": point,
        "S1": circle,
        "S2": lambda: sphere(2),
        "S3": lambda: sphere(3),
        "S2xS1": lambda: product_with_circle(sphere(2)),
        "S3xS1": lambda: product_with_circle(sphere(3)),
        "CP2": cp2,
        "coneS2": cone_on_s2,
        "D3": cone_on_s2,
        "S3plus": s3_two_disc,
        "S3+": s3_two_disc,
        "D2": disc2,
    }
    if name not in table:
        raise UnknownSpace(f"unknown builtin space {name!r}")
    return table[name]()


def _size_suffix(name: str, var: str, least: int, most: int | None = None) -> int:
    """The integer after the colon of ``name``; UnknownSpace unless least <= it (<= most)."""
    prefix, _, suffix = name.partition(":")
    try:
        value = int(suffix)
    except ValueError:
        value = None
    if value is None or value < least or most is not None and value > most:
        rule = f"{var} >= {least}" if most is None else f"{least} <= {var} <= {most}"
        raise UnknownSpace(f"builtin space {prefix}:<{var}> needs an integer {rule}, got {name!r}")
    return value
