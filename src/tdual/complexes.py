"""Finite cell complexes with integer incidences.

A complex stores ordered cell ids per degree and each cell's faces
(``faces[cell]`` maps a face id to its coefficient, in face order), and
derives from them its coboundary matrices ``coboundary(k): C^{k-1} ->
C^k``, one row per k-cell; ``bmat(k)`` is their transpose. Builders emit
faces by id: products carry Koszul signs and traceable ids (pairs of
factor ids), quotients collapse a labeled subcomplex to a basepoint, and
chain maps are validated to commute with the boundaries.

Subcomplexes, products with a second factor and the class spaces of
``tdual.cohomology`` are cached in their complex's ``derived`` dict:
canonical while the complex lives, and freed with it.

The builtin registry holds the spaces the toolkit's identities live on:
spheres, the cone on the 2-sphere (compact stand-in for R^3), the two-disc
3-sphere used by the monopole gluing, CP^2, lens spaces, and wedges of
2-spheres.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from weakref import WeakValueDictionary

from . import BUILTIN_NAMES  # noqa: F401  (re-exported: the registry's names)
from .intlin import IMat


class NotASubcomplex(ValueError):
    pass


class BoundaryNotLabeled(ValueError):
    pass


class LabelMismatch(ValueError):
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


PT = ("*",)   # basepoint id used by quotient complexes


@dataclass
class CellComplex:
    name: str
    cells: dict                             # degree -> ordered list of ids
    faces: dict = field(default_factory=dict)   # cell id -> {face id: coefficient}
    product_of: tuple | None = None         # (X, Y) provenance
    # subcomplexes by cell set, products by (id(Y), name), class spaces by kind
    derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        """Keep every cell's nonzero faces in face-index order and derive, per
        degree k, the coboundary whose row j holds the faces of the j-th k-cell."""
        self.cells = {k: list(v) for k, v in self.cells.items() if v}
        self._index = {k: {c: i for i, c in enumerate(v)} for k, v in self.cells.items()}
        given, self.faces, self._coboundary = self.faces, {}, {}
        for k in sorted(self.cells):
            lower, lower_ids, rows = self._index.get(k - 1, {}), self.cell_ids(k - 1), []
            for cell in self.cells[k]:
                own = given.get(cell)
                row = dict(sorted((lower[f], x) for f, x in own.items() if x)) if own else {}
                self.faces[cell] = {lower_ids[i]: x for i, x in row.items()} if row else {}
                rows.append(row)
            self._coboundary[k] = IMat.of(len(rows), len(lower_ids), rows)
        if len(self.faces) < sum(map(len, self.cells.values())):
            raise ValueError(f"cell ids of {self.name} are not distinct")
        self.validate_square_zero()

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
        return set(self.faces)

    def index(self, k: int, cell) -> int:
        return self._index[k][cell]

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

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.n_cells(k) for k in self.degrees())

    # -- subcomplexes --------------------------------------------------

    def check_subcomplex(self, ids) -> frozenset:
        ids = frozenset(ids)
        unknown = ids.difference(self.faces)
        if unknown:
            raise NotASubcomplex(f"cells {sorted(map(str, unknown))} not in {self.name}")
        for cell, faces in self.faces.items():
            if cell in ids:
                for face in faces:
                    if face not in ids:
                        raise NotASubcomplex(f"boundary of {cell} leaves the cell set at {face}")
        return ids

    def subcomplex(self, ids, name: str | None = None) -> "CellComplex":
        """Canonical subcomplex on the given cells; instances are cached per
        cell set so class spaces computed through different call sites agree.
        A cell set is validated, and the name taken, when it is first built."""
        ids = frozenset(ids)
        sub = self.derived.get(ids)
        if sub is None:
            ids = self.check_subcomplex(ids)
            sub = self.derived[ids] = CellComplex(
                name or f"{self.name}|sub",
                {k: [c for c in v if c in ids] for k, v in self.cells.items()},
                {c: self.faces[c] for c in ids})
        return sub


def build_complex(name: str, cells: dict, incidences: dict | None = None) -> CellComplex:
    """Construct from per-degree id lists and sparse incidence data.

    ``incidences[k]`` maps (lower_id, upper_id) to the integer coefficient of
    lower_id in the boundary of upper_id. The face must be a (k-1)-cell and
    the upper cell a k-cell; otherwise MissingCell names the face, or else
    the cell, that is missing.
    """
    ids = {k: set(v) for k, v in cells.items()}
    faces: dict = {}
    for k, entries in (incidences or {}).items():
        for (low, up), coeff in entries.items():
            for cell, degree, what in ((low, k - 1, "face"), (up, k, "cell")):
                if cell not in ids.get(degree, ()):
                    raise MissingCell(cell, f"degree {k} incidence of {low!r} in {up!r}: "
                                            f"there is no {what} {cell!r} of degree {degree}")
            faces.setdefault(up, {})[low] = coeff
    return CellComplex(name, cells, faces)


# ---------------------------------------------------------------------------
# chain maps

@dataclass
class ChainMap:
    """Degree-wise integer matrices commuting with the boundaries."""

    source: CellComplex
    target: CellComplex
    mats: dict                                  # degree -> IMat (n_target x n_source)
    name: str = ""

    def __post_init__(self):
        for k in range(max(self.source.top, self.target.top) + 1):
            m = self.mat(k)
            if m.rows != self.target.n_cells(k) or m.cols != self.source.n_cells(k):
                raise ValueError(f"chain map degree {k} shape mismatch")
        for k in range(1, self.source.top + 1):
            lhs = self.target.bmat(k) @ self.mat(k)
            rhs = self.mat(k - 1) @ self.source.bmat(k)
            if lhs != rhs:
                raise ValueError(f"chain map does not commute with boundary at degree {k}")

    def mat(self, k: int) -> IMat:
        if k in self.mats:
            return self.mats[k]
        return IMat(self.target.n_cells(k), self.source.n_cells(k))


# ---------------------------------------------------------------------------
# products

def product_complex(x: CellComplex, y: CellComplex, name: str | None = None) -> CellComplex:
    """Cellular product; cell ids are (x_id, y_id), boundaries carry the
    Koszul sign: d(a x b) = da x b + (-1)^|a| a x db. Canonical per factor
    pair: repeated calls return the same instance, cached on ``x`` (the
    product holds ``y`` through ``product_of``, so ``id(y)`` stays unique)."""
    key = (id(y), name)
    out = x.derived.get(key)
    if out is not None:
        return out
    cells: dict = {}
    faces: dict = {}
    for k in range(x.top + y.top + 1):
        cells[k] = []
        for da in range(k + 1):
            sign = (-1) ** da
            for a in x.cell_ids(da):
                for b in y.cell_ids(k - da):
                    cells[k].append((a, b))
                    own = faces[(a, b)] = {(f, b): c for f, c in x.faces[a].items()}
                    own.update(((a, f), sign * c) for f, c in y.faces[b].items())
    out = x.derived[key] = CellComplex(name or f"{x.name}x{y.name}", cells, faces,
                                          product_of=(x, y))
    return out


def product_with_circle(x: CellComplex) -> CellComplex:
    """X x S^1 with the one-vertex circle model; ids traceable to factors."""
    return product_complex(x, circle(), name=f"{x.name}xS1")


def _is_circle(y: CellComplex) -> bool:
    """Whether ``y`` has the circle model's cells and faces: the one test that
    a product X x Y is X x S^1, for crossing and fiber integration."""
    return (y.cells, y.faces) == (circle().cells, circle().faces)


def circle_product_ids(ids) -> frozenset:
    """The cells A x S^1 of ``product_with_circle(X)`` for cells A of X."""
    s1 = circle().all_ids()
    return frozenset((c, y) for c in ids for y in s1)


# ---------------------------------------------------------------------------
# quotients (Thom spaces, collapse maps)

def quotient_by_subcomplex(x: CellComplex, sub_ids, name: str | None = None):
    """X / A: collapse the labeled subcomplex to a basepoint.

    Returns (quotient complex, collapse chain map). Vertices of A map to the
    basepoint; higher A-cells map to zero; other cells map to themselves with
    A-terms of their boundaries redirected accordingly.
    """
    sub_ids = x.check_subcomplex(sub_ids)
    cells = {k: [c for c in x.cell_ids(k) if c not in sub_ids] for k in x.degrees()}
    cells[0].insert(0, PT)
    vertices = set(x.cell_ids(0))
    faces = {}
    for cell in x.faces.keys() - sub_ids:
        own = faces[cell] = {}
        for face, coeff in x.faces[cell].items():
            if face not in sub_ids:
                own[face] = coeff
            elif face in vertices:      # a collapsed vertex becomes the basepoint
                own[PT] = own.get(PT, 0) + coeff
    q = CellComplex(name or f"{x.name}/{len(sub_ids)}cells", cells, faces)
    return q, ChainMap(x, q, _collapse_mats(x, q), name=f"collapse:{x.name}")


def _collapse_mats(x: CellComplex, target: CellComplex) -> dict:
    """The matrices, by degree, of the collapse x -> target: it sends a cell
    of the target to itself, any other vertex to the basepoint and every
    other cell to 0."""
    mats = {}
    for k in x.degrees():
        m = mats[k] = IMat(target.n_cells(k), x.n_cells(k))
        kept = target._index.get(k, {})
        for j, cell in enumerate(x.cell_ids(k)):
            if cell in kept:
                m[kept[cell], j] = 1
            elif k == 0:
                m[target.index(0, PT), j] = 1
    return mats


def thom_space(disc_bundle: CellComplex, sphere_ids):
    """Collapse the labeled boundary sphere bundle of a disc bundle model.

    ``sphere_ids`` must be a subcomplex of the disc bundle; otherwise
    BoundaryNotLabeled is raised.
    """
    try:
        ids = disc_bundle.check_subcomplex(sphere_ids)
    except NotASubcomplex as exc:
        raise BoundaryNotLabeled(str(exc)) from None
    return quotient_by_subcomplex(disc_bundle, ids, f"TD({disc_bundle.name})")


def collapse_map(btilde: CellComplex, disc_ids, sphere_ids) -> ChainMap:
    """Collapse everything outside the open disc neighborhood of F.

    ``disc_ids`` labels the closed neighborhood N(F)-model inside ``btilde``
    and ``sphere_ids`` its boundary sphere bundle. The target of the map is
    the Thom space of the disc subcomplex. Cells outside the neighborhood
    whose boundaries meet the open part would make the collapse ill-defined;
    that situation raises LabelMismatch.
    """
    disc_ids = btilde.check_subcomplex(disc_ids)
    sphere_ids = frozenset(sphere_ids)
    if not sphere_ids <= disc_ids:
        raise LabelMismatch("sphere bundle cells must lie inside the disc bundle")
    disc = btilde.subcomplex(disc_ids, name="D(F)")
    td, _ = thom_space(disc, sphere_ids)
    try:
        return ChainMap(btilde, td, _collapse_mats(btilde, td), name=f"collapse:{btilde.name}->TD")
    except ValueError as exc:
        raise LabelMismatch(f"collapse is not cellular with these labels: {exc}") from None


# ---------------------------------------------------------------------------
# builtin spaces
#
# Builders are cached: complexes are immutable after construction, and a
# canonical instance per space lets cohomology classes computed through
# different call sites live in the same coordinate space.

@cache
def point() -> CellComplex:
    return build_complex("pt", {0: ["v"]})


@cache
def circle() -> CellComplex:
    return build_complex("S1", {0: ["a"], 1: ["e"]})


@cache
def interval() -> CellComplex:
    return build_complex("I", {0: ["p", "q"], 1: ["i"]},
                         {1: {("q", "i"): 1, ("p", "i"): -1}})


@cache
def sphere(n: int) -> CellComplex:
    if n < 2:
        raise ValueError("use circle() for S^1")
    return build_complex(f"S{n}", {0: ["v"], n: [f"c{n}"]})


@cache
def cone_on_s2() -> CellComplex:
    """Compact model of the cone C^0 S^2 (= R^3, = D^3): the 2-sphere
    {u, f2} joined to the cone vertex v, filled by one 3-cell."""
    return build_complex(
        "coneS2",
        {0: ["v", "u"], 1: ["a"], 2: ["f2"], 3: ["c3"]},
        {1: {("u", "a"): 1, ("v", "a"): -1},
         3: {("f2", "c3"): 1}})


@cache
def s3_two_disc() -> CellComplex:
    """S^3 as two 3-discs glued along the equatorial S^2 {u, f2}.

    Contains cone_on_s2 (the inner disc) as a subcomplex; the outer disc
    {u, f2, c3out} is a compact model of S^3 minus the inner vertex.
    """
    return build_complex(
        "S3+",
        {0: ["v", "u"], 1: ["a"], 2: ["f2"], 3: ["c3", "c3out"]},
        {1: {("u", "a"): 1, ("v", "a"): -1},
         3: {("f2", "c3"): 1, ("f2", "c3out"): -1}})


@cache
def cp2() -> CellComplex:
    return build_complex("CP2", {0: ["v"], 2: ["c2"], 4: ["c4"]})


# parametrised families are canonical only while referenced, so a process
# that resolves many sizes keeps none of them for good
_live_families: WeakValueDictionary = WeakValueDictionary()


def _family(key: tuple, build) -> CellComplex:
    return _live_families.get(key) or _live_families.setdefault(key, build())


def lens(p: int) -> CellComplex:
    """L(1,p): one cell per degree 0..3 with degree-p attaching in the middle."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return _family(("lens", p), lambda: build_complex(
        f"L(1,{p})", {0: ["e0"], 1: ["e1"], 2: ["e2"], 3: ["e3"]}, {2: {("e1", "e2"): p}}))


def wedge_of_spheres(count: int, dim: int = 2) -> CellComplex:
    return _family(("wedge", count, dim), lambda: build_complex(
        f"wedge{count}S{dim}", {0: ["v"], dim: [f"s{i}" for i in range(count)]} if count
        else {0: ["v"]}))


@cache
def disc2() -> CellComplex:
    """D^2 with its boundary circle {a, e} as a subcomplex."""
    return build_complex("D2", {0: ["a"], 1: ["e"], 2: ["f"]}, {2: {("e", "f"): 1}})


@cache
def interval_power(k: int) -> CellComplex:
    """I^k as an iterated product; its boundary sphere is the set of product
    cells with at least one endpoint factor."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 1:
        return interval()
    return product_complex(interval_power(k - 1), interval(), name=f"I^{k}")


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
    corner = _corner_id(rank)
    f_ids = frozenset((a, corner) for a in base.all_ids())
    return total, sphere_ids, f_ids


def _corner_id(rank: int):
    cell = "p"
    for _ in range(rank - 1):
        cell = (cell, "p")
    return cell


# registry ------------------------------------------------------------------

def builtin_space(name: str) -> CellComplex:
    """Resolve a registry name: S2, S3, S2xS1, S3xS1, CP2, L1p:<p>, coneS2,
    D3, S1, pt, S3plus, wedge:<k>."""
    if name.startswith("L1p:"):
        return lens(_size_suffix(name, "p", 1))
    if name.startswith("wedge:"):
        return wedge_of_spheres(_size_suffix(name, "k", 0))
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
        "D2": disc2,
    }
    if name not in table:
        raise UnknownSpace(f"unknown builtin space {name!r}")
    return table[name]()


def _size_suffix(name: str, var: str, least: int) -> int:
    """The integer after the colon of ``name``; UnknownSpace unless it is >= least."""
    prefix, _, suffix = name.partition(":")
    try:
        value = int(suffix)
    except ValueError:
        value = None
    if value is None or value < least:
        raise UnknownSpace(f"builtin space {prefix}:<{var}> needs an integer {var} >= {least}, "
                           f"got {name!r}")
    return value

