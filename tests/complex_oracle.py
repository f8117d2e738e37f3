"""The entry-by-entry complex builders, kept as the oracle for the coboundary rows.

``tdual.complexes`` stores each degree's coboundary rows, by index, as its
one incidence store. Before that it stored the boundary matrices ``bmat(k)``
themselves, and every builder filled them entry by entry through per-degree
id -> index tables, reading the faces of a cell as a column of ``bmat(k)``
(``col_items``). ``CellComplex``, ``build_complex`` and ``product_complex``
below are that code, copied without change except that ``to_json`` and
``euler_characteristic`` are left out; ``IMat`` adds back the ``col_items``
reader and the entry writer. ``test_complexes.py`` requires the row-built
complexes to give the same cell order and the same ``bmat(k)``, entry for
entry.

``quotient`` builds X/A and the collapse X -> X/A through whichever
``build_complex`` ``tdual.complexes`` holds, so it serves both sides of
that comparison, and it is the collapse route that the cohomology tests
check the excision route against.

``face_dict_product`` and ``face_dict_subcomplex`` are the next step: the
builders that handed ``tdual.complexes.CellComplex`` each cell's faces by
id, for it to index and sort (``from_faces`` does that here), before
products and subcomplexes wrote their coboundary rows themselves. They are
kept as the oracle for those rows. ``faces`` reads a cell's faces by id off
its row, and ``closure`` closes a cell set under them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from tdual import complexes as cx, intlin
from tdual.complexes import NotASubcomplex

PT = ("*",)   # the basepoint of a quotient


class IMat(intlin.IMat):
    """The sparse matrix with the per-column reader the builders used."""

    __slots__ = ()

    def col_items(self) -> list[list]:
        """Per column, its nonzero ``(row, entry)`` pairs in ascending row order
        (``transpose`` fills every row dict in ascending index order)."""
        return [list(r.items()) for r in self.transpose().nz]

    def __setitem__(self, ij, v):
        """Write one entry, as the builders fill their matrices."""
        i, j = ij
        self[i, j]          # the bounds check of a read
        if v:
            self.nz[i][j] = v
        else:
            self.nz[i].pop(j, None)


@dataclass
class CellComplex:
    name: str
    cells: dict                                  # degree -> ordered list of ids
    boundaries: dict = field(default_factory=dict)  # degree k>=1 -> IMat
    product_of: tuple | None = None              # (X, Y) provenance
    # subcomplexes by cell set, products by (id(Y), name), class spaces by kind
    derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        self.cells = {k: list(v) for k, v in self.cells.items() if v}
        self._index = {k: {c: i for i, c in enumerate(v)} for k, v in self.cells.items()}
        for k, mat in self.boundaries.items():
            if mat.rows != self.n_cells(k - 1) or mat.cols != self.n_cells(k):
                raise ValueError(f"boundary {k} has shape {mat.rows}x{mat.cols}, "
                                 f"expected {self.n_cells(k-1)}x{self.n_cells(k)}")
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
        out = set()
        for v in self.cells.values():
            out |= set(v)
        return out

    def index(self, k: int, cell) -> int:
        return self._index[k][cell]

    def degree_of(self, cell) -> int:
        for k, idx in self._index.items():
            if cell in idx:
                return k
        raise KeyError(cell)

    def bmat(self, k: int) -> IMat:
        if k in self.boundaries:
            return self.boundaries[k]
        return IMat(self.n_cells(k - 1), self.n_cells(k))

    def validate_square_zero(self):
        for k in range(2, self.top + 1):
            if not (self.bmat(k - 1) @ self.bmat(k)).is_zero():
                raise ValueError(f"boundary squared nonzero at degree {k} in {self.name}")

    # -- subcomplexes --------------------------------------------------

    def check_subcomplex(self, ids) -> frozenset:
        ids = frozenset(ids)
        unknown = ids - self.all_ids()
        if unknown:
            raise NotASubcomplex(f"cells {sorted(map(str, unknown))} not in {self.name}")
        for k in range(1, self.top + 1):
            lower = self.cell_ids(k - 1)
            for cell, faces in zip(self.cell_ids(k), self.bmat(k).col_items()):
                if cell in ids:
                    for i, _ in faces:
                        if lower[i] not in ids:
                            raise NotASubcomplex(
                                f"boundary of {cell} leaves the cell set at {lower[i]}")
        return ids

    def subcomplex(self, ids, name: str | None = None) -> "CellComplex":
        """Canonical subcomplex on the given cells; instances are cached per
        cell set so class spaces computed through different call sites agree.
        A cell set is validated, and the name taken, when it is first built."""
        ids = frozenset(ids)
        sub = self.derived.get(ids)
        if sub is None:
            sub = self.derived[ids] = self._build_subcomplex(self.check_subcomplex(ids), name)
        return sub

    def _build_subcomplex(self, ids: frozenset, name: str | None) -> "CellComplex":
        cells = {k: [c for c in v if c in ids] for k, v in self.cells.items()}
        cells = {k: v for k, v in cells.items() if v}
        bounds = {}
        for k in range(1, self.top + 1):
            sub_k = cells.get(k, [])
            sub_low = cells.get(k - 1, [])
            if not sub_k:
                continue
            faces = self.bmat(k).col_items()
            lower = self.cell_ids(k - 1)
            pos = {low: i for i, low in enumerate(sub_low)}
            out = IMat(len(sub_low), len(sub_k))
            for j, cell in enumerate(sub_k):
                for i, coeff in faces[self.index(k, cell)]:
                    out[pos[lower[i]], j] = coeff
            bounds[k] = out
        return CellComplex(name or f"{self.name}|sub", cells, bounds)


def build_complex(name: str, cells: dict, incidences: dict | None = None) -> CellComplex:
    """Construct from per-degree id lists and sparse incidence data.

    ``incidences[k]`` maps (lower_id, upper_id) to the integer coefficient of
    lower_id in the boundary of upper_id.
    """
    cells = {k: list(v) for k, v in cells.items()}
    index = {k: {c: i for i, c in enumerate(v)} for k, v in cells.items()}
    bounds = {}
    top = max(cells) if cells else 0
    for k in range(1, top + 1):
        rows = len(cells.get(k - 1, []))
        cols = len(cells.get(k, []))
        mat = IMat(rows, cols)
        for (low, up), coeff in (incidences or {}).get(k, {}).items():
            mat[index[k - 1][low], index[k][up]] = coeff
        bounds[k] = mat
    return CellComplex(name, cells, bounds)


# ---------------------------------------------------------------------------


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
    top = x.top + y.top
    for k in range(top + 1):
        row = []
        for da in range(k + 1):
            db = k - da
            for a in x.cell_ids(da):
                for b in y.cell_ids(db):
                    row.append((a, b))
        if row:
            cells[k] = row
    index = {k: {c: i for i, c in enumerate(v)} for k, v in cells.items()}
    x_faces = {d: x.bmat(d).col_items() for d in range(1, x.top + 1)}
    y_faces = {d: y.bmat(d).col_items() for d in range(1, y.top + 1)}
    bounds = {}
    for k in range(1, top + 1):
        mat = IMat(len(cells.get(k - 1, [])), len(cells.get(k, [])))
        for j, (a, b) in enumerate(cells.get(k, [])):
            da = x.degree_of(a)
            db = y.degree_of(b)
            if da >= 1:
                lower = x.cell_ids(da - 1)
                for i, coeff in x_faces[da][x.index(da, a)]:
                    mat[index[k - 1][(lower[i], b)], j] += coeff
            if db >= 1:
                lower = y.cell_ids(db - 1)
                sign = (-1) ** da
                for i, coeff in y_faces[db][y.index(db, b)]:
                    mat[index[k - 1][(a, lower[i])], j] += sign * coeff
        bounds[k] = mat
    out = CellComplex(name or f"{x.name}x{y.name}", cells, bounds)
    out.product_of = (x, y)
    x.derived[key] = out
    return out


def quotient(x, sub_ids, name: str | None = None) -> tuple:
    """X/A by ``cx.build_complex``, and the collapse X -> X/A as matrices by
    degree (n_target x n_source), checked to commute with the boundaries.

    The basepoint comes first among the vertices. A cell of A maps to the
    basepoint if it is a vertex and to 0 otherwise; every other cell keeps
    its id, and so do its faces outside A."""
    sub_ids = x.check_subcomplex(sub_ids)
    cells = {k: [c for c in x.cell_ids(k) if c not in sub_ids] for k in x.degrees()}
    cells[0].insert(0, PT)
    incidences = {}
    for k in range(1, x.top + 1):
        lower, inc = x.cell_ids(k - 1), incidences.setdefault(k, {})
        for cell, faces in zip(x.cell_ids(k), x.bmat(k).transpose().nz):
            for i, coeff in faces.items() if cell not in sub_ids else ():
                face = lower[i] if lower[i] not in sub_ids else PT if k == 1 else None
                if face is not None:
                    inc[face, cell] = inc.get((face, cell), 0) + coeff
    q = cx.build_complex(name or f"{x.name}/{len(sub_ids)}cells", cells, incidences)
    collapse = {}
    for k in x.degrees():
        rows = [{} for _ in range(q.n_cells(k))]
        for j, cell in enumerate(x.cell_ids(k)):
            if cell not in sub_ids:
                rows[q.index(k, cell)][j] = 1
            elif k == 0:
                rows[q.index(0, PT)][j] = 1
        collapse[k] = intlin.IMat.of(q.n_cells(k), x.n_cells(k), rows)
    for k in range(1, x.top + 1):
        assert q.bmat(k) @ collapse[k] == collapse[k - 1] @ x.bmat(k), f"degree {k}"
    return q, collapse


# ---------------------------------------------------------------------------
# faces by id, and the face-dict builders of ``tdual.complexes``


def faces(x: cx.CellComplex, cell) -> dict:
    """The faces of ``cell`` by id, with their coefficients, in face index
    order: its coboundary row, read through the ids of the degree below."""
    k = next(k for k, ids in x.cells.items() if cell in ids)
    lower = x.cell_ids(k - 1)
    return {lower[i]: c for i, c in x.coboundary(k).nz[x.index(k, cell)].items()}


def closure(x: cx.CellComplex, cells) -> frozenset:
    """The smallest subcomplex's cell set that holds ``cells``."""
    out, todo = set(), list(cells)
    while todo:
        cell = todo.pop()
        if cell not in out:
            out.add(cell)
            todo.extend(faces(x, cell))
    return frozenset(out)


def from_faces(name: str, cells: dict, by_cell: dict, product_of=None) -> cx.CellComplex:
    """The complex with each cell's faces by id in ``by_cell``, indexed and
    sorted into coboundary rows."""
    cells = {k: list(v) for k, v in cells.items() if v}
    at = {c: i for v in cells.values() for i, c in enumerate(v)}
    rows = {k: [dict(sorted((at[f], x) for f, x in by_cell.get(c, {}).items() if x)) for c in v]
            for k, v in cells.items()}
    return cx.CellComplex(name, cells, rows, product_of)


def face_dict_product(x: cx.CellComplex, y: cx.CellComplex, name: str | None = None):
    """X x Y from each cell's faces by id: d(a x b) = da x b + (-1)^|a| a x db."""
    cells: dict = {}
    by_cell: dict = {}
    for k in range(x.top + y.top + 1):
        cells[k] = []
        for da in range(k + 1):
            sign = (-1) ** da
            for a in x.cell_ids(da):
                for b in y.cell_ids(k - da):
                    cells[k].append((a, b))
                    own = by_cell[(a, b)] = {(f, b): c for f, c in faces(x, a).items()}
                    own.update(((a, f), sign * c) for f, c in faces(y, b).items())
    return from_faces(name or f"{x.name}x{y.name}", cells, by_cell, product_of=(x, y))


def face_dict_subcomplex(x: cx.CellComplex, ids, name: str | None = None):
    """The subcomplex on ``ids`` from its cells' faces by id, after a scan of
    every face of ``x``, degree by degree, that checks the cells are closed
    under faces."""
    ids = frozenset(ids)
    unknown = ids.difference(x.all_ids())
    if unknown:
        raise NotASubcomplex(f"cells {sorted(map(str, unknown))} not in {x.name}")
    for k in sorted(x.cells):
        for cell in x.cells[k]:
            if cell in ids:
                for face in faces(x, cell):
                    if face not in ids:
                        raise NotASubcomplex(f"boundary of {cell} leaves the cell set at {face}")
    return from_faces(name or f"{x.name}|sub",
                      {k: [c for c in v if c in ids] for k, v in x.cells.items()},
                      {c: faces(x, c) for c in ids})
