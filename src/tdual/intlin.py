"""Integer matrix algebra: Smith normal form, solving, kernels, lattices.

Entries are Python ints (arbitrary precision, so SNF pivot growth cannot
overflow). Shapes are tracked explicitly so zero-row and zero-column
matrices behave; those occur constantly as (co)chain groups of small cell
complexes.
"""

from __future__ import annotations

from collections import defaultdict


class IMat:
    """Sparse integer matrix with explicit shape.

    Row ``i`` is stored as a ``{column: nonzero entry}`` dict in ``nz[i]``;
    zero entries are never stored, so equality of matrices is equality of
    their row dicts. Indexing ``m[i, j]`` reads and writes single entries.

    ``snf()`` caches its result on the instance; do not mutate a matrix
    after factoring it (internal callers build matrices, then consume them).
    """

    __slots__ = ("rows", "cols", "nz", "_snf", "__weakref__")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        self._snf = None
        if data is None:
            self.nz = [{} for _ in range(rows)]
        else:
            data = [list(r) for r in data]
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("data does not match shape")
            self.nz = [{j: x for j, x in enumerate(r) if x} for r in data]

    @staticmethod
    def of(rows: int, cols: int, nz: list) -> "IMat":
        """Wrap row dicts (no zero values) without copying them."""
        m = IMat.__new__(IMat)
        m.rows, m.cols, m.nz, m._snf = rows, cols, nz, None
        return m

    def snf(self) -> "SNF":
        if self._snf is None:
            self._snf = smith_normal_form(self)
        return self._snf

    @staticmethod
    def from_rows(data) -> "IMat":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return IMat(rows, cols, data)

    @staticmethod
    def identity(n: int) -> "IMat":
        return IMat.of(n, n, [{i: 1} for i in range(n)])

    @staticmethod
    def from_columns(cols_list, rows: int) -> "IMat":
        m = IMat(rows, len(cols_list))
        for j, col in enumerate(cols_list):
            if len(col) != rows:
                raise ValueError("column length mismatch")
            for i, x in enumerate(col):
                if x:
                    m.nz[i][j] = x
        return m

    def copy(self) -> "IMat":
        return IMat.of(self.rows, self.cols, [dict(r) for r in self.nz])

    def _check(self, i: int, j: int):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) outside {self.rows}x{self.cols}")

    def __getitem__(self, ij):
        i, j = ij
        self._check(i, j)
        return self.nz[i].get(j, 0)

    def __setitem__(self, ij, v):
        i, j = ij
        self._check(i, j)
        if v:
            self.nz[i][j] = v
        else:
            self.nz[i].pop(j, None)

    def __eq__(self, other):
        return (isinstance(other, IMat) and self.rows == other.rows
                and self.cols == other.cols and self.nz == other.nz)

    def __repr__(self):
        return f"IMat({self.rows}x{self.cols}, {self.nz})"

    def columns(self):
        """Each column in turn as a dense list, filled from its nonzeros."""
        for col in self.transpose().nz:
            out = [0] * self.rows
            for i, x in col.items():
                out[i] = x
            yield out

    def transpose(self) -> "IMat":
        nz = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.nz):
            for j, x in row.items():
                nz[j][i] = x
        return IMat.of(self.cols, self.rows, nz)

    def __matmul__(self, other: "IMat") -> "IMat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = []
        for arow in self.nz:
            acc = {}
            for k, a in arow.items():
                for j, b in other.nz[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: x for j, x in acc.items() if x})
        return IMat.of(self.rows, other.cols, out)

    def mul_vec(self, v) -> list[int]:
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        out = []
        for row in self.nz:
            acc = 0
            for j, x in row.items():
                acc += x * v[j]
            out.append(acc)
        return out

    def hstack(self, other: "IMat") -> "IMat":
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        shift = self.cols
        return IMat.of(self.rows, self.cols + other.cols,
                       [{**a, **{j + shift: x for j, x in b.items()}}
                        for a, b in zip(self.nz, other.nz)])

    def is_zero(self) -> bool:
        return not any(self.nz)

    def neg(self) -> "IMat":
        return IMat.of(self.rows, self.cols,
                       [{j: -x for j, x in row.items()} for row in self.nz])


def _axpy(dst: dict, src: dict, k: int):
    """dst += k * src on row dicts, dropping entries that cancel."""
    for j, x in src.items():
        y = dst.get(j, 0) + k * x
        if y:
            dst[j] = y
        else:
            del dst[j]


class _Record:
    """A mutable record: ``==`` and ``repr`` over the attributes named in
    ``_fields``, and no hash, as a plain ``@dataclass`` has them."""

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, f) for f in self._fields] == [getattr(other, f) for f in self._fields]

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class SNF(_Record):
    """U @ M @ V == D with U, V unimodular, D diagonal in divisibility order.

    V and U^-1 are kept transposed (``v_t``, ``uinv_t``), as the elimination
    builds them: row i of ``v_t`` is column i of V, and row i of ``uinv_t``
    is column i of U^-1, so cohomology bases are read without re-inversion.
    """

    _fields = ("u", "d", "v_t", "uinv_t", "rank")
    __slots__ = (*_fields, "u_t", "__weakref__")

    def __init__(self, u: IMat, d: IMat, v_t: IMat, uinv_t: IMat, rank: int):
        self.u, self.d, self.v_t, self.uinv_t, self.rank = u, d, v_t, uinv_t, rank
        self.u_t = None         # the columns of U as rows, built by the first ``u_times``

    def diagonal(self) -> list[int]:
        return [self.d[i, i] for i in range(min(self.d.rows, self.d.cols))]

    def u_times(self, b) -> dict:
        """U b as ``{row: nonzero}``, summed over the nonzeros of b."""
        if self.u_t is None:
            self.u_t = self.u.transpose()
        out = {}
        for j, x in enumerate(b):
            if x:
                _axpy(out, self.u_t.nz[j], x)
        return out

    def v_times(self, y: dict) -> list[int]:
        """V y for y given as ``{row: nonzero}``, summed over its nonzeros."""
        out = [0] * self.v_t.rows
        for i, x in y.items():
            for j, vij in self.v_t.nz[i].items():
                out[j] += x * vij
        return out


def smith_normal_form(m: IMat) -> SNF:
    """Diagonalize by elementary operations on sparse rows.

    The pivot is the row-major first entry of least absolute value in the
    remaining block; rows below the pivot are reduced against it, then the
    columns right of it, until both are clear. U^-1 and V take only column
    operations, so they are built and returned transposed (``uinv_t``,
    ``v_t``) and every operation on them is a row operation.
    """
    rows, cols = m.rows, m.cols
    d = m.copy().nz
    u, uinv_t = IMat.identity(rows).nz, IMat.identity(rows).nz
    v_t = IMat.identity(cols).nz
    # column index of D: the rows holding each column, so column operations
    # visit only those rows
    in_col = defaultdict(set)
    for i, row in enumerate(d):
        for j in row:
            in_col[j].add(i)

    def swap_rows(i, j):
        for a, b in ((i, j), (j, i)):
            for c in d[a].keys() - d[b].keys():
                in_col[c].remove(a)
                in_col[c].add(b)
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        uinv_t[i], uinv_t[j] = uinv_t[j], uinv_t[i]

    def swap_cols(i, j):
        for r in in_col[i] | in_col[j]:
            row = d[r]
            a, b = row.pop(i, 0), row.pop(j, 0)
            if a:
                row[j] = a
            if b:
                row[i] = b
        in_col[i], in_col[j] = in_col[j], in_col[i]
        v_t[i], v_t[j] = v_t[j], v_t[i]

    def add_row(src, dst, k):
        # row_dst += k * row_src;  U <- E U, Uinv <- Uinv E^-1
        if not k:
            return
        row = d[dst]
        for j, x in d[src].items():
            y = row.get(j, 0) + k * x
            if not y:
                del row[j]
                in_col[j].discard(dst)
            else:
                row[j] = y
                in_col[j].add(dst)
        _axpy(u[dst], u[src], k)
        _axpy(uinv_t[src], uinv_t[dst], -k)

    def add_col(src, dst, k):
        if not k:
            return
        for r in in_col[src]:
            row = d[r]
            y = row.get(dst, 0) + k * row[src]
            if y:
                row[dst] = y
                in_col[dst].add(r)
            else:
                del row[dst]
                in_col[dst].discard(r)
        _axpy(v_t[dst], v_t[src], k)

    def negate_row(i):
        for r in (d, u, uinv_t):
            r[i] = {j: -x for j, x in r[i].items()}

    limit = min(rows, cols)

    def diagonalize():
        # Rows and columns before t are finished (only their diagonal entry
        # is nonzero), so every entry of rows >= t lies in columns >= t.
        for t in range(limit):
            best = None
            for i in range(t, rows):
                for j, x in d[i].items():
                    val = abs(x)
                    if best is None or val < best[0] or (
                            val == best[0] and i == best[1] and j < best[2]):
                        best = (val, i, j)
                if best is not None and best[0] == 1:
                    break         # nothing later in row-major order beats a unit
            if best is None:
                return
            _, bi, bj = best
            if bi != t:
                swap_rows(t, bi)
            if bj != t:
                swap_cols(t, bj)
            while True:
                # a row (column) is only changed when the pass reaches it, so
                # snapshots of the nonzero positions match a full scan
                for i in sorted(i for i in in_col[t] if i > t):
                    add_row(t, i, -(d[i][t] // d[t][t]))
                    if t in d[i]:         # remainder smaller than pivot
                        swap_rows(t, i)
                for j in sorted(j for j in d[t] if j > t):
                    add_col(t, j, -(d[t][j] // d[t][t]))
                    if j in d[t]:
                        swap_cols(t, j)
                if len(d[t]) == 1 and len(in_col[t]) == 1:   # both hold only d[t][t]
                    break
            if d[t][t] < 0:
                negate_row(t)

    def diag(i):
        return d[i].get(i, 0)

    diagonalize()
    # enforce the divisibility chain: on a violation, mix the columns and
    # rediagonalize; each fix strictly shrinks the earlier diagonal entry.
    while True:
        rank = sum(1 for i in range(limit) if diag(i) != 0)
        violation = None
        for i in range(rank - 1):
            if diag(i + 1) % diag(i) != 0:
                violation = i
                break
        if violation is None:
            break
        add_col(violation + 1, violation, 1)
        diagonalize()

    return SNF(IMat.of(rows, rows, u), IMat.of(rows, cols, d),
               IMat.of(cols, cols, v_t), IMat.of(rows, rows, uinv_t), rank)


def solve(m: IMat, b: list[int]) -> list[int] | None:
    """An integer solution x of M x = b, or None if none exists.

    The factorization is cached on ``m``, so solving many right-hand sides
    against one matrix costs one SNF total. A solve then reads only the
    columns of U at b's nonzeros and the rows of ``v_t`` at y's nonzeros.
    """
    if len(b) != m.rows:
        raise ValueError("shape mismatch")
    s = m.snf()
    y = s.u_times(b)
    for i, x in y.items():
        di = s.d.nz[i].get(i, 0)
        if not di or x % di:
            return None
        y[i] = x // di
    return s.v_times(y)


def kernel_basis(m: IMat) -> IMat:
    """Basis of ker(M) as columns; a pure sublattice of Z^cols."""
    s = m.snf()
    return IMat.of(m.cols - s.rank, m.cols, s.v_t.nz[s.rank:]).transpose()


def lattice_contains(gens: IMat, vec: list[int]) -> bool:
    """Is vec in the lattice spanned by the columns of gens?"""
    return solve(gens, vec) is not None


def lattice_subset(a: IMat, b: IMat) -> bool:
    """Column lattice of a contained in column lattice of b?"""
    return all(lattice_contains(b, col) for col in a.columns())


def lattice_equal(a: IMat, b: IMat) -> bool:
    return lattice_subset(a, b) and lattice_subset(b, a)


def rank_q(m: IMat) -> int:
    """Rank over Q (equals the SNF rank)."""
    return m.snf().rank
