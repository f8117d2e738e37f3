"""Integer matrix algebra: Smith normal form, solving, kernels, lattices.

Entries are Python ints (arbitrary precision, so SNF pivot growth cannot
overflow). Shapes are tracked explicitly so zero-row and zero-column
matrices behave; those occur constantly as (co)chain groups of small cell
complexes.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd


class IMat:
    """Sparse integer matrix with explicit shape.

    Row ``i`` is stored as a ``{column: nonzero entry}`` dict in ``nz[i]``;
    zero entries are never stored, so equality of matrices is equality of
    their row dicts. Indexing ``m[i, j]`` reads single entries.

    A matrix is never changed after it is built, so ``snf()`` keeps its
    factorization (``_snf``) and ``invariant_factors`` its factors
    (``_factors``) on the instance for good.
    """

    __slots__ = ("rows", "cols", "nz", "_snf", "_factors", "__weakref__")

    def __init__(self, rows: int, cols: int):
        self.rows, self.cols, self.nz = rows, cols, [{} for _ in range(rows)]
        self._snf = self._factors = None

    @staticmethod
    def of(rows: int, cols: int, nz: list) -> "IMat":
        """Wrap row dicts (no zero values) without copying them."""
        m = IMat.__new__(IMat)
        m.rows, m.cols, m.nz, m._snf, m._factors = rows, cols, nz, None, None
        return m

    def snf(self) -> "SNF":
        if self._snf is None:
            self._snf = smith_normal_form(self)
        return self._snf

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

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) outside {self.rows}x{self.cols}")
        return self.nz[i].get(j, 0)

    def __eq__(self, other):
        return (isinstance(other, IMat) and self.rows == other.rows
                and self.cols == other.cols and self.nz == other.nz)

    def __repr__(self):
        return f"IMat({self.rows}x{self.cols}, {self.nz})"

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


def _add_row(rows, in_col, dst: int, src: dict, k: int):
    """rows[dst] += k * src, keeping the column index exact: ``in_col[j]``
    holds the rows with a nonzero in column j."""
    row = rows[dst]
    for j, x in src.items():
        y = row.get(j, 0) + k * x
        if y:
            row[j] = y
            in_col[j].add(dst)
        else:
            del row[j]
            in_col[j].discard(dst)


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

    The elimination builds D and logs its row and column operations. U, V^-1
    (``vinv``), and V and U^-1 transposed (``v_t``, ``uinv_t``: row i is column
    i) are each replayed from the log on first read; rows rank.. of ``vinv``
    are a left inverse of the kernel basis. ``smith_normal_form`` builds every
    record, through ``_logged``.
    """

    _fields = ("u", "d", "v_t", "uinv_t", "rank")
    __slots__ = ("d", "rank", "_t", "u_t", "__weakref__")

    @staticmethod
    def _logged(d: IMat, rank: int, row_ops: list, col_ops: list) -> "SNF":
        s = SNF.__new__(SNF)
        s.d, s.rank = d, rank
        s.u_t = None            # the columns of U as rows, built by the first ``u_times``
        s._t = {"u": (row_ops, d.rows, False), "uinv_t": (row_ops, d.rows, True),
                "v_t": (col_ops, d.cols, False), "vinv": (col_ops, d.cols, True)}
        return s

    def _transform(self, name: str) -> IMat:
        """The transform, replayed on first read from its log of ops ``(src,
        dst, k)`` on the rows of the n x n identity: k = 0 swaps two rows,
        src == dst negates one, any other op adds k * row src to row dst, or,
        for an inverse, -k * row dst to row src. The row log so gives U or
        U^-1 transposed, the column log V transposed or V^-1."""
        t = self._t[name]
        if isinstance(t, IMat):     # replayed by an earlier read
            return t
        ops, n, inverse = t
        rows = [{i: 1} for i in range(n)]
        for src, dst, k in ops:
            if not k:
                rows[src], rows[dst] = rows[dst], rows[src]
            elif src == dst:
                rows[src] = {j: -x for j, x in rows[src].items()}
            elif inverse:
                _axpy(rows[src], rows[dst], -k)
            else:
                _axpy(rows[dst], rows[src], k)
        t = self._t[name] = IMat.of(n, n, rows)
        return t

    u = property(lambda self: self._transform("u"))
    uinv_t = property(lambda self: self._transform("uinv_t"))
    v_t = property(lambda self: self._transform("v_t"))
    vinv = property(lambda self: self._transform("vinv"))

    def diagonal(self) -> list[int]:
        return [self.d[i, i] for i in range(min(self.d.rows, self.d.cols))]

    def u_times(self, pairs) -> dict:
        """U b as ``{row: nonzero}`` for b given by (index, value) pairs,
        summed over the nonzero values."""
        if self.u_t is None:
            self.u_t = self.u.transpose()
        out = {}
        for j, x in pairs:
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
    columns right of it, until both are clear.
    """
    rows, cols = m.rows, m.cols
    d = m.copy().nz
    row_ops, col_ops = [], []
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
        row_ops.append((i, j, 0))

    def swap_cols(i, j):
        for r in in_col[i] | in_col[j]:
            row = d[r]
            a, b = row.pop(i, 0), row.pop(j, 0)
            if a:
                row[j] = a
            if b:
                row[i] = b
        in_col[i], in_col[j] = in_col[j], in_col[i]
        col_ops.append((i, j, 0))

    def add_row(src, dst, k):
        # row_dst += k * row_src
        if not k:
            return
        _add_row(d, in_col, dst, d[src], k)
        row_ops.append((src, dst, k))

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
        col_ops.append((src, dst, k))

    def negate_row(i):
        d[i] = {j: -x for j, x in d[i].items()}
        row_ops.append((i, i, -1))

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

    return SNF._logged(IMat.of(rows, cols, d), rank, row_ops, col_ops)


def solve(m: IMat, b: list[int]) -> list[int] | None:
    """An integer solution x of M x = b, or None if none exists.

    The factorization is cached on ``m``, so solving many right-hand sides
    against one matrix costs one SNF total. A solve then reads only the
    columns of U at b's nonzeros and the rows of ``v_t`` at y's nonzeros.
    """
    if len(b) != m.rows:
        raise ValueError("shape mismatch")
    return _solve_factored(m.snf(), enumerate(b))


def solve_columns(m: IMat, b: IMat) -> IMat | None:
    """X with M X = B, or None if a column of B has no integer solution;
    each column of B is read by its nonzeros only, and M is factored only
    when B has a column."""
    if b.rows != m.rows:
        raise ValueError("shape mismatch")
    cols = []
    for col in b.transpose().nz:
        x = _solve_factored(m.snf(), col.items())
        if x is None:
            return None
        cols.append(x)
    return IMat.from_columns(cols, m.cols)


def _solve_factored(s: SNF, pairs) -> list[int] | None:
    y = s.u_times(pairs)
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


def lattice_subset(a: IMat, b: IMat) -> bool:
    """Column lattice of a contained in column lattice of b?"""
    return solve_columns(b, a) is not None


def lattice_equal(a: IMat, b: IMat) -> bool:
    return lattice_subset(a, b) and lattice_subset(b, a)


def rank_q(m: IMat) -> int:
    """Rank over Q (equals the SNF rank), with no U or V built."""
    return len(invariant_factors(m))


# ---------------------------------------------------------------------------
# invariant factors without U or V

def invariant_factors(m: IMat) -> list[int]:
    """The nonzero diagonal entries of M's Smith normal form, in order.

    No U or V is built, a factorization cached by ``m.snf()`` is not read,
    and the factors are kept on ``m``. A unit entry clears its column by row
    operations, and its row then by column operations that touch nothing
    else, so it gives one factor 1 and both are dropped; on boundary matrices
    that leaves little or nothing. The rows left, none holding a unit, go to
    ``_dense_factors``, whose coefficients stay bounded where the full SNF's
    pivot rule lets them grow.
    """
    if m._factors is not None:
        return m._factors
    rows = {i: dict(r) for i, r in enumerate(m.nz) if r}
    in_col = defaultdict(set)
    for i, row in rows.items():
        for j in row:
            in_col[j].add(i)
    units = 0
    todo = sorted(rows, reverse=True)
    while todo:
        i = todo.pop()
        row = rows.get(i, {})
        j = next((j for j, x in row.items() if x in (1, -1)), None)
        if j is None:
            continue
        units += 1
        del rows[i]
        for c in row:
            in_col[c].discard(i)
        for r in sorted(in_col[j]):
            _add_row(rows, in_col, r, row, -rows[r][j] * row[j])
            if rows[r]:
                todo.append(r)
            else:
                del rows[r]
    m._factors = [1] * units + (_dense_factors(list(rows.values())) if rows else [])
    return m._factors


def _dense_factors(rows: list) -> list[int]:
    """Invariant factors of the rows left with no unit entry.

    Fraction-free elimination (Bareiss) finds the rank r and a nonzero r x r
    minor ``det``; each of its entries is a minor, so none outgrows the
    Hadamard bound. The r factors divide det, so they are read from the
    Smith form over Z/det: diagonalize with every entry reduced mod det,
    take gcd(e, det) of each diagonal entry e, and sort those into a
    divisibility chain, whose first r entries are the factors.
    """
    cols = sorted({j for row in rows for j in row})
    a = [[row.get(j, 0) for j in cols] for row in rows]
    n, width = len(a), len(cols)
    rank, det = _rank_and_minor([list(row) for row in a])
    det = abs(det)
    a = [[x % det for x in row] for row in a]
    diag = []
    for t in range(min(n, width)):
        while True:
            nonzero = [(a[i][j], i, j) for i in range(t, n) for j in range(t, width) if a[i][j]]
            if not nonzero:
                break
            _, i, j = min(nonzero)
            a[t], a[i] = a[i], a[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
            p = a[t][t]
            for row in a[t + 1:]:
                q = row[t] // p
                if q:
                    for c in range(t, width):
                        row[c] = (row[c] - q * a[t][c]) % det
            for c in range(t + 1, width):
                q = a[t][c] // p
                if q:
                    for row in a[t:]:
                        row[c] = (row[c] - q * row[t]) % det
            if not any(row[t] for row in a[t + 1:]) and not any(a[t][t + 1:]):
                break
        diag.append(gcd(a[t][t], det))
    # cyclic orders to a divisibility chain: (a, b) -> (gcd, lcm)
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag[:rank]


def _rank_and_minor(a: list) -> tuple:
    """(r, a nonzero r x r minor) of a dense matrix, eliminated in place."""
    n, width = len(a), len(a[0]) if a else 0
    prev = 1
    for k in range(min(n, width)):
        pos = next(((i, j) for i in range(k, n) for j in range(k, width) if a[i][j]), None)
        if pos is None:
            return k, prev
        i, j = pos
        a[k], a[i] = a[i], a[k]
        for row in a[k:]:
            row[k], row[j] = row[j], row[k]
        p = a[k][k]
        for row in a[k + 1:]:
            for c in range(k + 1, width):
                row[c] = (row[c] * p - row[k] * a[k][c]) // prev
        prev = p
    return min(n, width), prev
