"""The dense Smith normal form, kept as the oracle for the sparse one.

``smith_normal_form`` below is the elimination ``tdual.intlin`` ran on dense
row lists before its matrices became sparse, copied without change. The
sparse code must perform exactly the same elementary operations, so the
differential tests in ``test_intlin.py`` require all five factors to agree
entry for entry. ``IMat`` here is the minimal dense matrix that function
needs: an explicit shape and a list of rows; ``from_rows`` gives the sparse
``tdual.intlin.IMat`` of such a list, with the shape read off it.

The second half keeps the old solve, kernel and class-coordinate products,
which read U and V by rows, as the oracle for the sparse products.
"""

from __future__ import annotations

from dataclasses import dataclass

from tdual import intlin


class IMat:
    """Dense integer matrix: ``data`` is a list of ``rows`` lists."""

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        self.data = ([[0] * cols for _ in range(rows)] if data is None
                     else [list(r) for r in data])

    @staticmethod
    def identity(n: int) -> "IMat":
        m = IMat(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    def copy(self) -> "IMat":
        return IMat(self.rows, self.cols, self.data)


def from_rows(data) -> intlin.IMat:
    """The sparse matrix of a list of equal-length rows; no rows give 0 x 0."""
    return intlin.IMat(len(data), len(data[0]) if data else 0, data)


@dataclass
class SNF:
    u: IMat
    d: IMat
    v: IMat
    uinv: IMat
    rank: int


def smith_normal_form(m: IMat) -> SNF:
    rows, cols = m.rows, m.cols
    d = m.copy()
    u, uinv = IMat.identity(rows), IMat.identity(rows)
    v = IMat.identity(cols)

    def swap_rows(i, j):
        d.data[i], d.data[j] = d.data[j], d.data[i]
        u.data[i], u.data[j] = u.data[j], u.data[i]
        for row in uinv.data:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in d.data:
            row[i], row[j] = row[j], row[i]
        for row in v.data:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        # row_dst += k * row_src;  U <- E U, Uinv <- Uinv E^-1
        drow_s, drow_d = d.data[src], d.data[dst]
        for j in range(cols):
            drow_d[j] += k * drow_s[j]
        urow_s, urow_d = u.data[src], u.data[dst]
        for j in range(rows):
            urow_d[j] += k * urow_s[j]
        for r in range(rows):
            uinv.data[r][src] -= k * uinv.data[r][dst]

    def add_col(src, dst, k):
        for i in range(rows):
            d.data[i][dst] += k * d.data[i][src]
        for i in range(cols):
            v.data[i][dst] += k * v.data[i][src]

    def negate_row(i):
        d.data[i] = [-x for x in d.data[i]]
        u.data[i] = [-x for x in u.data[i]]
        for r in range(rows):
            uinv.data[r][i] = -uinv.data[r][i]

    limit = min(rows, cols)

    def diagonalize():
        for t in range(limit):
            # smallest nonzero entry of the remaining block becomes the pivot
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    val = abs(d.data[i][j])
                    if val and (best is None or val < best[0]):
                        best = (val, i, j)
            if best is None:
                return
            _, bi, bj = best
            if bi != t:
                swap_rows(t, bi)
            if bj != t:
                swap_cols(t, bj)
            while True:
                for i in range(t + 1, rows):
                    if d.data[i][t]:
                        add_row(t, i, -(d.data[i][t] // d.data[t][t]))
                        if d.data[i][t]:      # remainder smaller than pivot
                            swap_rows(t, i)
                for j in range(t + 1, cols):
                    if d.data[t][j]:
                        add_col(t, j, -(d.data[t][j] // d.data[t][t]))
                        if d.data[t][j]:
                            swap_cols(t, j)
                if all(d.data[i][t] == 0 for i in range(t + 1, rows)) and \
                   all(d.data[t][j] == 0 for j in range(t + 1, cols)):
                    break
            if d.data[t][t] < 0:
                negate_row(t)

    diagonalize()
    # enforce the divisibility chain: on a violation, mix the columns and
    # rediagonalize; each fix strictly shrinks the earlier diagonal entry.
    while True:
        rank = sum(1 for i in range(limit) if d.data[i][i] != 0)
        violation = None
        for i in range(rank - 1):
            if d.data[i + 1][i + 1] % d.data[i][i] != 0:
                violation = i
                break
        if violation is None:
            break
        add_col(violation + 1, violation, 1)
        diagonalize()

    return SNF(u, d, v, uinv, rank)


# ---------------------------------------------------------------------------
# the old products, kept as the oracle for the sparse ones
#
# Before ``SNF`` kept V and U^-1 transposed, ``tdual.intlin`` transposed
# ``v_t`` and ``uinv_t`` back once per factorization, and every solve walked
# all rows of U and of V. The functions below redo that arithmetic: U b and
# V y by rows, the kernel from the rows of V, class vectors from columns of
# U^-1. They read the sparse factorization, whose factors the tests above
# check, so they check the products, not the elimination.

def _v(s):
    return s.v_t.transpose()


def solve(m, b):
    if len(b) != m.rows:
        raise ValueError("shape mismatch")
    s = m.snf()
    ub = s.u.mul_vec(b)
    y = [0] * m.cols
    for i in range(m.rows):
        di = s.d[i, i] if i < min(m.rows, m.cols) else 0
        if di:
            if ub[i] % di != 0:
                return None
            y[i] = ub[i] // di
        elif ub[i] != 0:
            return None
    return _v(s).mul_vec(y)


def kernel_basis(m):
    s = m.snf()
    r = s.rank
    return intlin.IMat.of(m.cols, m.cols - r,
                          [{j - r: x for j, x in row.items() if j >= r} for row in _v(s).nz])


def reduce(space, vec):
    """``SubquotientSpace.reduce`` on a cocycle, by rows of U."""
    c = solve(kernel_basis(space.out_map), list(vec))
    y = space.snf.u.mul_vec(c)
    out = [y[i] % space.torsion_values[k] for k, i in enumerate(space.torsion_slots)]
    out.extend(y[i] for i in space.free_slots)
    return tuple(out)


def generators(space):
    """The vectors of ``SubquotientSpace.generators``, by columns of U^-1."""
    kernel = kernel_basis(space.out_map)
    uinv = space.snf.uinv_t.transpose()
    return [tuple(kernel.mul_vec([r.get(slot, 0) for r in uinv.nz]))
            for slot in space.torsion_slots + space.free_slots]


def class_from_coords(space, coords):
    """The vector of ``SubquotientSpace.class_from_coords``."""
    vec = [0] * space.n
    for coeff, base in zip(coords, generators(space)):
        if coeff:
            vec = [v + coeff * b for v, b in zip(vec, base)]
    return tuple(vec)
