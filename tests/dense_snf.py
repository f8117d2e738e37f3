"""The dense Smith normal form, kept as the oracle for the sparse one.

``smith_normal_form`` below is the elimination ``tdual.intlin`` ran on dense
row lists before its matrices became sparse, copied without change. The
sparse code must perform exactly the same elementary operations, so the
differential tests in ``test_intlin.py`` require all five factors to agree
entry for entry. ``IMat`` here is the minimal dense matrix that function
needs: an explicit shape and a list of rows.
"""

from __future__ import annotations

from dataclasses import dataclass


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
