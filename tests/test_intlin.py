"""Integer matrix algebra: Smith normal form and lattice arithmetic."""

import itertools
import random
import time
import weakref
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import dense_snf
from dense_snf import from_rows
from tdual import intlin
from tdual.complexes import BUILTIN_NAMES, builtin_space, product_with_circle, s3_two_disc
from tdual.intlin import (IMat, invariant_factors, kernel_basis, lattice_equal,
                          rank_q, smith_normal_form, solve, solve_columns)


def test_hand_reduced_example():
    # gcd of entries is 2; |det| = |16 - 24| = 8, so the chain is (2, 4)
    s = smith_normal_form(from_rows([[2, 4], [6, 8]]))
    assert s.diagonal() == [2, 4]
    # a record: == and repr read the transforms, replayed on first read
    assert s == smith_normal_form(from_rows([[2, 4], [6, 8]])) != \
        smith_normal_form(from_rows([[2, 4], [6, 9]]))
    assert repr(s) == f"SNF(u={s.u!r}, d={s.d!r}, v_t={s.v_t!r}, uinv_t={s.uinv_t!r}, rank=2)"


def test_zero_matrix():
    assert smith_normal_form(IMat(2, 3)).diagonal() == [0, 0]


def test_identity_matrix():
    assert smith_normal_form(IMat.identity(4)).diagonal() == [1, 1, 1, 1]


def test_arbitrary_precision_entries():
    m = from_rows([[10 ** 14, 3], [7, 10 ** 17]])
    s = smith_normal_form(m)
    assert (s.u @ m) @ s.v_t.transpose() == s.d


matrices = st.integers(0, 4).flatmap(
    lambda r: st.integers(0, 4).flatmap(
        lambda c: st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c),
                           min_size=r, max_size=r).map(
            lambda data: from_rows(data, c))))


@settings(max_examples=120, deadline=None)
@given(matrices)
def test_snf_structure(m):
    s = smith_normal_form(m)
    assert (s.u @ m) @ s.v_t.transpose() == s.d
    assert s.u @ s.uinv_t.transpose() == IMat.identity(m.rows)
    diag = s.diagonal()
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert s.d[i, j] == 0
    chain = [x for x in diag if x]
    assert all(x > 0 for x in chain)
    for a, b in zip(chain, chain[1:]):
        assert b % a == 0


@settings(max_examples=80, deadline=None)
@given(matrices, st.lists(st.integers(-5, 5), min_size=0, max_size=4))
def test_solve_recovers_image_vectors(m, x):
    x = (x + [0] * m.cols)[:m.cols]
    b = m.mul_vec(x)
    got = solve(m, b)
    assert got is not None
    assert m.mul_vec(got) == b


def test_solve_detects_unsolvable():
    assert solve(from_rows([[2]]), [1]) is None
    assert solve(from_rows([[2, 0], [0, 3]]), [1, 1]) is None


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_kernel_basis_annihilates(m):
    k = kernel_basis(m)
    assert (m @ k).is_zero()
    assert k.cols == m.cols - rank_q(m)


def test_lattice_equality():
    a = from_rows([[2, 0], [0, 2]])
    b = from_rows([[2, 2], [0, 2]])
    assert lattice_equal(a, b)
    assert not lattice_equal(a, IMat.identity(2))
    assert solve(IMat.identity(2), [5, -3]) is not None
    assert solve(a, [1, 0]) is None


# ---------------------------------------------------------------------------
# the sparse elimination against the dense oracle

def _rows(m: IMat) -> list:
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def _columns(m: IMat) -> list:
    return [[m[i, j] for i in range(m.rows)] for j in range(m.cols)]


def assert_matches_dense_oracle(m: IMat):
    rows = _rows(m)
    want = dense_snf.smith_normal_form(dense_snf.IMat(m.rows, m.cols, rows))
    got = smith_normal_form(m)
    factors = {"u": got.u, "d": got.d, "v": got.v_t.transpose(), "uinv": got.uinv_t.transpose()}
    for name in ("u", "d", "v", "uinv"):
        assert _rows(factors[name]) == getattr(want, name).data, name
    assert got.rank == want.rank
    assert _rows(m) == rows          # the input is left alone


@settings(max_examples=150, deadline=None)
@given(matrices)
# a column step whose quotient is 0: add_col returns before it logs an op
@example(from_rows([[-3, 2, -3], [1, -3, -4], [-4, -1, -2]]))
def test_snf_matches_dense_oracle(m):
    assert_matches_dense_oracle(m)


sparse_unit_matrices = st.integers(0, 30).flatmap(
    lambda r: st.integers(0, 30).flatmap(
        lambda c: st.dictionaries(st.tuples(st.integers(0, max(r - 1, 0)),
                                            st.integers(0, max(c - 1, 0))),
                                  st.sampled_from((-1, 1)),
                                  max_size=2 * (r + c) if r and c else 0).map(
            lambda entries: from_rows([[entries.get((i, j), 0) for j in range(c)]
                                       for i in range(r)], c))))


@settings(max_examples=150, deadline=None)
@given(sparse_unit_matrices)
def test_snf_of_sparse_unit_matrices_matches_dense_oracle(m):
    assert_matches_dense_oracle(m)


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices, sparse_unit_matrices))
def test_replayed_transforms_invert_each_other(m):
    # V^-1 has no dense oracle: V matches the oracle, so V @ V^-1 == I pins it
    s = smith_normal_form(m)
    assert s.v_t.transpose() @ s.vinv == IMat.identity(m.cols)
    assert s.u @ s.uinv_t.transpose() == IMat.identity(m.rows)
    assert s.vinv @ s.v_t.transpose() == IMat.identity(m.cols)


def _boundary_cases():
    spaces = {name: builtin_space(name) for name in BUILTIN_NAMES}
    spaces["S3+xS1"] = product_with_circle(s3_two_disc())
    for name, x in spaces.items():
        for k in range(1, x.top + 2):
            yield pytest.param(x.bmat(k), id=f"{name}-d{k}")
            yield pytest.param(x.bmat(k).transpose(), id=f"{name}-delta{k - 1}")


@pytest.mark.parametrize("m", list(_boundary_cases()))
def test_snf_of_builtin_boundaries_matches_dense_oracle(m):
    assert_matches_dense_oracle(m)


# ---------------------------------------------------------------------------
# the sparse products against the old row-by-row ones

def assert_products_match_oracle(m: IMat, rhs):
    assert _rows(kernel_basis(m)) == _rows(dense_snf.kernel_basis(m))
    for b in rhs:
        assert solve(m, b) == dense_snf.solve(m, b), b


def _rhs(m: IMat, draw_ints):
    """Right-hand sides for m: images of integer vectors (solvable) and raw
    vectors (often not), with the zero vector."""
    return [m.mul_vec(draw_ints(m.cols)), draw_ints(m.rows), [0] * m.rows]


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices, sparse_unit_matrices), st.data())
def test_solve_and_kernel_match_old_products(m, data):
    def ints(n):
        return data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    assert_products_match_oracle(m, _rhs(m, ints))


@settings(max_examples=100, deadline=None)
@given(st.one_of(matrices, sparse_unit_matrices), st.data())
def test_solve_columns_solves_each_column(m, data):
    # images of integer vectors, and raw columns that often have no solution
    x = from_rows([data.draw(st.lists(st.integers(-5, 5), min_size=3, max_size=3))
                   for _ in range(m.cols)], 3)
    raw = from_rows([data.draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2))
                     for _ in range(m.rows)], 2)
    for b in (m @ x, (m @ x).hstack(raw)):
        want = [dense_snf.solve(m, col) for col in _columns(b)]
        got = solve_columns(m, b)
        if None in want:
            assert got is None
        else:
            assert _columns(got) == want


def test_unsolvable_right_hand_sides_match_old_products():
    # b = 1 against D = 2; b outside the image of a rank-deficient matrix
    for m, b in ((from_rows([[2]]), [1]), (from_rows([[2, 0], [0, 3]]), [1, 1]),
                 (from_rows([[1, 1], [1, 1]]), [1, 0]), (IMat(2, 0), [0, 1])):
        assert solve(m, b) is None
        assert_products_match_oracle(m, [b])


@pytest.mark.parametrize("m", list(_boundary_cases()))
def test_products_on_builtin_boundaries_match_old_products(m):
    rng = random.Random(m.rows * 1009 + m.cols)
    assert_products_match_oracle(m, _rhs(m, lambda n: [rng.randint(-3, 3) for _ in range(n)])
                                 + [m.mul_vec([1] * m.cols)])


def test_dropped_matrix_frees_its_factors():
    # no module-level cache: the U columns that a solve builds live on the
    # SNF, which lives on the matrix
    m = from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    for b in ([2, -6, 10], [1, 0, 0]):
        assert solve(m, b) == dense_snf.solve(m, b)
    s = m.snf()
    refs = [weakref.ref(x) for x in (m, s, s.u_t)]
    assert all(r() is not None for r in refs)
    del m, s
    assert [r() for r in refs] == [None, None, None]


# ---------------------------------------------------------------------------
# invariant factors without U or V

def _det(rows: list) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot], sign = a[pivot], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def _determinantal_factors(rows: list, cols: int) -> list:
    """d_k = D_k / D_(k-1), with D_k the gcd of all k x k minors, while D_k != 0."""
    factors, before = [], 1
    for k in range(1, min(len(rows), cols) + 1):
        divisor = 0
        for rs in itertools.combinations(range(len(rows)), k):
            for cs in itertools.combinations(range(cols), k):
                divisor = gcd(divisor, _det([[rows[i][j] for j in cs] for i in rs]))
        if not divisor:
            break
        factors.append(divisor // before)
        before = divisor
    return factors


def _random_small_matrices(seed: int, count: int):
    # dense and sparse, and some with a repeated row so the rank drops
    rng = random.Random(seed)
    for _ in range(count):
        r, c, density = rng.randint(0, 5), rng.randint(0, 6), rng.random()
        rows = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(c)]
                for _ in range(r)]
        if r > 1 and rng.random() < 0.3:
            rows[rng.randrange(1, r)] = list(rows[0])
        yield rows, c


@pytest.mark.parametrize("seed", range(4))
def test_invariant_factors_match_determinantal_divisors(seed):
    for rows, c in _random_small_matrices(seed, 100):
        assert invariant_factors(from_rows(rows, c)) == _determinantal_factors(rows, c), rows


# the dense 6x7 matrix of README's input limits: the full SNF does not
# finish on it in a minute
DENSE_6X7 = [[5, -2, -5, 3, 8, 2, -9], [-7, 9, 4, -9, -5, 6, 8], [-7, 6, -3, 2, -9, -2, -9],
             [7, 5, 9, -2, 7, -2, -1], [-8, 9, -7, 7, 1, -9, -5], [-9, 4, -1, -6, 2, -3, 8]]


def test_invariant_factors_of_a_dense_matrix_stay_fast():
    start = time.perf_counter()
    factors = invariant_factors(from_rows(DENSE_6X7))
    assert time.perf_counter() - start < 1.0
    assert factors == [1, 1, 1, 1, 1, 3] == _determinantal_factors(DENSE_6X7, 7)


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices, sparse_unit_matrices))
def test_invariant_factors_match_the_snf_diagonal(m):
    got = invariant_factors(m)
    assert m._snf is None            # no U or V was built
    s = smith_normal_form(m)
    assert got == s.diagonal()[:s.rank]
    assert rank_q(m) == s.rank


@pytest.mark.parametrize("m", list(_boundary_cases()))
def test_invariant_factors_of_builtin_boundaries_match_the_snf(m):
    fresh = m.copy()
    s = smith_normal_form(m)
    assert invariant_factors(fresh) == s.diagonal()[:s.rank]
    assert fresh._snf is None


@pytest.mark.parametrize("rows", [[[2, 3], [3, 5]], [[2, 3], [4, 6], [3, 5]]])
def test_invariant_factors_with_a_unit_minor_and_no_unit_entry(rows):
    # the Smith form taken mod a minor of 1 reads every factor as 1
    assert invariant_factors(from_rows(rows)) == [1, 1] == _determinantal_factors(rows, 2)


@pytest.mark.parametrize("unit", [1, -1])
def test_unit_pass_pivots_on_units_of_either_sign(monkeypatch, unit):
    # every entry is the same unit, and the elimination makes the other sign
    # (row 1 becomes -unit * e1), so a unit pass that missed either sign
    # would leave rows for the dense route
    dense = []
    monkeypatch.setattr(intlin, "_dense_factors", lambda rows: dense.append(rows) or [])
    m = from_rows([[unit, unit, 0], [unit, 0, 0], [0, unit, unit]])
    assert invariant_factors(m) == [1, 1, 1] and dense == []


def test_the_pivot_search_stops_at_a_unit(monkeypatch):
    # lower unitriangular: after each step the next row's first remaining
    # entry is its unit, so the search reads one entry per step; read on to
    # the end of the block, it would read every entry left below
    rng, n = random.Random(17), 7
    m = from_rows([[rng.randint(2, 9) for _ in range(i)] + [1] + [0] * (n - 1 - i)
                        for i in range(n)])
    reads = []
    monkeypatch.setattr(intlin, "abs", lambda x: reads.append(x) or abs(x), raising=False)
    assert smith_normal_form(m).diagonal() == [1] * n
    assert reads == [1] * n


def test_invariant_factors_never_read_a_cached_factorization():
    m = from_rows([[2, 4], [6, 8]])
    m.snf().d.nz[1][1] = 12           # a stand-in diagonal would show through a side door
    assert invariant_factors(m) == [2, 4]


def test_invariant_factors_are_kept_on_the_matrix(monkeypatch):
    m = from_rows([[2, 4], [6, 8]])
    factors = invariant_factors(m)
    monkeypatch.setattr(intlin, "_dense_factors", lambda rows: pytest.fail("factored twice"))
    assert invariant_factors(m) is factors == [2, 4] and rank_q(m) == 2
    assert m.copy()._factors is None and m.transpose()._factors is None


# ---------------------------------------------------------------------------
# refusals

@pytest.mark.parametrize("call, exc, message", [
    (lambda: IMat.from_columns([[1, 2]], 3), ValueError, "column length mismatch"),
    (lambda: IMat(2, 2)[2, 0], IndexError, "index (2, 0) outside 2x2"),
    (lambda: IMat(2, 3) @ IMat(2, 3), ValueError, "shape mismatch 2x3 @ 2x3"),
    (lambda: IMat(2, 3).mul_vec([1, 2]), ValueError, "shape mismatch"),
    (lambda: IMat(2, 3).hstack(IMat(3, 1)), ValueError, "row mismatch"),
    (lambda: solve(IMat(2, 3), [1]), ValueError, "shape mismatch"),
    (lambda: solve_columns(IMat(2, 3), IMat(1, 2)), ValueError, "shape mismatch"),
], ids=["from-columns", "index", "matmul", "mul-vec", "hstack", "solve", "solve-columns"])
def test_refusals(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
