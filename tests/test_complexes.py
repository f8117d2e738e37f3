"""The row-built complexes of ``tdual.complexes`` against the entry-by-entry
builders they replaced (``complex_oracle``): the same cells in the same
order, the same boundary matrices entry for entry, and every coboundary row
in the row order of its boundary column."""

import random
from itertools import combinations

import pytest

import complex_oracle as oracle
from tdual import BUILTIN_NAMES, complexes as cx


def _old(monkeypatch, build):
    """``build()`` with every builder of ``tdual.complexes`` swapped for the
    oracle's and an empty table of process-lived builtins, so every builtin
    is built afresh and no new complex takes part."""
    with monkeypatch.context() as m:
        m.setattr(cx, "build_complex", oracle.build_complex)
        m.setattr(cx, "_product", oracle.product_complex)
        m.setattr(cx, "_process_lived", cx._ProcessLived())
        m.setattr(cx, "_family", lambda key, make: make())
        return build()


def assert_same_complex(new, old):
    assert type(old) is oracle.CellComplex
    assert new.cells == old.cells
    for k in range(1, new.top + 2):
        assert new.bmat(k) == old.bmat(k)
        assert [list(row.items()) for row in new.coboundary(k).nz] == old.bmat(k).col_items()


def _cover_models():
    """Every intersection model of a shuffled 6-set cover of the two-disc S^3."""
    sets = [{"v", "u", "a", "f2", "c3"}, {"u", "f2", "c3out"}, {"v", "u", "a"}, {"u", "f2"},
            {"v", "u", "a", "f2", "c3", "c3out"}, {"u"}]
    random.Random(6).shuffle(sets)
    x = cx.s3_two_disc()
    return [x.subcomplex(frozenset.intersection(*map(frozenset, t)), name=f"U{t}")
            for q in range(len(sets)) for t in combinations(sets, q + 1)
            if frozenset.intersection(*map(frozenset, t))]


def _triangle():
    # incidences listed out of index order, within and across cells
    return cx.build_complex(
        "triangle", {0: ["p", "q", "r"], 1: ["i", "j", "l"], 2: ["f"]},
        {2: {("l", "f"): -1, ("j", "f"): 1, ("i", "f"): 1},
         1: {("r", "l"): 1, ("q", "i"): 1, ("p", "l"): -1, ("p", "i"): -1,
             ("r", "j"): 1, ("q", "j"): -1}})


def _disc_bundle():
    return cx.trivial_disc_bundle(cx.sphere(2), 4)


CASES = {
    **{name: (lambda n=name: [cx.builtin_space(n)]) for name in BUILTIN_NAMES},
    **{f"{name}xS1": (lambda n=name: [cx.product_with_circle(cx.builtin_space(n))])
       for name in BUILTIN_NAMES},
    **{f"I^{k}": (lambda k=k: [cx.interval_power(k)]) for k in range(1, 5)},
    "S2xD4": lambda: [_disc_bundle()[0]],
    "S3+-cover-models": _cover_models,
    # quotients built by the build_complex at hand: the Thom space of S2 x D^4;
    # an edge keeps one endpoint; the two ends of an edge cancel at the basepoint
    "TD(S2xD4)": lambda: [oracle.quotient(*_disc_bundle()[:2])[0]],
    "I/p": lambda: [oracle.quotient(cx.interval(), {"p"})[0]],
    "I/pq": lambda: [oracle.quotient(cx.interval(), {"p", "q"})[0]],
    "triangle": lambda: [_triangle()],
}


@pytest.mark.parametrize("case", list(CASES))
def test_face_table_builders_match_the_entry_by_entry_oracle(case, monkeypatch):
    new, old = CASES[case](), _old(monkeypatch, CASES[case])
    assert len(new) == len(old) > 0
    for n, o in zip(new, old):
        assert_same_complex(n, o)


def test_faces_are_kept_in_face_index_order():
    x = _triangle()
    assert {k: [list(row.items()) for row in rows] for k, rows in x.rows.items()} == {
        0: [[], [], []],
        1: [[(0, -1), (1, 1)], [(1, -1), (2, 1)], [(0, -1), (2, 1)]],
        2: [[(0, 1), (1, 1), (2, -1)]]}
    assert list(oracle.faces(x, "l").items()) == [("p", -1), ("r", 1)]
    assert x.coboundary(2).nz is x.rows[2]


@pytest.mark.parametrize("incidences, missing", [
    ({5: {("qq", "zz"): 7}}, "qq"),          # neither cell exists: the face is named
    ({3: {("v", "c"): 3}}, "v"),             # v is a 0-cell, not a 2-cell
    ({1: {("v", "c"): 3}}, "c"),             # c is a 3-cell, not a 1-cell
    ({0: {("v", "v"): 1}}, "v"),
])
def test_incidences_outside_the_complex_are_rejected(incidences, missing):
    with pytest.raises(KeyError) as exc:
        cx.build_complex("X", {0: ["v"], 3: ["c"]}, incidences)
    assert exc.value.args == (missing,)


@pytest.mark.parametrize("cells", [{0: ["v"], 1: ["v"]}, {0: ["v", "v"]}],
                         ids=["across", "within"])
def test_cell_ids_must_be_distinct_within_and_across_degrees(cells):
    with pytest.raises(ValueError, match="cell ids of X are not distinct"):
        cx.build_complex("X", cells)


def test_boundary_squared_nonzero_is_refused_where_cells_enter():
    with pytest.raises(ValueError, match="boundary squared nonzero at degree 2 in X"):
        cx.build_complex("X", {0: ["v"], 1: ["e"], 2: ["f"]},
                         {1: {("v", "e"): 1}, 2: {("e", "f"): 1}})


def test_only_build_complex_checks_boundary_squared(monkeypatch):
    # products and subcomplexes of a checked complex are trusted
    calls = []
    check = cx.CellComplex.validate_square_zero
    monkeypatch.setattr(cx.CellComplex, "validate_square_zero",
                        lambda self: calls.append(self.name) or check(self))
    x, y = _triangle(), cx.build_complex("J", {0: ["s", "t"], 1: ["j"]},
                                         {1: {("t", "j"): 1, ("s", "j"): -1}})
    assert calls == ["triangle", "J"]
    cx.product_complex(x, y)
    x.subcomplex({"p", "q", "i"})
    assert calls == ["triangle", "J"]


def test_circle_product_ids_are_the_cells_of_the_circle_product():
    x = cx.cone_on_s2()
    assert cx.circle_product_ids({"u", "f2"}) == frozenset(
        {("u", "a"), ("u", "e"), ("f2", "a"), ("f2", "e")})
    assert cx.circle_product_ids(x.all_ids()) == cx.product_with_circle(x).all_ids()


def test_a_missing_cell_is_named_in_a_sentence():
    # the KeyError's args stay (cell,); its text says what is missing and where
    with pytest.raises(cx.MissingCell) as exc:
        cx.build_complex("X", {0: ["v"], 3: ["c"]}, {1: {("v", "c"): 3}})
    assert str(exc.value) == "degree 1 incidence of 'v' in 'c': there is no cell 'c' of degree 1"


@pytest.mark.parametrize("k", [0, -2])
def test_interval_power_below_one_is_refused(k):
    with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
        cx.interval_power(k)


# ---------------------------------------------------------------------------
# refusals

@pytest.mark.parametrize("call, message", [
    (lambda: cx.sphere(1), "use circle() for S^1"),
    (lambda: cx.lens(0), "p must be >= 1"),
], ids=["sphere-1", "lens-0"])
def test_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# products and subcomplexes that write their rows, against the face-dict
# builders they replaced (``complex_oracle.face_dict_*``)

def assert_same_rows(new, old, same_factors: bool = True):
    assert type(new) is type(old) is cx.CellComplex
    assert (new.name, new.cells) == (old.name, old.cells)
    assert [(k, [list(row.items()) for row in rows]) for k, rows in new.rows.items()] == \
        [(k, [list(row.items()) for row in rows]) for k, rows in old.rows.items()]
    for k in range(-1, new.top + 2):
        assert new.coboundary(k) == old.coboundary(k)
        assert all(list(row) == sorted(row) for row in new.coboundary(k).nz)
    if same_factors:
        assert new == old


def _product_pair(kind: str, arg) -> tuple:
    """(row-built product, face-dict product) of the kind ``XxS1``, ``S1xX``
    or ``XxI`` for the builtin X named ``arg``, or ``S2xD`` for D = I^arg."""
    if kind == "S2xD":
        s2 = cx.sphere(2)
        return (cx.trivial_disc_bundle(s2, arg)[0],
                oracle.face_dict_product(s2, cx.interval_power(arg), name=f"S2xD{arg}"))
    x, s1, i = cx.builtin_space(arg), cx.circle(), cx.interval()
    if kind == "XxS1":
        return cx.product_with_circle(x), oracle.face_dict_product(x, s1, name=f"{x.name}xS1")
    if kind == "XxI":
        return cx.product_complex(x, i), oracle.face_dict_product(x, i)
    return cx.product_complex(s1, x), oracle.face_dict_product(s1, x)


@pytest.mark.parametrize("kind, arg", [(kind, name) for kind in ("XxS1", "S1xX", "XxI")
                                       for name in BUILTIN_NAMES]
                         + [("S2xD", k) for k in range(1, 6)])
def test_row_built_products_match_the_face_dict_products(kind, arg):
    assert_same_rows(*_product_pair(kind, arg))


def test_cubes_match_iterated_face_dict_products():
    old = cx.interval()
    for k in range(2, 6):
        old = oracle.face_dict_product(old, cx.interval(), name=f"I^{k}")
        new = cx.interval_power(k)
        assert_same_rows(new, old, same_factors=False)
        assert new.product_of[1] is cx.interval()


@pytest.mark.parametrize("k", range(1, 6))
def test_disc_bundle_subcomplexes_match_the_face_dict_subcomplexes(k):
    total, sphere_ids, f_ids = cx.trivial_disc_bundle(cx.sphere(2), k)
    for ids in (sphere_ids, f_ids, total.all_ids()):
        sub = total.subcomplex(ids)       # named when first built, maybe elsewhere
        assert_same_rows(sub, oracle.face_dict_subcomplex(total, ids, name=sub.name))
    assert cx.product_complex(total.subcomplex(f_ids), cx.circle()).n_cells(3) == 1


def _outcome(build):
    try:
        return build()
    except cx.NotASubcomplex as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(8))
def test_random_subcomplexes_match_the_face_dict_subcomplexes(seed):
    rng = random.Random(seed)
    spaces = [cx.product_with_circle(cx.builtin_space(name)) for name in BUILTIN_NAMES]
    spaces.append(cx.trivial_disc_bundle(cx.cone_on_s2(), 2)[0])
    for x in spaces:
        cells = sorted(x.all_ids(), key=str)
        for _ in range(4):
            pick = rng.sample(cells, rng.randint(0, len(cells)))
            for ids in (oracle.closure(x, pick), set(pick), set(pick) | {("no", "cell")}):
                got = _outcome(lambda: x.subcomplex(ids))
                want = _outcome(lambda: oracle.face_dict_subcomplex(x, ids))
                if isinstance(want, str):
                    assert got == want
                    assert _outcome(lambda: x.check_subcomplex(ids)) == want
                else:
                    assert_same_rows(got, want)
                    assert x.check_subcomplex(ids) == frozenset(ids)


def test_a_cell_set_with_a_built_subcomplex_is_not_scanned_again(monkeypatch):
    total, sphere_ids, f_ids = cx.trivial_disc_bundle(cx.sphere(2), 4)
    total.subcomplex(sphere_ids)
    reads = []

    class Counting(dict):
        """The row store, noting every read of it."""

        def __iter__(self):
            reads.append("iter")
            return super().__iter__()

        def items(self):
            reads.append("items")
            return super().items()

        def __getitem__(self, k):
            reads.append(k)
            return super().__getitem__(k)

    monkeypatch.setattr(total, "rows", Counting(total.rows))
    assert total.check_subcomplex(set(sphere_ids)) == sphere_ids
    assert reads == []
    # a set whose subcomplex is not built yet is scanned
    vertex = frozenset(total.cell_ids(0)[:1])
    assert vertex not in total.derived
    assert total.check_subcomplex(vertex) == vertex
    assert reads


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "wedge:0"])
def test_a_builtin_model_name_resolves_to_the_same_model(name):
    model = cx.builtin_space(name)
    assert cx.builtin_space(model.name) is model
