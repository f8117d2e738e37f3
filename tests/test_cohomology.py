"""Integer cohomology: builtin spaces, pairs, long exact sequences,
excision, circle products, Thom spaces, collapse maps."""

import gc
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import dense_snf

from tdual.cohomology import (
    AbelianGroup, CohClass, DegreeOverflow, NotAProduct, TRIVIAL, Z, betti_numbers,
    chain_space, cochain_space, cohomology, cross_with_z, excision_hom,
    fiber_integrate, homology, long_exact_sequence, pullback_hom,
    SubquotientSpace, relative_cochain_space, relative_cohomology,
    universal_coefficients_consistent,
)
from tdual.complexes import (
    BUILTIN_NAMES, BoundaryNotLabeled, LabelMismatch, NotASubcomplex,
    build_complex, builtin_space, circle, collapse_map, cone_on_s2, disc2, lens, point,
    product_complex, product_with_circle, s3_two_disc, sphere, thom_space,
    interval, interval_power, trivial_disc_bundle, wedge_of_spheres,
)
from tdual.gerbes import trivial_bundle_gerbe_models
from tdual.intlin import IMat, lattice_equal


# ---------------------------------------------------------------------------
# groups of the builtin models

def test_three_sphere_circle_product():
    assert cohomology(builtin_space("S2xS1"), 3) == Z


def test_projective_plane():
    assert cohomology(builtin_space("CP2"), 2) == Z


def test_three_sphere():
    assert cohomology(builtin_space("S3"), 3) == Z


@pytest.mark.parametrize("p", [2, 3, 7])
def test_lens_space_torsion(p):
    assert cohomology(lens(p), 2) == AbelianGroup(0, (p,))
    assert cohomology(lens(p), 1) == TRIVIAL
    assert cohomology(lens(p), 3) == Z


@pytest.mark.parametrize("p", [1, 2, 5])
def test_wedge_homology(p):
    w = wedge_of_spheres(p - 1)
    assert homology(w, 2) == AbelianGroup(p - 1)
    assert homology(w, 1) == TRIVIAL


def test_large_wedge_cohomology_stays_small():
    # sparse matrices: the zero coboundaries of a wedge of n spheres cost
    # O(n) memory; dense n x n identities would take hundreds of MB here
    tracemalloc.start()
    try:
        group = cohomology(wedge_of_spheres(3000), 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group == AbelianGroup(3000)
    assert peak < 20 * 2 ** 20


# ---------------------------------------------------------------------------
# derived models are cached on, and freed with, the complex they come from

def _fresh_lens(tag):
    return build_complex(f"L{tag}", {0: ["e0"], 1: ["e1"], 2: ["e2"], 3: ["e3"]},
                         {2: {("e1", "e2"): 3}})


def test_transient_products_are_not_retained():
    def one(tag):
        assert cohomology(product_with_circle(_fresh_lens(tag)), 3) == AbelianGroup(1, (3,))

    one(-1)                      # builtins such as the circle exist before the count
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for tag in range(200):
            one(tag)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert retained < 0.5 * 2 ** 20


def test_derived_models_are_canonical_and_die_with_their_complex():
    x = _fresh_lens("weak")
    xs1 = product_with_circle(x)
    assert product_with_circle(x) is xs1 and xs1.product_of[0] is x
    ids = {"e0", "e1", "e2"}
    assert x.subcomplex(ids) is x.subcomplex(frozenset(ids))
    assert cochain_space(xs1, 3) is cochain_space(xs1, 3)
    assert chain_space(x, 1) is chain_space(x, 1)
    assert relative_cochain_space(x, ids, 3) is relative_cochain_space(x, frozenset(ids), 3)
    assert builtin_space("S2xS1") is product_with_circle(sphere(2))
    refs = [weakref.ref(c) for c in (x, xs1, x.subcomplex(ids))]
    del x, xs1
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


def test_relative_spaces_keep_no_reference_to_their_complex():
    # freed by reference counting alone, so nothing in x.derived points back at x
    gc.disable()
    try:
        x = _fresh_lens("rel")
        assert relative_cohomology(x, {"e0", "e1"}, 2) == Z
        ref = weakref.ref(x)
        del x
        assert ref() is None
    finally:
        gc.enable()


def test_degree_of_a_class_is_found_without_building_other_spaces():
    x = _fresh_lens("degree")
    xs1 = product_with_circle(x)
    gen = cochain_space(x, 2).generators()[0]
    crossed = cross_with_z(gen, xs1)
    assert crossed == cross_with_z(gen, xs1, degree=2)
    assert fiber_integrate(crossed, xs1) == gen
    assert [k for k in (0, 1) if ("abs", k) in x.derived] == []
    assert [k for k in (0, 1, 2) if ("abs", k) in xs1.derived] == []
    with pytest.raises(ValueError, match="class space does not belong to this complex"):
        cross_with_z(cochain_space(lens(3), 2).generators()[0], xs1)


def test_parametrised_builtins_are_held_only_while_referenced():
    def one(p):
        assert cohomology(builtin_space(f"L1p:{p}"), 2) == AbelianGroup(0, (p,))

    one(2)                       # builtins such as the circle exist before the count
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for p in range(3, 2003):
            one(p)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert retained < 2 ** 20    # 20 MB when every lens space was kept
    x, w = builtin_space("L1p:3"), wedge_of_spheres(3)
    assert builtin_space("L1p:3") is x is lens(3)
    assert builtin_space("wedge:3") is w is wedge_of_spheres(3, 2)
    refs = [weakref.ref(x), weakref.ref(w)]
    del x, w
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_betti_numbers_of_circle_product():
    assert betti_numbers(builtin_space("S2xS1")) == [1, 1, 1, 1]


def test_cone_is_acyclic():
    cone = cone_on_s2()
    assert cohomology(cone, 0) == Z
    for k in (1, 2, 3):
        assert cohomology(cone, k) == TRIVIAL


def test_negative_degree_is_trivial():
    assert cohomology(sphere(2), -1) == TRIVIAL


def test_universal_coefficients_on_all_builtins():
    for name in BUILTIN_NAMES:
        assert universal_coefficients_consistent(builtin_space(name)), name


def test_boundary_squared_validated_on_products():
    for name in ("S2", "S3", "CP2", "coneS2", "L1p:3"):
        x = builtin_space(name)
        product_with_circle(x).validate_square_zero()


# ---------------------------------------------------------------------------
# relative cohomology and pairs

def test_disc_sphere_pair():
    assert relative_cohomology(cone_on_s2(), {"u", "f2"}, 3) == Z


def test_pair_with_itself_vanishes():
    cone = cone_on_s2()
    for k in range(4):
        assert relative_cohomology(cone, cone.all_ids(), k) == TRIVIAL


def test_sphere_product_pair():
    # H^4(S3 x S1, (S3 - pt) x S1) with the two-disc model and outer patch
    bplus = s3_two_disc()
    xs1 = product_with_circle(bplus)
    outer = {(c, y) for c in ("u", "f2", "c3out") for y in ("a", "e")}
    assert relative_cohomology(xs1, outer, 4) == Z


def test_cone_product_pair():
    xs1 = product_with_circle(cone_on_s2())
    complement = {(c, y) for c in ("u", "f2") for y in ("a", "e")}
    assert relative_cohomology(xs1, complement, 4) == Z


def test_not_a_subcomplex_rejected():
    with pytest.raises(NotASubcomplex):
        relative_cohomology(cone_on_s2(), {"c3"}, 3)
    # validation happens on a cache miss; cached valid sets must not let an
    # invalid one through, and a rejected set is never cached
    cone = cone_on_s2()
    sphere_part = cone.subcomplex({"u", "f2"})
    assert cone.subcomplex(frozenset({"f2", "u"})) is sphere_part
    for _ in range(2):
        with pytest.raises(NotASubcomplex):
            cone.subcomplex({"u", "a"})
        with pytest.raises(NotASubcomplex):
            cone.subcomplex({"u", "nope"})


# ---------------------------------------------------------------------------
# long exact sequences

def test_les_disc_sphere_exact_with_connecting_iso():
    rep = long_exact_sequence(cone_on_s2(), {"u", "f2"})
    assert rep.all_exact
    conn = rep.maps[("d", 2)]
    assert conn.rank() == 1 and conn.is_iso()


def test_les_sphere_point_exact():
    rep = long_exact_sequence(builtin_space("S3"), {"v"})
    assert rep.all_exact


def test_les_empty_subcomplex_recovers_absolute():
    x = builtin_space("S2")
    rep = long_exact_sequence(x, frozenset())
    assert rep.all_exact
    for k in range(3):
        assert relative_cohomology(x, frozenset(), k) == cohomology(x, k)


def test_les_cp2_point():
    x = builtin_space("CP2")
    rep = long_exact_sequence(x, {"v"})
    assert rep.all_exact
    assert relative_cohomology(x, {"v"}, 2) == Z


def test_les_cone_product_pair_exact():
    xs1 = product_with_circle(cone_on_s2())
    complement = {(c, y) for c in ("u", "f2") for y in ("a", "e")}
    assert long_exact_sequence(xs1, complement).all_exact


def test_les_lens_pair_is_exact_across_torsion():
    # H^2(X) = Z/3: exactness at H^2(X, A) needs the torsion relation of H^2(X)
    rep = long_exact_sequence(lens(3), {"e0", "e1"})
    assert rep.all_exact
    assert [n.group for n in rep.nodes if n.label == "H^2(X)"] == [AbelianGroup(0, (3,))]
    j2, d1 = rep.maps[("j", 2)], rep.maps[("d", 1)]
    assert j2.codomain.relations_lattice() == IMat.from_rows([[3]])
    assert lattice_equal(j2.kernel_lattice(), IMat.from_rows([[3]]))
    assert not j2.is_iso()          # Z -> Z/3
    assert not d1.is_iso()          # Z -> Z, multiplication by 3
    rel_gen = d1.codomain.generators()[0]
    assert d1.preimage(rel_gen) is None
    assert d1.apply(d1.preimage(3 * rel_gen)) == 3 * rel_gen
    torsion_gen = j2.codomain.generators()[0]
    assert j2.apply(j2.preimage(torsion_gen)) == torsion_gen


# ---------------------------------------------------------------------------
# excision and the monopole isomorphism chain

def test_excision_between_pairs():
    exc = excision_hom(s3_two_disc(), {"u", "f2", "c3out"},
                       cone_on_s2(), {"u", "f2"}, 3)
    assert exc.is_iso()


def test_monopole_isomorphism_chain_rank_one():
    b = cone_on_s2()
    bplus = s3_two_disc()
    rep = long_exact_sequence(b, {"u", "f2"})
    conn = rep.maps[("d", 2)]
    exc = excision_hom(bplus, {"u", "f2", "c3out"}, b, {"u", "f2"}, 3)
    j3 = long_exact_sequence(bplus, {"u", "f2", "c3out"}).maps[("j", 3)]
    assert conn.rank() == exc.rank() == j3.rank() == 1
    lam = cochain_space(b.subcomplex(frozenset({"u", "f2"})), 2).generators()[0]
    pushed = j3.apply(exc.preimage(conn.apply(lam)))
    assert pushed == cochain_space(bplus, 3).generators()[0]


# ---------------------------------------------------------------------------
# circle products

def test_point_times_circle_is_circle():
    ps1 = product_with_circle(point())
    assert betti_numbers(ps1) == betti_numbers(circle())


def test_euler_characteristic_vanishes_on_circle_products():
    for name in ("S2", "S3", "CP2", "L1p:3"):
        assert product_with_circle(builtin_space(name)).euler_characteristic() == 0


def test_cross_product_sends_generator_to_generator():
    s2 = sphere(2)
    xs1 = product_with_circle(s2)
    gen = cochain_space(s2, 2).generators()[0]
    crossed = cross_with_z(gen, xs1)
    assert crossed == cochain_space(xs1, 3).generators()[0] or \
        crossed == -1 * cochain_space(xs1, 3).generators()[0]
    assert not crossed.is_zero()


def test_cross_product_of_zero_is_zero():
    s2 = sphere(2)
    xs1 = product_with_circle(s2)
    assert cross_with_z(cochain_space(s2, 2).zero(), xs1).is_zero()


def test_cross_product_is_additive():
    s2 = sphere(2)
    xs1 = product_with_circle(s2)
    sp = cochain_space(s2, 2)
    a, b = sp.class_from_coords([2]), sp.class_from_coords([-5])
    assert cross_with_z(a + b, xs1) == cross_with_z(a, xs1) + cross_with_z(b, xs1)


def test_class_negation_and_hash_follow_reduced_coordinates():
    gen = cochain_space(lens(3), 2).generators()[0]
    assert (-gen).reduced() == (2,)
    assert -gen == 2 * gen and hash(-gen) == hash(2 * gen)
    assert len({gen, -gen, 2 * gen, 4 * gen}) == 2


def test_fiber_integration_inverts_cross_product_everywhere():
    for name in ("S2", "S3", "CP2", "coneS2", "L1p:2", "L1p:7", "wedge:4"):
        x = builtin_space(name)
        xs1 = product_with_circle(x)
        for k in (1, 2, 3):
            if k > x.top:
                continue
            sp = cochain_space(x, k)
            for gen in sp.generators():
                assert fiber_integrate(cross_with_z(gen, xs1, k), xs1, k + 1) == gen


def test_fiber_integration_kills_pulled_back_classes():
    s2 = sphere(2)
    xs1 = product_with_circle(s2)
    gen2 = cochain_space(s2, 2).generators()[0]
    vec = [0] * xs1.n_cells(2)
    for j, cell in enumerate(s2.cell_ids(2)):
        vec[xs1.index(2, (cell, "a"))] = gen2.vector[j]
    pulled = CohClass(cochain_space(xs1, 2), tuple(vec))
    assert fiber_integrate(pulled, xs1, 2).is_zero()


def test_fiber_integration_explicit_cochain():
    xs1 = builtin_space("S2xS1")
    s2 = sphere(2)
    gen3 = cochain_space(xs1, 3).generators()[0]
    down = fiber_integrate(gen3, xs1, 3)
    gen2 = cochain_space(s2, 2).generators()[0]
    assert down == gen2 or down == -1 * gen2
    assert not down.is_zero()


def test_products_require_the_circle_model():
    s2xs2 = product_complex(sphere(2), sphere(2))
    gen = cochain_space(sphere(2), 2).generators()[0]
    with pytest.raises(NotAProduct):
        cross_with_z(gen, s2xs2, 2)


def test_circle_products_need_the_circles_faces():
    # a circle's cells with de = 2a: no circle generator lies behind a class x z
    s2 = sphere(2)
    look_alike = product_complex(s2, build_complex("S1", {0: ["a"], 1: ["e"]},
                                                   {1: {("a", "e"): 2}}))
    gen = cochain_space(s2, 2).generators()[0]
    with pytest.raises(NotAProduct, match="second factor is not the standard circle model"):
        cross_with_z(gen, look_alike)
    up = cochain_space(look_alike, 3).generators()[0]
    with pytest.raises(NotAProduct, match="second factor is not the standard circle model"):
        fiber_integrate(up, look_alike)
    # an isomorphic twin of the circle model is a circle
    twin = product_complex(s2, build_complex("S1", {0: ["a"], 1: ["e"]}))
    crossed = cross_with_z(gen, twin)
    assert crossed.vector == cross_with_z(gen, product_with_circle(s2)).vector
    assert fiber_integrate(crossed, twin) == gen


def test_crossing_needs_a_product_and_room_above():
    s2 = sphere(2)
    gen = cochain_space(s2, 2).generators()[0]
    with pytest.raises(NotAProduct, match="S2 was not built as a product"):
        cross_with_z(gen, s2)
    with pytest.raises(DegreeOverflow, match="degree 4 exceeds the product top degree"):
        cross_with_z(gen, product_with_circle(s2), degree=3)


# ---------------------------------------------------------------------------
# thom spaces

def test_trivial_disc_over_point_gives_sphere():
    td, _ = thom_space(disc2(), {"a", "e"})
    assert cohomology(td, 0) == Z
    assert cohomology(td, 1) == TRIVIAL
    assert cohomology(td, 2) == Z


def test_interval_bundle_over_sphere_shifts_by_one():
    total, sphere_ids, _ = trivial_disc_bundle(sphere(2), 1)
    td, _ = thom_space(total, sphere_ids)
    assert cohomology(td, 3) == Z


def test_interval_power_leaves_shared_instances_alone():
    cubes = [interval_power(k) for k in (1, 2, 3)]
    assert cubes[0] is interval() and interval().name == "I"
    assert [c.name for c in cubes[1:]] == ["I^2", "I^3"]
    assert product_complex(interval(), interval()).name == "IxI"


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("base_name", ["pt", "S2"])
def test_thom_isomorphism_rank_check(base_name, rank):
    base = builtin_space(base_name)
    total, sphere_ids, _ = trivial_disc_bundle(base, rank)
    td, _ = thom_space(total, sphere_ids)
    for i in range(base.top + 1):
        assert cohomology(td, i + rank) == cohomology(base, i)
    for i in range(1, rank):
        assert cohomology(td, i) == TRIVIAL


def test_unlabeled_boundary_rejected():
    with pytest.raises(BoundaryNotLabeled):
        thom_space(disc2(), {"f"})


# ---------------------------------------------------------------------------
# collapse maps

def test_collapse_diagram_commutes_for_the_monopole():
    bplus = s3_two_disc()
    b = cone_on_s2()
    cm = collapse_map(bplus, {"v", "u", "a", "f2", "c3"}, {"u", "f2"})
    lam = cochain_space(b.subcomplex(frozenset({"u", "f2"})), 2).generators()[0]
    conn = long_exact_sequence(b, {"u", "f2"}).maps[("d", 2)]
    exc = excision_hom(bplus, {"u", "f2", "c3out"}, b, {"u", "f2"}, 3)
    j3 = long_exact_sequence(bplus, {"u", "f2", "c3out"}).maps[("j", 3)]
    via_sequence = j3.apply(exc.preimage(conn.apply(lam)))
    gen_td = cochain_space(cm.target, 3).generators()[0]
    via_collapse = pullback_hom(cm, 3).apply(gen_td)
    assert via_collapse == via_sequence


def test_collapse_with_full_space_is_identity_like():
    s2 = sphere(2)
    cm = collapse_map(s2, s2.all_ids(), frozenset())
    assert cohomology(cm.target, 2) == Z
    assert pullback_hom(cm, 2).rank() == 1


def test_high_codimension_kills_degree_three():
    for rank in (4, 5):
        total, sphere_ids, _ = trivial_disc_bundle(sphere(2), rank)
        td, _ = thom_space(total, sphere_ids)
        assert cohomology(td, 3) == TRIVIAL


def test_collapse_labels_validated():
    bplus = s3_two_disc()
    with pytest.raises(LabelMismatch):
        collapse_map(bplus, {"u", "f2"}, {"u", "f2", "c3out"})


def test_collapse_outside_the_disc_must_be_cellular():
    # the edge i leaves the disc {p} through the open part at p: no chain map
    with pytest.raises(LabelMismatch, match="collapse is not cellular with these labels"):
        collapse_map(interval(), {"p"}, set())


def test_excision_needs_every_relative_cell_of_the_small_pair():
    with pytest.raises(NotASubcomplex, match="relative cell c3out of the small pair missing"):
        excision_hom(s3_two_disc(), {"u", "f2", "c3out"}, s3_two_disc(), {"u", "f2"}, 3)


def test_subquotient_needs_composable_maps_that_compose_to_zero():
    with pytest.raises(ValueError, match="shape mismatch"):
        SubquotientSpace(2, IMat(1, 3), IMat(2, 0))
    with pytest.raises(ValueError, match="image does not lie in the kernel"):
        SubquotientSpace(1, IMat.identity(1), IMat.identity(1))


# ---------------------------------------------------------------------------
# class coordinates against the old row-by-row products (tests/dense_snf.py)

def _class_spaces():
    for name in BUILTIN_NAMES:
        x = builtin_space(name)
        for k in range(x.top + 1):
            yield pytest.param(cochain_space(x, k), id=f"{name}-H^{k}")
            yield pytest.param(chain_space(x, k), id=f"{name}-H_{k}")
    xs1 = product_with_circle(s3_two_disc())
    outer = {(c, y) for c in ("u", "f2", "c3out") for y in ("a", "e")}
    for k in range(2, 5):
        yield pytest.param(relative_cochain_space(xs1, outer, k), id=f"S3xS1-outer-H^{k}")
    models = trivial_bundle_gerbe_models(4)
    yield pytest.param(cochain_space(models.complement_model(), 2), id="codim4-lambda-H^2")
    yield pytest.param(relative_cochain_space(models.b, models.complement_ids, 3),
                       id="codim4-pair-H^3")


def assert_class_coordinates_match_old_products(space):
    gens = space.generators()
    assert [g.vector for g in gens] == dense_snf.generators(space)
    rng = random.Random(space.n)
    for _ in range(4):
        coords = [rng.randint(-5, 5) for _ in gens]
        cls = space.class_from_coords(coords)
        assert cls.vector == dense_snf.class_from_coords(space, coords)
        # move the representative by a random coboundary
        shift = space.in_map.mul_vec([rng.randint(-3, 3) for _ in range(space.in_map.cols)])
        vec = [a + b for a, b in zip(cls.vector, shift)]
        assert space.reduce(vec) == dense_snf.reduce(space, vec)


@pytest.mark.parametrize("space", list(_class_spaces()))
def test_class_coordinates_match_old_products(space):
    assert_class_coordinates_match_old_products(space)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=4))))
def test_quotients_by_random_lattices_match_old_products(shape_and_columns):
    # Z^n / (column span): a dense relation matrix gives U^-1 columns with
    # several nonzeros, which the builtin spaces rarely have
    n, columns = shape_and_columns
    in_map = IMat.from_columns(columns, n)
    assert_class_coordinates_match_old_products(SubquotientSpace(n, IMat(0, n), in_map))


def test_wedge_generators_match_old_products():
    space = cochain_space(wedge_of_spheres(1000, 2), 2)
    assert [g.vector for g in space.generators()] == dense_snf.generators(space)
