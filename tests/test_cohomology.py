"""Integer cohomology: builtin spaces, pairs, long exact sequences,
excision, circle products, Thom spaces, collapse maps."""

import gc
import tracemalloc
import weakref

import pytest

from tdual.cohomology import (
    AbelianGroup, CohClass, NotAProduct, TRIVIAL, Z, betti_numbers,
    chain_space, cochain_space, cohomology, cross_with_z, excision_hom,
    fiber_integrate, homology, long_exact_sequence, pullback_hom,
    relative_cochain_space, relative_cohomology, universal_coefficients_consistent,
)
from tdual.complexes import (
    BUILTIN_NAMES, BoundaryNotLabeled, LabelMismatch, NotASubcomplex,
    build_complex, builtin_space, circle, collapse_map, cone_on_s2, disc2, lens, point,
    product_complex, product_with_circle, s3_two_disc, sphere, thom_space,
    interval, interval_power, trivial_disc_bundle, wedge_of_spheres,
)


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
