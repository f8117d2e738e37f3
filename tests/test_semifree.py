"""Semi-free records, their T-duals, the spectrum model, and the
class-level dyonic datum."""

from fractions import Fraction

import pytest

from tdual.cohomology import (AbelianGroup, TRIVIAL, Z, cochain_space,
                              fiber_integrate)
from tdual.complexes import builtin_space, cp2, cone_on_s2, lens, sphere, product_with_circle
from tdual.intlin import IMat
from tdual.semifree import (
    DegreeMismatch, InvalidClass, RegularizedDual, UnwrappedSource,
    basic_example_spectrum, classify, dyonic_automorphism_check,
    hausdorff_regularization, kk_record, make_tdual_record,
    multi_center_homotopy, tdualize, trivial_record,
)


# ---------------------------------------------------------------------------
# classification

def test_taub_nut_record():
    rec = kk_record()
    assert rec.name == "Taub-NUT"
    assert rec.charge == 1
    assert rec.bundle_class.reduced() == (1,)
    assert rec.fixed_ids == frozenset({"v"})


def test_trivial_record_has_empty_fixed_locus():
    rec = trivial_record()
    assert rec.fixed_ids == frozenset()
    assert rec.bundle_class.is_zero()


@pytest.mark.parametrize("p", [2, 3, 7])
def test_charge_p_record_is_lens_type(p):
    rec = kk_record(p)
    assert rec.bundle_class.reduced() == (p,)
    assert rec.charge == p


def test_records_equal_iff_data_equal():
    assert kk_record().same_record(kk_record())
    assert not kk_record().same_record(kk_record(2))
    assert not kk_record().same_record(trivial_record())
    base = cone_on_s2()
    comp = base.subcomplex(frozenset({"u", "f2"}))
    gen = cochain_space(comp, 2).generators()[0]
    empty_fixed = classify(base, frozenset(), frozenset({"u", "f2"}), gen)
    assert not kk_record().same_record(empty_fixed)


@pytest.mark.parametrize("p", range(-3, 8))
def test_kk_record_equals_the_record_classified_from_its_data(p):
    base = cone_on_s2()
    comp = base.subcomplex(frozenset({"u", "f2"}))
    lam = p * cochain_space(comp, 2).generators()[0]
    name = "Taub-NUT" if p == 1 else f"KK(p={p})"
    rec = classify(base, frozenset({"v"}), frozenset({"u", "f2"}), lam, name=name)
    assert kk_record(p) == rec
    assert rec.charge == p == dyonic_automorphism_check(comp, lam).rotation_multiple


@pytest.mark.parametrize("base", [cone_on_s2, lambda: lens(3)], ids=["H2=0", "H2=Z/3"])
def test_charge_is_none_unless_the_bundle_group_is_z(base):
    base = base()
    ids = frozenset(base.all_ids())
    space = cochain_space(base.subcomplex(ids), 2)
    for lam in [space.zero(), *space.generators()]:
        assert classify(base, frozenset(), ids, lam).charge is None


def test_classify_takes_no_charge():
    rec = kk_record(2)
    with pytest.raises(TypeError, match="charge"):
        classify(rec.base, rec.fixed_ids, rec.complement_ids, rec.bundle_class, charge=1)


def test_classify_refuses_fixed_cells_in_the_complement():
    base = cone_on_s2()
    for fixed, comp in (({"u"}, {"u", "f2"}), ({"v"}, base.all_ids())):
        gen = cochain_space(base.subcomplex(comp), 2).zero()
        with pytest.raises(InvalidClass, match="lie in the complement model"):
            classify(base, frozenset(fixed), frozenset(comp), gen)


def test_classify_validates_class_home():
    base = cone_on_s2()
    with pytest.raises(InvalidClass):
        classify(base, frozenset({"v"}), frozenset({"u", "f2"}),
                 cochain_space(sphere(2), 2).generators()[0])


# ---------------------------------------------------------------------------
# T-dual records

def test_taub_nut_dual_emits_one_unit_of_flux():
    dual = tdualize(kk_record())
    assert dual.flux.reduced() == (1,)
    assert cochain_space(dual.complement_product, 3).group() == Z


@pytest.mark.parametrize("p", [-3, -1, 0, *range(1, 8)])
def test_flux_round_trip_up_to_charge_seven(p):
    rec = kk_record(p)
    dual = tdualize(rec)
    assert dual.flux.reduced() == (p,)
    assert fiber_integrate(dual.flux, dual.complement_product) == rec.bundle_class


def test_trivial_record_dualizes_to_zero_flux():
    rec = trivial_record()
    dual = tdualize(rec)
    assert dual.flux.is_zero()
    assert fiber_integrate(dual.flux, dual.complement_product) == rec.bundle_class


def test_source_sits_on_fixed_locus_times_circle():
    dual = tdualize(kk_record())
    assert dual.source_ids == frozenset({("v", "a"), ("v", "e")})
    assert dual.extension.ideal_class == (1,)


def test_unwrapped_source_rejected():
    with pytest.raises(UnwrappedSource):
        make_tdual_record(kk_record(), frozenset({("v", "a")}))


def test_full_source_locus_is_accepted():
    dual = make_tdual_record(kk_record(2), [("v", "e"), ("v", "a")])
    assert dual.source_ids == frozenset({("v", "a"), ("v", "e")})
    assert dual.flux.reduced() == (2,)


def test_dual_record_description_is_serializable():
    import json
    json.dumps(tdualize(kk_record(3)).describe())


# ---------------------------------------------------------------------------
# multi-center homotopy type

@pytest.mark.parametrize("p,rank", [(1, 0), (2, 1), (5, 4)])
def test_wedge_homotopy_type(p, rank):
    groups = multi_center_homotopy(p)
    assert groups[1] == TRIVIAL
    assert groups[2] == AbelianGroup(rank)


def test_homotopy_rejects_nonpositive_centers():
    with pytest.raises(ValueError):
        multi_center_homotopy(0)


# ---------------------------------------------------------------------------
# spectrum model

def test_spectrum_shape():
    sp = basic_example_spectrum()
    assert sp.regular_model.name == "S2xS1"
    assert sp.half_line
    assert not sp.is_hausdorff
    assert sp.flux.reduced() == (1,)
    kinds = {(s.orbit_type, s.stabilizer) for s in sp.stabilizers}
    assert ("free orbit", "Z") in kinds
    assert ("fixed point", "R") in kinds


def test_free_orbit_dual_fiber_is_circle():
    sp = basic_example_spectrum()
    free = [s for s in sp.stabilizers if s.orbit_type == "free orbit"][0]
    assert free.dual_fiber == "S1"


def test_separability_is_exact_period_arithmetic():
    sp = basic_example_spectrum()
    assert sp.non_separable(Fraction(3), Fraction(1))
    assert sp.non_separable(Fraction(7, 3), Fraction(1, 3))
    assert sp.non_separable(Fraction(0), Fraction(0))
    assert not sp.non_separable(Fraction(1, 2), Fraction(0))
    assert not sp.non_separable(Fraction(10, 3), Fraction(1, 2))
    # huge exact multiples stay exact
    assert sp.non_separable(Fraction(10 ** 12), Fraction(2))
    assert not sp.non_separable(Fraction(10 ** 12, 7), Fraction(2))


def test_regularization_gives_cone_product():
    sp = basic_example_spectrum()
    reg = hausdorff_regularization(sp)
    assert isinstance(reg, RegularizedDual)
    assert reg.name == "coneS2 x S1"
    assert reg.model is product_with_circle(cone_on_s2())
    assert reg.regular_flux == sp.flux


def test_regularization_idempotent():
    reg = hausdorff_regularization(basic_example_spectrum())
    assert hausdorff_regularization(reg) is reg


# ---------------------------------------------------------------------------
# dyonic datum

def test_cp2_action_fixes_generator():
    x = cp2()
    lam = cochain_space(x, 2).generators()[0]
    rep = dyonic_automorphism_check(x, lam)
    assert rep.action_fixes_class
    assert rep.rotation_multiple == 1
    assert rep.dual_datum.reduced() == (1,)


@pytest.mark.parametrize("m", [-2, 0, 3])
def test_integral_class_maps_to_rotation_multiple(m):
    x = cp2()
    lam = m * cochain_space(x, 2).generators()[0]
    rep = dyonic_automorphism_check(x, lam)
    assert rep.rotation_multiple == m
    assert rep.beta_label == f"2*pi*{m}"


@pytest.mark.parametrize("space", ["S2", "S2xS1", "complement"])
def test_rotation_multiple_on_other_integral_second_cohomology(space):
    x = kk_record().complement_model() if space == "complement" else builtin_space(space)
    rep = dyonic_automorphism_check(x, -4 * cochain_space(x, 2).generators()[0])
    assert (rep.rotation_multiple, rep.beta_label) == (-4, "2*pi*-4")


def test_torsion_class_has_no_rotation_multiple():
    x = lens(3)
    rep = dyonic_automorphism_check(x, cochain_space(x, 2).generators()[0])
    assert (rep.rotation_multiple, rep.beta_label) == (None, "non-integral")


def test_dyonic_report_description():
    x = cp2()
    rep = dyonic_automorphism_check(x, 3 * cochain_space(x, 2).generators()[0])
    assert rep.describe() == {"action_fixes_class": True, "rotation_multiple": 3,
                              "beta": "2*pi*3", "dual_datum": [3]}


def test_zero_class_gives_trivial_datum():
    x = cp2()
    rep = dyonic_automorphism_check(x, cochain_space(x, 2).zero())
    assert rep.action_fixes_class
    assert rep.dual_datum.is_zero()


def test_nontrivial_action_matrix_detected():
    x = cp2()
    lam = cochain_space(x, 2).generators()[0]
    mats = {k: IMat.identity(x.n_cells(k)) for k in x.degrees()}
    mats[2] = IMat.of(1, 1, [{0: -1}])     # orientation-reversing on H^2
    rep = dyonic_automorphism_check(x, lam, mats)
    assert not rep.action_fixes_class


def test_degree_mismatch_rejected():
    x = cp2()
    with pytest.raises(DegreeMismatch):
        dyonic_automorphism_check(x, cochain_space(x, 4).generators()[0])


# ---------------------------------------------------------------------------
# refusals

@pytest.mark.parametrize("call, message", [
    (lambda: hausdorff_regularization(kk_record()),
     "expected a SpectrumModel or RegularizedDual"),
], ids=["regularize-a-record"])
def test_refusals(call, message):
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message
