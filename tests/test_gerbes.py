"""Cech gerbe cocycle algebra: validity checks, characteristic classes,
gauge invariance, and the constructive dualization map."""

import random

import pytest

from tdual.cohomology import CohClass, cochain_space, cross_with_z
from tdual.complexes import product_with_circle, s3_two_disc, sphere
from tdual.gerbes import (
    CoverNerve, InvalidGerbe, MalformedNerve, ThreeGerbe, TwoGerbe,
    characteristic_class_two_gerbe, check_three_gerbe, check_two_gerbe,
    gauge_perturb, kk_gerbe_models, monopole_two_gerbe,
    semifree_class_to_two_gerbe, tdualize_two_gerbe,
    trivial_bundle_gerbe_models, two_gerbe_from_class,
    validate_nerve_flags,
)


@pytest.fixture(scope="module")
def bplus():
    return s3_two_disc()


@pytest.fixture(scope="module")
def two_patch_cover(bplus):
    inner = frozenset({"v", "u", "a", "f2", "c3"})
    outer = frozenset({"u", "f2", "c3out"})
    return CoverNerve(bplus, [inner, outer])


@pytest.fixture(scope="module")
def six_patch_cover(bplus):
    inner = frozenset({"v", "u", "a", "f2", "c3"})
    outer = frozenset({"u", "f2", "c3out"})
    return CoverNerve(bplus, [inner, outer, inner, outer, inner, outer])


@pytest.fixture(scope="module")
def generator_cocycle(bplus):
    return list(cochain_space(bplus, 3).generators()[0].vector)


# ---------------------------------------------------------------------------
# nerves

def test_cover_must_exhaust_space(bplus):
    with pytest.raises(MalformedNerve):
        CoverNerve(bplus, [frozenset({"u", "f2"})])


def test_nerve_tuples_and_models(six_patch_cover):
    assert len(six_patch_cover.tuples(1)) == 15
    assert len(six_patch_cover.tuples(4)) == 6
    model = six_patch_cover.model((0, 1))
    assert set(model.all_ids()) == {"u", "f2"}


def test_downward_closure_violation_detected():
    flags = {(0,): True, (1,): True, (2,): True,
             (0, 1): True, (0, 2): True, (1, 2): False, (0, 1, 2): True}
    assert validate_nerve_flags(flags) == (0, 1, 2)
    assert validate_nerve_flags({(0,): True, (1,): True, (0, 1): True}) is None


def test_inconsistent_reorderings_rejected(two_patch_cover):
    u12 = two_patch_cover.model((0, 1))
    vec = [0] * u12.n_cells(2)
    vec[u12.index(2, "f2")] = 1
    with pytest.raises(MalformedNerve):
        TwoGerbe(two_patch_cover, p={(0, 1): vec, (1, 0): vec})


def test_antisymmetric_access(two_patch_cover):
    g = monopole_two_gerbe(3)
    assert g.pair_class(0, 1) == -1 * g.pair_class(1, 0)


# ---------------------------------------------------------------------------
# validity and classes

def test_trivial_gerbe_passes_with_zero_class(two_patch_cover):
    rep = check_two_gerbe(TwoGerbe(two_patch_cover))
    assert rep.passed
    assert rep.characteristic_class.is_zero()


@pytest.mark.parametrize("n", [0, 1, 2, -3])
def test_monopole_clutching_class(bplus, n):
    rep = check_two_gerbe(monopole_two_gerbe(n))
    assert rep.passed
    gen = cochain_space(bplus, 3).generators()[0]
    assert rep.characteristic_class == n * gen


def test_clutching_datum_is_the_degree_n_cocycle():
    g = monopole_two_gerbe(4)
    u12 = g.cover.model((0, 1))
    assert g.p[(0, 1)][u12.index(2, "f2")] == 4


def test_violation_reported_with_witness(six_patch_cover, generator_cocycle):
    g = two_gerbe_from_class(six_patch_cover, generator_cocycle, scramble_seed=5)
    quad = six_patch_cover.tuples(3)[2]
    bad_mu = dict(g.mu)
    bad_mu[quad] = list(bad_mu[quad])
    bad_mu[quad][0] += 1
    bad = TwoGerbe(six_patch_cover, g.p, g.theta, bad_mu)
    rep = check_two_gerbe(bad)
    assert not rep.passed
    failing = rep.failures()[0]
    assert failing.witness is not None
    with pytest.raises(InvalidGerbe):
        characteristic_class_two_gerbe(bad)


def test_seeded_construction_realizes_the_class(six_patch_cover, bplus, generator_cocycle):
    space = cochain_space(bplus, 3)
    for mult in (-2, 0, 1, 3):
        s = [mult * v for v in generator_cocycle]
        g = two_gerbe_from_class(six_patch_cover, s, scramble_seed=17)
        rep = check_two_gerbe(g)
        assert rep.passed
        assert rep.characteristic_class.reduced() == space.reduce(s)


def test_scrambled_gerbe_has_nontrivial_sections(six_patch_cover, generator_cocycle):
    g = two_gerbe_from_class(six_patch_cover, generator_cocycle, scramble_seed=23)
    assert any(any(vec) for vec in g.theta.values())
    assert any(any(vec) for vec in g.mu.values())


def test_characteristic_class_is_gauge_invariant(six_patch_cover, generator_cocycle):
    g = two_gerbe_from_class(six_patch_cover, [2 * v for v in generator_cocycle],
                             scramble_seed=3)
    base = characteristic_class_two_gerbe(g)
    for seed in range(20):
        gp = gauge_perturb(g, seed)
        rep = check_two_gerbe(gp)
        assert rep.passed
        assert rep.characteristic_class == base


def test_localized_datum_perturbations(six_patch_cover, generator_cocycle):
    g = two_gerbe_from_class(six_patch_cover, generator_cocycle, scramble_seed=9)
    base = characteristic_class_two_gerbe(g)
    rng = random.Random(0)
    pairs = six_patch_cover.tuples(1)
    triples = six_patch_cover.tuples(2)
    for k in range(30):
        gp = gauge_perturb(g, seed=1000 + k, pair=pairs[rng.randrange(len(pairs))])
        rep = check_two_gerbe(gp)
        assert rep.passed and rep.characteristic_class == base
        gt = gauge_perturb(g, seed=2000 + k, triple=triples[rng.randrange(len(triples))])
        rep = check_two_gerbe(gt)
        assert rep.passed and rep.characteristic_class == base


def test_tensor_adds_classes(bplus):
    g1, g2 = monopole_two_gerbe(1), monopole_two_gerbe(2)
    total = g1.tensor(g2)
    # oracle: the tensor data is literally the cochain sum
    assert total.p[(0, 1)] == [a + b for a, b in zip(g1.p[(0, 1)], g2.p[(0, 1)])]
    gen = cochain_space(bplus, 3).generators()[0]
    assert characteristic_class_two_gerbe(total) == 3 * gen


# ---------------------------------------------------------------------------
# dualization

def test_dualized_monopole_class_is_cross_product(bplus):
    xs1 = product_with_circle(bplus)
    for n in (1, 2, -3):
        g = monopole_two_gerbe(n)
        tg = tdualize_two_gerbe(g, xs1)
        rep = check_three_gerbe(tg)
        assert rep.passed
        crossed = cross_with_z(characteristic_class_two_gerbe(g), xs1)
        assert rep.characteristic_class == crossed
        assert not crossed.is_zero()


def test_dual_of_trivial_gerbe_is_trivial(two_patch_cover):
    tg = tdualize_two_gerbe(TwoGerbe(two_patch_cover))
    rep = check_three_gerbe(tg)
    assert rep.passed
    assert rep.characteristic_class.is_zero()


def test_dual_pair_data_restricts_to_crossed_line_bundle():
    g = monopole_two_gerbe(2)
    xs1 = product_with_circle(g.cover.space)
    tg = tdualize_two_gerbe(g, xs1)
    pm = g.cover.model((0, 1))
    pmx = tg.cover.model((0, 1))
    vec = [0] * pmx.n_cells(3)
    for j, cell in enumerate(pm.cell_ids(2)):
        vec[pmx.index(3, (cell, "e"))] = g.pair_class(0, 1).vector[j]
    assert tg.pair_class(0, 1) == CohClass(cochain_space(pmx, 3), tuple(vec))


def test_dualization_rejects_invalid_input(six_patch_cover, generator_cocycle):
    g = two_gerbe_from_class(six_patch_cover, generator_cocycle, scramble_seed=5)
    bad_mu = dict(g.mu)
    quad = six_patch_cover.tuples(3)[0]
    bad_mu[quad] = [v + 1 if i == 0 else v for i, v in enumerate(bad_mu[quad])]
    bad = TwoGerbe(six_patch_cover, g.p, g.theta, bad_mu)
    with pytest.raises(InvalidGerbe):
        tdualize_two_gerbe(bad)


def test_corrupted_eta_fails_three_gerbe_check():
    g = monopole_two_gerbe(1)
    cover6 = CoverNerve(g.cover.space, list(g.cover.sets) * 3)
    g6 = two_gerbe_from_class(cover6, [v for v in _gen_vec(g.cover.space)],
                              scramble_seed=2)
    tg = tdualize_two_gerbe(g6)
    bad_eta = dict(tg.eta)
    quad = tg.cover.tuples(3)[0]
    bad_eta[quad] = [v + 1 if i == 0 else v for i, v in enumerate(bad_eta[quad])]
    bad = ThreeGerbe(tg.cover, tg.a, tg.gamma, bad_eta, tg.nu)
    rep = check_three_gerbe(bad)
    assert not rep.passed
    assert rep.failures()[0].witness is not None


def test_corrupted_nu_fails_only_the_top_slot_with_a_cell_witness(six_patch_cover,
                                                                   generator_cocycle):
    g = two_gerbe_from_class(six_patch_cover, generator_cocycle, scramble_seed=4)
    tg = tdualize_two_gerbe(g)
    quint = tg.cover.tuples(4)[0]
    bad_nu = dict(tg.nu)
    # a constant on the connected five-fold model is a cell cocycle, so the
    # eta/nu matching holds and only the six-fold nerve slot sees it
    bad_nu[quint] = [v + 1 for v in bad_nu[quint]]
    rep = check_three_gerbe(ThreeGerbe(tg.cover, tg.a, tg.gamma, tg.eta, bad_nu))
    failures = rep.failures()
    assert [f.name for f in failures] == ["nu_nerve_cocycle"]
    (six,) = tg.cover.tuples(5)
    assert failures[0].where == six
    assert failures[0].witness in tg.cover.model(six).cell_ids(0)
    assert rep.characteristic_class is None


def _gen_vec(bplus):
    return list(cochain_space(bplus, 3).generators()[0].vector)


def test_fifty_random_gerbes_dualize_with_exact_class_equality():
    rng = random.Random(20240601)
    bplus = s3_two_disc()
    inner = frozenset({"v", "u", "a", "f2", "c3"})
    outer = frozenset({"u", "f2", "c3out"})
    gen = _gen_vec(bplus)
    xs1 = product_with_circle(bplus)
    for trial in range(50):
        size = rng.randint(2, 6)
        sets = [inner, outer] + [rng.choice([inner, outer]) for _ in range(size - 2)]
        cover = CoverNerve(bplus, sets)
        mult = rng.randint(-4, 4)
        g = two_gerbe_from_class(cover, [mult * v for v in gen],
                                 scramble_seed=rng.randrange(10 ** 6))
        rep2 = check_two_gerbe(g)
        assert rep2.passed
        tg = tdualize_two_gerbe(g, xs1)
        rep3 = check_three_gerbe(tg)
        assert rep3.passed, (trial, rep3.failures()[0])
        assert rep3.characteristic_class == cross_with_z(rep2.characteristic_class, xs1)


# ---------------------------------------------------------------------------
# semi-free data to gerbes

def test_single_monopole_class_pushes_to_generator():
    models = kk_gerbe_models()
    lam = cochain_space(models.complement_model(), 2).generators()[0]
    gerbe, pushed = semifree_class_to_two_gerbe(lam, models)
    assert pushed == cochain_space(models.bplus, 3).generators()[0]
    assert characteristic_class_two_gerbe(gerbe) == pushed


def test_zero_class_gives_trivial_gerbe():
    models = kk_gerbe_models()
    lam = cochain_space(models.complement_model(), 2).zero()
    gerbe, pushed = semifree_class_to_two_gerbe(lam, models)
    assert pushed.is_zero()
    assert characteristic_class_two_gerbe(gerbe).is_zero()


@pytest.mark.parametrize("rank", [4, 5])
def test_codimension_above_three_vanishes(rank):
    models = trivial_bundle_gerbe_models(rank)
    sp = cochain_space(models.complement_model(), 2)
    lam = sp.generators()[0]
    assert not lam.is_zero()
    gerbe, pushed = semifree_class_to_two_gerbe(lam, models)
    assert pushed.is_zero()
    assert characteristic_class_two_gerbe(gerbe) == pushed


def test_wrong_class_home_rejected():
    from tdual.gerbes import ModelMismatch
    models = kk_gerbe_models()
    lam = cochain_space(sphere(2), 2).generators()[0]
    with pytest.raises(ModelMismatch):
        semifree_class_to_two_gerbe(lam, models)
