"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion. Tolerances and runtime budgets are pinned here, not configurable.
"""

import random
import time
from fractions import Fraction

from tdual.expr import PointAssignment, app, equal_numeric, evaluate, rat, sym
from tdual.geometry import (
    MultiCenterFamily, buscher_transform, dyonic_b_field, dyonic_potential,
    dyonic_shift, exterior_derivative, h_monopole_metric, make_taub_nut,
    metrics_equal, mul, pow_, pullback, sin_, taub_nut_sample_spec,
    with_b_field,
)
from tdual.cohomology import (
    AbelianGroup, Z, cochain_space, cohomology, cross_with_z, excision_hom,
    fiber_integrate, homology, long_exact_sequence,
)
from tdual.complexes import (builtin_space, cone_on_s2, lens,
                             product_with_circle, s3_two_disc,
                             wedge_of_spheres)
from tdual.gerbes import (CoverNerve, check_three_gerbe, check_two_gerbe,
                          characteristic_class_two_gerbe, gauge_perturb,
                          semifree_class_to_two_gerbe, tdualize_two_gerbe,
                          trivial_bundle_gerbe_models, two_gerbe_from_class)
from tdual.semifree import (basic_example_spectrum, hausdorff_regularization,
                            kk_record, tdualize, trivial_record)

TOL = 1e-9
TRIALS = 100
SEED = 42


def report(n, text):
    print(f"[PASS] criterion {n}: {text}")


R, THETA, G, BETA = sym("r"), sym("theta"), sym("g"), sym("beta")
H = app("H", (R, G))


def test_criterion_01_taub_nut_dual_is_the_smeared_monopole():
    start = time.perf_counter()
    spec = taub_nut_sample_spec()
    dual = buscher_transform(make_taub_nut())
    ref = h_monopole_metric(H, spec)
    ok, witness = metrics_equal(dual, ref, spec, trials=TRIALS, tol=TOL,
                                seed=SEED, compare_b=False)
    elapsed = time.perf_counter() - start
    assert ok, witness
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    report(1, f"buscher(taub-nut) = H((dk)^2 + dr.dr) at {TRIALS} points, "
              f"tol {TOL}, {elapsed*1000:.0f} ms")


def test_criterion_02_intermediate_angular_identity():
    spec = taub_nut_sample_spec()
    dual = buscher_transform(make_taub_nut())
    # the subtraction strips the H^-1 (1-cos)^2 excess exactly: the theta
    # component is H r^2 on the nose, the phi component H r^2 sin^2(theta)
    assert equal_numeric(dual.g(2, 2), mul(H, pow_(R, 2)), spec,
                         trials=TRIALS, tol=TOL, seed=SEED)
    assert equal_numeric(dual.g(3, 3),
                         mul(H, pow_(R, 2), pow_(sin_(THETA), 2)), spec,
                         trials=TRIALS, tol=TOL, seed=SEED)
    report(2, "dual angular components reduce to H r^2 (x sin^2) componentwise")


def test_criterion_03_multi_center_duals():
    rng = random.Random(SEED)
    for p in (2, 3, 5):
        centers = [(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8),
                    rng.uniform(-0.8, 0.8)) for _ in range(p)]
        fam = MultiCenterFamily(centers)
        dual = buscher_transform(fam.metric())
        ok, witness = metrics_equal(dual, fam.dual_reference(), fam.sample,
                                    trials=TRIALS, tol=TOL, seed=SEED,
                                    compare_b=False)
        assert ok, (p, witness)
    report(3, "p in {2,3,5} random-center duals keep the monopole form")


def test_criterion_04_dyonic_identity_and_asymptotics():
    spec = taub_nut_sample_spec()
    dual = buscher_transform(with_b_field(make_taub_nut(), dyonic_b_field(BETA)))
    ref = h_monopole_metric(H, spec)
    target = pullback(ref, dyonic_shift(BETA))
    # beta is sampled afresh at each of the 100 points: >= 20 random values
    ok, witness = metrics_equal(dual, target, spec, trials=TRIALS, tol=TOL,
                                seed=SEED, compare_b=False)
    assert ok, witness
    gamma = dyonic_shift(BETA, variant="gamma")
    lam = dyonic_shift(BETA, variant="lambda")
    rng = random.Random(SEED)
    for _ in range(20):
        beta = rng.uniform(0.2, 1.0)
        g = rng.uniform(0.6, 1.1)
        for r, tol in ((1e3, 1e-3), (1e6, 1e-6)):
            p = PointAssignment({"kappa": 0.0, "r": r, "theta": 1.0,
                                 "phi": 1.0, "g": g, "beta": beta},
                                spec.functions)
            assert abs(evaluate(gamma.targets[0], p) - beta) < tol
            assert abs(evaluate(lam.targets[0], p)) < tol
    report(4, "dual of (g, beta*Omega) = shifted product metric; "
              "gamma -> beta and lambda -> 0 at r = 1e3, 1e6")


def test_criterion_05_fields_closed_and_exact():
    spec = taub_nut_sample_spec()
    field = dyonic_b_field(BETA)
    for idx, c in exterior_derivative(field).comps.items():
        assert equal_numeric(c, rat(0), spec, trials=TRIALS, tol=TOL, seed=SEED)
    derived = exterior_derivative(dyonic_potential()).scaled(BETA)
    for idx in set(field.comps) | set(derived.comps):
        assert equal_numeric(field.component(idx), derived.component(idx),
                             spec, trials=TRIALS, tol=TOL, seed=SEED)
    fam = MultiCenterFamily([(0.4, 0.1, 0.0), (-0.3, 0.2, 0.1)])
    for i in range(fam.p):
        bi = fam.b_field(i, BETA)
        for idx, c in exterior_derivative(bi).comps.items():
            assert equal_numeric(c, rat(0), fam.sample, trials=TRIALS,
                                 tol=TOL, seed=SEED)
        derived = exterior_derivative(fam.b_potential(i)).scaled(BETA)
        for idx in set(bi.comps) | set(derived.comps):
            assert equal_numeric(bi.component(idx), derived.component(idx),
                                 fam.sample, trials=TRIALS, tol=TOL, seed=SEED)
    report(5, "dB = 0 and B = beta d(potential), single- and multi-center")


def test_criterion_06_cohomology_table():
    start = time.perf_counter()
    assert cohomology(builtin_space("S2xS1"), 3) == Z
    assert cohomology(builtin_space("CP2"), 2) == Z
    assert cohomology(builtin_space("S3"), 3) == Z
    for p in (2, 3, 7):
        assert cohomology(lens(p), 2) == AbelianGroup(0, (p,))
    for p in (1, 2, 5):
        assert homology(wedge_of_spheres(p - 1), 2) == AbelianGroup(p - 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    report(6, f"group table exact in {elapsed*1000:.0f} ms")


def test_criterion_07_sequences_excision_and_the_isomorphism_chain():
    cone = cone_on_s2()
    assert long_exact_sequence(cone, {"u", "f2"}).all_exact
    assert long_exact_sequence(builtin_space("S3"), {"v"}).all_exact
    cone_s1 = product_with_circle(cone)
    complement = {(c, y) for c in ("u", "f2") for y in ("a", "e")}
    assert long_exact_sequence(cone_s1, complement).all_exact
    # H^2(S^2) -> H^3(D^3, S^2) -> H^3(S^3) by explicit rank-1 isomorphisms
    bplus = s3_two_disc()
    conn = long_exact_sequence(cone, {"u", "f2"}).maps[("d", 2)]
    exc = excision_hom(bplus, {"u", "f2", "c3out"}, cone, {"u", "f2"}, 3)
    j3 = long_exact_sequence(bplus, {"u", "f2", "c3out"}).maps[("j", 3)]
    assert conn.rank() == exc.rank() == j3.rank() == 1
    assert conn.is_iso() and exc.is_iso() and j3.is_iso()
    lam = cochain_space(cone.subcomplex(frozenset({"u", "f2"})), 2).generators()[0]
    assert j3.apply(exc.preimage(conn.apply(lam))) == \
        cochain_space(bplus, 3).generators()[0]
    report(7, "pairs exact at every node; the monopole isomorphism chain "
              "is realized by rank-1 maps")


def test_criterion_08_cross_and_integration_round_trip():
    for name in ("S2", "S3", "CP2", "coneS2", "S3plus", "L1p:2", "L1p:3",
                 "L1p:7", "wedge:1", "wedge:4", "D2", "S1", "pt"):
        x = builtin_space(name)
        xs1 = product_with_circle(x)
        for k in (1, 2, 3):
            if k > x.top:
                continue
            space = cochain_space(x, k)
            for gen in space.generators():
                assert fiber_integrate(cross_with_z(gen, xs1), xs1) == gen, (name, k)
    report(8, "fiber integration inverts the cross product on H^1..H^3 "
              "of every builtin space")


def test_criterion_09_fifty_random_gerbes_dualize_exactly():
    start = time.perf_counter()
    rng = random.Random(SEED)
    bplus = s3_two_disc()
    inner = frozenset({"v", "u", "a", "f2", "c3"})
    outer = frozenset({"u", "f2", "c3out"})
    gen_vec = list(cochain_space(bplus, 3).generators()[0].vector)
    xs1 = product_with_circle(bplus)
    for trial in range(50):
        size = rng.randint(2, 6)
        sets = [inner, outer] + [rng.choice([inner, outer]) for _ in range(size - 2)]
        cover = CoverNerve(bplus, sets)
        mult = rng.randint(-4, 4)
        g = two_gerbe_from_class(cover, [mult * v for v in gen_vec],
                                 scramble_seed=rng.randrange(10 ** 6))
        rep2 = check_two_gerbe(g)
        assert rep2.passed, (trial, rep2.failures())
        tg = tdualize_two_gerbe(g, xs1)
        rep3 = check_three_gerbe(tg)
        assert rep3.passed, (trial, rep3.failures())
        assert rep3.characteristic_class == cross_with_z(rep2.characteristic_class,
                                                         xs1)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    report(9, f"50 random 2-gerbes (|I| <= 6) dualize with exact class "
              f"equality in {elapsed:.2f}s")


def test_criterion_10_gauge_invariance_hundred_perturbations():
    bplus = s3_two_disc()
    inner = frozenset({"v", "u", "a", "f2", "c3"})
    outer = frozenset({"u", "f2", "c3out"})
    cover = CoverNerve(bplus, [inner, outer, inner, outer])
    gen_vec = list(cochain_space(bplus, 3).generators()[0].vector)
    g = two_gerbe_from_class(cover, [3 * v for v in gen_vec], scramble_seed=1)
    base = characteristic_class_two_gerbe(g)
    rng = random.Random(SEED)
    pairs, triples = cover.tuples(1), cover.tuples(2)
    for k in range(100):
        mode = k % 3
        if mode == 0:
            gp = gauge_perturb(g, seed=k)
        elif mode == 1:
            gp = gauge_perturb(g, seed=k, pair=pairs[rng.randrange(len(pairs))])
        else:
            gp = gauge_perturb(g, seed=k, triple=triples[rng.randrange(len(triples))])
        rep = check_two_gerbe(gp)
        assert rep.passed, (k, rep.failures())
        assert rep.characteristic_class == base, k
    report(10, "100 coboundary perturbations: validity and class unchanged")


def test_criterion_11_semifree_round_trip():
    records = [kk_record(), trivial_record()] + [kk_record(p) for p in range(2, 8)]
    for rec in records:
        dual = tdualize(rec)
        back = fiber_integrate(dual.flux, dual.complement_product)
        assert back == rec.bundle_class, rec.name
    report(11, "fiber_integrate(tdualize(classify).flux) = lambda for "
               "Taub-NUT, charges 2..7, and the trivial record")


def test_criterion_12_spectrum_separability_and_regularization():
    sp = basic_example_spectrum()
    cases = [
        (Fraction(3), Fraction(1), True),
        (Fraction(0), Fraction(0), True),
        (Fraction(10 ** 9 + 2), Fraction(2), True),
        (Fraction(7, 3), Fraction(1, 3), True),
        (Fraction(1, 2), Fraction(0), False),
        (Fraction(22, 7), Fraction(1, 7), True),
        (Fraction(22, 7), Fraction(2, 7), False),
        (Fraction(-5, 4), Fraction(3, 4), True),
        (Fraction(-5, 4), Fraction(1, 2), False),
    ]
    for k1, k2, expect in cases:
        assert sp.non_separable(k1, k2) is expect, (k1, k2)
    reg = hausdorff_regularization(sp)
    assert reg.name == "coneS2 x S1"
    assert reg.model is product_with_circle(cone_on_s2())
    assert reg.regular_flux == sp.flux
    assert hausdorff_regularization(reg) is reg
    report(12, "non-separable iff difference in 2*pi*Z (exact rationals); "
               "regularization is the coneS2 x S1 dual")


def test_criterion_13_codimension_vanishing():
    for rank in (4, 5):
        models = trivial_bundle_gerbe_models(rank)
        space = cochain_space(models.complement_model(), 2)
        lam = space.generators()[0]
        assert not lam.is_zero()
        gerbe, pushed = semifree_class_to_two_gerbe(lam, models)
        assert pushed.is_zero(), rank
        assert characteristic_class_two_gerbe(gerbe).is_zero(), rank
    report(13, "rank-4 and rank-5 normal bundles push every class to zero")
