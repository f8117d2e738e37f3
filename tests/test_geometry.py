"""Metric geometry: monopole metrics, Buscher dualization, dyonic fields,
pullbacks, conformal factors.

The monopole metric constructor is checked against an independent oracle
that expands a list of weighted covector squares into components.
"""

import gc
import json
import random
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import expr_oracle as oracle
import geometry_oracle
from tdual import geometry
from tdual.expr import (ZERO, Chart, DomainError, Expr, FunctionTable, OpaqueFunction,
                        PointAssignment, SampleSpec, UnboundSymbol, app, add, cos_,
                        equal_numeric, evaluate, expr_from_json, mul, pow_, rat, sin_, sym)
from tdual.geometry import (
    MONOPOLE_CHART, DiffForm, Diffeo, DuplicateCenters, MetricData, MultiCenterFamily,
    NotConformal, SingularG00, buscher_transform, compose, conformal_factor,
    dyonic_b_field, dyonic_potential, dyonic_shift, exterior_derivative,
    flat_product_metric, h_monopole_metric, identity_diffeo, make_taub_nut,
    metric, metrics_equal, pullback, taub_nut_sample_spec, with_b_field,
)

R, THETA = sym("r"), sym("theta")
H = app("H", (R, sym("g")))


@pytest.fixture(scope="module")
def spec():
    return taub_nut_sample_spec()


def quadratic_form_oracle(terms, chart):
    """Independent expansion: sum of weight * (covector (x) covector)."""
    n = chart.dim
    g = {}
    for weight, covector in terms:
        for i in range(n):
            for j in range(i, n):
                ai, aj = covector.get(i), covector.get(j)
                if ai is None or aj is None:
                    continue
                contrib = mul(weight, ai, aj) if i == j else mul(weight, ai, aj)
                g[(i, j)] = add(g.get((i, j), rat(0)), contrib)
    return metric(chart, g, {}, taub_nut_sample_spec())


# ---------------------------------------------------------------------------
# taub-nut construction

def test_taub_nut_components_match_quadratic_form_oracle(spec):
    # H (dr.dr in polar form) + H^-1 (dk + (1/2)(1-cos t) dphi)^2
    omega = add(rat(1), -cos_(THETA))
    oracle = quadratic_form_oracle([
        (H, {1: rat(1)}),
        (mul(H, pow_(R, 2)), {2: rat(1)}),
        (mul(H, pow_(R, 2), pow_(sin_(THETA), 2)), {3: rat(1)}),
        (pow_(H, -1), {0: rat(1), 3: mul(rat(1, 2), omega)}),
    ], MONOPOLE_CHART)
    tn = make_taub_nut()
    ok, witness = metrics_equal(tn, oracle, spec)
    assert ok, witness


def test_taub_nut_fiber_component_is_inverse_profile(spec):
    tn = make_taub_nut()
    assert equal_numeric(tn.g(0, 0), pow_(H, -1), spec)


def test_taub_nut_cross_component_carries_the_half(spec):
    tn = make_taub_nut()
    want = mul(rat(1, 2), pow_(H, -1), add(rat(1), -cos_(THETA)))
    assert equal_numeric(tn.g(0, 3), want, spec)


def test_taub_nut_b_field_vanishes():
    assert not make_taub_nut().b_upper


# ---------------------------------------------------------------------------
# buscher rules

def test_dual_of_taub_nut_is_conformally_flat_product(spec):
    dual = buscher_transform(make_taub_nut())
    ref = h_monopole_metric(H, spec)
    ok, witness = metrics_equal(dual, ref, spec, compare_b=False)
    assert ok, witness


def test_dual_theta_component_is_Hr2(spec):
    dual = buscher_transform(make_taub_nut())
    assert equal_numeric(dual.g(2, 2), mul(H, pow_(R, 2)), spec)


def test_dual_phi_component_cancellation(spec):
    # g33 - (g03)^2/g00 strips the (1-cos)^2 excess exactly
    dual = buscher_transform(make_taub_nut())
    want = mul(H, pow_(R, 2), pow_(sin_(THETA), 2))
    assert equal_numeric(dual.g(3, 3), want, spec)


def test_block_preserved_when_fiber_row_vanishes(spec):
    flat = flat_product_metric(spec)
    dual = buscher_transform(flat)
    for a in range(1, 4):
        for b in range(a, 4):
            assert dual.g(a, b) == flat.g(a, b)


def test_involution_on_random_metric_pairs(spec):
    rng = random.Random(1)
    for _ in range(200):
        m = _random_metric(rng, spec)
        dd = buscher_transform(buscher_transform(m))
        ok, witness = metrics_equal(dd, m, spec, trials=5, tol=1e-9,
                                    seed=rng.randrange(10**6))
        assert ok, witness


def _random_metric(rng, spec):
    def entry():
        coeff = rat(rng.randint(-2, 2), rng.randint(1, 3))
        var = rng.choice([R, THETA, sym("kappa"), rat(1)])
        return mul(coeff, var)

    g = {(0, 0): add(rat(2), pow_(entry(), 2))}   # bounded away from zero
    b = {}
    for i in range(4):
        for j in range(i, 4):
            if (i, j) == (0, 0):
                continue
            if i == j:
                g[(i, j)] = add(rat(3), pow_(entry(), 2))
            else:
                g[(i, j)] = entry()
                b[(i, j)] = entry()
    return metric(MONOPOLE_CHART, g, b, spec)


def test_identically_zero_g00_raises():
    g = {(1, 1): rat(1)}
    m = metric(MONOPOLE_CHART, g, {}, taub_nut_sample_spec())
    with pytest.raises(SingularG00):
        buscher_transform(m)


@pytest.mark.parametrize("g, b", [({(7, 7): R}, {}), ({(0, 4): R}, {}),
                                  ({(1, 1): R}, {(0, -1): R})])
def test_components_outside_the_chart_rejected(g, b):
    with pytest.raises(ValueError, match="outside the 4-dim chart"):
        metric(MONOPOLE_CHART, g, b)


# ---------------------------------------------------------------------------
# multi-center

def test_single_center_at_origin_degenerates_to_taub_nut():
    fam = MultiCenterFamily([(0.0, 0.0, 0.0)], "coupling")
    m1 = fam.metric()
    tn = make_taub_nut()
    spec = m1.sample.merged(tn.sample)
    for (i, j), g, _ in tn.components():
        assert equal_numeric(g, m1.g(i, j), spec), (i, j)


def test_midpoint_profile_symmetric_under_center_swap():
    a, b = (0.5, 0.0, 0.0), (-0.5, 0.0, 0.0)
    f1 = MultiCenterFamily([a, b], "unit")
    f2 = MultiCenterFamily([b, a], "unit")
    p = PointAssignment({"r": 2.0, "theta": 1.1, "phi": 0.7},
                        f1.sample.functions)
    q = PointAssignment(p.values, f2.sample.functions)
    assert evaluate(f1.H, p) == pytest.approx(evaluate(f2.H, q), rel=1e-14)


def test_multi_center_fiber_component():
    fam = MultiCenterFamily([(0.2, 0.1, 0.0), (-0.3, 0.4, 0.1)], "coupling")
    m = fam.metric()
    assert equal_numeric(m.g(0, 0), pow_(fam.H, -1), fam.sample)


def test_multi_center_dual_keeps_the_monopole_form():
    rng = random.Random(3)
    for p in (2, 3, 5):
        centers = [(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8),
                    rng.uniform(-0.8, 0.8)) for _ in range(p)]
        fam = MultiCenterFamily(centers, "coupling")
        dual = buscher_transform(fam.metric())
        ok, witness = metrics_equal(dual, fam.dual_reference(), fam.sample,
                                    compare_b=False)
        assert ok, (p, witness)


def test_duplicate_centers_rejected():
    with pytest.raises(DuplicateCenters):
        MultiCenterFamily([(0.1, 0.2, 0.3), (0.1, 0.2, 0.3)])
    with pytest.raises(DuplicateCenters):
        MultiCenterFamily([(0.0, 0.0, 0.0), (0.0, 0.0, 0.0)]).metric()


def test_make_multi_taub_nut_presets():
    m_coupling = MultiCenterFamily([(0.2, 0.0, 0.0)], "coupling").metric()
    assert m_coupling.g(0, 0) == pow_(app("Hp", (R, THETA, sym("phi"), sym("g"))), -1)
    m_unit = MultiCenterFamily([(0.2, 0.0, 0.0)], "unit").metric()
    assert m_unit.g(0, 0) == pow_(app("Hp", (R, THETA, sym("phi"))), -1)
    with pytest.raises(ValueError):
        MultiCenterFamily([(0.2, 0.0, 0.0)], "weird").metric()


def test_partition_identity_of_radial_summands():
    fam = MultiCenterFamily([(0.3, 0.1, -0.2), (-0.4, 0.2, 0.5), (0.0, 0.6, 0.0)],
                            "unit")
    terms = [mul(fam.center_summand(i), pow_(fam.H_radial, -1)) for i in range(fam.p)]
    total = add(*terms, pow_(fam.H_radial, -1))
    assert equal_numeric(total, rat(1), fam.sample)


def test_center_index_out_of_range():
    fam = MultiCenterFamily([(0.1, 0.0, 0.0)])
    with pytest.raises(IndexError):
        fam.b_field(3, sym("beta"))


def test_profiles_have_poles_at_the_centers():
    # the point r = 0.5 on the axis theta = 0 is the first center, at radius 0.5
    fam = MultiCenterFamily([(0.0, 0.0, 0.5), (0.3, 0.0, 0.0)], "unit")
    at_center = PointAssignment({"r": 0.5, "theta": 0.0, "phi": 0.0}, fam.sample.functions)
    for e in (fam.H, fam.center_summand(0)):
        with pytest.raises(DomainError, match=f"pole in {e.name} at "):
            evaluate(e, at_center)


@pytest.mark.parametrize("preset", ["coupling", "unit"])
def test_multi_center_first_derivatives_match_central_differences(preset):
    fam = MultiCenterFamily([(0.3, -0.2, 0.1), (-0.4, 0.5, 0.2)], preset)
    arity = 4 if preset == "coupling" else 3
    hp = fam.sample.functions.lookup("Hp", arity)
    value = hp.closure((0,) * arity)
    point, h = [2.1, 1.1, 0.7, 0.8][:arity], 1e-5
    for slot in range(arity):
        up, down = list(point), list(point)
        up[slot] += h
        down[slot] -= h
        central = (value(*up) - value(*down)) / (2 * h)
        deriv = tuple(int(i == slot) for i in range(arity))
        assert hp.closure(deriv)(*point) == pytest.approx(central, rel=1e-7), deriv
    with pytest.raises(UnboundSymbol):
        hp.closure((1, 1) + (0,) * (arity - 2))


def test_single_center_mixed_partial_vanishes():
    h = taub_nut_sample_spec().functions.lookup("H", 2)
    assert [h.closure(d)(1.3, 0.8) for d in ((1, 1), (2, 3))] == [0.0, 0.0]


# ---------------------------------------------------------------------------
# dyonic field and potential

def test_dyonic_fiber_component(spec):
    field = dyonic_b_field(sym("beta"))
    hprime = app("H", (R, sym("g")), deriv=(1, 0))
    want = mul(rat(-1), sym("beta"), hprime, pow_(sym("g"), -2), pow_(H, -2))
    assert equal_numeric(field.component((0, 1)), want, spec)


def test_dyonic_radial_angular_component(spec):
    field = dyonic_b_field(sym("beta"))
    hprime = app("H", (R, sym("g")), deriv=(1, 0))
    want = mul(rat(-1, 2), sym("beta"), hprime, pow_(sym("g"), -2), pow_(H, -2),
               add(rat(1), -cos_(THETA)))
    assert equal_numeric(field.component((1, 3)), want, spec)


def test_dyonic_field_is_closed(spec):
    field = dyonic_b_field(sym("beta"))
    db = exterior_derivative(field)
    for idx, c in db.comps.items():
        assert equal_numeric(c, rat(0), spec), idx


def test_dyonic_field_is_beta_times_exact(spec):
    field = dyonic_b_field(sym("beta"))
    derived = exterior_derivative(dyonic_potential()).scaled(sym("beta"))
    for idx in set(field.comps) | set(derived.comps):
        assert equal_numeric(field.component(idx), derived.component(idx), spec)


def test_dyonic_field_vanishes_at_zero_modulus():
    assert dyonic_b_field(rat(0)).is_zero()


def test_multi_center_field_closed_and_exact():
    fam = MultiCenterFamily([(0.3, 0.0, 0.0), (-0.2, 0.1, 0.0)], "unit")
    for i in range(fam.p):
        for tilde in (False, True):
            field = fam.b_field(i, sym("beta"), tilde)
            db = exterior_derivative(field)
            for idx, c in db.comps.items():
                assert equal_numeric(c, rat(0), fam.sample), (i, tilde, idx)
            derived = exterior_derivative(fam.b_potential(i, tilde)).scaled(sym("beta"))
            for idx in set(field.comps) | set(derived.comps):
                assert equal_numeric(field.component(idx), derived.component(idx),
                                     fam.sample)


def test_multi_center_field_component_is_quotient_derivative():
    fam = MultiCenterFamily([(0.3, 0.0, 0.0), (-0.2, 0.1, 0.0)], "unit")
    field = fam.b_field(1, sym("beta"))
    hc = app("Hcen1", (R,))
    hc1 = app("Hcen1", (R,), deriv=(1,))
    hr = app("Hrad", (R,))
    hr1 = app("Hrad", (R,), deriv=(1,))
    quotient_rule = mul(rat(-1), sym("beta"),
                        add(mul(hc1, pow_(hr, -1)),
                            mul(rat(-1), hc, hr1, pow_(hr, -2))))
    assert equal_numeric(field.component((0, 1)), quotient_rule, fam.sample)


def test_multi_center_field_zero_modulus():
    fam = MultiCenterFamily([(0.3, 0.0, 0.0)], "unit")
    assert fam.b_field(0, rat(0)).is_zero()


# ---------------------------------------------------------------------------
# exterior derivative

def test_d_squared_vanishes_on_one_forms(spec):
    omega = DiffForm(MONOPOLE_CHART, 1,
                     {(0,): mul(sym("r"), sin_(THETA)), (2,): pow_(sym("r"), 3)})
    dd = exterior_derivative(exterior_derivative(omega))
    for idx, c in dd.comps.items():
        assert equal_numeric(c, rat(0), spec), idx


def test_d_squared_vanishes_on_random_forms(spec):
    rng = random.Random(5)
    coords = [sym("kappa"), R, THETA, sym("phi")]

    def coeff():
        terms = [mul(rat(rng.randint(-3, 3), rng.randint(1, 3)),
                     rng.choice(coords),
                     rng.choice([rat(1), sin_(THETA), cos_(THETA), pow_(R, 2)]))
                 for _ in range(2)]
        return add(*terms)

    for _ in range(25):
        omega = DiffForm(MONOPOLE_CHART, 1, {(i,): coeff() for i in range(4)})
        dd = exterior_derivative(exterior_derivative(omega))
        for idx, c in dd.comps.items():
            assert equal_numeric(c, rat(0), spec, trials=10), idx


def test_d_of_constant_form_vanishes():
    omega = DiffForm(MONOPOLE_CHART, 1, {(0,): rat(5), (3,): rat(-2, 3)})
    assert exterior_derivative(omega).is_zero()


def test_d_at_top_degree_rejected():
    top = DiffForm(MONOPOLE_CHART, 4, {(0, 1, 2, 3): rat(1)})
    with pytest.raises(ValueError):
        exterior_derivative(top)


# ---------------------------------------------------------------------------
# pullback and the dyonic identity

def test_pullback_along_identity(spec):
    tn = make_taub_nut()
    back = pullback(tn, identity_diffeo(MONOPOLE_CHART))
    ok, witness = metrics_equal(back, tn, spec)
    assert ok, witness


def test_pullback_respects_composition(spec):
    rng = random.Random(11)
    m = flat_product_metric(spec)
    for _ in range(5):
        c1, c2 = rat(rng.randint(1, 3)), rat(rng.randint(1, 3), 2)
        f = Diffeo(MONOPOLE_CHART, (add(sym("kappa"), mul(c1, R)), R, THETA, sym("phi")))
        h = Diffeo(MONOPOLE_CHART, (sym("kappa"), R, THETA, add(sym("phi"), mul(c2, THETA))))
        lhs = pullback(m, compose(f, h))
        rhs = pullback(pullback(m, f), h)
        ok, witness = metrics_equal(lhs, rhs, spec, trials=20)
        assert ok, witness


def test_dyonic_identity_dual_equals_shifted_pullback(spec):
    beta = sym("beta")
    tn = with_b_field(make_taub_nut(), dyonic_b_field(beta))
    dual = buscher_transform(tn)
    ref = h_monopole_metric(H, spec)
    for variant in ("gamma", "lambda"):
        target = pullback(ref, dyonic_shift(beta, variant=variant))
        ok, witness = metrics_equal(dual, target, spec, compare_b=False)
        assert ok, (variant, witness)


def test_multi_center_dyonic_identity_per_center():
    beta = sym("beta")
    fam = MultiCenterFamily([(0.4, 0.1, 0.0), (-0.3, 0.2, 0.1), (0.0, -0.5, 0.2)],
                            "unit")
    base = fam.radial_metric()
    ref = fam.radial_dual_reference()
    for i in range(fam.p):
        for tilde in (False, True):
            dual = buscher_transform(with_b_field(base, fam.b_field(i, beta, tilde)))
            target = pullback(ref, fam.dyonic_shift(i, beta, tilde))
            ok, witness = metrics_equal(dual, target, fam.sample, compare_b=False)
            assert ok, (i, tilde, witness)


def test_shares_and_shifts_are_the_trees_written_out():
    kappa, centers = sym("kappa"), [(0.4, 0.1, 0.0), (-0.3, 0.2, 0.1), (0.0, -0.5, 0.2)]
    for beta in (sym("beta"), rat(3, 2), rat(0), mul(rat(2), sym("g"))):
        for p in (2, 3):
            fam = MultiCenterFamily(centers[:p], "unit")
            for i in range(fam.p):
                ratio = mul(fam.center_summand(i), pow_(fam.H_radial, -1))
                for tilde, share in ((False, ratio), (True, add(rat(1), -ratio))):
                    assert fam.b_potential(i, tilde).component((0,)) is share
                    f = fam.dyonic_shift(i, beta, tilde)
                    assert f.targets[0] is add(kappa, mul(rat(-1), beta, share))
                    assert f.targets[1:] == (R, THETA, sym("phi")) and f.chart is MONOPOLE_CHART
        gamma = mul(beta, pow_(sym("g"), -2), pow_(H, -1))
        for variant, shift in (("gamma", gamma), ("lambda", add(gamma, -beta))):
            f = dyonic_shift(beta, variant)
            assert f.targets[0] is add(kappa, shift)
            assert f.targets[1:] == (R, THETA, sym("phi")) and f.chart is MONOPOLE_CHART


def test_shift_asymptotics():
    gamma = dyonic_shift(sym("beta"), variant="gamma")
    lam = dyonic_shift(sym("beta"), variant="lambda")
    fns = taub_nut_sample_spec().functions
    for r, tol in ((1e3, 1e-3), (1e6, 1e-6)):
        p = PointAssignment({"kappa": 0.0, "r": r, "theta": 1.0, "phi": 1.0,
                             "g": 0.9, "beta": 0.7}, fns)
        gamma_shift = evaluate(gamma.targets[0], p)
        lam_shift = evaluate(lam.targets[0], p)
        assert abs(gamma_shift - 0.7) < tol
        assert abs(lam_shift) < tol


def test_zero_modulus_shift_is_identity(spec):
    f = dyonic_shift(rat(0))
    ident = identity_diffeo(MONOPOLE_CHART)
    for a, b in zip(f.targets, ident.targets):
        assert equal_numeric(a, b, spec, trials=5)


def test_degenerate_map_raises_singular_jacobian(spec):
    from tdual.geometry import SingularJacobian
    squashed = Diffeo(MONOPOLE_CHART, (sym("kappa"), R, THETA, rat(1)))
    with pytest.raises(SingularJacobian):
        pullback(make_taub_nut(), squashed)


def test_pullback_carries_the_b_field():
    # along (k, x, y) -> (k, x + y, y), whose Jacobian has the columns
    # (1, 0, 0), (0, 1, 0) and (0, 1, 1), expanded by hand
    chart = Chart(("k", "x", "y"), (True, False, False))
    spec = SampleSpec({"k": (0.1, 6.2), "x": (-2.0, 2.0), "y": (-2.0, 2.0)})
    k, x, y = sym("k"), sym("x"), sym("y")
    m = metric(chart, {(0, 0): rat(1), (1, 1): rat(1), (2, 2): rat(1)},
               {(0, 1): y, (1, 2): x}, spec)
    pulled = pullback(m, Diffeo(chart, (k, add(x, y), y)))
    expected = metric(chart, {(0, 0): rat(1), (1, 1): rat(1), (1, 2): rat(1), (2, 2): rat(2)},
                      {(0, 1): y, (0, 2): y, (1, 2): add(x, y)}, spec)
    ok, witness = metrics_equal(pulled, expected)
    assert ok, witness


def _b_field_case():
    chart = Chart(("k", "x", "y"), (True, False, False))
    spec = SampleSpec({"k": (0.1, 6.2), "x": (-2.0, 2.0), "y": (-2.0, 2.0)})
    k, x, y = sym("k"), sym("x"), sym("y")
    m = metric(chart, {(0, 0): rat(1), (1, 1): rat(1), (2, 2): rat(1)},
               {(0, 1): y, (1, 2): x}, spec)
    return [(m, Diffeo(chart, (k, add(x, y), y)))]


def _dyonic_cases():
    beta, spec = sym("beta"), taub_nut_sample_spec()
    metrics = [h_monopole_metric(H, spec), with_b_field(make_taub_nut(), dyonic_b_field(beta))]
    return [(m, dyonic_shift(b, variant)) for m in metrics
            for b in (beta, rat(3, 2), mul(rat(2), sym("g"))) for variant in ("gamma", "lambda")]


def _multi_center_cases():
    beta, cases = sym("beta"), []
    for p in (2, 3):
        fam = MultiCenterFamily([(0.4, 0.1, 0.0), (-0.3, 0.2, 0.1), (0.0, -0.5, 0.2)][:p], "unit")
        for i in range(p):
            for tilde in (False, True):
                f = fam.dyonic_shift(i, beta, tilde)
                field = with_b_field(fam.radial_metric(), fam.b_field(i, beta, tilde))
                cases += [(fam.radial_dual_reference(), f), (field, f)]
    return cases


def _composition_cases():
    rng, spec, cases = random.Random(11), taub_nut_sample_spec(), []
    m = flat_product_metric(spec)
    for _ in range(5):
        c1, c2 = rat(rng.randint(1, 3)), rat(rng.randint(1, 3), 2)
        f = Diffeo(MONOPOLE_CHART, (add(sym("kappa"), mul(c1, R)), R, THETA, sym("phi")))
        h = Diffeo(MONOPOLE_CHART, (sym("kappa"), R, THETA, add(sym("phi"), mul(c2, THETA))))
        cases += [(m, compose(f, h)), (m, f), (pullback(m, f), h)]
    return cases


def assert_pullback_is_the_oracles(m, f):
    """``pullback`` builds every component the per-component loop builds."""
    try:
        want = geometry_oracle.pullback(m, f)
    except DomainError:
        with pytest.raises(DomainError):
            pullback(m, f)
        return
    got = pullback(m, f)
    assert (got.g_upper.keys(), got.b_upper.keys()) == (want.g_upper.keys(), want.b_upper.keys())
    n = m.chart.dim
    for i in range(n):
        for j in range(n):
            assert got.g(i, j) is want.g(i, j) and got.b(i, j) is want.b(i, j), (i, j)


PULLBACK_CASES = {
    "identity": lambda: [(m, identity_diffeo(MONOPOLE_CHART)) for m in (
        make_taub_nut(), with_b_field(make_taub_nut(), dyonic_b_field(sym("beta"))))],
    "dyonic": _dyonic_cases,
    "multi-center": _multi_center_cases,
    "composition": _composition_cases,
    "b-field": _b_field_case,
}


@pytest.mark.parametrize("name", sorted(PULLBACK_CASES))
def test_pullback_builds_the_oracles_nodes(name):
    for m, f in PULLBACK_CASES[name]():
        assert_pullback_is_the_oracles(m, f)


def _trees(names):
    leaves = st.one_of(st.sampled_from([sym(n) for n in names]), st.integers(-3, 3).map(rat))
    return st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(lambda xs: add(*xs)),
        st.lists(kids, min_size=2, max_size=3).map(lambda xs: mul(*xs)),
        st.tuples(kids, st.sampled_from(["2", "-1", "1/2", "-3/2"])).filter(
            lambda t: t[0] != rat(0)).map(lambda t: pow_(t[0], Fraction(t[1]))),
        kids.map(sin_), kids.map(cos_), kids.map(lambda e: app("F", (e,)))), max_leaves=6)


@st.composite
def metrics_and_diffeos(draw):
    n = draw(st.sampled_from([3, 4]))
    chart = Chart(("k", "x", "y", "z")[:n], (True,) + (False,) * (n - 1))
    trees = _trees(chart.names)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    # a b entry given below the diagonal is stored negated
    m = metric(chart, draw(st.dictionaries(pairs, trees, max_size=5)),
               draw(st.dictionaries(pairs.filter(lambda p: p[0] != p[1]), trees,
                                    min_size=1, max_size=4)))
    return m, Diffeo(chart, tuple(draw(st.lists(trees, min_size=n, max_size=n))))


@settings(max_examples=150, deadline=None)
@given(metrics_and_diffeos())
def test_pullback_builds_the_oracles_nodes_on_random_metrics(case):
    assert_pullback_is_the_oracles(*case)


def test_pullback_substitutes_each_stored_entry_once(monkeypatch):
    calls, negated = [], []
    real_substitute, real_neg = geometry.substitute, Expr.__neg__

    def substituting(e, binds):
        calls.append(e)
        return real_substitute(e, binds)

    def negating(e):
        negated.append(e)
        return real_neg(e)

    monkeypatch.setattr(geometry, "substitute", substituting)
    monkeypatch.setattr(Expr, "__neg__", negating)
    beta, spec = sym("beta"), taub_nut_sample_spec()
    for m, f, count in [(h_monopole_metric(H, spec), dyonic_shift(beta), 4),
                        (with_b_field(make_taub_nut(), dyonic_b_field(beta)),
                         dyonic_shift(beta, "lambda"), 8)]:
        calls.clear(), negated.clear()
        pulled = pullback(m, f)
        stored = [*m.g_upper.values(), *m.b_upper.values()]
        assert len(calls) == len(stored) == count and set(calls) == set(stored)
        # one negation per stored b entry, read as its partner below the diagonal
        moved = [real_substitute(e, f.bindings()) for e in m.b_upper.values()]
        assert sorted(map(id, negated)) == sorted(map(id, moved))
        assert pulled.g_upper and ZERO not in negated


# ---------------------------------------------------------------------------
# conformal comparison

def test_dual_is_conformal_to_flat_product(spec):
    dual = buscher_transform(make_taub_nut())
    factor = conformal_factor(dual, flat_product_metric(spec), spec)
    assert equal_numeric(factor, H, spec)


def test_self_conformal_factor_is_one(spec):
    tn = make_taub_nut()
    assert equal_numeric(conformal_factor(tn, tn, spec), rat(1), spec)


def test_zero_reference_is_not_conformal(spec):
    with pytest.raises(NotConformal, match="at component None") as err:
        conformal_factor(make_taub_nut(), MetricData(MONOPOLE_CHART, {}, {}), spec)
    assert err.value.witness == "reference metric is numerically zero"


def test_taub_nut_not_conformal_to_flat(spec):
    with pytest.raises(NotConformal) as err:
        conformal_factor(make_taub_nut(), flat_product_metric(spec), spec)
    assert err.value.component is not None


# ---------------------------------------------------------------------------
# shared sample blocks: every component of one metrics_equal is checked over
# the same blocks of points and column memos

def _gh_pair(m):
    return buscher_transform(m), h_monopole_metric(m.g_upper[(1, 1)], m.sample)


def _coupling_pair(terms, seed=1):
    rng, g = random.Random(seed), sym("g")
    return _gh_pair(make_taub_nut(add(*[mul(rat(rng.randint(1, 9), rng.randint(1, 9)),
                                            pow_(g, rng.randint(1, 3))) for _ in range(terms)])))


def _multi_pair(count, seed=5):
    rng, centers = random.Random(seed), []
    while len(centers) < count:
        c = tuple(round(rng.uniform(-0.9, 0.9), 3) for _ in range(3))
        if c not in centers:
            centers.append(c)
    fam = MultiCenterFamily(centers)
    return buscher_transform(fam.metric()), fam.dual_reference()


def _dyonic_pair():
    beta = sym("beta")
    m = with_b_field(make_taub_nut(), dyonic_b_field(beta))
    ref = h_monopole_metric(m.g_upper[(1, 1)], m.sample)
    return buscher_transform(m), pullback(ref, dyonic_shift(beta))


def _perturbed(a, b, idx):
    g = dict(b.g_upper)
    g[idx] = mul(rat(1000001, 1000000), g[idx])
    return a, metric(b.chart, g, dict(b.b_upper), b.sample)


# P(r) = 1/max(r - 1, 0) divides by zero wherever r <= 1
POLES = FunctionTable([OpaqueFunction("P", 1, {(0,): lambda r: 1 / max(r - 1, 0.0)}.get)])


def _pole_pair(r_box):
    """A metric whose (0, 1) entry has a pole on the part r <= 1 of the box,
    between entries that share its blocks."""
    spec = SampleSpec({"k": (0.0, 6.0), "r": r_box}, POLES)
    g = {(0, 0): R, (0, 1): app("P", (R,)), (1, 1): mul(R, R)}
    chart = Chart(("k", "r"), (True, False))
    return metric(chart, g, {(0, 1): R}, spec), metric(chart, g, {(0, 1): mul(R, R)}, spec)


SHARED_CASES = {
    "taub-nut-gh": lambda: _gh_pair(make_taub_nut()),
    "taub-nut-inv": lambda: (buscher_transform(buscher_transform(make_taub_nut())),
                             make_taub_nut()),
    "dyonic": _dyonic_pair,
    "multi2": lambda: _multi_pair(2),
    "multi5": lambda: _multi_pair(5),
    "multi8": lambda: _multi_pair(8),
    "coupling100": lambda: _coupling_pair(100),
    "perturbed": lambda: _perturbed(*_gh_pair(make_taub_nut()), (2, 2)),
    "pole-retried": lambda: _pole_pair((0.95, 3.0)),    # 2% of points meet the pole
    "pole-raises": lambda: _pole_pair((0.5, 1.02)),     # 96%: retries run out
}


def _per_component(a, b, spec, trials, tol, seed, compare_b):
    """metrics_equal with one sampling of its own per component, the oracle
    of the shared blocks."""
    for (i, j), ga, ba in a.components():
        for part, x, y in [("g", ga, b.g(i, j)), ("b", ba, b.b(i, j))][:1 + compare_b]:
            rep = geometry.equal_numeric(x, y, spec, trials, tol, seed)
            if not rep:
                return False, ((part, i, j), rep.witness)
    return True, None


def _reports(monkeypatch, check) -> str:
    """Every report of geometry.equal_numeric that ``check()`` sees, then its
    outcome or error, as a string; repr tells every float apart."""
    seen, real = [], geometry.equal_numeric

    def recording(*args, **kwargs):
        rep = real(*args, **kwargs)
        w = rep.witness
        seen.append((rep.equal, rep.trials, rep.domain_errors, w and (w.point, w.lhs, w.rhs)))
        return rep

    with monkeypatch.context() as patched:
        patched.setattr(geometry, "equal_numeric", recording)
        try:
            out = check()
        except Exception as exc:
            out = (type(exc), exc.args)
    return repr((seen, out))


@pytest.mark.parametrize("compare_b", [False, True])
@pytest.mark.parametrize("trials", [1, 128, 300])       # one, one and three blocks
@pytest.mark.parametrize("case", SHARED_CASES)
def test_shared_blocks_report_as_one_sampling_per_component(case, trials, compare_b,
                                                             monkeypatch):
    a, b = SHARED_CASES[case]()
    args = (a, b, a.sample, trials, 1e-9, 7, compare_b)
    got = _reports(monkeypatch, lambda: metrics_equal(*args))
    assert got == _reports(monkeypatch, lambda: _per_component(*args))
    # each case takes the path it is named for
    if case == "pole-raises":
        assert f"{DomainError!r}, ('pole in P at [" in got
    elif compare_b and case != "taub-nut-inv":      # a B-field the reference does not have
        assert f"(False, (('b', 0, {1 if case == 'pole-retried' else 3}), Witness(" in got
    elif case == "perturbed":
        assert "(False, (('g', 2, 2), Witness(" in got
    else:
        assert got.endswith("(True, None))")
    if case == "pole-retried" and trials > 1:
        assert re.search(r"\(True, \d+, [1-9]\d*, None\)", got)     # domain errors, retried


def test_metrics_equal_calls_equal_numeric_once_per_component(spec, monkeypatch):
    # bench/layers.py traces equal_numeric per call: both trees by position, and the trials
    a, b = buscher_transform(buscher_transform(make_taub_nut())), make_taub_nut()
    calls, real = [], geometry.equal_numeric

    def counting(*args, **kwargs):
        rep = real(*args, **kwargs)
        calls.append((args, sorted(kwargs), rep.trials))
        return rep

    monkeypatch.setattr(geometry, "equal_numeric", counting)
    for compare_b in (False, True):
        calls.clear()
        assert metrics_equal(a, b, spec, 50, 1e-9, 3, compare_b) == (True, None)
        shared = list(calls)
        calls.clear()
        assert _per_component(a, b, spec, 50, 1e-9, 3, compare_b) == (True, None)
        pairs = [p for (i, j), ga, ba in a.components()
                 for p in [(ga, b.g(i, j)), (ba, b.b(i, j))][:1 + compare_b]]
        assert [args[:2] for args, _, _ in shared] == pairs
        assert all(args[2:] == (spec, 50, 1e-9, 3) and kw == ["_blocks"]
                   for args, kw, _ in shared)
        assert sum(t for *_, t in shared) == sum(t for *_, t in calls) == 50 * len(pairs)


@pytest.mark.parametrize("case", ["taub-nut-inv", "perturbed"])
def test_metrics_equal_frees_its_blocks_when_it_returns(case, monkeypatch):
    a, b = SHARED_CASES[case]()
    refs, real = [], geometry.equal_numeric

    def watching(*args, _blocks, **kwargs):
        refs.extend(map(weakref.ref, [_blocks, *_blocks.values()]))
        return real(*args, _blocks=_blocks, **kwargs)

    monkeypatch.setattr(geometry, "equal_numeric", watching)
    gc.disable()
    try:
        ok, _ = metrics_equal(a, b, a.sample, 300, 1e-9, 7)
        assert ok == (case != "perturbed") and refs
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# serialization

def test_metric_json_round_trip(spec):
    tn = make_taub_nut()
    back = type(tn).from_json(tn.to_json(), sample=spec)
    ok, witness = metrics_equal(tn, back, spec, trials=10)
    assert ok, witness


def test_metric_from_json_is_simplified_by_upper_triangle(spec):
    obj = make_taub_nut().to_json()
    # 2 * r * (1/2) below the diagonal, and a zero entry
    obj["g"].append([2, 1, {"k": "prod", "factors": [
        {"k": "rat", "v": [2, 1]}, {"k": "sym", "name": "r"}, {"k": "rat", "v": [1, 2]}]}])
    obj["g"].append([3, 1, {"k": "sum", "terms": [{"k": "rat", "v": [0, 1]}]}])
    m = MetricData.from_json(obj, sample=spec)
    assert m.g(1, 2) == R and m.g(2, 1) == R
    assert (1, 3) not in m.g_upper and (3, 1) not in m.g_upper
    obj["b"].append([7, 0, {"k": "sym", "name": "r"}])
    with pytest.raises(ValueError, match="outside the 4-dim chart"):
        MetricData.from_json(obj, sample=spec)


def _coupling(terms: int):
    rng = random.Random(terms)
    return add(*[mul(rat(rng.randint(1, 9), rng.randint(1, 9)), pow_(sym("g"), rng.randint(1, 3)))
                 for _ in range(terms)])


def _multi(p: int) -> MultiCenterFamily:
    from tdual.cli import _multi_preset
    return _multi_preset(p, 42)


# every preset metric of buscher and its dual, the multi-center families and
# their references, and coupling metrics of 25, 50 and 100 terms
DOCUMENTS = {
    "taub-nut": make_taub_nut,
    "dyonic": lambda: with_b_field(make_taub_nut(), dyonic_b_field(sym("beta"))),
    "flat": flat_product_metric,
    **{f"multi{p}": (lambda p=p: _multi(p).metric()) for p in (2, 3, 5, 8)},
    **{f"multi{p}-reference": (lambda p=p: _multi(p).dual_reference()) for p in (2, 3, 5, 8)},
    "multi3-radial": lambda: _multi(3).radial_metric(),
    **{f"coupling{n}": (lambda n=n: make_taub_nut(_coupling(n))) for n in (25, 50, 100)},
}


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_metric_json_is_the_per_entry_codec_with_one_memo(name, dual):
    m = DOCUMENTS[name]()
    m = buscher_transform(m) if dual else m
    obj = m.to_json()
    text = json.dumps(obj)
    per_entry = {"chart": obj["chart"], **{part: [[i, j, oracle.expr_to_json(e)] for (i, j), e in
                                                  sorted(getattr(m, f"{part}_upper").items())]
                                           for part in ("g", "b")}}
    assert text == json.dumps(per_entry)
    # the document reader builds the nodes the per-occurrence reader builds
    read = json.loads(text)
    memo = {}
    for part in ("g", "b"):
        for i, j, e in read[part]:
            node = expr_from_json(e, memo)
            assert node is oracle.checked_expr_from_json(e) is oracle.expr_from_json(e)
            assert node is getattr(m, f"{part}_upper")[(i, j)]
    back = MetricData.from_json(read, sample=m.sample)
    assert (back.chart, back.g_upper, back.b_upper) == (m.chart, m.g_upper, m.b_upper)
    assert json.dumps(read) == text == json.dumps(obj)      # neither side mutates a dict


@pytest.mark.parametrize("part, entry, component", [
    ("g", [1, 1, {"k": "sym", "name": "r"}], "(1, 1)"),
    ("g", [3, 0, {"k": "sym", "name": "r"}], "(0, 3)"),     # (j, i) beside (i, j)
    ("b", [1, 0, {"k": "sym", "name": "r"}], "(0, 1)"),
])
def test_metric_from_json_refuses_a_component_given_twice(part, entry, component, spec):
    # keeping the last entry would read back g11 = r from the first case
    obj = make_taub_nut().to_json()
    obj["b"].append([0, 1, {"k": "sym", "name": "g"}])
    obj[part].append(entry)
    with pytest.raises(ValueError, match=re.escape(f"{part} component {component} is given")):
        MetricData.from_json(obj, sample=spec)
