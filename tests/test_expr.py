"""Symbolic core: evaluation, differentiation, substitution, simplification,
and the seeded randomized equality engine."""

import gc
import json
import random
import weakref
from fractions import Fraction
from types import FunctionType

import pytest
from hypothesis import given, settings, strategies as st

import expr_oracle as oracle
from tdual.expr import (
    App, Chart, CosE, DomainError, FunctionTable, OpaqueFunction, PointAssignment,
    Pow, Prod, Rat, SampleSpec, SinE, Sum, Sym, UnboundSymbol, _nodes, add, app, compile_expr,
    cos_, differentiate, equal_numeric, evaluate, expr_from_json, expr_to_json,
    free_symbols, mul, opaque_functions, pow_, rat, simplify_basic, sin_,
    substitute, sym,
)
from tdual.geometry import taub_nut_sample_spec


def H(r=None, g=None):
    return app("H", (r if r is not None else sym("r"),
                     g if g is not None else sym("g")))


@pytest.fixture
def spec():
    return taub_nut_sample_spec()


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_monopole_profile_direct_arithmetic(spec):
    # 1/g^2 + 1/(2r) at g=1, r=0.5 is 1 + 1 = 2, computed by hand
    p = PointAssignment({"r": 0.5, "g": 1.0}, spec.functions)
    assert evaluate(H(), p) == pytest.approx(2.0, abs=1e-15)


def test_evaluate_rational_constant():
    assert evaluate(rat(3, 4), PointAssignment()) == 0.75


def test_evaluate_sin_at_zero():
    assert evaluate(sin_(sym("theta")), PointAssignment({"theta": 0.0})) == 0.0


def test_evaluate_unbound_symbol_raises():
    with pytest.raises(UnboundSymbol):
        evaluate(sym("q"), PointAssignment({"r": 1.0}))


def test_evaluate_pole_raises():
    with pytest.raises(DomainError):
        evaluate(pow_(sym("r"), -1), PointAssignment({"r": 0.0}))


def test_evaluate_unregistered_derivative_order_raises(spec):
    deep = app("Hp", (sym("r"), sym("theta"), sym("phi")), deriv=(2, 0, 0))
    fns = FunctionTable([OpaqueFunction("Hp", 3, closure_factory=lambda d: None)])
    with pytest.raises(UnboundSymbol):
        evaluate(deep, PointAssignment({"r": 1.0, "theta": 1.0, "phi": 1.0}, fns))


# ---------------------------------------------------------------------------
# differentiation

def test_derivative_of_inverse_coupling_profile(spec):
    # d/dr (g^-2 H^-1) = -H' / (g^2 H^2)
    lhs = differentiate(mul(pow_(sym("g"), -2), pow_(H(), -1)), "r")
    hprime = App("H", (sym("r"), sym("g")), (1, 0))
    rhs = mul(rat(-1), hprime, pow_(sym("g"), -2), pow_(H(), -2))
    assert equal_numeric(lhs, rhs, spec)


def test_derivative_in_absent_coordinate_is_zero():
    assert differentiate(H(), "kappa") == rat(0)


def test_elementary_trig_derivative():
    assert differentiate(add(rat(1), -cos_(sym("theta"))), "theta") == sin_(sym("theta"))


def test_opaque_chain_rule_bumps_multi_index():
    d = differentiate(app("F", (mul(rat(2), sym("x")),)), "x")
    assert isinstance(d, Prod)
    bumped = [f for f in d.factors if isinstance(f, App)]
    assert bumped and bumped[0].deriv == (1,)


def test_linearity_of_differentiation_randomized(spec):
    rng = random.Random(42)
    for _ in range(100):
        a = _random_expr(rng, depth=3)
        b = _random_expr(rng, depth=3)
        lhs = differentiate(add(a, b), "r")
        rhs = add(differentiate(a, "r"), differentiate(b, "r"))
        assert equal_numeric(lhs, rhs, spec, trials=10, tol=1e-9)


def _random_expr(rng, depth):
    # polynomial-plus-trig trees: total functions on the sample box
    if depth == 0:
        return rng.choice([sym("r"), sym("theta"), sym("kappa"),
                           rat(rng.randint(-3, 3), rng.randint(1, 4))])
    kind = rng.randrange(5)
    if kind == 0:
        return add(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == 1:
        return mul(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == 2:
        return pow_(_random_expr(rng, depth - 1), 2)
    if kind == 3:
        return sin_(_random_expr(rng, depth - 1))
    return cos_(_random_expr(rng, depth - 1))


# ---------------------------------------------------------------------------
# substitution

def test_substitution_dyonic_shift(spec):
    shift = add(sym("K"), mul(rat(-1), sym("beta"), pow_(sym("g"), -2), pow_(H(), -1)))
    out = substitute(sym("kappa"), {"kappa": shift})
    assert out == shift


def test_empty_substitution_is_identity():
    e = mul(sym("r"), sin_(sym("theta")))
    assert substitute(e, {}) == e


def test_substitution_folds_constants():
    assert substitute(mul(sym("r"), sym("r")), {"r": rat(2)}) == rat(4)


def test_composition_law_randomized(spec):
    rng = random.Random(7)
    for _ in range(40):
        e = _random_expr(rng, 3)
        binding = {"r": add(sym("theta"), rat(1)), "kappa": mul(rat(2), sym("r"))}
        p = spec.draw(rng)
        composed = {name: evaluate(expr, p) for name, expr in binding.items()}
        q = PointAssignment({**p.values, **composed}, p.functions)
        lhs = evaluate(substitute(e, binding), p)
        rhs = evaluate(e, q)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


# ---------------------------------------------------------------------------
# simplification

def test_zero_and_one_rules():
    assert mul(rat(0), H()) + mul(rat(1), sym("r")) == sym("r")


def test_inverse_pair_with_identical_base_collapses():
    assert mul(H(), pow_(H(), -1)) == rat(1)


def test_no_expansion_beyond_listed_rules():
    e = pow_(add(rat(1), -cos_(sym("theta"))), 2)
    assert isinstance(e, Pow) and isinstance(e.base, Sum)


EXPONENTS = ["1", "2", "3", "-1", "1/2", "3/2", "-1/2"]
# products often hold two roots of 2, whose collected power can be an integer
ROOTS_OF_TWO = st.sampled_from(["1/2", "3/2", "-1/2"]).map(lambda q: Pow(rat(2), Fraction(q)))

expr_strategy = st.deferred(lambda: st.one_of(
    st.sampled_from([sym("r"), sym("theta")]),
    st.integers(-4, 4).map(rat),
    st.tuples(expr_strategy, expr_strategy).map(lambda t: Sum(t)),
    st.lists(st.one_of(expr_strategy, ROOTS_OF_TWO), min_size=2, max_size=3).map(
        lambda t: Prod(tuple(t))),
    st.tuples(expr_strategy, st.sampled_from(EXPONENTS)).map(
        lambda t: Pow(t[0], Fraction(t[1]))),
))


@settings(max_examples=200, deadline=None)
@given(expr_strategy)
def test_simplify_idempotent(e):
    try:
        once = simplify_basic(e)
    except DomainError:
        return   # 0^-1 style constants are rejected, not simplified
    assert simplify_basic(once) == once


def test_collected_powers_fold_and_flatten():
    x, y = sym("x"), sym("y")
    half, three_halves = Fraction(1, 2), Fraction(3, 2)
    assert mul(x, pow_(2, half), pow_(2, half)) == mul(2, x)
    assert mul(pow_(2, half), pow_(2, three_halves), x) == mul(4, x)
    xy = mul(x, y)
    assert mul(pow_(xy, 2), pow_(xy, -1), x) == mul(pow_(x, 2), y)
    for e in (Prod((x, Pow(Rat(Fraction(2)), half), Pow(Rat(Fraction(2)), half))),
              Prod((Pow(xy, Fraction(2)), Pow(xy, Fraction(-1)), x))):
        once = simplify_basic(e)
        assert simplify_basic(once) == once


# ---------------------------------------------------------------------------
# differential tests: the earlier core in expr_oracle is the reference

# phi is left unassigned when recipes are evaluated
recipes = st.recursive(
    st.one_of(st.sampled_from([("sym", "r"), ("sym", "theta"), ("sym", "phi")]),
              st.integers(-3, 3).map(lambda n: ("rat", n))),
    lambda kids: st.one_of(
        st.tuples(st.just("share"), kids),
        st.lists(kids, min_size=1, max_size=3).map(lambda xs: ("add", *xs)),
        st.lists(kids, min_size=1, max_size=3).map(lambda xs: ("mul", *xs)),
        st.tuples(st.just("pow"), kids, st.sampled_from(EXPONENTS).map(Fraction)),
        st.tuples(st.sampled_from(["sin", "cos", "app"]), kids),
        st.tuples(st.just("diff"), kids, st.sampled_from(["r", "theta"])),
        st.tuples(st.just("subst"), kids, kids),
    ),
    max_leaves=10,
)


def build(recipe):
    """The tree through the constructors, differentiate and substitute."""
    op, *a = recipe
    if op in ("sym", "rat"):
        return sym(a[0]) if op == "sym" else rat(a[0])
    kids = [build(k) if isinstance(k, tuple) else k for k in a]
    if op == "app":
        return app("F", (sym("r"), kids[0]))
    if op == "diff":
        return differentiate(*kids)
    if op == "subst":
        return substitute(kids[0], {"r": kids[1]})
    if op == "share":       # one subtree used three times
        return add(kids[0], mul(kids[0], sin_(kids[0])))
    return {"add": add, "mul": mul, "pow": pow_, "sin": sin_, "cos": cos_}[op](*kids)


def build_raw(recipe):
    """The same tree from raw nodes; the oracle differentiates and substitutes
    into its own normal form of the operand, as the earlier core did."""
    op, *a = recipe
    if op in ("sym", "rat"):
        return Sym(a[0]) if op == "sym" else Rat(Fraction(a[0]))
    kids = [build_raw(k) if isinstance(k, tuple) else k for k in a]
    if op == "app":
        return App("F", (Sym("r"), kids[0]), (0, 0))
    if op == "diff":
        return oracle._diff(oracle.simplify_basic(kids[0]), kids[1])
    if op == "subst":
        return oracle._subst(oracle.simplify_basic(kids[0]),
                             {"r": oracle.simplify_basic(kids[1])})
    if op == "share":
        return Sum((kids[0], Prod((kids[0], SinE(kids[0])))))
    nodes = {"add": lambda *xs: Sum(xs), "mul": lambda *xs: Prod(xs), "pow": Pow,
             "sin": SinE, "cos": CosE}
    return nodes[op](*kids)


@settings(max_examples=400, deadline=None)
@given(recipes)
def test_built_trees_equal_the_oracle_simplification(recipe):
    try:
        want = oracle.simplify_basic(build_raw(recipe))
    except DomainError:
        with pytest.raises(DomainError):
            build(recipe)
        return
    got = build(recipe)
    assert got == want and str(got) == str(want)
    # the earlier core re-simplified every subtree it was given: that is a no-op
    assert oracle.simplify_basic(got) == got
    assert simplify_basic(build_raw(recipe)) == got


def f_table():
    """F/2 with derivative orders up to 1 registered."""
    return FunctionTable([OpaqueFunction("F", 2, closure_factory=lambda d: (
        None if sum(d) > 1 else lambda a, b: (1 + sum(d)) * a * b + a))])


def outcome(run):
    """The float ``run()`` returns, or the type and message of its error."""
    try:
        return run()
    except (DomainError, UnboundSymbol) as exc:
        return type(exc), exc.args


@settings(max_examples=300, deadline=None)
@given(recipes, st.floats(0.3, 3.0), st.floats(0.05, 3.0))
def test_evaluation_equals_the_oracle_bit_for_bit(recipe, r, theta):
    try:
        e = build(recipe)
    except DomainError:
        return
    p = PointAssignment({"r": r, "theta": theta}, f_table())
    got, want = (outcome(lambda: ev(e, p)) for ev in (evaluate, oracle.evaluate))
    assert repr(got) == repr(want)     # repr tells every float apart


def equality_outcome(eq, a, b, spec, seed):
    def run():
        rep = eq(a, b, spec, trials=10, seed=seed)
        w = rep.witness
        return rep.equal, rep.domain_errors, w and (w.point, w.lhs, w.rhs)
    return repr(outcome(run))


SAMPLE = SampleSpec({"r": (0.3, 3.0), "theta": (-1.0, 3.0)}, f_table())


@settings(max_examples=150, deadline=None)
@given(recipes, recipes, st.booleans(), st.integers(0, 10 ** 6))
def test_equal_numeric_equals_the_oracle_loop(ra, rb, same, seed):
    try:
        a = build(ra)
        b = a if same else build(rb)
    except DomainError:
        return
    assert (equality_outcome(equal_numeric, a, b, SAMPLE, seed)
            == equality_outcome(oracle.equal_numeric, a, b, SAMPLE, seed))


@pytest.mark.parametrize("a, b, box, expect", [
    (mul(H(), pow_(sym("r"), 2)), mul(pow_(sym("r"), 2), H()), (0.3, 3.0), "(True, 0, None)"),
    (sym("r"), add(sym("r"), rat(1, 1000)), (0.3, 3.0), "(False, 0, ({'r':"),
    (pow_(add(sym("r"), rat(-1)), Fraction(-1, 2)), sym("r"), (0.5, 1.5), "(False, 2, ({'r':"),
    (pow_(add(sym("r"), rat(-1)), Fraction(1, 2)), pow_(add(sym("r"), rat(-1)), Fraction(1, 2)),
     (0.5, 1.5), "(True, 5, None)"),
    (pow_(add(sym("r"), rat(-1)), -1), rat(0), (1.0, 1.0),
     "(<class 'tdual.expr.DomainError'>, ('pole: (r + -1)^-1 at base 0.0',))"),
    # the pole is met before the unregistered function is looked up
    (add(pow_(add(sym("r"), rat(-1)), -1), app("F", (sym("r"),))), rat(0), (1.0, 1.0),
     "(<class 'tdual.expr.DomainError'>, ('pole: (r + -1)^-1 at base 0.0',))"),
    (add(sym("r"), app("F", (sym("r"),))), rat(0), (0.3, 3.0),
     "(<class 'tdual.expr.UnboundSymbol'>, ('no registered function F/1',))"),
    (sym("r"), sym("phi"), (0.3, 3.0),
     "(<class 'tdual.expr.UnboundSymbol'>, (\"symbol 'phi' not assigned\",))"),
])
def test_equal_numeric_passes_fails_and_retries_as_the_oracle(a, b, box, expect):
    spec = SampleSpec({"r": box, "g": (0.6, 1.1)}, taub_nut_sample_spec().functions)
    got = equality_outcome(equal_numeric, a, b, spec, seed=3)
    assert got == equality_outcome(oracle.equal_numeric, a, b, spec, seed=3)
    assert got.startswith(expect)


def test_compiled_closures_are_freed_by_reference_counting(spec):
    e = add(*[mul(rat(k), pow_(add(sym("r"), rat(k)), Fraction(-1, 2)), sin_(H()))
              for k in range(1, 31)])
    nodes = sum(1 for _ in _nodes(e))
    assert nodes >= 300
    gc.disable()
    try:
        fn = compile_expr(e, spec.functions)
        assert fn({"r": 1.0, "g": 1.0}) == evaluate(e, PointAssignment({"r": 1.0, "g": 1.0},
                                                                          spec.functions))
        # every closure reachable from the top one, not the opaque closures it calls
        found, stack = {}, [fn]
        while stack:
            f = stack.pop()
            if id(f) in found:
                continue
            found[id(f)] = f
            for cell in f.__closure__ or ():
                v = cell.cell_contents
                stack.extend(x for x in (v if type(v) is list else [v])
                             if type(x) is FunctionType and x.__module__ == "tdual.expr")
        assert len(found) == nodes             # one closure per node
        refs = [weakref.ref(f) for f in found.values()]
        del found, stack, f, fn
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


@settings(max_examples=200, deadline=None)
@given(recipes, st.booleans())
def test_json_codec_equals_the_oracle_and_round_trips(recipe, raw):
    try:
        e = build_raw(recipe) if raw else build(recipe)
    except DomainError:
        return
    obj = expr_to_json(e)
    assert obj == oracle.expr_to_json(e)
    assert expr_from_json(json.loads(json.dumps(obj))) == e == oracle.expr_from_json(obj)


# ---------------------------------------------------------------------------
# randomized equality

def test_cancellation_identity_from_dual_component(spec):
    # H r^2 + H^-1 w^2 - H^-1 w^2 == H r^2 with w = 1 - cos(theta)
    w = add(rat(1), -cos_(sym("theta")))
    term = mul(pow_(H(), -1), pow_(w, 2))
    lhs = add(mul(H(), pow_(sym("r"), 2)), term, mul(rat(-1), term))
    rhs = mul(H(), pow_(sym("r"), 2))
    assert equal_numeric(lhs, rhs, spec)


def test_inequality_produces_witness(spec):
    rep = equal_numeric(sym("r"), add(sym("r"), rat(1)), spec)
    assert not rep
    assert rep.witness is not None
    assert abs(rep.witness.lhs - rep.witness.rhs) > 0.5


def test_equality_reflexive_and_symmetric_for_fixed_seed(spec):
    a = mul(H(), sin_(sym("theta")))
    b = mul(sin_(sym("theta")), H())
    assert equal_numeric(a, a, spec, seed=123)
    r1 = equal_numeric(a, b, spec, seed=123)
    r2 = equal_numeric(b, a, spec, seed=123)
    assert bool(r1) == bool(r2) == True


def test_trials_must_be_positive(spec):
    with pytest.raises(ValueError):
        equal_numeric(rat(0), rat(0), spec, trials=0)


def test_domain_errors_counted_and_resampled():
    # a pole at r = 1 inside the box: resampling hits it with probability 0
    e = pow_(add(sym("r"), rat(-1)), -1)
    box = SampleSpec({"r": (0.5, 1.5)})
    rep = equal_numeric(e, e, box, trials=20, seed=5)
    assert rep.equal


def test_retry_bound_exhaustion_reports_domain_error():
    # the whole box is a pole: every resample fails, the error surfaces
    e = pow_(add(sym("r"), rat(-1)), -1)
    box = SampleSpec({"r": (1.0, 1.0)})
    with pytest.raises(DomainError):
        equal_numeric(e, e, box, trials=1, seed=5)


def test_non_finite_samples_are_domain_errors():
    # 10^308 r^2 overflows to inf on the whole box, where |inf - r| > tol * inf
    # is false, so every trial would compare as equal
    with pytest.raises(DomainError, match="non-finite"):
        equal_numeric(mul(rat(10 ** 308), sym("r"), sym("r")), sym("r"),
                      SampleSpec({"r": (2.0, 3.0)}))
    # overflow above r = 1.076 only: those points are counted and resampled
    e = mul(rat(10 ** 308), pow_(sym("r"), 8))
    rep = equal_numeric(e, e, SampleSpec({"r": (0.5, 1.2)}), trials=20, seed=5)
    assert rep.equal and rep.domain_errors > 0


# ---------------------------------------------------------------------------
# serialization

def test_json_round_trip():
    e = mul(rat(-3, 7), pow_(H(), -2), sin_(add(sym("theta"), rat(1, 2))))
    assert expr_from_json(expr_to_json(e)) == e


def test_free_symbols():
    e = mul(sym("beta"), pow_(sym("g"), -2), H())
    assert free_symbols(e) == {"beta", "g", "r"}
    assert opaque_functions(e) == {("H", 2)}


R_JSON = {"k": "sym", "name": "r"}


@pytest.mark.parametrize("obj", [
    {"k": "rat", "v": [1, 0]},
    {"k": "pow", "base": R_JSON, "exp": [1, 0]},
    {"k": "rat", "v": [1.5, 2]},
    {"k": "rat", "v": "1/2"},
    {"k": "root", "arg": R_JSON},
    {"name": "r"},
    ["sym", "r"],
    {"k": "sym"},
    {"k": "sym", "name": 5},
    {"k": "sum", "terms": R_JSON},
    {"k": "prod", "factors": [R_JSON, {"k": "sym"}]},
    {"k": "app", "name": "H", "deriv": [0], "args": [R_JSON, R_JSON]},
    {"k": "app", "name": "H", "deriv": [-1, 0], "args": [R_JSON, R_JSON]},
    {"k": "app", "name": "H", "deriv": ["1", 0], "args": [R_JSON, R_JSON]},
])
def test_malformed_json_raises_value_error(obj):
    with pytest.raises(ValueError):
        expr_from_json(obj)


def test_derivative_orders_are_bounded_on_read():
    # H at order 10^6 would compute factorial(10^6) on every evaluation
    from tdual.expr import MAX_DERIV_ORDER
    ok = {"k": "app", "name": "H", "deriv": [MAX_DERIV_ORDER, 0], "args": [R_JSON, R_JSON]}
    assert expr_from_json(ok).deriv == (MAX_DERIV_ORDER, 0)
    for order in (MAX_DERIV_ORDER + 1, 10 ** 6):
        with pytest.raises(ValueError, match=f"derivative order {order} exceeds"):
            expr_from_json(dict(ok, deriv=[0, order]))


def test_unknown_node_is_one_error():
    class Other(Sym):
        pass
    for walk in (simplify_basic, free_symbols, expr_to_json,
                 lambda e: evaluate(e, PointAssignment({"x": 1.0, "y": 1.0})),
                 lambda e: differentiate(e, "x"), lambda e: substitute(e, {"x": 1})):
        with pytest.raises(TypeError, match="unknown node Other"):
            walk(add(sym("y"), Other("x")))


# ---------------------------------------------------------------------------
# charts

def test_chart_fiber_must_be_periodic():
    with pytest.raises(ValueError):
        Chart(("r", "kappa"), (False, True))


def test_chart_reorders_fiber_first():
    c = Chart.with_fiber(["r", "kappa", "theta"],
                         {"r": False, "kappa": True, "theta": False}, "kappa")
    assert c.names == ("kappa", "r", "theta")
    assert c.periodic[0]
