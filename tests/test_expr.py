"""Symbolic core: evaluation, differentiation, substitution, simplification,
and the seeded randomized equality engine."""

import dataclasses
import gc
import json
import math
import random
import weakref
from fractions import Fraction
from types import FunctionType
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import expr_oracle as oracle
from tdual import expr
from tdual.expr import (
    ONE, App, Chart, CosE, DomainError, FunctionTable, OpaqueFunction, PointAssignment,
    Pow, Prod, Rat, SampleSpec, SinE, Sum, Sym, UnboundSymbol, _Block, _Blocks, _draw_columns,
    add, app, cos_, differentiate, equal_numeric, evaluate,
    expr_from_json, expr_to_json, free_symbols, mul, opaque_functions, pow_, rat,
    simplify_basic, sin_, substitute, sym,
)
from tdual.geometry import (
    buscher_transform, h_monopole_metric, make_taub_nut, taub_nut_sample_spec,
)


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
    # past the normal mark: rebuilding each node from its own children, or
    # normalising the whole tree again unmarked, gives it back
    assert all(expr._map(n, lambda c: c) is n for n in oracle.nodes(once))
    assert oracle.simplify_basic(once) is once


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
    """What ``run()`` returns, or the type and message of its error."""
    try:
        return run()
    except (DomainError, UnboundSymbol) as exc:
        return type(exc), exc.args


def same_outcome(got, want):
    """One node, or one error with one text."""
    return got is want or type(want) is tuple and got == want


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


def equality_outcome(eq, a, b, spec, seed, trials=10):
    """The report of ``eq`` as a string, or its error. equal_numeric runs on
    blocks of 3 points, so that a check spans blocks and a witness can fall
    in a later one."""
    def run():
        rep = eq(a, b, spec, trials=trials, seed=seed)
        w = rep.witness
        return rep.equal, rep.domain_errors, w and (w.point, w.lhs, w.rhs)
    with mock.patch.object(expr, "_BLOCK", 3):
        return repr(outcome(run))


SAMPLE = SampleSpec({"r": (0.3, 3.0), "theta": (-1.0, 3.0)}, f_table())
TRIALS = [1, 10, 7]     # one point; blocks of 3, 3, 3, 1; blocks of 3, 3, 1


@settings(max_examples=150, deadline=None)
@given(recipes, recipes, st.booleans(), st.integers(0, 10 ** 6), st.sampled_from(TRIALS))
def test_equal_numeric_equals_the_oracle_loop(ra, rb, same, seed, trials):
    try:
        a = build(ra)
        b = a if same else build(rb)
    except DomainError:
        return
    assert (equality_outcome(equal_numeric, a, b, SAMPLE, seed, trials)
            == equality_outcome(oracle.equal_numeric, a, b, SAMPLE, seed, trials))


R = sym("r")
POLE = pow_(add(R, rat(-1)), -1)                # a pole at r = 1


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
    # side a fails at every point before side b is evaluated
    (POLE, app("G", (sym("r"),)), (1.0, 1.0),
     "(<class 'tdual.expr.DomainError'>, ('pole: (r + -1)^-1 at base 0.0',))"),
    (app("G", (sym("r"),)), POLE, (1.0, 1.0),
     "(<class 'tdual.expr.UnboundSymbol'>, ('no registered function G/1',))"),
    (POLE, app("G", (sym("r"),)), (0.3, 0.6),
     "(<class 'tdual.expr.UnboundSymbol'>, ('no registered function G/1',))"),
    # an unregistered function fails before its argument's pole is met
    (app("G", (POLE,)), rat(0), (1.0, 1.0),
     "(<class 'tdual.expr.UnboundSymbol'>, ('no registered function G/1',))"),
    (mul(POLE, app("G", (POLE,))), rat(0), (1.0, 1.0),
     "(<class 'tdual.expr.DomainError'>, ('pole: (r + -1)^-1 at base 0.0',))"),
    # one subtree shared by both sides
    (add(POLE, sym("r")), mul(POLE, POLE), (0.999, 1.001), "(False, 0, ({'r':"),
])
def test_equal_numeric_passes_fails_and_retries_as_the_oracle(a, b, box, expect):
    spec = SampleSpec({"r": box, "g": (0.6, 1.1)}, taub_nut_sample_spec().functions)
    for trials in TRIALS:
        got = equality_outcome(equal_numeric, a, b, spec, 3, trials)
        assert got == equality_outcome(oracle.equal_numeric, a, b, spec, 3, trials)
        if trials == 10:    # the counts and witnesses expected are those of 10 trials
            assert got.startswith(expect)


def _sides(s, other, x):
    """Trees that share ``s``, by identity and by structure."""
    share = add(s, mul(s, sin_(s)))             # the "share" recipe on s itself
    return {"share": share, "diff": differentiate(share, x), "other": add(other, s),
            "app": app("F", (sym("r"), s)), "unbound": app("G", (s,)),
            "pole": lambda: pow_(s, -1), "unbound-pole": lambda: app("G", (pow_(s, -1),))}


@settings(max_examples=200, deadline=None)
@given(recipes, recipes, st.sampled_from(["r", "theta"]),
       st.sampled_from(["share", "diff", "other", "app", "unbound", "pole", "unbound-pole"]),
       st.sampled_from(["share", "diff", "other", "app", "unbound", "pole"]),
       st.integers(0, 10 ** 6), st.sampled_from(TRIALS))
def test_sides_sharing_subtrees_equal_the_oracle_loop(rs, ro, x, ka, kb, seed, trials):
    try:
        sides = _sides(build(rs), build(ro), x)
        a, b = (v() if callable(v) else v for v in (sides[ka], sides[kb]))
    except DomainError:
        return          # 0^-1 is rejected when built
    assert (equality_outcome(equal_numeric, a, b, SAMPLE, seed, trials)
            == equality_outcome(oracle.equal_numeric, a, b, SAMPLE, seed, trials))


def _raises(exc):
    def fn(x):
        raise exc
    return fn


EXOTIC = FunctionTable([OpaqueFunction(name, 1, {(0,): fn}.get) for name, fn in [
    ("Zero", lambda x: 1.0 / (x - x)), ("Exp", lambda x: math.exp(1000.0 * x)),
    ("Inf", lambda x: x * 1e308 * 10.0), ("Nan", lambda x: math.nan),
    ("Key", _raises(KeyError("r"))), ("Big", lambda x: 10 ** 400),
    ("Twice", lambda x: 2.0 * x), ("Dom", _raises(DomainError("inner")))]])


@pytest.mark.parametrize("e, r", [
    (app("Zero", (R,)), 1.0), (app("Exp", (R,)), 1.0), (app("Inf", (R,)), 1.0),
    (app("Nan", (R,)), 1.0), (app("Key", (R,)), 1.0), (app("Big", (R,)), 1.0),
    (app("Dom", (R,)), 1.0), (mul(app("Twice", (R,)), app("Zero", (app("Twice", (R,)),))), 2.0),
    (R, 10 ** 400), (pow_(R, 3), 1e200), (pow_(R, Fraction(10 ** 400)), 2.0),
    (pow_(R, Fraction(-1, 2)), 0.0), (pow_(R, Fraction(1, 2)), -4.0), (pow_(R, -2), -1e-14),
    (sin_(R), math.inf), (cos_(app("Twice", (R,))), math.nan), (sym("s"), 1.0),
    (add(pow_(R, -1), app("Missing", (pow_(R, -1),))), 0.0),
    (add(app("Missing", (pow_(R, -1),)), pow_(R, -1)), 0.0),
    # a constant outside the float range fails first, unless only an
    # unregistered function's arguments hold it
    (add(pow_(R, -1), rat(10 ** 400)), 0.0),
    (add(pow_(R, -1), app("Missing", (rat(10 ** 400),))), 0.0),
])
def test_errors_equal_the_closure_compiler(e, r):
    def run(value):
        try:
            return repr(value())
        except Exception as exc:        # any error must match
            return type(exc), exc.args
    assert (run(lambda: evaluate(e, PointAssignment({"r": r}, EXOTIC)))
            == run(lambda: oracle.compile_expr(e, EXOTIC)({"r": r})))


def _taub_nut_pair(fails: bool):
    """The dual's g22 and the H-monopole's, scaled by 1 + 10^-6 if ``fails``."""
    m = make_taub_nut()
    dual, ref = buscher_transform(m), h_monopole_metric(m.g_upper[(1, 1)], m.sample)
    return dual.g(2, 2), mul(rat(1000001, 1000000) if fails else rat(1), ref.g(2, 2))


def block_sizes(run) -> list:
    """The size of every ``_Block`` that ``run()`` builds, in order."""
    sizes = []

    class Recorder(_Block):
        def __init__(self, functions, drawn, size):
            sizes.append(size)
            super().__init__(functions, drawn, size)

    with mock.patch.object(expr, "_Block", Recorder):
        outcome(run)
    return sizes


@pytest.mark.parametrize("make", [
    lambda: _taub_nut_pair(fails=False), lambda: _taub_nut_pair(fails=True),
    lambda: (Sum(()), Prod(())),        # raw trees: an empty sum is 0, an empty product 1
    lambda: (Sum(()), Prod((Sum(()), sym("r")))),
])
def test_checks_without_errors_compile_nothing(make):
    a, b = make()
    spec = taub_nut_sample_spec()
    for seed, trials in [(3, 100), (11, 300)]:
        got = equality_outcome(equal_numeric, a, b, spec, seed, trials)
        assert got == equality_outcome(oracle.equal_numeric, a, b, spec, seed, trials)
        assert not got.startswith("(<")
        sizes = block_sizes(lambda: equal_numeric(a, b, spec, trials=trials, seed=seed))
        assert 1 not in sizes and sum(sizes) <= trials    # no point is redrawn on its own


NON_FINITE = "(<class 'tdual.expr.DomainError'>, ('non-finite sample value inf vs"


@pytest.mark.parametrize("a, b, box, want", [
    # want None: the oracle's report or error
    (POLE, rat(0), (1.0, 1.0), None),                                   # a pole
    (POLE, rat(0), (1.0, 1.0 + 1e-14), None),       # near one: finite, but still a pole
    (pow_(add(R, rat(-1)), Fraction(1, 2)), pow_(add(R, rat(-1)), Fraction(1, 2)),
     (0.5, 1.5), None),                     # negative bases, counted and resampled
    (add(R, app("G", (R,))), R, (0.3, 3.0), None),                      # unregistered
    (R, sym("phi"), (0.3, 3.0), None),                                  # unbound
    (pow_(app("Inf", (R,)), -1), rat(0), (0.3, 3.0), None),    # inf^-1 would be finite
    (mul(rat(10 ** 308), R, R), R, (2.0, 3.0), NON_FINITE),
    (add(R, rat(10 ** 400)), R, (0.3, 3.0),
     "(<class 'tdual.expr.DomainError'>, ('rational constant outside the float range',))"),
])
def test_checks_with_errors_fall_back_to_the_per_point_loop(a, b, box, want):
    spec = SampleSpec({"r": box}, f_table().merged(EXOTIC))
    got = equality_outcome(equal_numeric, a, b, spec, 3, 10)
    sizes = block_sizes(lambda: equal_numeric(a, b, spec, trials=10, seed=3))
    # the block of all 10 points meets the error, and the check goes on point
    # by point, unless a constant outside the float range ends it first
    assert sizes[0] == 10
    assert set(sizes[1:]) == (set() if "outside the float range" in got else {1})
    if want is None:
        assert got == equality_outcome(oracle.equal_numeric, a, b, spec, 3, 10)
    else:               # the oracle reports neither error
        assert got.startswith(want)


ROOT = pow_(add(R, rat(-1)), Fraction(1, 2))     # a negative base below r = 1


@pytest.mark.parametrize("b, seed, expect, points", [
    (ROOT, 17, "(True, 6, None)", 7 + 6),       # 7 trials and 6 resampled points
    # (r - 1)^20 exceeds the tolerance only above r = 1.35: trial 4 passes,
    # trial 5 meets a negative base and its resampled point fails
    (add(ROOT, pow_(add(R, rat(-1)), 20)), 19, "(False, 1, ({'r': 1.49", 3),
], ids=["equal", "witness"])
def test_first_error_in_a_later_block_goes_on_point_by_point_from_that_block(
        b, seed, expect, points):
    spec = SampleSpec({"r": (0.5, 1.5)})
    got = equality_outcome(equal_numeric, ROOT, b, spec, seed)
    assert got == equality_outcome(oracle.equal_numeric, ROOT, b, spec, seed)
    assert got.startswith(expect)
    with mock.patch.object(expr, "_BLOCK", 3):
        sizes = block_sizes(lambda: equal_numeric(ROOT, b, spec, trials=10, seed=seed))
    # the first block of 3 passes; the second meets the error and is redrawn
    # one point at a time from its first point, not from the seed
    assert sizes == [3, 3] + [1] * points


def test_a_block_source_is_used_only_by_checks_of_its_own_sampling():
    a, b = _taub_nut_pair(fails=True)
    spec = taub_nut_sample_spec()

    def report(**kwargs):
        rep = equal_numeric(a, b, spec, 300, 1e-9, 3, **kwargs)
        return repr((rep.equal, rep.domain_errors, rep.witness))

    want = report()
    assert want.startswith("(False, 0, Witness(")
    reordered = SampleSpec(dict(reversed(spec.boxes.items())), spec.functions)
    assert reordered == spec        # equal specs, but the boxes take their draws in another order
    for other in [(spec, 300, 4), (spec, 299, 3), (SampleSpec(dict(spec.boxes)), 300, 3),
                  (reordered, 300, 3)]:
        blocks = _Blocks(*other)
        assert report(_blocks=blocks) == want and not blocks     # nothing drawn from it
    shared = _Blocks(spec, 300, 3)
    assert report(_blocks=shared) == want and shared
    drawn = dict(shared)
    assert report(_blocks=shared) == want and shared == drawn   # its blocks, drawn once
    with mock.patch.object(expr, "_SHARED", 299):       # too many trials to keep their blocks
        blocks = _Blocks(spec, 300, 3)
        assert report(_blocks=blocks) == want and not blocks


NASTY = ["x'); __import__('os') #", "r\nimport os", "θ ρ", "a + b", "k0]"]


def test_names_with_python_syntax_evaluate_as_the_oracle():
    fname = "F(0)); __import__('os').system('false') #"
    fns = FunctionTable([OpaqueFunction(fname, 2, {(0, 0): lambda u, w: 2 * u - w}.get)])
    names = NASTY + ["v0", "k0", "values", "float"]     # Python identifiers too
    xs = [sym(n) for n in names]
    e = add(*[mul(rat(k + 1), pow_(x, k % 3 + 1)) for k, x in enumerate(xs)],
            app(fname, (xs[0], xs[-1])))
    p = PointAssignment({n: 0.5 + i for i, n in enumerate(names)}, fns)
    assert repr(evaluate(e, p)) == repr(oracle.evaluate(e, p))
    for name in NASTY:          # an unassigned name is reported as the oracle does
        q = PointAssignment({k: v for k, v in p.values.items() if k != name}, fns)
        assert outcome(lambda: evaluate(e, q)) == outcome(lambda: oracle.evaluate(e, q))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1, max_size=5),
       st.integers(0, 2 ** 32))
def test_draw_equals_uniform_bit_for_bit(boxes, seed):
    spec = SampleSpec({f"x{i}": box for i, box in enumerate(boxes)})
    mine, theirs = random.Random(seed), random.Random(seed)
    block = _draw_columns(spec.boxes, random.Random(seed), 3)
    for t in range(3):
        want = {name: theirs.uniform(lo, hi) for name, (lo, hi) in spec.boxes.items()}
        assert repr(spec.draw(mine).values) == repr(want)
        assert repr({name: column[t] for name, column in block.items()}) == repr(want)


def _big_tree():
    e = add(*[mul(rat(k), pow_(add(sym("r"), rat(k)), Fraction(-1, 2)), sin_(H()))
              for k in range(1, 31)])
    assert sum(1 for _ in oracle.nodes(e)) >= 300
    return e


def test_compiled_closures_are_freed_by_reference_counting(spec):
    # the closure compiler, kept as the oracle
    e = _big_tree()
    nodes = sum(1 for _ in oracle.nodes(e))
    gc.disable()
    try:
        fn = oracle.compile_expr(e, spec.functions)
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
                             if type(x) is FunctionType and x.__module__ == oracle.__name__)
        assert len(found) == nodes             # one closure per node
        refs = [weakref.ref(f) for f in found.values()]
        del found, stack, f, fn
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_block_has_one_column_per_distinct_subtree_and_is_freed(spec):
    e = _big_tree()
    nodes = sum(1 for _ in oracle.nodes(e))
    distinct = len(set(oracle.nodes(e)))       # structurally distinct subtrees
    assert distinct < nodes
    points = [{"r": 0.5 + t / 4, "g": 1.0 - t / 8} for t in range(3)]
    gc.disable()
    try:
        block = _Block(spec.functions, {"r": [q["r"] for q in points],
                                        "g": [q["g"] for q in points]}, 3)
        assert repr(block[e]) == repr(
            [oracle.evaluate(e, PointAssignment(q, spec.functions)) for q in points])
        assert len(block) == distinct
        ref = weakref.ref(block)
        del block
        assert ref() is None
    finally:
        gc.enable()


def test_shared_subtrees_call_a_closure_once_per_point():
    calls = []
    fns = FunctionTable([OpaqueFunction("C", 1, {(0,): lambda x: calls.append(x) or 2 * x}.get)])

    def shared():       # built anew on each call, and interned as the same node
        return app("C", (add(R, rat(1)),))
    e = add(shared(), mul(shared(), sin_(shared())), pow_(shared(), 2))
    evaluate(e, PointAssignment({"r": 0.5}, fns))
    assert calls == [1.5]
    calls.clear()
    _Block(fns, {"r": [0.5, 1.0, 2.0]}, 3)[e]
    assert calls == [1.5, 2.0, 3.0]
    # a negative base fails at some points after the closure ran there: the
    # block of 10 points fails, and the check reruns from its seed point by
    # point, where each failing point is counted and another one drawn
    calls.clear()
    root = pow_(add(R, rat(-1)), Fraction(1, 2))
    e2 = add(shared(), mul(shared(), sin_(shared())), pow_(shared(), 2))
    rep = equal_numeric(add(e, root), add(root, e2), SampleSpec({"r": (0.5, 1.5)}, fns),
                        trials=10, seed=3)
    assert rep.equal and rep.domain_errors > 0
    assert len(calls) == 10 + 10 + rep.domain_errors


@settings(max_examples=200, deadline=None)
@given(recipes, st.booleans())
# a raw tree that reads back fine and fails to simplify: 0^-1
@example(("pow", ("pow", ("rat", 0), Fraction(-1)), Fraction(1)), True)
def test_json_codec_equals_the_oracle_and_round_trips(recipe, raw):
    try:
        e = build_raw(recipe) if raw else build(recipe)
    except DomainError:
        return
    obj = expr_to_json(e)
    assert obj == oracle.expr_to_json(e)
    back = expr_from_json(json.loads(json.dumps(obj)))
    assert back is e is oracle.expr_from_json(obj)
    assert same_outcome(outcome(lambda: simplify_basic(back)), outcome(lambda: simplify_basic(e)))


def test_json_dumps_each_distinct_node_once():
    r = sym("r")
    shared = sin_(add(r, rat(1)))
    e = add(mul(shared, shared, r), pow_(shared, 3), app("H", (r, shared)))
    obj = expr_to_json(e)
    assert json.dumps(obj) == json.dumps(oracle.expr_to_json(e))
    found = [node for node in walk_dicts(obj) if node == expr_to_json(shared)]
    assert len(found) >= 3 and len({id(node) for node in found}) == 1
    assert expr_to_json(e) is not obj       # one memo per call


def walk_dicts(obj):
    """Every dict of a JSON tree, once per occurrence."""
    stack = [obj]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            yield node
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)


def test_every_path_builds_the_same_object():
    x, y = sym("x"), sym("y")
    h = app("H", (y,))
    e = x * sin_(y) ** 2 + rat(3, 2) / h
    sin_y = SinE(Sym("y"))
    raw = Sum((Sum((Prod((Rat(Fraction(1)), Sym("x"), sin_y, sin_y)),)),
               Prod((Rat(Fraction(3, 2)), Pow(App("H", (Sym("y"),), (0,)), Fraction(-1))))))
    primitive = mul(rat(1, 2), pow_(x, 2), pow_(sin_(y), 2)) + mul(rat(3, 2), x, pow_(h, -1))
    assert raw is not e
    for other in (simplify_basic(raw), simplify_basic(expr_from_json(expr_to_json(raw))),
                  simplify_basic(expr_from_json(expr_to_json(e))),
                  substitute(e, {"x": x, "y": y}), differentiate(primitive, "x")):
        assert other is e
    assert rat(2, 2) is ONE is Rat(Fraction(1))
    assert mul(x, x) is pow_(x, 2) is Pow(Sym("x"), Fraction(2))
    assert Pow(base=x, exponent=Fraction(2)) is pow_(x, 2)


def test_intern_table_frees_dropped_nodes():
    gc.collect()
    gc.disable()
    try:
        before = len(expr._INTERNED)
        nodes = [add(sym(f"t{k}"), rat(k + 1, 10 ** 9 + 7)) for k in range(3400)]
        assert len(expr._INTERNED) == before + 3 * len(nodes)     # a Sym, a Rat, a Sum each
        del nodes
        gc.collect()
        assert len(expr._INTERNED) == before
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# memoized walks and the normal mark

ZERO_POW = ("pow", ("mul", ("rat", 0), ("sym", "r")), Fraction(-1))     # 0^-1 once normal
walk_recipes = st.one_of(
    recipes,
    recipes.map(lambda r: ("share", ("share", r))),         # one subtree used nine times
    st.tuples(st.just("add"), recipes, st.just(("share", ZERO_POW))),
)


@settings(max_examples=300, deadline=None)
@given(walk_recipes, recipes, st.sampled_from(["r", "theta"]))
def test_memoized_walks_equal_the_oracle(recipe, rb, x):
    try:
        raw, value = build_raw(recipe), build(rb)
    except DomainError:
        assume(False)
    want = outcome(lambda: oracle.simplify_basic(raw))
    assert same_outcome(outcome(lambda: simplify_basic(raw)), want)
    if type(want) is tuple:
        return
    n = want
    for mine, theirs in ((lambda: differentiate(n, x), lambda: oracle.differentiate(n, x)),
                         (lambda: substitute(n, {"r": value}),
                          lambda: oracle.substitute(n, {"r": value}))):
        assert same_outcome(outcome(mine), outcome(theirs))


def _memo_tree():
    # built from names and constants that nothing else holds, with sharing
    u = Sym("memo_u")
    inner = Sum((u, Rat(Fraction(13, 17)), Prod((Rat(Fraction(7, 11)), u, u))))
    return Sum((Pow(inner, Fraction(-3, 2)), Prod((SinE(inner), inner)),
                App("F", (u, inner), (0, 1))))


def test_walks_free_their_memo_and_nodes_when_they_return():
    walks, built = [], []

    class Recording(expr._Walk):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            walks.append(weakref.ref(self))

        def __missing__(self, e):
            out = super().__missing__(e)
            built.append(weakref.ref(out))
            return out

    raw = _memo_tree()
    binding = add(sym("memo_v"), rat(5, 19))
    gc.collect()
    gc.disable()
    try:
        with mock.patch.object(expr, "_Walk", Recording):
            for walk in (lambda: simplify_basic(raw), lambda: differentiate(raw, "memo_u"),
                         lambda: substitute(raw, {"memo_u": binding})):
                walks.clear()
                built.clear()
                out = walk()
                assert walks and all(w() is None for w in walks)     # the memo died with the call
                keep = set(oracle.nodes(raw)) | set(oracle.nodes(binding))
                assert any(n() is not None and n() not in keep for n in built)
                del out
                alive = [n() for n in built if n() is not None]
                # what is left is the input, the bindings or a constant
                assert all(n in keep or type(n) is Rat for n in alive)
                assert len(alive) < len(built)
                del alive
    finally:
        gc.enable()


def constructions(run) -> int:
    """The number of node constructions that ``run()`` asks for."""
    calls = []
    real = expr._Interned.__call__
    with mock.patch.object(expr._Interned, "__call__",
                           lambda cls, *a, **k: calls.append(cls) or real(cls, *a, **k)):
        run()
    return len(calls)


def test_simplify_of_a_normal_tree_builds_no_node():
    raw = _memo_tree()
    text = repr(raw)
    normal = simplify_basic(raw)
    assert constructions(lambda: simplify_basic(normal)) == 0
    back = expr_from_json(json.loads(json.dumps(expr_to_json(normal))))
    assert back is normal
    assert constructions(lambda: simplify_basic(back)) == 0
    # the mark is no field: repr, str, JSON and == do not see it
    assert repr(raw) == text and repr(normal) == repr(oracle.simplify_basic(raw))
    assert "_normal" not in [f.name for f in dataclasses.fields(normal)]
    assert expr_to_json(normal) == oracle.expr_to_json(normal)
    # a tree built by the operators is normal but unmarked: it is walked once
    built = add(mul(sym("memo_w"), rat(3, 29)), sin_(sym("memo_w")))
    assert constructions(lambda: simplify_basic(built)) > 0
    assert simplify_basic(built) is built
    assert constructions(lambda: simplify_basic(built)) == 0


def coupling_metric(terms: int, seed: int = 1):
    rng = random.Random(seed)
    return make_taub_nut(add(*[mul(rat(rng.randint(1, 9), rng.randint(1, 9)),
                                   pow_(sym("g"), rng.randint(1, 3))) for _ in range(terms)]))


def test_shared_entries_normalize_once_per_distinct_node():
    # the five g entries of a 100-term coupling metric, as a JSON reader sees
    # them: the profile H is written out again in each
    obj = json.loads(json.dumps(coupling_metric(100).to_json()))
    raw = [expr_from_json(e) for _, _, e in obj["g"]]
    assert sum(1 for e in raw for _ in oracle.nodes(e)) == 2160
    assert len({n for e in raw for n in oracle.nodes(e)}) == 125
    out = []
    # a walk of every occurrence asked for 1939 constructions
    assert constructions(lambda: out.extend(map(simplify_basic, raw))) <= 400
    assert out == [oracle.simplify_basic(e) for e in raw]


def test_a_document_reader_builds_each_distinct_node_once():
    obj = json.loads(json.dumps(coupling_metric(100).to_json()))
    entries = [e for _, _, e in obj["g"]]
    assert len(entries) == 5 and obj["b"] == []
    raw = [oracle.checked_expr_from_json(e) for e in entries]
    distinct = {n for e in raw for n in oracle.nodes(e)}
    assert sum(1 for e in raw for _ in oracle.nodes(e)) == 2160 and len(distinct) == 125
    memo, out = {}, []
    assert constructions(lambda: out.extend(expr_from_json(e, memo) for e in entries)) == 125
    assert out == raw
    # one memo per call builds H's tree again in each entry, and the
    # per-occurrence reader builds every occurrence
    each = sum(len(set(oracle.nodes(e))) for e in raw)
    assert constructions(lambda: [expr_from_json(e) for e in entries]) == each == 570
    assert constructions(lambda: [oracle.checked_expr_from_json(e) for e in entries]) == 2160


def test_a_document_writer_dumps_each_distinct_node_once():
    m = coupling_metric(100)
    entries = [*m.g_upper.values(), *m.b_upper.values()]
    dumped = []
    table = {cls: lambda e, memo, dump=dump: dumped.append(e) or dump(e, memo)
             for cls, dump in expr._DUMP.items()}
    with mock.patch.dict(expr._DUMP, table):
        obj = m.to_json()
    assert len(dumped) == len(set(dumped))
    assert set(dumped) == {n for e in entries for n in oracle.nodes(e)}
    # H's dict is one object wherever H occurs
    h = m.g_upper[(1, 1)]
    found = [d for d in walk_dicts(obj) if d == expr_to_json(h)]
    assert len(found) == sum(n is h for e in entries for n in oracle.nodes(e)) > 5
    assert len({id(d) for d in found}) == 1


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


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_tol_must_be_finite_and_nonnegative(spec, tol):
    # a NaN or infinite tolerance would pass any pair, a negative one fail equal sides
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        equal_numeric(sym("r"), add(sym("r"), rat(1)), spec, tol=tol)


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


def children_calls(run) -> list:
    """Every node whose children ``run()`` asks the node table for, once per ask."""
    asked = []
    table = {cls: node._replace(children=lambda e, c=node.children: asked.append(e) or c(e))
             for cls, node in expr._NODES.items()}
    with mock.patch.dict(expr._NODES, table):
        run()
    return asked


def test_scans_visit_each_distinct_node_once():
    # Sum((e, e)) nested k deep: 2^k occurrences of the base, k + 4 distinct nodes
    k = 16
    x, third = sym("x"), Rat(Fraction(1, 3))
    e = Prod((third, App("F", (x,), (0,))))
    distinct = {x, third, e.factors[1], e}
    for _ in range(k):
        e = Sum((e, e))
        distinct.add(e)
    fns = FunctionTable([OpaqueFunction("F", 1, {(0,): lambda x: 3 * x}.get)])
    spec = SampleSpec({"x": (1.0, 2.0)}, fns)
    for scan, want in [
            (lambda: free_symbols(e), {"x"}),
            (lambda: opaque_functions(e), {("F", 1)}),
            (lambda: expr._check_constants((e,), fns), None),
            (lambda: expr.sampling_failure([e], spec), None),
            # later roots inside an earlier one add nothing to the walk
            (lambda: expr.sampling_failure([e, e.terms[0], e.terms[0].terms[0]], spec), None),
            # evaluate asks only in its constant check: a block reads the fields itself
            (lambda: evaluate(e, PointAssignment({"x": 1.5}, fns)), 2 ** k * 1.5)]:
        out = []
        asked = children_calls(lambda: out.append(scan()))
        assert out == [want]
        assert len(asked) == len(set(asked)) and set(asked) == distinct


@pytest.mark.parametrize("entries, failure", [
    ([H()], None),
    ([H(), mul(sym("zeta"), sym("alpha"))], "symbol 'alpha' has no sampling box"),
    ([add(app("F", (R,)), app("E", (R, R)))], "no function E/2 is registered"),
    ([add(app("F", (R,)), sym("zeta"))], "symbol 'zeta' has no sampling box"),
    # a constant anywhere comes first, in the arguments of an unregistered function too
    ([add(sym("zeta"), app("F", (rat(10 ** 400),)))], "rational constant outside the float range"),
    # entry by entry: a later entry's constant does not come before an earlier failure
    ([app("F", (R,)), rat(10 ** 400)], "no function F/1 is registered"),
])
def test_sampling_failure_names_the_first_failure(entries, failure, spec):
    assert expr.sampling_failure(entries, spec) == failure


# failures for a spec that boxes r, theta and g and registers H/2: a constant
# outside the float range, a symbol without a box, unregistered functions
POISON = [rat(10 ** 400), sym("zeta"), sym("alpha"), app("E", (R,)), app("H", (R,))]


@st.composite
def roots_sharing_subtrees(draw):
    """Roots built over a few shared subtrees, some of which hold a failure."""
    plain = st.recursive(st.sampled_from([R, sym("theta"), H(), rat(2)]), lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(lambda xs: add(*xs)),
        st.lists(kids, min_size=2, max_size=3).map(lambda xs: mul(*xs)),
        kids.map(sin_)), max_leaves=5)
    parts = st.one_of(plain, st.sampled_from(POISON))
    shared = draw(st.lists(st.builds(mul, parts, parts), min_size=1, max_size=3))
    return [draw(st.sampled_from([add, mul]))(*draw(st.lists(
        st.one_of(st.sampled_from(shared), plain), min_size=1, max_size=3)))
        for _ in range(draw(st.integers(1, 5)))]


@settings(max_examples=300, deadline=None)
@given(roots_sharing_subtrees())
def test_sampling_failure_is_the_per_root_scan(roots):
    spec = taub_nut_sample_spec()
    assert expr.sampling_failure(roots, spec) == oracle.sampling_failure(roots, spec)


R_JSON = {"k": "sym", "name": "r"}


MALFORMED = [
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
]


@pytest.mark.parametrize("obj", MALFORMED)
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


def read_outcome(read, obj):
    """The node ``read(obj)`` returns, or the text of the ValueError it raises."""
    try:
        return read(obj)
    except ValueError as exc:
        return str(exc)


def node_slots(obj) -> list:
    """(container, key) of every node below the root of a JSON tree."""
    slots, stack = [], [obj]
    while stack:
        node = stack.pop()
        for key in ("arg", "base"):
            if key in node:
                slots.append((node, key))
                stack.append(node[key])
        for key in ("terms", "factors", "args"):
            slots += [(node[key], i) for i in range(len(node.get(key, ())))]
            stack += node.get(key, ())
    return slots


@settings(max_examples=300, deadline=None)
@given(recipes, st.booleans(), st.data())
def test_the_reader_equals_the_checked_per_occurrence_reader(recipe, raw, data):
    try:
        e = build_raw(recipe) if raw else build(recipe)
    except DomainError:
        return
    obj = json.loads(json.dumps(expr_to_json(e)))
    assert expr_from_json(obj) is oracle.checked_expr_from_json(obj) is oracle.expr_from_json(obj)
    # one malformed node anywhere below the root: the same first error, in reading order
    slots = node_slots(obj)
    assume(slots)
    container, key = data.draw(st.sampled_from(slots))
    container[key] = data.draw(st.sampled_from(MALFORMED))
    want = read_outcome(oracle.checked_expr_from_json, obj)
    assert isinstance(want, str) and read_outcome(expr_from_json, obj) == want


WRAPS = [
    lambda o: {"k": "sin", "arg": o},
    lambda o: {"k": "cos", "arg": o},
    lambda o: {"k": "sum", "terms": [R_JSON, o]},
    lambda o: {"k": "prod", "factors": [o, {"k": "rat", "v": [2, 3]}]},
    lambda o: {"k": "app", "name": "H", "deriv": [0, 1], "args": [R_JSON, o]},
    lambda o: {"k": "pow", "base": o, "exp": [1, 2]},
]


@pytest.mark.parametrize("depth", [1, 2, 9, 100, 200])
@pytest.mark.parametrize("obj", MALFORMED)
def test_malformed_children_nested_deep_raise_the_checked_readers_error(obj, depth):
    rng = random.Random(depth)
    for _ in range(depth):
        obj = rng.choice(WRAPS)(obj)
    want = read_outcome(oracle.checked_expr_from_json, obj)
    assert want.startswith(("malformed expression node ", "derivative multi-index"))
    assert read_outcome(expr_from_json, obj) == want


def test_the_reader_refuses_nesting_past_its_bound():
    from tdual.expr import MAX_DEPTH
    for wrap in WRAPS:
        obj = R_JSON
        for _ in range(MAX_DEPTH):
            obj = wrap(obj)
        assert expr_from_json(obj) is oracle.checked_expr_from_json(obj)
        with pytest.raises(ValueError, match="^input nested too deeply$"):
            expr_from_json(wrap(obj))
        # a shallow malformed node found first is reported before the depth
        bad = {"k": "sum", "terms": [MALFORMED[0], wrap(obj)]}
        assert read_outcome(expr_from_json, bad) == read_outcome(oracle.checked_expr_from_json, bad)


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


def test_chart_names_must_be_unique():
    with pytest.raises(ValueError, match="coordinate names must be unique"):
        Chart(("kappa", "r", "r"), (True, False, False))


def test_chart_needs_a_fiber_coordinate():
    with pytest.raises(ValueError, match="a chart needs at least the fiber coordinate"):
        Chart((), ())


def test_chart_reorders_fiber_first():
    c = Chart.with_fiber(["r", "kappa", "theta"],
                         {"r": False, "kappa": True, "theta": False}, "kappa")
    assert c.names == ("kappa", "r", "theta")
    assert c.periodic[0]
