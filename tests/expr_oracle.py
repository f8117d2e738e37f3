"""The earlier expression core, kept as the oracle for tests.

``simplify_basic`` and its helpers, ``_diff``, ``_subst``, ``evaluate``, the
``equal_numeric`` sampling loop over it and the two JSON codecs are copied
(without type annotations) from the version that walked every node type with
its own ``isinstance`` ladder, evaluated by walking the tree at every sample
point and re-simplified whole subtrees in every constructor. One change is applied: a
collected power that comes out rational or a product is folded into the
constant or flattened, so that ``simplify_basic`` is idempotent (see
``_simplify_prod``). The node classes are the package's own.
"""

import math
import random
from fractions import Fraction

from tdual.expr import (
    ONE, ZERO, App, CosE, DomainError, EqualityReport, Pow, Prod, Rat, SinE, Sum, Sym,
    UnboundSymbol, Witness,
)


def simplify_basic(e):
    if isinstance(e, (Rat, Sym)):
        return e
    if isinstance(e, App):
        return App(e.name, tuple(simplify_basic(a) for a in e.args), e.deriv)
    if isinstance(e, SinE):
        a = simplify_basic(e.arg)
        if isinstance(a, Rat) and a.value == 0:
            return ZERO
        return SinE(a)
    if isinstance(e, CosE):
        a = simplify_basic(e.arg)
        if isinstance(a, Rat) and a.value == 0:
            return ONE
        return CosE(a)
    if isinstance(e, Pow):
        return _simplify_pow(simplify_basic(e.base), e.exponent)
    if isinstance(e, Sum):
        return _simplify_sum(e)
    if isinstance(e, Prod):
        return _simplify_prod(e)
    raise TypeError(f"unknown node {type(e).__name__}")


def _simplify_pow(base, exponent):
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Rat) and exponent.denominator == 1:
        if base.value == 0 and exponent < 0:
            raise DomainError("0 raised to a negative power")
        return Rat(base.value ** exponent.numerator)
    if isinstance(base, Pow):
        return _simplify_pow(base.base, base.exponent * exponent)
    return Pow(base, exponent)


def _simplify_sum(e):
    terms = []
    const = Fraction(0)
    for t in e.terms:
        t = simplify_basic(t)
        if isinstance(t, Sum):
            sub = t.terms
        else:
            sub = (t,)
        for s in sub:
            if isinstance(s, Rat):
                const += s.value
            else:
                terms.append(s)
    if const != 0:
        terms.append(Rat(const))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Sum(tuple(terms))


def _simplify_prod(e):
    factors = []
    const = Fraction(1)
    for f in e.factors:
        f = simplify_basic(f)
        if isinstance(f, Prod):
            sub = f.factors
        else:
            sub = (f,)
        for s in sub:
            if isinstance(s, Rat):
                const *= s.value
            else:
                factors.append(s)
    if const == 0:
        return ZERO
    # collect identical bases: x^a * x^b -> x^(a+b)
    bases = []
    exps = []
    for f in factors:
        base, exp = (f.base, f.exponent) if isinstance(f, Pow) else (f, Fraction(1))
        for i, b in enumerate(bases):
            if b == base:
                exps[i] += exp
                break
        else:
            bases.append(base)
            exps.append(exp)
    out = []
    for b, x in zip(bases, exps):
        if x == 0:
            continue
        # the idempotence fix: was ``out.append(b if x == 1 else Pow(b, x))``
        out.append(_simplify_pow(b, x))
    if any(isinstance(f, (Rat, Prod)) for f in out):
        return _simplify_prod(Prod((Rat(const), *out)))
    if const != 1:
        out.insert(0, Rat(const))
    if not out:
        return ONE
    if len(out) == 1:
        return out[0]
    return Prod(tuple(out))


def differentiate(e, x):
    return simplify_basic(_diff(e, x))


def _diff(e, x):
    if isinstance(e, Rat):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e.name == x else ZERO
    if isinstance(e, Sum):
        return Sum(tuple(_diff(t, x) for t in e.terms))
    if isinstance(e, Prod):
        terms = []
        fs = e.factors
        for i in range(len(fs)):
            terms.append(Prod(fs[:i] + (_diff(fs[i], x),) + fs[i + 1:]))
        return Sum(tuple(terms))
    if isinstance(e, Pow):
        return Prod((Rat(e.exponent), Pow(e.base, e.exponent - 1), _diff(e.base, x)))
    if isinstance(e, SinE):
        return Prod((CosE(e.arg), _diff(e.arg, x)))
    if isinstance(e, CosE):
        return Prod((Rat(Fraction(-1)), SinE(e.arg), _diff(e.arg, x)))
    if isinstance(e, App):
        terms = []
        for i, a in enumerate(e.args):
            da = _diff(a, x)
            if isinstance(da, Rat) and da.value == 0:
                continue
            bumped = tuple(d + (1 if j == i else 0) for j, d in enumerate(e.deriv))
            terms.append(Prod((App(e.name, e.args, bumped), da)))
        if not terms:
            return ZERO
        return Sum(tuple(terms))
    raise TypeError(f"unknown node {type(e).__name__}")


def substitute(e, bindings):
    return simplify_basic(_subst(e, bindings))


def _subst(e, b):
    if isinstance(e, Rat):
        return e
    if isinstance(e, Sym):
        return b.get(e.name, e)
    if isinstance(e, Sum):
        return Sum(tuple(_subst(t, b) for t in e.terms))
    if isinstance(e, Prod):
        return Prod(tuple(_subst(f, b) for f in e.factors))
    if isinstance(e, Pow):
        return Pow(_subst(e.base, b), e.exponent)
    if isinstance(e, SinE):
        return SinE(_subst(e.arg, b))
    if isinstance(e, CosE):
        return CosE(_subst(e.arg, b))
    if isinstance(e, App):
        return App(e.name, tuple(_subst(a, b) for a in e.args), e.deriv)
    raise TypeError(f"unknown node {type(e).__name__}")


_ABS_POLE = 1e-13


def evaluate(e, p):
    if isinstance(e, Rat):
        return float(e.value)
    if isinstance(e, Sym):
        try:
            return float(p.values[e.name])
        except KeyError:
            raise UnboundSymbol(f"symbol {e.name!r} not assigned") from None
    if isinstance(e, Sum):
        return sum(evaluate(t, p) for t in e.terms)
    if isinstance(e, Prod):
        out = 1.0
        for f in e.factors:
            out *= evaluate(f, p)
        return out
    if isinstance(e, Pow):
        base = evaluate(e.base, p)
        q = e.exponent
        if abs(base) < _ABS_POLE and q < 0:
            raise DomainError(f"pole: {e.base}^{q} at base {base}")
        if base < 0 and q.denominator != 1:
            raise DomainError(f"negative base {base} under fractional power {q}")
        try:
            return math.pow(base, float(q))
        except (OverflowError, ValueError) as exc:
            raise DomainError(str(exc)) from None
    if isinstance(e, SinE):
        return math.sin(evaluate(e.arg, p))
    if isinstance(e, CosE):
        return math.cos(evaluate(e.arg, p))
    if isinstance(e, App):
        fn = p.functions.lookup(e.name, len(e.args)).closure(e.deriv)
        args = [evaluate(a, p) for a in e.args]
        try:
            out = fn(*args)
        except ZeroDivisionError:
            raise DomainError(f"pole in {e.name} at {args}") from None
        if math.isnan(out) or math.isinf(out):
            raise DomainError(f"non-finite value from {e.name} at {args}")
        return out
    raise TypeError(f"unknown node {type(e).__name__}")


_RETRY_BOUND = 5


def equal_numeric(a, b, spec, trials=100, tol=1e-9, seed=42):
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    domain_errors = 0
    for _ in range(trials):
        for attempt in range(_RETRY_BOUND + 1):
            p = spec.draw(rng)
            try:
                va = evaluate(a, p)
                vb = evaluate(b, p)
            except DomainError:
                domain_errors += 1
                if attempt == _RETRY_BOUND:
                    raise
                continue
            break
        if abs(va - vb) > tol * max(1.0, abs(va), abs(vb)):
            return EqualityReport(False, trials, Witness(p.values, va, vb), domain_errors)
    return EqualityReport(True, trials, None, domain_errors)


def expr_to_json(e):
    if isinstance(e, Rat):
        return {"k": "rat", "v": [e.value.numerator, e.value.denominator]}
    if isinstance(e, Sym):
        return {"k": "sym", "name": e.name}
    if isinstance(e, App):
        return {"k": "app", "name": e.name, "deriv": list(e.deriv),
                "args": [expr_to_json(a) for a in e.args]}
    if isinstance(e, Sum):
        return {"k": "sum", "terms": [expr_to_json(t) for t in e.terms]}
    if isinstance(e, Prod):
        return {"k": "prod", "factors": [expr_to_json(f) for f in e.factors]}
    if isinstance(e, Pow):
        return {"k": "pow", "base": expr_to_json(e.base),
                "exp": [e.exponent.numerator, e.exponent.denominator]}
    if isinstance(e, SinE):
        return {"k": "sin", "arg": expr_to_json(e.arg)}
    if isinstance(e, CosE):
        return {"k": "cos", "arg": expr_to_json(e.arg)}
    raise TypeError(f"unknown node {type(e).__name__}")


def expr_from_json(obj):
    k = obj["k"]
    if k == "rat":
        n, d = obj["v"]
        return Rat(Fraction(n, d))
    if k == "sym":
        return Sym(obj["name"])
    if k == "app":
        return App(obj["name"], tuple(expr_from_json(a) for a in obj["args"]),
                   tuple(obj["deriv"]))
    if k == "sum":
        return Sum(tuple(expr_from_json(t) for t in obj["terms"]))
    if k == "prod":
        return Prod(tuple(expr_from_json(f) for f in obj["factors"]))
    if k == "pow":
        n, d = obj["exp"]
        return Pow(expr_from_json(obj["base"]), Fraction(n, d))
    if k == "sin":
        return SinE(expr_from_json(obj["arg"]))
    if k == "cos":
        return CosE(expr_from_json(obj["arg"]))
    raise ValueError(f"unknown expression kind {k!r}")
