"""The earlier expression core, kept as the oracle for tests.

``simplify_basic`` and its helpers, ``_diff``, ``_subst``, ``evaluate``, the
``equal_numeric`` sampling loop over it and the two JSON codecs are copied
(without type annotations) from the version that walked every node type with
its own ``isinstance`` ladder, evaluated by walking the tree at every sample
point and re-simplified whole subtrees in every constructor. One change is applied: a
collected power that comes out rational or a product is folded into the
constant or flattened, so that ``simplify_basic`` is idempotent (see
``_simplify_prod``). The node classes are the package's own.

``compile_expr`` and its ``_compile_*`` rules are the later closure compiler:
one closure per tree node, evaluating its children left to right. The package
compiles nothing now; it has one evaluator, which computes each distinct
subtree once over a block of points, and these two evaluators are what its
values and errors are compared against.

``nodes`` is the earlier occurrence walk, which lists a shared subtree once
per use; the package walks each distinct node once. ``occurrences`` is the
package's count of every use, one walk over a plan, from before its reader
counted the uses of each node it reads; a metric no longer walks its entries
again after reading them.

``sampling_failure`` is the earlier scan, which walked each root on its own;
the package walks all the roots once and judges each root by the nodes it
reaches first.

``_Walk`` is the recursive walk that the package ran before its walks
became one loop over a post-order plan: ``rule(node, child)`` runs once per
distinct node, and ``child`` recurses into this memo, one frame or two per
tree level. ``walked`` runs each of the package's walks over it, with the
package's own rules, as the reference for the order of their work and errors.
``normal_form`` rebuilds every node by the package's normalisers over it and
reads no normal mark, so a node the package marks normal can be checked to be
its own normal form.

``inline_document`` turns a metric's node table back into the document
that wrote each entry as a whole tree, which is what the package wrote before.

``checked_expr_from_json`` is the reader that checked each field's type and
built every occurrence of a node again, through one loop over a node's
(JSON key, load) fields. The package's reader keeps one node memo per
document; its values and error messages are compared with this one's.
"""

import math
import random
from fractions import Fraction
from typing import Callable

from tdual import expr
from tdual.expr import (
    MAX_DERIV_ORDER, ONE, ZERO, App, CosE, DomainError, EqualityReport, Pow, Prod, Rat, SinE, Sum, Sym,
    UnboundSymbol, Witness,
)


def _float(q):
    """A constant's float, converted at every read as the package did before it kept the
    float on the node."""
    try:
        return float(q)
    except OverflowError:
        raise DomainError("rational constant outside the float range") from None


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


# compile rules: (node, FunctionTable) -> closure of a {name: value} mapping.
# Each rule converts constants, looks up functions and compiles its children
# once. A closure evaluates its children left to right and then its node, as
# a recursive walk would, so values and errors come out in the same order. It
# refers to its children's closures but never to itself, so reference
# counting alone frees a compiled tree.

def _compile_rat(e: Rat, functions) -> Callable:
    try:
        c = float(e.value)
    except OverflowError:
        raise DomainError("rational constant outside the float range") from None
    return lambda values: c


def _compile_sym(e: Sym, functions) -> Callable:
    name = e.name

    def value(values):
        try:
            return float(values[name])
        except KeyError:
            raise UnboundSymbol(f"symbol {name!r} not assigned") from None
    return value


def _compile_app(e: App, functions) -> Callable:
    name = e.name
    try:
        fn = functions.lookup(name, len(e.args)).closure(e.deriv)
    except UnboundSymbol as exc:
        message = exc.args      # raised on evaluation, before the arguments are evaluated

        def unbound(values):
            raise UnboundSymbol(*message)
        return unbound
    arg_fns = [compile_expr(a, functions) for a in e.args]

    def value(values):
        args = [f(values) for f in arg_fns]
        try:
            out = fn(*args)
        except ZeroDivisionError:
            raise DomainError(f"pole in {name} at {args}") from None
        except OverflowError:       # a result too large for a float is not finite either
            raise DomainError(f"non-finite value from {name} at {args}") from None
        if math.isnan(out) or math.isinf(out):
            raise DomainError(f"non-finite value from {name} at {args}")
        return out
    return value


def _compile_sum(e: Sum, functions) -> Callable:
    fns = [compile_expr(t, functions) for t in e.terms]
    return lambda values: sum([f(values) for f in fns])


def _compile_prod(e: Prod, functions) -> Callable:
    fns = [compile_expr(f, functions) for f in e.factors]

    def value(values):
        out = 1.0
        for f in fns:
            out *= f(values)
        return out
    return value


def _compile_pow(e: Pow, functions) -> Callable:
    base_fn = compile_expr(e.base, functions)
    q = e.exponent
    pole, fractional = q < 0, q.denominator != 1
    try:
        x = float(q)
    except OverflowError:
        x = q       # math.pow converts it, and raises, on evaluation

    def value(values):
        base = base_fn(values)
        if pole and abs(base) < _ABS_POLE:
            raise DomainError(f"pole: {e.base}^{q} at base {base}")
        if fractional and base < 0:
            raise DomainError(f"negative base {base} under fractional power {q}")
        try:
            return math.pow(base, x)
        except (OverflowError, ValueError) as exc:
            raise DomainError(str(exc)) from None
    return value


def _compile_trig(math_fn) -> Callable:
    def rule(e, functions):
        arg_fn = compile_expr(e.arg, functions)

        def value(values):
            x = arg_fn(values)
            try:
                return math_fn(x)
            except ValueError:      # an infinite argument
                raise DomainError(f"{math_fn.__name__} of non-finite {x}") from None
        return value
    return rule


_COMPILE = {Rat: _compile_rat, Sym: _compile_sym, App: _compile_app, Sum: _compile_sum,
            Prod: _compile_prod, Pow: _compile_pow, SinE: _compile_trig(math.sin),
            CosE: _compile_trig(math.cos)}


def compile_expr(e, functions):
    """``e`` as one closure per node, each calling its children's closures."""
    try:
        rule = _COMPILE[type(e)]
    except KeyError:
        raise TypeError(f"unknown node {type(e).__name__}") from None
    return rule(e, functions)


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


# the field of each node kind that holds its children
CHILD_FIELDS = {"app": "args", "sum": "terms", "prod": "factors", "pow": "base", "sin": "arg",
                "cos": "arg"}


def inline_document(doc):
    """A metric's node table document with each reference replaced by the
    tree of the entry it names: the document as written before node tables,
    with each entry's whole tree at every occurrence."""
    trees = []
    for entry in doc["nodes"]:
        tree = dict(entry)
        field = CHILD_FIELDS.get(entry["k"])
        if field is not None:
            ref = entry[field]
            tree[field] = [trees[i] for i in ref] if isinstance(ref, list) else trees[ref]
        trees.append(tree)
    return {"chart": doc["chart"],
            **{part: [[i, j, trees[k]] for i, j, k in doc[part]] for part in ("g", "b")}}


def nodes(e):
    """Every node of ``e``, once per occurrence, each parent before its children."""
    stack = [e]
    while stack:
        n = stack.pop()
        yield n
        if isinstance(n, (App, Sum, Prod)):
            stack.extend(n.args if isinstance(n, App) else n.terms if isinstance(n, Sum)
                         else n.factors)
        elif isinstance(n, Pow):
            stack.append(n.base)
        elif isinstance(n, (SinE, CosE)):
            stack.append(n.arg)


def occurrences(roots):
    """The nodes of the trees ``roots`` counted at every use, as an inline document writes them."""
    roots = tuple(roots)
    count = expr._walk(lambda e, child: 1 + sum(map(child, expr._NODES[type(e)].children(e))),
                       roots)
    return sum(map(count.__getitem__, roots))


def sampling_failure(roots, spec):
    """The earlier scan: one walk per root, so a subtree that several roots
    share is visited once per root."""
    for root in roots:
        found = _visit((root,))
        try:
            for n in found:
                if type(n) is Rat:
                    _float(n.value)
        except DomainError as exc:
            return str(exc)
        unboxed = sorted({n.name for n in found if type(n) is Sym} - spec.boxes.keys())
        unknown = sorted({(n.name, len(n.args)) for n in found if type(n) is App}
                         - spec.functions._by_key.keys())
        if unboxed or unknown:
            return (f"symbol {unboxed[0]!r} has no sampling box" if unboxed
                    else "no function {}/{} is registered".format(*unknown[0]))


def _typed(kind, v):
    if type(v) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {v!r:.40}")
    return v


def _load_fraction(v):
    if type(v) is not list or len(v) != 2 or v[1] == 0:
        raise TypeError(f"expected [numerator, nonzero denominator], got {v!r:.40}")
    return Fraction(_typed(int, v[0]), _typed(int, v[1]))


def _load_order(v):
    if _typed(int, v) > MAX_DERIV_ORDER:
        raise TypeError(f"derivative order {v} exceeds {MAX_DERIV_ORDER}")
    return v


def _load_name(v):
    return _typed(str, v)


def _load_orders(v):
    return tuple(_load_order(x) for x in _typed(list, v))


def _load_exprs(v):
    return tuple(map(checked_expr_from_json, _typed(list, v)))


def checked_expr_from_json(obj):
    try:
        build, fields = _KINDS[obj["k"]]
        return build(*[load(obj[key]) for key, load in fields])
    except (KeyError, TypeError) as exc:
        why = exc
        if type(exc) is KeyError and ("k" not in obj or obj["k"] in _KINDS):
            why = f"missing field {exc.args[0]!r}"      # a field, not an unknown kind
        raise ValueError(f"malformed expression node {obj!r:.80}: {why}") from None


# JSON kind -> (positional constructor, (JSON key, load) per field in JSON order)
_KINDS = {
    "rat": (Rat, (("v", _load_fraction),)),
    "sym": (Sym, (("name", _load_name),)),
    "app": (lambda name, deriv, args: App(name, args, deriv),
            (("name", _load_name), ("deriv", _load_orders), ("args", _load_exprs))),
    "sum": (Sum, (("terms", _load_exprs),)),
    "prod": (Prod, (("factors", _load_exprs),)),
    "pow": (Pow, (("base", checked_expr_from_json), ("exp", _load_fraction))),
    "sin": (SinE, (("arg", checked_expr_from_json),)),
    "cos": (CosE, (("arg", checked_expr_from_json),)),
}


class _Walk(dict):
    """One recursive walk: ``rule(node, child)`` runs once per distinct node
    that has no ``known`` result, where ``child`` gives a child's result
    through this memo, computing it first."""

    __slots__ = ("rule",)

    def __init__(self, rule, known=()):
        super().__init__(known)
        self.rule = rule

    def __missing__(self, e):
        out = self[e] = self.rule(e, self.__getitem__)
        return out


def _visit(roots, enter=lambda e: True):
    """Run ``enter`` once on each distinct node of ``roots``, going on into its
    children where it returns true; the walk's keys are the nodes visited."""
    def rule(e, child):
        if enter(e):
            for c in expr._NODES[type(e)].children(e):
                child(c)

    walk = _Walk(rule)
    for root in roots:
        walk[root]
    return walk


class _RecursiveBlock(expr._Block):
    """A block whose ``block[node]`` computes a missing column, and its
    children's first, by the package's column rules."""

    def __missing__(self, e):
        c = self[e] = expr._NODES[type(e)].column(e, self)
        return c


def _walked_scan(roots, functions):
    """The constant check that ran over a whole tree before its evaluation."""
    def enter(e):
        if type(e) is Rat:
            _float(e.value)
        elif type(e) is App:
            try:
                functions.lookup(e.name, len(e.args)).closure(e.deriv)
            except UnboundSymbol:
                return False
        return True

    _visit(roots, enter)


def _walked_sampling_failure(roots, spec):
    unboxed, unknown = set(), set()

    def enter(e):
        if type(e) is Rat:
            _float(e.value)
        elif type(e) is Sym and e.name not in spec.boxes:
            unboxed.add(e.name)
        elif type(e) is App and (e.name, len(e.args)) not in spec.functions._by_key:
            unknown.add((e.name, len(e.args)))
        return True

    walk = _visit((), enter)
    for root in roots:
        try:
            walk[root]
        except DomainError as exc:
            return str(exc)
        if unboxed or unknown:
            return (f"symbol {min(unboxed)!r} has no sampling box" if unboxed
                    else "no function {}/{} is registered".format(*min(unknown)))


def _walked_columns(roots, functions, drawn, size):
    """The roots' columns over one block, after the constant check."""
    _walked_scan(roots, functions)
    block = _RecursiveBlock(functions, drawn, size)
    return [block[root] for root in roots]


def _walked_heights(roots):
    height = _Walk(lambda e, child: 1 + max(map(child, expr._NODES[type(e)].children(e)),
                                            default=-1))
    return [height[root] for root in roots]


def _walked_text(e):
    return _Walk(lambda e, text: expr._NODES[type(e)].text(e, text))[e]


def normal_form(e):
    """``e`` rebuilt node by node through the package's normalisers, each node from its
    children's results, whether or not a node is marked normal."""
    def rule(e, child):
        node = expr._NODES[type(e)]
        return node.rebuild(e, tuple(map(child, node.children(e))))
    return _Walk(rule)[e]


walked = {
    "simplify_basic": lambda e: e if e._normal else _Walk(expr._normalize)[e],
    "differentiate": lambda e, x: _Walk(lambda e, d: expr._NODES[type(e)].derivative(e, d),
                                        {Sym(x): ONE})[e],
    "substitute": lambda e, bindings: _Walk(expr._map, {Sym(k): v for k, v in bindings.items()})[e],
    "occurrences": lambda roots: sum(map(_Walk(
        lambda e, child: 1 + sum(map(child, expr._NODES[type(e)].children(e)))).__getitem__, roots)),
    "order": lambda roots: list(_visit(roots)),
    "heights": _walked_heights,
    "text": _walked_text,
    "sampling_failure": _walked_sampling_failure,
    "columns": _walked_columns,
}
