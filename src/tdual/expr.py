"""Exact symbolic expression trees over named coordinates and opaque functions.

Nodes are immutable and hashable. Rational constants are stored exactly as
``fractions.Fraction``. Opaque function applications carry a name, an argument
tuple and a derivative multi-index, so a function and its partial derivatives
coexist in one tree without committing to a formula. Numeric evaluation
resolves opaque applications through closures registered per (name, arity)
in a :class:`FunctionTable`; ``compile_expr`` turns trees into one
straight-line Python program with one local per distinct subtree, which
``evaluate`` runs at one point. ``equal_numeric`` compiles nothing: it
evaluates each distinct subtree once per block of sampled points, as one
column of values, and falls back to a compiled program run point by point
only where a block meets an error. One table, ``_NODES``, describes each
node type once, and every walk over a tree dispatches through it.

Normal form: ``simplify_basic`` only performs constant folding, 0/1 rules,
flattening of nested sums and products, and collection of identical rational
powers; simplifying its result again changes nothing. ``add``, ``mul``,
``pow_``, ``sin_`` and ``cos_`` take normal children and normalise only the
node they build; ``differentiate`` and ``substitute`` build through them, so
given normal trees they all return normal trees without a second walk.
``simplify_basic`` is the one entry for raw trees: nodes built directly, or
read by ``expr_from_json``. Equality of expressions is decided by seeded
randomized sampling (:func:`equal_numeric`), not by canonical-form rewriting.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import mul as _times
from typing import Callable, Iterable, Mapping, NamedTuple

from . import DEFAULT_TOL, DEFAULT_TRIALS


class UnboundSymbol(KeyError):
    """A free coordinate or function symbol has no assigned value/closure."""


class DomainError(ArithmeticError):
    """Evaluation hit a pole, zero division, or an invalid power."""


def _as_expr(x) -> "Expr":
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Rat(Fraction(x))
    raise TypeError(f"cannot coerce {x!r} to Expr")


@dataclass(frozen=True)
class Expr:
    """Base node. Subclasses define the tree shape; operators build new trees."""

    def __add__(self, other):
        return add(self, _as_expr(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(Rat(Fraction(-1)), _as_expr(other)))

    def __rsub__(self, other):
        return add(_as_expr(other), mul(Rat(Fraction(-1)), self))

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return mul(self, pow_(_as_expr(other), Fraction(-1)))

    def __rtruediv__(self, other):
        return mul(_as_expr(other), pow_(self, Fraction(-1)))

    def __neg__(self):
        return mul(Rat(Fraction(-1)), self)

    def __pow__(self, exponent):
        return pow_(self, Fraction(exponent))


@dataclass(frozen=True)
class Rat(Expr):
    value: Fraction

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class Sym(Expr):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class App(Expr):
    """Opaque function application ``name(args)`` with derivative multi-index.

    ``deriv[i]`` counts partial derivatives taken in the i-th argument slot.
    """

    name: str
    args: tuple
    deriv: tuple

    def __post_init__(self):
        if len(self.deriv) != len(self.args) or min(self.deriv, default=0) < 0:
            raise ValueError("derivative multi-index must be one order >= 0 per argument")

    def __str__(self):
        primes = "" if not any(self.deriv) else "^(" + ",".join(map(str, self.deriv)) + ")"
        return f"{self.name}{primes}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple

    def __str__(self):
        return "(" + " + ".join(map(str, self.terms)) + ")"


@dataclass(frozen=True)
class Prod(Expr):
    factors: tuple

    def __str__(self):
        return "(" + "*".join(map(str, self.factors)) + ")"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Fraction

    def __str__(self):
        return f"{self.base}^({self.exponent})"


@dataclass(frozen=True)
class SinE(Expr):
    arg: Expr

    def __str__(self):
        return f"sin({self.arg})"


@dataclass(frozen=True)
class CosE(Expr):
    arg: Expr

    def __str__(self):
        return f"cos({self.arg})"


ZERO = Rat(Fraction(0))
ONE = Rat(Fraction(1))


def rat(n, d=1) -> Rat:
    return Rat(Fraction(n, d))


def sym(name: str) -> Sym:
    return Sym(name)


def app(name: str, args: Iterable[Expr], deriv: Iterable[int] | None = None) -> App:
    args = tuple(_as_expr(a) for a in args)
    return App(name, args, (0,) * len(args) if deriv is None else tuple(deriv))


def add(*terms) -> Expr:
    return _sum([_as_expr(t) for t in terms])


def mul(*factors) -> Expr:
    return _prod([_as_expr(f) for f in factors])


def pow_(base, exponent) -> Expr:
    return _pow(_as_expr(base), Fraction(exponent))


def sin_(x) -> Expr:
    return _sin(_as_expr(x))


def cos_(x) -> Expr:
    return _cos(_as_expr(x))


# ---------------------------------------------------------------------------
# normal form: each normaliser takes normal children and normalises only the
# node it builds

def _sin(a: Expr) -> Expr:
    return ZERO if a == ZERO else SinE(a)


def _cos(a: Expr) -> Expr:
    return ONE if a == ZERO else CosE(a)


def _pow(base: Expr, exponent: Fraction) -> Expr:
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if type(base) is Rat and exponent.denominator == 1:
        if base.value == 0 and exponent < 0:
            raise DomainError("0 raised to a negative power")
        return Rat(base.value ** exponent.numerator)
    if type(base) is Pow:
        return _pow(base.base, base.exponent * exponent)
    return Pow(base, exponent)


def _sum(terms) -> Expr:
    out = []
    const = Fraction(0)
    for t in terms:
        for s in (t.terms if type(t) is Sum else (t,)):
            if type(s) is Rat:
                const += s.value
            else:
                out.append(s)
    if const != 0:
        out.append(Rat(const))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Sum(tuple(out))


def _prod(factors) -> Expr:
    const = Fraction(1)
    bases: list[Expr] = []
    exps: list[Fraction] = []
    for f in factors:
        for s in (f.factors if type(f) is Prod else (f,)):
            if type(s) is Rat:
                if s.value == 0:
                    return ZERO
                const *= s.value
                continue
            # collect identical bases: x^a * x^b -> x^(a+b)
            base, exp = (s.base, s.exponent) if type(s) is Pow else (s, Fraction(1))
            for i, b in enumerate(bases):
                if b == base:
                    exps[i] += exp
                    break
            else:
                bases.append(base)
                exps.append(exp)
    out = [_pow(b, x) for b, x in zip(bases, exps) if x != 0]
    # a collected power can come out rational (2^(1/2)*2^(1/2)) or a product
    # ((x*y)^2*(x*y)^-1): fold and flatten it too, or the result is not normal
    if any(type(f) is Rat or type(f) is Prod for f in out):
        return _prod([Rat(const), *out])
    if const != 1:
        out.insert(0, Rat(const))
    if not out:
        return ONE
    if len(out) == 1:
        return out[0]
    return Prod(tuple(out))


# ---------------------------------------------------------------------------
# the node table

class _ByType(dict):
    """A table keyed by node type; a type missing from it is not a node."""

    def __missing__(self, cls):
        raise TypeError(f"unknown node {cls.__name__}")


def _typed(kind: type, v):
    if type(v) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {v!r:.40}")
    return v


def _load_fraction(v) -> Fraction:
    if type(v) is not list or len(v) != 2 or v[1] == 0:
        raise TypeError(f"expected [numerator, nonzero denominator], got {v!r:.40}")
    return Fraction(_typed(int, v[0]), _typed(int, v[1]))


MAX_DERIV_ORDER = 32    # largest derivative order that expr_from_json accepts


def _load_order(v) -> int:
    if _typed(int, v) > MAX_DERIV_ORDER:
        raise TypeError(f"derivative order {v} exceeds {MAX_DERIV_ORDER}")
    return v


# JSON codecs of node fields, (dump, load); a load checks the types it reads
_FRACTION = (lambda q: [q.numerator, q.denominator], _load_fraction)
_NAME = (str, lambda v: _typed(str, v))
_ORDERS = (list, lambda v: tuple(_load_order(x) for x in _typed(list, v)))
_EXPR = (lambda e: expr_to_json(e), lambda v: expr_from_json(v))
_EXPRS = (lambda es: [expr_to_json(e) for e in es],
          lambda v: tuple(expr_from_json(x) for x in _typed(list, v)))


# emit rules: (node, _Program) -> (key, emit). Taking the children's slots
# emits them first, so the program runs in the post-order of a left-to-right
# walk, and values and errors come out as in a recursive evaluation. The key
# is (type, scalar fields, child slots); only a new key's ``emit(slot)`` runs:
# it converts constants and appends the lines that assign the slot, each with
# the errors it reports instead of the exceptions it raises.

def _float(q: Fraction) -> float:
    try:
        return float(q)
    except OverflowError:
        raise DomainError("rational constant outside the float range") from None


def _emit_rat(e: Rat, prog):
    return (Rat, e.value.numerator, e.value.denominator), lambda v: prog.line(
        f"{v} = {prog.const(_float(e.value))}")


def _emit_sym(e: Sym, prog):
    return (Sym, e.name), lambda v: prog.line(f"{v} = float(values[{prog.const(e.name)}])", (
        KeyError, lambda exc, loc: UnboundSymbol(f"symbol {e.name!r} not assigned")))


def _emit_app(e: App, prog):
    try:
        fn = prog.functions.lookup(e.name, len(e.args)).closure(e.deriv)
    except UnboundSymbol as exc:    # raised on evaluation, before the arguments are evaluated
        message = exc.args
        return (App, e.name, e.deriv), lambda v: prog.line(
            f"raise UnboundSymbol(*{prog.const(message)})")
    args = list(map(prog.slot, e.args))

    def error(message):
        return lambda exc, loc: DomainError(message.format(e.name, [loc[a] for a in args]))

    def emit(v):
        non_finite = error("non-finite value from {} at {}")    # also for an overflow
        prog.line(f"{v} = {prog.const(fn)}({', '.join(args)})",
                  (ZeroDivisionError, error("pole in {} at {}")), (OverflowError, non_finite))
        prog.line(f"if not isfinite({v}): raise DomainError", (DomainError, non_finite))
    return (App, e.name, e.deriv, *args), emit


def _emit_sum(e: Sum, prog):
    terms = list(map(prog.slot, e.terms))
    return (Sum, *terms), lambda v: prog.line(f"{v} = sum([{', '.join(terms)}])")


def _emit_prod(e: Prod, prog):
    factors = list(map(prog.slot, e.factors))
    return (Prod, *factors), lambda v: prog.line(f"{v} = {' * '.join(['1.0', *factors])}")


def _emit_pow(e: Pow, prog):
    base, q = prog.slot(e.base), e.exponent

    def emit(v):
        if q < 0:
            prog.line(f"if abs({base}) < {prog.const(_ABS_POLE)}: raise DomainError", (DomainError,
                      lambda exc, loc: DomainError(f"pole: {e.base}^{q} at base {loc[base]}")))
        if q.denominator != 1:
            prog.line(f"if {base} < 0: raise DomainError", (DomainError, lambda exc, loc:
                      DomainError(f"negative base {loc[base]} under fractional power {q}")))
        try:
            x = float(q)
        except OverflowError:
            x = q       # math.pow converts it, and raises, on evaluation
        prog.line(f"{v} = pow({base}, {prog.const(x)})",
                  ((OverflowError, ValueError), lambda exc, loc: DomainError(str(exc))))
    return (Pow, base, q.numerator, q.denominator), emit


def _emit_trig(e: SinE | CosE, prog):
    arg, fn = prog.slot(e.arg), math.sin if type(e) is SinE else math.cos
    return (type(e), arg), lambda v: prog.line(f"{v} = {prog.const(fn)}({arg})", (
        ValueError, lambda exc, loc: DomainError(f"{fn.__name__} of non-finite {loc[arg]}")))


# column rules: (node, _Block) -> (key, column). Each gives the node's value
# at every point of a block from its children's columns, by the float
# operations of its emit rule, point by point in the same order. The key is
# (type, scalar fields, child columns); only a new key's ``column()`` runs.
# A rule raises wherever an emitted line reports an error, and the block is
# then dropped, so the rules need not say which error it was.

def _column_rat(e: Rat, block):
    return (Rat, e.value.numerator, e.value.denominator), lambda: [_float(e.value)] * block.size


def _column_sym(e: Sym, block):
    return (Sym, e.name), lambda: block.drawn[e.name]


def _column_app(e: App, block):
    fn = block.functions.lookup(e.name, len(e.args)).closure(e.deriv)
    args = list(map(block.column, e.args))

    def column():
        out = list(map(fn, *args))      # no arguments: map raises
        if not all(map(math.isfinite, out)):
            raise DomainError
        return out
    return (App, e.name, e.deriv, *map(id, args)), column


def _column_sum(e: Sum, block):
    terms = list(map(block.column, e.terms))
    return (Sum, *map(id, terms)), lambda: (
        list(map(sum, zip(*terms))) if terms else [0] * block.size)    # sum([]) is 0


def _column_prod(e: Prod, block):
    factors = list(map(block.column, e.factors))

    def column():
        out = [1.0] * block.size
        for f in factors:
            out = list(map(_times, out, f))
        return out
    return (Prod, *map(id, factors)), column


def _column_pow(e: Pow, block):
    base, q = block.column(e.base), e.exponent

    def column():
        if q < 0 and any(map(_ABS_POLE.__gt__, map(abs, base))):     # |base| < _ABS_POLE
            raise DomainError
        if q.denominator != 1 and any(map((0.0).__gt__, base)):       # base < 0
            raise DomainError
        return list(map(math.pow, base, repeat(float(q))))
    return (Pow, id(base), q.numerator, q.denominator), column


def _column_trig(e: SinE | CosE, block):
    arg, fn = block.column(e.arg), math.sin if type(e) is SinE else math.cos
    return (type(e), id(arg)), lambda: list(map(fn, arg))


def _derivative_app(e: App, x: str) -> Expr:
    # chain rule: bump the multi-index in each slot whose argument moves
    terms = []
    for i, a in enumerate(e.args):
        da = differentiate(a, x)
        if da != ZERO:
            bumped = e.deriv[:i] + (e.deriv[i] + 1,) + e.deriv[i + 1:]
            terms.append(_prod((App(e.name, e.args, bumped), da)))
    return _sum(terms)


class _Node(NamedTuple):
    tag: str                # JSON kind
    fields: tuple           # (JSON key, attribute, codec) per dataclass field
    children: Callable      # node -> tuple of its Expr children
    rebuild: Callable       # (node, normal children) -> normal node; normalises the top only
    emit: Callable          # (node, _Program) -> (dedupe key, emit(slot) of its lines)
    column: Callable        # (node, _Block) -> (dedupe key, column() of its values)
    derivative: Callable    # (node, coordinate name) -> normal tree


_NODES = _ByType({
    Rat: _Node("rat", (("v", "value", _FRACTION),), lambda e: (), lambda e, c: e,
               _emit_rat, _column_rat,
               lambda e, x: ZERO),
    Sym: _Node("sym", (("name", "name", _NAME),), lambda e: (), lambda e, c: e,
               _emit_sym, _column_sym,
               lambda e, x: ONE if e.name == x else ZERO),
    App: _Node("app", (("name", "name", _NAME), ("deriv", "deriv", _ORDERS),
                      ("args", "args", _EXPRS)),
               lambda e: e.args, lambda e, args: App(e.name, args, e.deriv),
               _emit_app, _column_app,
               _derivative_app),
    Sum: _Node("sum", (("terms", "terms", _EXPRS),),
               lambda e: e.terms, lambda e, terms: _sum(terms),
               _emit_sum, _column_sum,
               lambda e, x: _sum([differentiate(t, x) for t in e.terms])),
    Prod: _Node("prod", (("factors", "factors", _EXPRS),),
                lambda e: e.factors, lambda e, factors: _prod(factors),
                _emit_prod, _column_prod,
                lambda e, x: _sum([_prod(e.factors[:i] + (differentiate(f, x),)
                                         + e.factors[i + 1:]) for i, f in enumerate(e.factors)])),
    Pow: _Node("pow", (("base", "base", _EXPR), ("exp", "exponent", _FRACTION)),
               lambda e: (e.base,), lambda e, c: _pow(*c, e.exponent),
               _emit_pow, _column_pow,
               lambda e, x: _prod((Rat(e.exponent), _pow(e.base, e.exponent - 1),
                                   differentiate(e.base, x)))),
    SinE: _Node("sin", (("arg", "arg", _EXPR),),
                lambda e: (e.arg,), lambda e, c: _sin(*c),
                _emit_trig, _column_trig,
                lambda e, x: _prod((_cos(e.arg), differentiate(e.arg, x)))),
    CosE: _Node("cos", (("arg", "arg", _EXPR),),
                lambda e: (e.arg,), lambda e, c: _cos(*c),
                _emit_trig, _column_trig,
                lambda e, x: _prod((Rat(Fraction(-1)), _sin(e.arg), differentiate(e.arg, x)))),
})
_KINDS = {node.tag: cls for cls, node in _NODES.items()}


# ---------------------------------------------------------------------------
# walks

def _map(e: Expr, f: Callable[[Expr], Expr]) -> Expr:
    """``e`` with ``f`` applied to each child, normalising only the new top."""
    node = _NODES[type(e)]
    return node.rebuild(e, tuple([f(c) for c in node.children(e)]))


def _nodes(e: Expr):
    stack = [e]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(_NODES[type(n)].children(n))


def simplify_basic(e: Expr) -> Expr:
    """Constant folding, 0/1 rules, flattening, collection of identical
    rational powers. Idempotent; never expands or rewrites beyond this list."""
    return _map(e, simplify_basic)


def differentiate(e: Expr, x: str) -> Expr:
    """Symbolic partial derivative of a normal tree in coordinate ``x``.

    Opaque applications differentiate by the chain rule, bumping the
    derivative multi-index in each argument slot.
    """
    return _NODES[type(e)].derivative(e, x)


def substitute(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Simultaneous substitution of coordinate symbols by normal trees."""
    b = {k: _as_expr(v) for k, v in bindings.items()}

    def walk(n):
        return b.get(n.name, n) if type(n) is Sym else _map(n, walk)

    return walk(e)


def free_symbols(e: Expr) -> set[str]:
    return {n.name for n in _nodes(e) if type(n) is Sym}


def opaque_functions(e: Expr) -> set[tuple[str, int]]:
    """The (name, arity) of every opaque application in ``e``."""
    return {(n.name, len(n.args)) for n in _nodes(e) if type(n) is App}


# ---------------------------------------------------------------------------
# evaluation

class OpaqueFunction:
    """Numeric closures for an opaque symbol, one per derivative multi-index."""

    def __init__(self, name: str, arity: int,
                 closures: Mapping[tuple, Callable] | None = None,
                 closure_factory: Callable[[tuple], Callable | None] | None = None):
        self.name = name
        self.arity = arity
        self._closures = dict(closures or {})
        self._factory = closure_factory

    def closure(self, deriv: tuple) -> Callable:
        if deriv in self._closures:
            return self._closures[deriv]
        if self._factory is not None:
            fn = self._factory(deriv)
            if fn is not None:
                self._closures[deriv] = fn
                return fn
        raise UnboundSymbol(f"no closure for {self.name}{deriv} (arity {self.arity})")


class FunctionTable:
    """Registry of opaque functions keyed by (name, arity)."""

    def __init__(self, functions: Iterable[OpaqueFunction] = ()):
        self._by_key: dict[tuple[str, int], OpaqueFunction] = {}
        for f in functions:
            self.register(f)

    def register(self, f: OpaqueFunction) -> "FunctionTable":
        self._by_key[(f.name, f.arity)] = f
        return self

    def merged(self, other: "FunctionTable") -> "FunctionTable":
        t = FunctionTable()
        t._by_key.update(self._by_key)
        t._by_key.update(other._by_key)
        return t

    def lookup(self, name: str, arity: int) -> OpaqueFunction:
        try:
            return self._by_key[(name, arity)]
        except KeyError:
            raise UnboundSymbol(f"no registered function {name}/{arity}") from None


@dataclass
class PointAssignment:
    """Concrete values for coordinates plus a function table for opaque symbols."""

    values: dict = field(default_factory=dict)
    functions: FunctionTable = field(default_factory=FunctionTable)


_ABS_POLE = 1e-13


class _Program:
    """The straight-line program of some roots: one local ``v<i>`` per
    distinct subtree, deduplicated by identity, then by the rules' keys, so
    no whole tree is hashed or compared. The source names slots and constants
    ``k<i>`` by index only; its one handler raises the error that the failing
    line registered. The returned function alone holds all of it; an
    unregistered function's slot is never assigned, as nothing runs after it."""

    def __init__(self, functions: FunctionTable):
        self.functions, self.consts, self.lines = functions, [], []
        self.errors: dict[int, tuple] = {}      # line number -> ((types, error(exc, locals)), ...)
        self.slot_of_id: dict[int, str] = {}    # the roots keep every node alive meanwhile
        self.slot_of_key: dict[tuple, str] = {}

    def const(self, value) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def slot(self, e: Expr) -> str:
        s = self.slot_of_id.get(id(e))
        if s is None:
            key, emit = _NODES[type(e)].emit(e, self)
            s = self.slot_of_key.get(key)
            if s is None:
                s = self.slot_of_key[key] = f"v{len(self.slot_of_key)}"
                emit(s)
            self.slot_of_id[id(e)] = s
        return s

    def line(self, code: str, *errors):
        self.lines.append(code)
        if errors:
            self.errors[len(self.lines) + 2] = errors     # the body starts on line 3

    def function(self, roots) -> Callable:
        outs = ", ".join([self.slot(e) for e in roots])
        body = "".join(f"        {line}\n" for line in self.lines)
        source = (f"def program(values):\n    try:\n{body}        return {outs}\n"
                  f"    except Exception:\n        fail(locals())\n        raise\n")

        def fail(loc, errors=self.errors):
            exc = sys.exc_info()[1]
            for types, error in errors.get(exc.__traceback__.tb_lineno, ()):
                if isinstance(exc, types):
                    raise error(exc, loc) from None

        scope = {f"k{i}": c for i, c in enumerate(self.consts)}
        scope.update(DomainError=DomainError, isfinite=math.isfinite, pow=math.pow,
                     UnboundSymbol=UnboundSymbol, fail=fail)
        exec(compile(source, "<tdual program>", "exec"), scope)
        return scope.pop("program")


class _Block:
    """The values of some roots at every point of a block: one column, a
    list with one value per point, per distinct subtree, deduplicated as in
    ``_Program.slot`` with child columns in place of child slots. Nothing is
    compiled; a column rule raises where a program line would fail."""

    def __init__(self, functions: FunctionTable, drawn: dict, size: int):
        self.functions, self.drawn, self.size = functions, drawn, size
        self.column_of_id: dict[int, list] = {}     # the roots keep every node alive meanwhile
        self.column_of_key: dict[tuple, list] = {}  # and this every column, whose ids key it

    def column(self, e: Expr) -> list:
        c = self.column_of_id.get(id(e))
        if c is None:
            key, column = _NODES[type(e)].column(e, self)
            c = self.column_of_key.get(key)
            if c is None:
                c = self.column_of_key[key] = column()
            self.column_of_id[id(e)] = c
        return c


def compile_expr(e: Expr, functions: FunctionTable) -> Callable[[Mapping[str, float]], float]:
    """``e`` as a straight-line program of a ``{name: value}`` mapping.

    Raises DomainError for a constant outside the float range. The program
    raises UnboundSymbol for an unassigned symbol or an unregistered
    function, and DomainError at a pole, a negative base under a fractional
    power or a non-finite value.
    """
    return _Program(functions).function((e,))


def evaluate(e: Expr, p: PointAssignment) -> float:
    """IEEE evaluation of ``e`` at ``p``. Raises UnboundSymbol / DomainError."""
    return compile_expr(e, p.functions)(p.values)


# ---------------------------------------------------------------------------
# charts and sampling

@dataclass(frozen=True)
class Chart:
    """Ordered coordinate names; index 0 is the dualized (fiber) direction.

    The fiber coordinate must be periodic.
    """

    names: tuple
    periodic: tuple

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("coordinate names must be unique")
        if len(self.periodic) != len(self.names):
            raise ValueError("periodicity flags must match coordinates")
        if not self.periodic[0]:
            raise ValueError("the dualized (index 0) coordinate must be periodic")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    @staticmethod
    def with_fiber(names: Iterable[str], periodic: Mapping[str, bool], fiber: str) -> "Chart":
        """Reorder so the fiber coordinate sits at index 0."""
        names = list(names)
        names.remove(fiber)
        names.insert(0, fiber)
        return Chart(tuple(names), tuple(bool(periodic[n]) for n in names))


@dataclass
class SampleSpec:
    """Sampling boxes per symbol, avoiding declared singular loci by margin.

    Boxes are closed intervals. The margin is baked into the boxes by the
    caller; this class only draws uniform samples and builds assignments.
    """

    boxes: dict
    functions: FunctionTable = field(default_factory=FunctionTable)

    def merged(self, other: "SampleSpec") -> "SampleSpec":
        boxes = dict(self.boxes)
        boxes.update(other.boxes)
        return SampleSpec(boxes, self.functions.merged(other.functions))

    def draw(self, rng: random.Random) -> PointAssignment:
        point = {name: column[0] for name, column in _draw_columns(self.boxes, rng, 1).items()}
        return PointAssignment(point, self.functions)


def _draw_columns(boxes: dict, rng: random.Random, size: int) -> dict:
    """``size`` points as one column per box. With k boxes, box i at point
    t takes draw t*k + i of ``rng`` through ``random.uniform``'s own formula,
    so the points are those of ``size`` calls of ``SampleSpec.draw``."""
    k, rnd = len(boxes), rng.random
    us = [rnd() for _ in range(size * k)]
    return {name: [lo + (hi - lo) * u for u in us[i::k]]
            for i, (name, (lo, hi)) in enumerate(boxes.items())}


@dataclass
class Witness:
    """Failure evidence from randomized equality testing."""

    point: dict
    lhs: float
    rhs: float

    def to_json(self) -> dict:
        return {"point": {k: self.point[k] for k in sorted(self.point)},
                "lhs": self.lhs, "rhs": self.rhs,
                "abs_diff": abs(self.lhs - self.rhs)}


class EqualityReport:
    def __init__(self, equal: bool, trials: int, witness: Witness | None,
                 domain_errors: int):
        self.equal = equal
        self.trials = trials
        self.witness = witness
        self.domain_errors = domain_errors

    def __bool__(self):
        return self.equal


DEFAULT_SEED = 42
_RETRY_BOUND = 5
_BLOCK = 128        # points drawn and evaluated together by equal_numeric


def equal_numeric(a: Expr, b: Expr, spec: SampleSpec,
                  trials: int = DEFAULT_TRIALS, tol: float = DEFAULT_TOL,
                  seed: int = DEFAULT_SEED) -> EqualityReport:
    """Seeded randomized equality: true iff at every sampled point
    ``|a-b| <= tol * max(1, |a|, |b|)``.

    Domain errors, and points where a side is infinite or NaN, are counted
    and the point resampled, up to a retry bound per trial; exhausting
    retries raises DomainError, as does a constant outside the float range.
    ``trials`` below 1, or a ``tol`` that is not a finite number >= 0,
    raises ValueError.

    Both sides are evaluated over blocks of up to ``_BLOCK`` points drawn
    at once. A check whose blocks meet any error or non-finite value runs
    again from its seed through one compiled program, point by point; that
    loop alone retries, counts domain errors and raises. Both ways draw the
    same points and apply the same float operations to each, so they return
    the same report.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    report = _equal_in_blocks(a, b, spec, trials, tol, seed)
    if report is not None:
        return report
    program = _Program(spec.functions).function((a, b))
    rng = random.Random(seed)
    domain_errors = 0
    for _ in range(trials):
        for attempt in range(_RETRY_BOUND + 1):
            p = spec.draw(rng)
            try:
                va, vb = program(p.values)
                if not (math.isfinite(va) and math.isfinite(vb)):
                    raise DomainError(f"non-finite sample value {va} vs {vb}")
            except DomainError:
                domain_errors += 1
                if attempt == _RETRY_BOUND:
                    raise
                continue
            break
        if abs(va - vb) > tol * max(1.0, abs(va), abs(vb)):
            return EqualityReport(False, trials, Witness(p.values, va, vb), domain_errors)
    return EqualityReport(True, trials, None, domain_errors)


def _equal_in_blocks(a: Expr, b: Expr, spec: SampleSpec, trials: int, tol: float,
                     seed: int) -> EqualityReport | None:
    """The report of ``equal_numeric`` from columns over blocks of points,
    or None if any point of a block that it evaluates meets an error or a
    non-finite value."""
    rng = random.Random(seed)
    done = 0
    while done < trials:
        size = min(_BLOCK, trials - done)
        drawn = _draw_columns(spec.boxes, rng, size)
        block = _Block(spec.functions, drawn, size)
        try:
            ca, cb = block.column(a), block.column(b)
            finite = all(map(math.isfinite, ca)) and all(map(math.isfinite, cb))
        except Exception:       # whatever it was, the per-point loop reports it
            finite = False
        if not finite:
            return None
        if ca is not cb:    # one column for both sides passes at every finite point
            for t, (va, vb) in enumerate(zip(ca, cb)):
                if abs(va - vb) > tol * max(1.0, abs(va), abs(vb)):
                    point = {name: column[t] for name, column in drawn.items()}
                    return EqualityReport(False, trials, Witness(point, va, vb), 0)
        done += size
    return EqualityReport(True, trials, None, 0)


# ---------------------------------------------------------------------------
# canonical JSON serialization

def expr_to_json(e: Expr) -> dict:
    node = _NODES[type(e)]
    obj = {"k": node.tag}
    for key, attr, (dump, _) in node.fields:
        obj[key] = dump(getattr(e, attr))
    return obj


def expr_from_json(obj) -> Expr:
    """The raw tree that ``obj`` encodes; ``simplify_basic`` makes it normal.

    Raises ValueError on an unknown kind or a missing or malformed field.
    """
    try:
        cls = _KINDS[obj["k"]]
        return cls(**{attr: load(obj[key]) for key, attr, (_, load) in _NODES[cls].fields})
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed expression node {obj!r:.80}: {exc}") from None
