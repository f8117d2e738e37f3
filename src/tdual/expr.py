"""Exact symbolic expression trees over named coordinates and opaque functions.

Nodes are immutable and hash-consed: every construction goes through one
weak intern table, so structurally equal trees are one object, and equality
and hashing are identity. Rational constants are stored exactly as
``fractions.Fraction``. Opaque function applications carry a name, an argument
tuple and a derivative multi-index, so a function and its partial derivatives
coexist in one tree without committing to a formula. Numeric evaluation
resolves opaque applications through closures registered per (name, arity)
in a :class:`FunctionTable`. There is one evaluator and nothing is
compiled: a block evaluates each node of some roots once over its points,
as one column of values. ``evaluate`` is a block of one point;
``equal_numeric`` runs one loop over blocks of sampled points, shared with
their column memos by the components of one metric check, and goes on point
by point, as blocks of one point, from the first block that meets an error.
One table, ``_NODES``, describes each node type once, and every walk over a
tree, a rewrite or a scan, is one memoized ``_Walk`` that dispatches through
it, visits each distinct node once per call and is freed when it returns.
The JSON codec reads and writes each distinct node of a document once, and its
reader refuses nesting deeper than ``MAX_DEPTH``, which every later walk fits.

Normal form: ``simplify_basic`` only performs constant folding, 0/1 rules,
flattening of nested sums and products, and collection of identical rational
powers; simplifying its result again changes nothing. ``add``, ``mul``,
``pow_``, ``sin_`` and ``cos_`` take normal children and normalise only the
node they build; ``differentiate`` and ``substitute`` build through them, so
given normal trees they all return normal trees without a second walk.
``simplify_basic`` is the one entry for raw trees: nodes built directly, or
read by ``expr_from_json``. It marks each node it returns as normal, on the
interned node, and returns a marked node at once, so normalising a tree again
costs nothing. Equality of expressions is decided by seeded
randomized sampling (:func:`equal_numeric`), not by canonical-form rewriting.
"""

from __future__ import annotations

import math
import random
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, repeat, starmap
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


class _Interned(type):
    """Builds each node once: a call with the fields of a live node returns
    that node. The key is (type, fields), with a Fraction field as its
    integer pair, whose hash is cheap; children are compared by identity,
    which decides structural equality once every node is interned."""

    def __call__(cls, *fields, **named):
        if named:       # bound in field order; a name left over fails in the dataclass
            fields += tuple(named.pop(f) for f in cls.__match_args__[len(fields):] if f in named)
        key = (cls, *map(_scalar_key, fields))
        node = _INTERNED.get(key)
        if node is None or named:
            node = _INTERNED[key] = super().__call__(*fields, **named)
        return node


_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _scalar_key(f):
    return (f.numerator, f.denominator) if type(f) is Fraction else f


@dataclass(frozen=True, eq=False)
class Expr(metaclass=_Interned):
    """Base node. Subclasses define the tree shape; operators build new trees.

    ``simplify_basic`` sets ``_normal`` on each node it returns. It is not a
    field: the node's ``repr``, ``str`` and JSON do not show it, and it is
    freed with the node."""

    _normal = False

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


@dataclass(frozen=True, eq=False)
class Rat(Expr):
    value: Fraction

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True, eq=False)
class Sym(Expr):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class Sum(Expr):
    terms: tuple

    def __str__(self):
        return "(" + " + ".join(map(str, self.terms)) + ")"


@dataclass(frozen=True, eq=False)
class Prod(Expr):
    factors: tuple

    def __str__(self):
        return "(" + "*".join(map(str, self.factors)) + ")"


@dataclass(frozen=True, eq=False)
class Pow(Expr):
    base: Expr
    exponent: Fraction

    def __str__(self):
        return f"{self.base}^({self.exponent})"


@dataclass(frozen=True, eq=False)
class SinE(Expr):
    arg: Expr

    def __str__(self):
        return f"sin({self.arg})"


@dataclass(frozen=True, eq=False)
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
    const = ONE.value
    # by base, in first-seen order: the summed exponent, and the factor itself
    # while nothing is collected into it (it is kept as it is)
    exps: dict[Expr, tuple[Fraction, Expr | None]] = {}
    for f in factors:
        for s in (f.factors if type(f) is Prod else (f,)):
            if type(s) is Rat:
                if s.value == 0:
                    return ZERO
                const *= s.value
                continue
            # collect identical bases: x^a * x^b -> x^(a+b)
            base, exp = (s.base, s.exponent) if type(s) is Pow else (s, ONE.value)
            exps[base] = (exps[base][0] + exp, None) if base in exps else (exp, s)
    out = [_pow(b, x) if s is None else s for b, (x, s) in exps.items() if x != 0]
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


def _float(q: Fraction) -> float:
    try:
        return float(q)
    except OverflowError:
        raise DomainError("rational constant outside the float range") from None


# column rules: (node, _Block) -> column, the node's value at every point of
# the block, by the same float operations at each point. Taking the
# children's columns evaluates them first, so a block runs in the post-order
# of a left-to-right walk, and values and errors come out as in a recursive
# evaluation. A rule raises at a point where the operations fail, with an
# error that names the values there.

def _column_rat(e: Rat, block):
    return [_float(e.value)] * block.size


def _column_sym(e: Sym, block):
    try:
        values = block.drawn[e.name]
    except KeyError:
        raise UnboundSymbol(f"symbol {e.name!r} not assigned") from None
    return list(map(float, values))


def _column_app(e: App, block):
    fn = block.functions.lookup(e.name, len(e.args)).closure(e.deriv)
    args = list(map(block.__getitem__, e.args))
    out, error = [], "non-finite value from"
    try:        # on an exception, out keeps the values before the failing point
        out.extend(map(fn, *args) if args else starmap(fn, repeat((), block.size)))
    except ZeroDivisionError:
        error = "pole in"
    except OverflowError:       # a result too large for a float is not finite either
        pass
    else:
        if all(map(math.isfinite, out)):
            return out
        del out[list(map(math.isfinite, out)).index(False):]
    raise DomainError(f"{error} {e.name} at {[a[len(out)] for a in args]}")


def _column_sum(e: Sum, block):
    terms = list(map(block.__getitem__, e.terms))
    return list(map(sum, zip(*terms))) if terms else [0] * block.size     # sum([]) is 0


def _column_prod(e: Prod, block):
    factors = list(map(block.__getitem__, e.factors))
    out = [1.0] * block.size
    for f in factors:
        out = list(map(_times, out, f))
    return out


def _column_pow(e: Pow, block):
    base, q = block[e.base], e.exponent
    if q < 0:
        for b in compress(base, map(_ABS_POLE.__gt__, map(abs, base))):    # |b| < _ABS_POLE
            raise DomainError(f"pole: {e.base}^{q} at base {b}")
    if q.denominator != 1:
        for b in compress(base, map((0.0).__gt__, base)):                  # b < 0
            raise DomainError(f"negative base {b} under fractional power {q}")
    try:        # an exponent outside the float range fails as math.pow's conversion
        return list(map(math.pow, base, repeat(float(q))))
    except (OverflowError, ValueError) as exc:
        raise DomainError(str(exc)) from None


def _column_trig(e: SinE | CosE, block):
    arg, fn = block[e.arg], math.sin if type(e) is SinE else math.cos
    out = []
    try:        # on an exception, out keeps the values before the failing point
        out.extend(map(fn, arg))
    except ValueError:      # an infinite argument
        raise DomainError(f"{fn.__name__} of non-finite {arg[len(out)]}") from None
    return out


def _derivative_app(e: App, d: Callable[[Expr], Expr]) -> Expr:
    # chain rule: bump the multi-index in each slot whose argument moves
    terms = []
    for i, a in enumerate(e.args):
        da = d(a)
        if da != ZERO:
            bumped = e.deriv[:i] + (e.deriv[i] + 1,) + e.deriv[i + 1:]
            terms.append(_prod((App(e.name, e.args, bumped), da)))
    return _sum(terms)


class _Node(NamedTuple):
    children: Callable      # node -> tuple of its Expr children
    rebuild: Callable       # (node, normal children) -> normal node; normalises the top only
    column: Callable        # (node, _Block) -> the node's column of values
    derivative: Callable    # (node, child -> its derivative) -> normal tree


_NODES = _ByType({
    Rat: _Node(lambda e: (), lambda e, c: e, _column_rat, lambda e, d: ZERO),
    # the walk knows the coordinate it differentiates in; any other symbol's derivative is 0
    Sym: _Node(lambda e: (), lambda e, c: e, _column_sym, lambda e, d: ZERO),
    App: _Node(lambda e: e.args, lambda e, args: App(e.name, args, e.deriv), _column_app,
               _derivative_app),
    Sum: _Node(lambda e: e.terms, lambda e, terms: _sum(terms), _column_sum,
               lambda e, d: _sum(list(map(d, e.terms)))),
    Prod: _Node(lambda e: e.factors, lambda e, factors: _prod(factors), _column_prod,
                lambda e, d: _sum([_prod(e.factors[:i] + (d(f),) + e.factors[i + 1:])
                                   for i, f in enumerate(e.factors)])),
    Pow: _Node(lambda e: (e.base,), lambda e, c: _pow(*c, e.exponent), _column_pow,
               lambda e, d: _prod((Rat(e.exponent), _pow(e.base, e.exponent - 1), d(e.base)))),
    SinE: _Node(lambda e: (e.arg,), lambda e, c: _sin(*c),
                _column_trig, lambda e, d: _prod((_cos(e.arg), d(e.arg)))),
    CosE: _Node(lambda e: (e.arg,), lambda e, c: _cos(*c), _column_trig,
                lambda e, d: _prod((Rat(Fraction(-1)), _sin(e.arg), d(e.arg)))),
})


# ---------------------------------------------------------------------------
# walks

class _Walk(dict):
    """One walk over a tree: ``rule(node, child)`` runs once per distinct
    node that has no ``known`` result, where ``child`` gives the result of a
    child through this memo. Nodes are interned, so the memo is keyed by the
    node itself. A walk lives for one call: it refers to its rule and never
    to itself, and a rule refers to no walk, so reference counting frees the
    memo and every node only it holds when the call returns."""

    __slots__ = ("rule", "__weakref__")

    def __init__(self, rule: Callable[[Expr, Callable[[Expr], Expr]], Expr], known=()):
        super().__init__(known)
        self.rule = rule

    def __missing__(self, e: Expr) -> Expr:
        out = self[e] = self.rule(e, self.__getitem__)
        return out


def _map(e: Expr, f: Callable[[Expr], Expr]) -> Expr:
    """``e`` with ``f`` applied to each child, normalising only the new top."""
    node = _NODES[type(e)]
    return node.rebuild(e, tuple(map(f, node.children(e))))


def _normalize(e: Expr, child: Callable[[Expr], Expr]) -> Expr:
    """The rule of ``simplify_basic``: its result is marked normal, and a
    node marked normal is its own result."""
    if e._normal:
        return e
    # _map, inline: one frame less per level, so every tree the reader takes fits the stack here
    node = _NODES[type(e)]
    out = node.rebuild(e, tuple(map(child, node.children(e))))
    object.__setattr__(out, "_normal", True)
    return out


def simplify_basic(e: Expr) -> Expr:
    """Constant folding, 0/1 rules, flattening, collection of identical
    rational powers. Idempotent; never expands or rewrites beyond this list.
    Each distinct node is normalised once, and a tree that this has
    returned before is returned at once."""
    return e if e._normal else _Walk(_normalize)[e]


def differentiate(e: Expr, x: str) -> Expr:
    """Symbolic partial derivative of a normal tree in coordinate ``x``.

    Opaque applications differentiate by the chain rule, bumping the
    derivative multi-index in each argument slot.
    """
    return _Walk(lambda e, d: _NODES[type(e)].derivative(e, d), {Sym(x): ONE})[e]


def substitute(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Simultaneous substitution of coordinate symbols by normal trees."""
    return _Walk(_map, {Sym(k): _as_expr(v) for k, v in bindings.items()})[e]


def _visit(roots: Iterable[Expr], enter: Callable[[Expr], bool] = lambda e: True) -> _Walk:
    """Run ``enter`` once on each distinct node of ``roots``, going on into
    its children where it returns true; the walk's keys are the nodes visited."""
    def rule(e: Expr, child: Callable[[Expr], None]) -> None:
        if enter(e):        # children in a loop here, not in a helper: one frame per level
            for c in _NODES[type(e)].children(e):
                child(c)

    walk = _Walk(rule)
    for root in roots:
        walk[root]
    return walk


def free_symbols(e: Expr) -> set[str]:
    return {n.name for n in _visit((e,)) if type(n) is Sym}


def opaque_functions(e: Expr) -> set[tuple[str, int]]:
    """The (name, arity) of every opaque application in ``e``."""
    return {(n.name, len(n.args)) for n in _visit((e,)) if type(n) is App}


# ---------------------------------------------------------------------------
# evaluation

class OpaqueFunction:
    """Numeric closures for an opaque symbol, one per derivative multi-index,
    each built on first use by ``closure_factory(deriv)`` (None if there is none)."""

    def __init__(self, name: str, arity: int,
                 closure_factory: Callable[[tuple], Callable | None]):
        self.name, self.arity, self._factory, self._closures = name, arity, closure_factory, {}

    def closure(self, deriv: tuple) -> Callable:
        fn = self._closures.get(deriv) or self._factory(deriv)
        if fn is None:
            raise UnboundSymbol(f"no closure for {self.name}{deriv} (arity {self.arity})")
        self._closures[deriv] = fn
        return fn


class FunctionTable:
    """Registry of opaque functions keyed by (name, arity)."""

    def __init__(self, functions: Iterable[OpaqueFunction] = ()):
        self._by_key = {(f.name, f.arity): f for f in functions}

    def merged(self, other: "FunctionTable") -> "FunctionTable":
        return FunctionTable([*self._by_key.values(), *other._by_key.values()])

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


class _Block(dict):
    """The values of some roots at every point of a block: ``block[node]``
    is the node's column, a list with one value per point, computed on first
    use. Nodes are interned, so a subtree that occurs twice is one node and
    is evaluated once. ``drawn`` maps each coordinate to its column."""

    def __init__(self, functions: FunctionTable, drawn: Mapping[str, list], size: int):
        self.functions, self.drawn, self.size = functions, drawn, size

    def __missing__(self, e: Expr) -> list:
        c = self[e] = _NODES[type(e)].column(e, self)
        return c


def _check_constants(roots, functions: FunctionTable) -> None:
    """Raise DomainError if evaluating ``roots`` meets a rational constant
    outside the float range, before any point is evaluated. The arguments
    of an unregistered function are never evaluated, so they are skipped."""
    def enter(e: Expr) -> bool:
        if type(e) is Rat:
            _float(e.value)
        elif type(e) is App:
            try:
                functions.lookup(e.name, len(e.args)).closure(e.deriv)
            except UnboundSymbol:
                return False
        return True

    _visit(roots, enter)


def sampling_failure(roots: Iterable[Expr], spec: SampleSpec) -> str | None:
    """Why ``spec`` cannot sample ``roots``, or None: for the first root that fails, a
    rational constant outside the float range, else its first symbol without a box,
    else its first (name, arity) of an unregistered function, in sorted order. One
    walk visits all the roots: a node that an earlier root reached passed there."""
    unboxed, unknown = set(), set()     # stay empty while every root passes

    def enter(e: Expr) -> bool:
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


def evaluate(e: Expr, p: PointAssignment) -> float:
    """IEEE evaluation of ``e`` at ``p``, as a block of one point. Raises
    UnboundSymbol for an unassigned symbol or an unregistered function, and
    DomainError for a constant outside the float range, at a pole, a
    negative base under a fractional power or a non-finite value."""
    _check_constants((e,), p.functions)
    return _Block(p.functions, {name: [v] for name, v in p.values.items()}, 1)[e][0]


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
        if not self.names:
            raise ValueError("a chart needs at least the fiber coordinate")
        if not self.periodic[0]:
            raise ValueError("the dualized (index 0) coordinate must be periodic")

    @property
    def dim(self) -> int:
        return len(self.names)

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
        return SampleSpec({**self.boxes, **other.boxes}, self.functions.merged(other.functions))

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
_SHARED = 8 * _BLOCK    # the most trials of a check that shares the blocks of a _Blocks source


class _Blocks(dict):
    """The blocks of points of one check's ``key`` = (spec, trials, seed), keyed by the index
    of their first point and drawn in order, on demand, from one ``Random(seed)``."""

    def __init__(self, spec: SampleSpec, trials: int, seed: int):
        self.key, self.rng = (spec, trials, seed), random.Random(seed)

    def __missing__(self, i: int) -> _Block:
        spec, trials, _ = self.key
        n = min(_BLOCK, trials - i)
        return self.setdefault(i, _Block(spec.functions, _draw_columns(spec.boxes, self.rng, n), n))


def equal_numeric(a: Expr, b: Expr, spec: SampleSpec,
                  trials: int = DEFAULT_TRIALS, tol: float = DEFAULT_TOL,
                  seed: int = DEFAULT_SEED, *, _blocks: _Blocks | None = None) -> EqualityReport:
    """Seeded randomized equality: true iff at every sampled point
    ``|a-b| <= tol * max(1, |a|, |b|)``.

    Domain errors, and points where a side is infinite or NaN, are counted
    and the point resampled, up to a retry bound per trial; exhausting
    retries raises DomainError, as does a constant outside the float range.
    ``trials`` below 1, or a ``tol`` that is not a finite number >= 0,
    raises ValueError.

    Both sides are evaluated over blocks of up to ``_BLOCK`` points drawn
    at once from one ``Random(seed)`` stream, or lent with their columns by
    ``_blocks``, a ``_Blocks`` source made for this spec object, trials and seed.
    From the first block that meets any error or non-finite value on, the
    check goes on one point at a time, starting again at that block's first
    point; only these blocks of one point retry, count domain errors and
    raise. Every point gets the same float operations either way, so the
    report is that of evaluating the points one at a time.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    shared = (_blocks is not None and _blocks.key[0] is spec     # the same spec, boxes in order
              and _blocks.key[1:] == (trials, seed) and trials <= _SHARED)
    rng, one_by_one = random.Random(seed), False
    done = attempt = domain_errors = 0
    while done < trials:
        n = 1 if one_by_one else min(_BLOCK, trials - done)
        block = (_blocks[done] if shared
                 else _Block(spec.functions, _draw_columns(spec.boxes, rng, n), n))
        try:
            ca, cb = block[a], block[b]
            if not (all(map(math.isfinite, ca)) and all(map(math.isfinite, cb))):
                raise DomainError(f"non-finite sample value {ca[0]} vs {cb[0]}")
        except Exception as exc:
            if not one_by_one:      # the first error: redraw this block's points one at a time
                _check_constants((a, b), spec.functions)
                one_by_one, shared, rng = True, False, random.Random(seed)
                _draw_columns(spec.boxes, rng, done)        # the draws of the points checked
                continue
            if not isinstance(exc, DomainError) or attempt == _RETRY_BOUND:
                raise
            domain_errors, attempt = domain_errors + 1, attempt + 1
            continue
        attempt = 0
        if ca is not cb:    # one column for both sides passes at every finite point
            for t, (va, vb) in enumerate(zip(ca, cb)):
                if abs(va - vb) > tol * max(1.0, abs(va), abs(vb)):
                    point = {name: column[t] for name, column in block.drawn.items()}
                    return EqualityReport(False, trials, Witness(point, va, vb), domain_errors)
        done += n
    return EqualityReport(True, trials, None, domain_errors)


# ---------------------------------------------------------------------------
# canonical JSON serialization: one node memo per document in each direction

MAX_DERIV_ORDER = 32    # largest derivative order that expr_from_json accepts
MAX_DEPTH = 256         # deepest node, the root at depth 0, that expr_from_json accepts


def _typed(kind: type, v):
    if type(v) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {v!r:.40}")
    return v


def _pair(v) -> tuple[int, int]:
    if type(v) is not list or len(v) != 2 or v[1] == 0:
        raise TypeError(f"expected [numerator, nonzero denominator], got {v!r:.40}")
    return _typed(int, v[0]), _typed(int, v[1])


def _order(v) -> int:
    if _typed(int, v) > MAX_DERIV_ORDER:
        raise TypeError(f"derivative order {v} exceeds {MAX_DERIV_ORDER}")
    return v


# writers by node type: (node, memo) -> its dict, each child's through _dump
_DUMP = _ByType({
    Rat: lambda e, m: {"k": "rat", "v": [e.value.numerator, e.value.denominator]},
    Sym: lambda e, m: {"k": "sym", "name": e.name},
    App: lambda e, m: {"k": "app", "name": e.name, "deriv": list(e.deriv),
                       "args": list(map(_dump, e.args, repeat(m)))},
    Sum: lambda e, m: {"k": "sum", "terms": list(map(_dump, e.terms, repeat(m)))},
    Prod: lambda e, m: {"k": "prod", "factors": list(map(_dump, e.factors, repeat(m)))},
    Pow: lambda e, m: {"k": "pow", "base": _dump(e.base, m),
                       "exp": [e.exponent.numerator, e.exponent.denominator]},
    SinE: lambda e, m: {"k": "sin", "arg": _dump(e.arg, m)},
    CosE: lambda e, m: {"k": "cos", "arg": _dump(e.arg, m)},
})
# readers by JSON kind: (build, fields); fields(obj, memo, children's depth) checks the
# node's fields in JSON order, reading children through _read, and build(*fields) makes it
_READ = {
    "rat": (lambda p, q: Rat(Fraction(p, q)), lambda o, m, d: _pair(o["v"])),
    "sym": (Sym, lambda o, m, d: (_typed(str, o["name"]),)),
    "app": (lambda name, deriv, args: App(name, args, deriv),
            lambda o, m, d: (_typed(str, o["name"]), tuple(map(_order, _typed(list, o["deriv"]))),
                             tuple(map(_read, _typed(list, o["args"]), repeat(m), repeat(d))))),
    "sum": (Sum, lambda o, m, d: (
        tuple(map(_read, _typed(list, o["terms"]), repeat(m), repeat(d))),)),
    "prod": (Prod, lambda o, m, d: (
        tuple(map(_read, _typed(list, o["factors"]), repeat(m), repeat(d))),)),
    "pow": (lambda base, p, q: Pow(base, Fraction(p, q)),
            lambda o, m, d: (_read(o["base"], m, d), *_pair(o["exp"]))),
    "sin": (SinE, lambda o, m, d: (_read(o["arg"], m, d),)),
    "cos": (CosE, lambda o, m, d: (_read(o["arg"], m, d),)),
}


def _dump(e: Expr, memo: dict) -> dict:
    if e not in memo:
        memo[e] = _DUMP[type(e)](e, memo)
    return memo[e]


def _read(obj, memo: dict, depth: int) -> Expr:
    if depth > MAX_DEPTH:
        raise ValueError("input nested too deeply")
    try:
        build, fields = _READ[obj["k"]]
        key = build, fields(obj, memo, depth + 1)
        node = memo.get(key)
        if node is None:        # the first node of this kind, these fields and these children
            node = memo[key] = build(*key[1])
        return node
    except (KeyError, TypeError) as exc:
        missing = type(exc) is KeyError and ("k" not in obj or obj["k"] in _READ)
        why = f"missing field {exc.args[0]!r}" if missing else exc    # else an unknown kind
        raise ValueError(f"malformed expression node {obj!r:.80}: {why}") from None


def expr_to_json(e: Expr, _memo: dict | None = None) -> dict:
    """``e`` as JSON: one dict per distinct node, shared where it recurs and by the calls
    that pass one ``_memo`` (the entries of one document); never mutate the dicts."""
    return _dump(e, {} if _memo is None else _memo)


def expr_from_json(obj, _memo: dict | None = None) -> Expr:
    """The raw tree that ``obj`` encodes, each distinct node built once per call or per
    ``_memo``; ``simplify_basic`` makes it normal. Raises ValueError on an unknown kind,
    a missing or malformed field, or a node nested deeper than ``MAX_DEPTH``."""
    return _read(obj, {} if _memo is None else _memo, 0)
