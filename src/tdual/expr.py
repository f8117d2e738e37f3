"""Exact symbolic expression trees over named coordinates and opaque functions.

Nodes are immutable and hash-consed: every construction goes through one
function, ``_node``, which looks its key, the type and the fields, up in one
table of weak references, so structurally equal trees are one object, and
equality and hashing are identity. A class call checks its fields and builds
the key; the normalisers pass the key they hold. A missing node is made
without the dataclass ``__init__``, and a dead node's reference drops its own
entry. Rational constants are stored exactly as ``fractions.Fraction``; a sum
or a product folds its constants on integer numerators and denominators into
one ``Fraction``; a fold whose result, estimated from its operands' bit
lengths, would pass ``MAX_FOLD_BITS`` raises DomainError. Opaque function
applications carry a name, an argument tuple and a derivative multi-index, so
a function and its partial derivatives coexist in one tree without committing
to a formula. Numeric evaluation resolves opaque applications through closures
registered per (name, arity) in a :class:`FunctionTable`. There is one
evaluator and nothing is compiled: a block evaluates each node of some roots
once over its points, as one column of values; a product's column starts from
its first factor's and takes each rational factor as one float, which the
constant's node keeps from its first read. ``evaluate``
is a block of one point; ``equal_numeric`` runs one loop over blocks of
sampled points, lent with their column memos to the components of one metric
check, and goes on point by point from the first block that meets an error.

One table, ``_NODES``, describes each node type once. Every walk, a rewrite, a scan
or a block's columns, is one loop over ``_plan``, the distinct nodes of some roots
in the post-order of a left-to-right recursive walk, built on an explicit stack: the
loop sets ``memo[e] = rule(e, memo.__getitem__)``, and the memo is freed when the
call returns. The JSON codec reads and writes each distinct node of a document once:
one writer per node kind builds a node table, whose children are indices of earlier
entries. One reader, with a branch per node kind and one for an index, takes a table
or a single tree, checks each field where it reads it and refuses nesting or index
chains deeper than ``MAX_DEPTH``. Only the reader recurses, a frame per level; every
later walk takes a few frames at any depth. A metric's entries may have
``MAX_NODES`` nodes counted at every use, which the reader counts as it reads.

Normal form: ``simplify_basic`` only performs constant folding, 0/1 rules,
flattening of nested sums and products, and collection of identical rational
powers; simplifying its result again changes nothing. ``add``, ``mul``,
``pow_``, ``sin_`` and ``cos_`` take normal children and normalise only the
node they build; ``differentiate`` and ``substitute`` build through them, so
given normal trees they all return normal trees without a second walk.
``simplify_basic`` is the one entry for raw trees: nodes built directly, or
read by ``expr_from_json``. It returns a node marked normal at once. Constants
and symbols are marked by their class; ``_node`` marks a sum, product or power
that a normaliser makes from marked children, so the operators mark a tree of
these as they make it; and ``simplify_basic`` marks each node it returns. So
normalising such a tree, or any tree a second time, costs nothing. Equality of
expressions is decided by seeded randomized sampling (:func:`equal_numeric`),
not by canonical-form rewriting.
"""

from __future__ import annotations

import math
import random
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count, repeat, starmap
from operator import attrgetter, gt as _gt, mul as _times, sub as _minus
from typing import Callable, Iterable, Mapping, NamedTuple

from . import DEFAULT_SEED, DEFAULT_TOL, DEFAULT_TRIALS


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
    that node. The key is ``(type, *fields)``, with a trailing Fraction field
    as its numerator and denominator, whose hash is cheap; children are
    compared by identity, which decides structural equality once every node
    is interned. ``_node`` looks the key up, or makes the node by ``__new__``,
    sets its fields in order by ``object.__setattr__`` and has ``App`` check
    its multi-index; the dataclass ``__init__`` runs only for a call with the
    wrong fields, to raise its TypeError. The table holds a weak reference to
    each node, which carries the node's key for ``_forget``."""

    def __call__(cls, *fields, **named):
        names = cls.__match_args__
        if named and named.keys() == set(names[len(fields):]):     # the fields left, by name
            fields += tuple(map(named.__getitem__, names[len(fields):]))
        elif named or len(fields) != len(names):
            return super().__call__(*fields, **named)
        q = fields[-1] if fields else None
        return _node(cls, (cls, *fields[:-1], q.numerator, q.denominator) if type(q) is Fraction
                     else (cls, *fields), fields)


def _node(cls, key: tuple, fields: tuple, given=None) -> "Expr":
    """The live node of ``key``, or a new one with ``fields``: every construction calls this,
    a class call with the key of the fields it checked, a normaliser with the key it holds
    and the children it was ``given``, which mark a new node normal if all are marked."""
    ref = _INTERNED.get(key)
    node = ref and ref()
    if node is None:
        node = cls.__new__(cls)
        for name, value in zip(cls.__match_args__, fields):     # __dict__ would give each node a dict
            object.__setattr__(node, name, value)
        if cls is App:
            node.__post_init__()
        elif given is not None and all(map(_IS_NORMAL, given)):
            object.__setattr__(node, "_normal", True)
        ref = _INTERNED[key] = _Ref(node, _forget)
        ref.key = key
    return node


class _Ref(weakref.ref):
    """A weak reference to an interned node that carries the node's key."""

    __slots__ = ("key",)


# the intern table: key -> weak reference to the live node of that key
_INTERNED: dict = {}
_IS_NORMAL = attrgetter("_normal")


def _forget(ref: _Ref, table: dict = _INTERNED) -> None:
    """Drop a dead node's entry, unless the key's entry is already a newer
    node's; the table is bound here, so this runs at interpreter exit too."""
    if table.get(ref.key) is ref:
        del table[ref.key]


@dataclass(frozen=True, eq=False)
class Expr(metaclass=_Interned):
    """Base node. Subclasses define the tree shape; operators build new trees.

    ``_normal`` marks a node as normal: ``Rat`` and ``Sym`` by their class, other
    nodes as the module docstring says. It is not a field: the node's ``repr``,
    ``str`` and JSON do not show it, and it is freed with the node."""

    _normal = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._normal = vars(cls).get("_normal", False)    # no subclass inherits the mark

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

    def __str__(self):
        return _walk(lambda e, text: _NODES[type(e)].text(e, text), (self,))[self]

    def __repr__(self):
        """Each distinct node once, in ``_plan`` order, as its dataclass repr with a child shown
        as ``#k``, its index: ``[#0 Sym(name='x'), #1 Sum(terms=(#0, #0))]``, or
        ``Sym(name='x')`` for a node without children."""
        index = {}

        def text(v):    # a field's repr, each node in it shown by its index
            return (f"({', '.join(map(text, v))}{',' * (len(v) == 1)})" if type(v) is tuple
                    else f"#{index[v]}" if isinstance(v, Expr) else repr(v))
        rows = [f"#{index.setdefault(e, k)} {type(e).__qualname__}(" + ", ".join(
            f"{name}={text(getattr(e, name))}" for name in e.__match_args__) + ")"
            for k, e in enumerate(_plan((self,)))]
        return rows[0].partition(" ")[2] if len(rows) == 1 else "[" + ", ".join(rows) + "]"


@dataclass(frozen=True, eq=False, repr=False)
class Rat(Expr):
    value: Fraction
    _normal = True
    _as_float = None    # the value's float, set by its first read through _float


@dataclass(frozen=True, eq=False, repr=False)
class Sym(Expr):
    name: str
    _normal = True


@dataclass(frozen=True, eq=False, repr=False)
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


@dataclass(frozen=True, eq=False, repr=False)
class Sum(Expr):
    terms: tuple


@dataclass(frozen=True, eq=False, repr=False)
class Prod(Expr):
    factors: tuple


@dataclass(frozen=True, eq=False, repr=False)
class Pow(Expr):
    base: Expr
    exponent: Fraction


@dataclass(frozen=True, eq=False, repr=False)
class SinE(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False, repr=False)
class CosE(Expr):
    arg: Expr


ZERO = Rat(Fraction(0))
ONE = Rat(Fraction(1))


def rat(n, d=1) -> Rat:
    return Rat(Fraction(n, d))


def sym(name: str) -> Sym:
    return Sym(name)


def app(name: str, args: Iterable[Expr]) -> App:
    args = tuple(_as_expr(a) for a in args)
    return App(name, args, (0,) * len(args))


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

MAX_FOLD_BITS = 2 ** 16     # most bits of a folded constant, as estimated before the arithmetic


def _check_fold(bits: int, *qs: Fraction) -> None:
    """Raise DomainError if ``bits`` and the bit lengths of ``qs`` add up past MAX_FOLD_BITS."""
    for q in qs:        # a loop, not sum() of a generator: this runs on every collected power
        bits += q.numerator.bit_length() + q.denominator.bit_length()
    if bits > MAX_FOLD_BITS:
        raise DomainError(f"folding constants to about {bits} bits passes {MAX_FOLD_BITS} bits")


def _sin(a: Expr) -> Expr:
    return ZERO if a is ZERO else SinE(a)


def _cos(a: Expr) -> Expr:
    return ONE if a is ZERO else CosE(a)


def _pow(base: Expr, exponent: Fraction) -> Expr:
    p, q = exponent.numerator, exponent.denominator
    if not p:
        return ONE
    if p == q:
        return base
    if type(base) is Rat and q == 1:
        n, d = base.value.numerator, base.value.denominator
        if not n and p < 0:
            raise DomainError("0 raised to a negative power")
        # n^|p| and d^|p| have at least |p| (bit_length - 1) bits each: 0, 1 and -1 fold at any p
        _check_fold(abs(p) * (abs(n).bit_length() + d.bit_length() - 2))
        q = base.value ** p
        return _node(Rat, (Rat, q.numerator, q.denominator), (q,))
    if type(base) is Pow:
        _check_fold(0, base.exponent, exponent)
        return _pow(base.base, base.exponent * exponent)
    return _node(Pow, (Pow, base, p, q), (base, exponent), (base,))


def _sum(terms) -> Expr:
    out, rats = [], []
    for t in terms:
        for s in (t.terms if type(t) is Sum else (t,)):
            (rats if type(s) is Rat else out).append(s)
    if len(rats) > 1:       # fold on integers: the constant n/d, reduced once
        # d is the product of the denominators, n below the largest numerator times d times k
        _check_fold(max(r.value.numerator.bit_length() for r in rats)
                    + 2 * sum(r.value.denominator.bit_length() for r in rats))
        n, d = 0, 1
        for r in rats:
            q = r.value
            n, d = n * q.denominator + q.numerator * d, d * q.denominator
        q = Fraction(n, d)
        rats = [_node(Rat, (Rat, q.numerator, q.denominator), (q,))]
    if rats and rats[0].value.numerator:
        out.append(rats[0])
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out = tuple(out)
    return _node(Sum, (Sum, out), (out,), terms)


def _exponent(f: Expr) -> Fraction:
    """The exponent that the factor ``f`` puts on its base."""
    return f.exponent if type(f) is Pow else ONE.value


def _prod(factors) -> Expr:
    rats = []
    kept: dict[Expr, Expr] = {}     # by base, in first-seen order: its first factor
    summed: dict[Expr, Fraction] = {}   # a base that repeats: its summed exponent
    for f in factors:
        for s in (f.factors if type(f) is Prod else (f,)):
            if type(s) is Rat:
                if not s.value.numerator:
                    return ZERO
                rats.append(s)
                continue
            # collect identical bases: x^a * x^b -> x^(a+b)
            base = s.base if type(s) is Pow else s
            if base in kept:
                a, b = summed.get(base, _exponent(kept[base])), _exponent(s)
                _check_fold(0, a, b)
                summed[base] = a + b
            else:
                kept[base] = s
    if len(rats) > 1:       # fold on integers: the constant n/d, reduced once
        _check_fold(0, *[r.value for r in rats])
        n = d = 1
        for r in rats:
            q = r.value
            n, d = n * q.numerator, d * q.denominator
        q = Fraction(n, d)
        rats = [_node(Rat, (Rat, q.numerator, q.denominator), (q,))]
    if not summed:
        out = list(kept.values())
    else:
        out = [s if b not in summed else _pow(b, summed[b])
               for b, s in kept.items() if summed.get(b, 1)]
        # a collected power can come out rational (2^(1/2)*2^(1/2)) or a product
        # ((x*y)^2*(x*y)^-1): fold and flatten it too, or the result is not normal
        if any(type(f) is Rat or type(f) is Prod for f in out):
            return _prod([*rats, *out])
    if rats and rats[0].value.numerator != rats[0].value.denominator:     # not 1
        out.insert(0, rats[0])
    if not out:
        return ONE
    if len(out) == 1:
        return out[0]
    out = tuple(out)
    return _node(Prod, (Prod, out), (out,), factors)


# ---------------------------------------------------------------------------
# the node table

class _ByType(dict):
    """A table keyed by node type; a type missing from it is not a node."""

    def __missing__(self, cls):
        raise TypeError(f"unknown node {cls.__name__}")


def _float(e: Rat) -> float:
    """The constant's float, kept on the node; DomainError at each read outside the float range."""
    if e._as_float is None:
        try:
            object.__setattr__(e, "_as_float", float(e.value))
        except OverflowError:
            raise DomainError("rational constant outside the float range") from None
    return e._as_float


# column rules: (node, _Block) -> column, the node's value at every point of
# the block, by the same float operations at each point. A block runs them in
# the order of an evaluation plan, where each child's column is there before
# its parent's rule runs, so values and errors come out as in a recursive
# evaluation. A rule raises at a point where the operations fail, with an
# error that names the values there.
_FLOAT_COLUMNS = frozenset({Sym, Pow, SinE, CosE})     # node types whose columns hold floats only


def _column_rat(e: Rat, block):
    return [_float(e)] * block.size


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
    # 1.0 * f1 * f2 * ... left to right, each constant one float, no column before the first
    # other factor; 1.0 * x is x for a float x, not for the int an opaque function may return
    out = 1.0
    for f in e.factors:
        if type(f) is Rat:
            c = _float(f)
            out = out * c if type(out) is float else list(map(_times, out, repeat(c)))
        elif type(out) is not float:
            out = list(map(_times, out, block[f]))
        elif out == 1.0 and type(f) in _FLOAT_COLUMNS:
            out = block[f]
        else:
            out = list(map(_times, repeat(out), block[f]))
    return [out] * block.size if type(out) is float else out


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
    text: Callable          # (node, child -> its text) -> the node's text


_NODES = _ByType({
    Rat: _Node(lambda e: (), lambda e, c: e, _column_rat, lambda e, d: ZERO,
               lambda e, t: str(e.value)),
    # the walk knows the coordinate it differentiates in; any other symbol's derivative is 0
    Sym: _Node(lambda e: (), lambda e, c: e, _column_sym, lambda e, d: ZERO, lambda e, t: e.name),
    App: _Node(lambda e: e.args, lambda e, args: App(e.name, args, e.deriv), _column_app,
               _derivative_app, lambda e, t: "{}{}({})".format(
                   e.name, "^(" + ",".join(map(str, e.deriv)) + ")" if any(e.deriv) else "",
                   ", ".join(map(t, e.args)))),
    Sum: _Node(lambda e: e.terms, lambda e, terms: _sum(terms), _column_sum,
               lambda e, d: _sum(list(map(d, e.terms))),
               lambda e, t: "(" + " + ".join(map(t, e.terms)) + ")"),
    Prod: _Node(lambda e: e.factors, lambda e, factors: _prod(factors), _column_prod,
                lambda e, d: _sum([_prod(e.factors[:i] + (df,) + e.factors[i + 1:])
                                   for i, f in enumerate(e.factors) if (df := d(f)) is not ZERO]),
                lambda e, t: "(" + "*".join(map(t, e.factors)) + ")"),
    Pow: _Node(lambda e: (e.base,), lambda e, c: _pow(*c, e.exponent), _column_pow,
               lambda e, d: ZERO if (db := d(e.base)) is ZERO
               else _prod((Rat(e.exponent), _pow(e.base, e.exponent - 1), db)),
               lambda e, t: f"{t(e.base)}^({e.exponent})"),
    SinE: _Node(lambda e: (e.arg,), lambda e, c: _sin(*c), _column_trig,
                lambda e, d: ZERO if (da := d(e.arg)) is ZERO else _prod((_cos(e.arg), da)),
                lambda e, t: f"sin({t(e.arg)})"),
    CosE: _Node(lambda e: (e.arg,), lambda e, c: _cos(*c), _column_trig,
                lambda e, d: ZERO if (da := d(e.arg)) is ZERO
                else _prod((Rat(Fraction(-1)), _sin(e.arg), da)), lambda e, t: f"cos({t(e.arg)})"),
})


# ---------------------------------------------------------------------------
# walks

def _plan(roots: Iterable[Expr], descend: Callable[[Expr], bool] | None = None,
          seen: set | None = None) -> list:
    """Each distinct node of ``roots`` not in ``seen``, added to it, children first in the
    post-order of a left-to-right recursive walk. ``descend(e)``, if given, runs when the walk
    first reaches ``e``, in pre-order, and decides whether it enters ``e``'s children. A stack
    of child iterators stands in for the call stack, so no tree is too deep for it."""
    seen = set() if seen is None else seen
    out, path, stack = [], [], [iter(roots)]    # path: the node of each iterator but the first
    while stack:
        for e in stack[-1]:
            if e not in seen:
                seen.add(e)
                if descend is None or descend(e):
                    children = _NODES[type(e)].children(e)
                    if children:
                        path.append(e)
                        stack.append(iter(children))
                        break
                out.append(e)       # a node whose children the walk does not enter
        else:
            stack.pop()
            if path:
                out.append(path.pop())
    return out


def _walk(rule: Callable[[Expr, Callable[[Expr], object]], object], roots: Iterable[Expr],
          known=(), descend: Callable[[Expr], bool] | None = None) -> dict:
    """The memo of one walk: ``memo[e] = rule(e, memo.__getitem__)`` for each distinct node
    of ``roots`` without a ``known`` result, children first. The memo refers to no rule, so
    reference counting frees it, and the nodes only it holds, once the caller drops it."""
    memo = dict(known)
    child = memo.__getitem__
    for e in _plan(roots, descend, set(memo)):
        memo[e] = rule(e, child)
    return memo


def _map(e: Expr, f: Callable[[Expr], Expr]) -> Expr:
    """``e`` with ``f`` applied to each child, normalising only the new top;
    ``e`` itself if no child changed, which is what a normal ``e`` rebuilds to."""
    node = _NODES[type(e)]
    children = node.children(e)
    mapped = tuple(map(f, children))
    return e if mapped == children else node.rebuild(e, mapped)


def _normalize(e: Expr, child: Callable[[Expr], Expr]) -> Expr:
    """The rule of ``simplify_basic``: its result is marked normal, and a
    node marked normal is its own result."""
    if e._normal:
        return e
    node = _NODES[type(e)]
    out = node.rebuild(e, tuple(map(child, node.children(e))))
    object.__setattr__(out, "_normal", True)
    return out


def simplify_basic(e: Expr) -> Expr:
    """Constant folding, 0/1 rules, flattening, collection of identical
    rational powers. Idempotent; never expands or rewrites beyond this list.
    Each distinct node is normalised once, and a node marked normal, as
    this marks each node it returns, is returned at once and not entered."""
    return e if e._normal else _walk(_normalize, (e,), descend=lambda e: not e._normal)[e]


def differentiate(e: Expr, x: str) -> Expr:
    """Symbolic partial derivative of a normal tree in coordinate ``x``.

    Opaque applications differentiate by the chain rule, bumping the
    derivative multi-index in each argument slot. Every rule builds nothing
    for a child whose derivative is ZERO: the product it would build is
    ZERO, which the sum around it drops, so the result is the same node.
    """
    return _walk(lambda e, d: _NODES[type(e)].derivative(e, d), (e,), {Sym(x): ONE})[e]


def substitute(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Simultaneous substitution of coordinate symbols by normal trees, in
    a normal tree. A node none of whose children changes is returned as it
    is: rebuilding a normal node from its own children gives the node."""
    return _walk(_map, (e,), {Sym(k): _as_expr(v) for k, v in bindings.items()})[e]


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
    """The values of some nodes at every point of a block: ``block[node]`` is the node's
    column, one value per point, computed by ``run``; a subtree that occurs twice is one
    node, evaluated once. ``drawn`` maps each coordinate to its column."""

    def __init__(self, functions: FunctionTable, drawn: Mapping[str, list], size: int):
        self.functions, self.drawn, self.size = functions, drawn, size

    def plan(self, roots: Iterable[Expr]) -> list:
        """The plan of the columns of ``roots``; DomainError at a constant outside the float
        range. It enters no node this block holds, nor an unregistered function's arguments:
        its column raises before them, where a recursive evaluation looks up the closure."""
        def enter(e: Expr) -> bool:
            if e in self:
                return False
            if type(e) is Rat:
                _float(e)
            elif type(e) is App:
                try:
                    self.functions.lookup(e.name, len(e.args)).closure(e.deriv)
                except UnboundSymbol:
                    return False
            return True

        return _plan(roots, enter)

    def run(self, plan: list) -> None:
        """Compute the column of each node of ``plan`` that this block does not hold, in order."""
        for e in plan:
            if e not in self:
                self[e] = _NODES[type(e)].column(e, self)


def sampling_failure(roots: Iterable[Expr], spec: SampleSpec) -> str | None:
    """Why ``spec`` cannot sample ``roots``, or None: for the first root that fails, a
    rational constant outside the float range, else its first symbol without a box,
    else its first (name, arity) of an unregistered function, in sorted order. One
    walk visits all the roots: a node that an earlier root reached passed there."""
    unboxed, unknown, seen = set(), set(), set()    # the first two stay empty while roots pass

    def enter(e: Expr) -> bool:
        if type(e) is Rat:
            _float(e)
        elif type(e) is Sym and e.name not in spec.boxes:
            unboxed.add(e.name)
        elif type(e) is App and (e.name, len(e.args)) not in spec.functions._by_key:
            unknown.add((e.name, len(e.args)))
        return True

    for root in roots:
        try:
            _plan((root,), enter, seen)
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
    block = _Block(p.functions, {name: [v] for name, v in p.values.items()}, 1)
    block.run(block.plan((e,)))
    return block[e][0]


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


@dataclass
class SampleSpec:
    """Sampling boxes per symbol, avoiding declared singular loci by margin.

    Boxes are closed intervals. The margin is baked into the boxes by the
    caller; this class only draws uniform samples and builds assignments.
    """

    boxes: dict
    functions: FunctionTable = field(default_factory=FunctionTable)

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

    Both sides are evaluated over blocks of up to ``_BLOCK`` points drawn at
    once from one ``Random(seed)`` stream, made only then, or lent with their
    columns by ``_blocks``, a ``_Blocks`` source made for this spec object,
    trials and seed. From the first block that meets any error or non-finite
    value on, the check goes on one point at a time, starting again at that
    block's first point; only these blocks of one point retry, count domain
    errors and raise. Every point gets the same float operations either way,
    so the report is that of evaluating the points one at a time.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    shared = (_blocks is not None and _blocks.key[0] is spec     # the same spec, boxes in order
              and _blocks.key[1:] == (trials, seed) and trials <= _SHARED)
    rng, one_by_one, plan = None if shared else random.Random(seed), False, None
    done = attempt = domain_errors = 0
    while done < trials:
        n = 1 if one_by_one else min(_BLOCK, trials - done)
        block = (_blocks[done] if shared
                 else _Block(spec.functions, _draw_columns(spec.boxes, rng, n), n))
        if plan is None or shared:      # one plan for the check's own blocks
            plan = block.plan((a, b))   # a shared block's skips the columns it holds
        try:
            block.run(plan)
            ca, cb = block[a], block[b]
            if not (all(map(math.isfinite, ca)) and all(map(math.isfinite, cb))):
                raise DomainError(f"non-finite sample value {ca[0]} vs {cb[0]}")
        except Exception as exc:
            if not one_by_one:      # the first error: redraw this block's points one at a time
                one_by_one, shared, plan, rng = True, False, None, random.Random(seed)
                _draw_columns(spec.boxes, rng, done)        # the draws of the points checked
                continue
            if not isinstance(exc, DomainError) or attempt == _RETRY_BOUND:
                raise
            domain_errors, attempt = domain_errors + 1, attempt + 1
            continue
        attempt = 0
        if ca is not cb:    # one column for both sides passes at every finite point
            # abs(va - vb) > tol * max(1.0, abs(va), abs(vb)) at each point, in C
            failing = map(_gt, map(abs, map(_minus, ca, cb)), map(_times, repeat(tol), map(
                max, repeat(1.0), map(abs, ca), map(abs, cb))))
            for t in compress(count(), failing):
                point = {name: column[t] for name, column in block.drawn.items()}
                return EqualityReport(False, trials, Witness(point, ca[t], cb[t]), domain_errors)
        done += n
    return EqualityReport(True, trials, None, domain_errors)


# ---------------------------------------------------------------------------
# canonical JSON serialization: one node memo per document in each direction

MAX_DERIV_ORDER = 32    # largest derivative order that expr_from_json accepts
MAX_DEPTH = 256         # deepest node, the root at depth 0, that expr_from_json accepts
MAX_NODES = 100_000     # most nodes, each counted at every use, of a metric's entries


def _expected(kind: type, v) -> TypeError:
    return TypeError(f"expected {kind.__name__}, got {v!r:.40}")


# writers by node type: (node, child -> its table index) -> the node's dict
_DUMP = _ByType({
    Rat: lambda e, c: {"k": "rat", "v": [e.value.numerator, e.value.denominator]},
    Sym: lambda e, c: {"k": "sym", "name": e.name},
    App: lambda e, c: {"k": "app", "name": e.name, "deriv": list(e.deriv),
                       "args": list(map(c, e.args))},
    Sum: lambda e, c: {"k": "sum", "terms": list(map(c, e.terms))},
    Prod: lambda e, c: {"k": "prod", "factors": list(map(c, e.factors))},
    Pow: lambda e, c: {"k": "pow", "base": c(e.base),
                       "exp": [e.exponent.numerator, e.exponent.denominator]},
    SinE: lambda e, c: {"k": "sin", "arg": c(e.arg)},
    CosE: lambda e, c: {"k": "cos", "arg": c(e.arg)},
})
# node types by JSON kind
_KINDS = {"rat": Rat, "sym": Sym, "app": App, "sum": Sum, "prod": Prod, "pow": Pow,
          "sin": SinE, "cos": CosE}


def _read(obj, memo: dict, depth: int) -> Expr:
    """The node ``obj`` encodes: its fields are checked in JSON order, children
    read at the next depth, and the memo key is ``(type, *fields)``, with a
    rational as its integer pair as written; a key met before gives its node.
    An ``int`` is the index of a node table entry read before, which the memo
    maps to its node; the memo maps each node it built to its height and use count."""
    if type(obj) is int:
        if obj not in memo:
            raise ValueError(f"node reference {obj} is to no earlier table entry")
        node = memo[obj]
        if depth + memo[node][0] > MAX_DEPTH:
            raise ValueError("input nested too deeply")
        return node
    if depth > MAX_DEPTH:
        raise ValueError("input nested too deeply")
    depth += 1
    try:
        cls = _KINDS[obj["k"]]
        if cls is Rat or cls is Pow:
            if cls is Rat:
                key, v = (Rat,), obj["v"]
            else:
                key = Pow, _read(obj["base"], memo, depth)
                v = obj["exp"]
            if type(v) is not list or len(v) != 2 or v[1] == 0:
                raise TypeError(f"expected [numerator, nonzero denominator], got {v!r:.40}")
            p, q = v
            if type(p) is not int:
                raise _expected(int, p)
            if type(q) is not int:
                raise _expected(int, q)
            key += p, q
        elif cls is Sum or cls is Prod:
            children = obj["terms" if cls is Sum else "factors"]
            if type(children) is not list:
                raise _expected(list, children)
            key = cls, tuple([_read(c, memo, depth) for c in children])
        elif cls is Sym:
            name = obj["name"]
            if type(name) is not str:
                raise _expected(str, name)
            key = Sym, name
        elif cls is App:
            name = obj["name"]
            if type(name) is not str:
                raise _expected(str, name)
            deriv = obj["deriv"]
            if type(deriv) is not list:
                raise _expected(list, deriv)
            for v in deriv:
                if type(v) is not int:
                    raise _expected(int, v)
                if v > MAX_DERIV_ORDER:
                    raise TypeError(f"derivative order {v} exceeds {MAX_DERIV_ORDER}")
            args = obj["args"]
            if type(args) is not list:
                raise _expected(list, args)
            key = App, name, tuple([_read(a, memo, depth) for a in args]), tuple(deriv)
        else:
            key = cls, _read(obj["arg"], memo, depth)
        node = memo.get(key)
        if node is None:        # the first node of this kind, these fields and these children
            node = memo[key] = (cls(*key[1:-2], Fraction(key[-2], key[-1]))
                                if cls is Rat or cls is Pow else cls(*key[1:]))
            height, uses = 0, 1     # a loop, not max() and sum(): this runs on every new node
            for h, n in map(memo.__getitem__, _NODES[cls].children(node)):
                height, uses = h + 1 if h >= height else height, uses + n
            memo[node] = height, uses
        return node
    except (KeyError, TypeError) as exc:
        missing = type(exc) is KeyError and ("k" not in obj or obj["k"] in _KINDS)
        why = f"missing field {exc.args[0]!r}" if missing else exc    # else an unknown kind
        raise ValueError(f"malformed expression node {obj!r:.80}: {why}") from None


def expr_from_json(obj, _memo: dict | None = None) -> Expr:
    """The raw, not yet normal, tree ``obj`` encodes, each distinct node built once per call
    or ``_memo``, which holds the table entries read so far. Raises ValueError on an unknown
    kind, a missing or malformed field, an index of no earlier entry, or a node too deep."""
    return _read(obj, {} if _memo is None else _memo, 0)


def table_to_json(roots: Iterable[Expr]) -> tuple[list, dict]:
    """The node table of ``roots``: each distinct node's dict once, children first,
    with each child written as the index of its entry; and each node's index."""
    order = _plan(roots)
    index = {e: k for k, e in enumerate(order)}
    return [_DUMP[type(e)](e, index.__getitem__) for e in order], index


def table_from_json(nodes) -> dict:
    """A node memo for ``expr_from_json`` holding the table ``nodes``: index k maps to
    entry k's node. Raises ValueError on a table that is not a list of node objects, and
    where ``expr_from_json`` does, at each entry."""
    if type(nodes) is not list:
        raise ValueError(f"nodes must be a list, got {nodes!r:.40}")
    memo = {}
    for k, entry in enumerate(nodes):
        if type(entry) is not dict:
            raise ValueError(f"node {k} must be a node object, got {entry!r:.40}")
        memo[k] = _read(entry, memo, 0)
    return memo

