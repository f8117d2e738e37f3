"""Metrics, B-fields and differential forms in coordinates.

Implements the Buscher dualization rules, the Taub-NUT and multi-center
monopole geometries, the dyonic B-field with its gauge potential, coordinate
pullbacks along diffeomorphisms, and conformal-factor extraction. All tensor
components are exact expression trees; identities are verified by seeded
numeric sampling.

Conventions fixed here (see module tests for the identities they certify):

* Index 0 of every chart is the dualized fiber direction.
* The monopole metric is the quadratic form  H dvec(r).dvec(r)
  + H^-1 (dk + (1/2) w . dvec(r))^2  expanded literally, so the fiber/angle
  cross component is H^-1 (1 - cos t)/2 and the angular diagonal carries
  the matching quarter term; this is the expansion whose dual is exactly
  H times the flat product metric.
* 2-forms are stored by strictly increasing index pairs; d is the standard
  coordinate exterior derivative. The dyonic field is defined as beta times
  the exterior derivative of an explicit potential, so it is closed by
  construction and its fiber components feed the dualization rules directly.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from numbers import Real
from typing import Sequence

from .expr import (
    ONE, ZERO, Chart, DomainError, Expr, FunctionTable, OpaqueFunction, SampleSpec,
    add, app, cos_, differentiate, equal_numeric, evaluate, mul, pow_, rat,
    simplify_basic, sin_, substitute, sym,
    DEFAULT_SEED, DEFAULT_TOL, DEFAULT_TRIALS,
    expr_from_json, table_from_json, table_to_json, MAX_NODES, _Blocks,
)


class SingularG00(ArithmeticError):
    """The fiber-fiber metric component vanishes on the sample domain."""


class SingularJacobian(ArithmeticError):
    """The Jacobian determinant vanishes on the sample domain."""


class NotConformal(ValueError):
    def __init__(self, component, witness):
        super().__init__(f"metrics not conformally related at component {component}")
        self.component = component
        self.witness = witness


class DuplicateCenters(ValueError):
    pass


KAPPA, R, THETA, PHI = "kappa", "r", "theta", "phi"
MONOPOLE_CHART = Chart((KAPPA, R, THETA, PHI), (True, False, False, True))


# ---------------------------------------------------------------------------
# tensors

@dataclass
class MetricData:
    """Symmetric metric and antisymmetric B-field over a chart.

    Stored by upper triangle; symmetric partners are the same object.
    """

    chart: Chart
    g_upper: dict
    b_upper: dict
    sample: SampleSpec | None = None

    def g(self, i: int, j: int) -> Expr:
        if i > j:
            i, j = j, i
        return self.g_upper.get((i, j), ZERO)

    def b(self, i: int, j: int) -> Expr:
        if i <= j:
            return ZERO if i == j else self.b_upper.get((i, j), ZERO)
        e = self.b_upper.get((j, i))
        return ZERO if e is None else -e

    def components(self):
        n = self.chart.dim
        for i in range(n):
            for j in range(i, n):
                yield (i, j), self.g(i, j), self.b(i, j)

    def to_json(self) -> dict:
        """The metric as a node table, each distinct node of all the entries
        once (``table_to_json``); a ``g`` or ``b`` entry is ``[i, j, index]``."""
        g, b = sorted(self.g_upper.items()), sorted(self.b_upper.items())
        nodes, index = table_to_json([e for _, e in g + b])
        return {"chart": {"names": list(self.chart.names), "periodic": list(self.chart.periodic)},
                "nodes": nodes, "g": [[i, j, index[e]] for (i, j), e in g],
                "b": [[i, j, index[e]] for (i, j), e in b]}

    @staticmethod
    def from_json(obj: dict, sample: SampleSpec | None = None) -> "MetricData":
        """The metric of a node table, or of a document that writes each entry
        as a whole tree (one without ``nodes``), normalised by upper triangle.
        A refusal names the field, the entry or the node it refuses."""
        fields = _json(_json(obj, dict, "metric")["chart"], dict, "chart")
        for key, kind in (("names", str), ("periodic", bool)):
            v = fields[key]
            if type(v) is not list or not all(type(x) is kind for x in v):
                raise ValueError(f"chart {key!r} must be a list of {kind.__name__}, got {v!r:.60}")
        chart = Chart(tuple(fields["names"]), tuple(fields["periodic"]))
        read = table_from_json(obj.get("nodes", []))    # one node memo for all the entries
        g, b = ({(i, j): (k, expr_from_json(e, read))
                 for k, (i, j, e) in enumerate(_entries(obj, p))} for p in "gb")
        if sum(read[e][1] for x in (g, b) for _, e in x.values()) > MAX_NODES:  # as inline trees
            raise ValueError(f"metric entries have more than {MAX_NODES} nodes counted at every use")
        m = metric(chart, *({ij: _normal_entry(p, k, e) for ij, (k, e) in x.items()}
                            for x, p in ((g, "g"), (b, "b"))), sample)
        for part in ("g", "b"):         # (i, j) and (j, i) are one component
            counts = Counter((min(i, j), max(i, j)) for i, j, _ in obj[part])
            twice = [key for key, n in counts.items() if n > 1]
            if twice:
                raise ValueError(f"{part} component {twice[0]} is given twice")
        return m


def _json(value, kind: type, what: str):
    if type(value) is not kind:
        raise ValueError(f"{what} must be a {kind.__name__}, got {value!r:.40}")
    return value


def _normal_entry(part: str, k: int, e: Expr) -> Expr:
    """Entry ``k`` of ``part``, normalised; a refusal of its fold names the entry."""
    try:
        return simplify_basic(e)
    except DomainError as exc:
        raise DomainError(f"{part} entry {k}: {exc}") from None


def _entries(obj: dict, part: str) -> list:
    """``obj[part]``, each of whose entries is ``[i, j, node]`` with integer ``i`` and ``j``."""
    for k, e in enumerate(entries := _json(obj[part], list, part)):
        if type(e) is not list or len(e) != 3 or not all(type(x) is int for x in e[:2]):
            raise ValueError(f"{part} entry {k} must be [i, j, node], got {e!r:.40}")
    return entries


def metric(chart: Chart, g_entries: dict, b_entries: dict | None = None,
           sample: SampleSpec | None = None) -> MetricData:
    """Metric data from (i, j) entries of normal trees, stored by upper
    triangle without zeros; b entries below the diagonal are negated. Raises
    ValueError on an index outside the chart."""
    g, b = {}, {}
    for entries, out, sign in ((g_entries, g, 1), (b_entries or {}, b, -1)):
        for (i, j), e in entries.items():
            if not all(type(k) is int and 0 <= k < chart.dim for k in (i, j)):
                raise ValueError(f"component ({i}, {j}) is outside the {chart.dim}-dim chart")
            if sign < 0 and i == j:
                raise ValueError("b is antisymmetric; no diagonal entries")
            if i > j:
                i, j, e = j, i, (e if sign > 0 else -e)
            if e != ZERO:
                out[(i, j)] = e
    return MetricData(chart, g, b, sample)


@dataclass
class DiffForm:
    """Degree-k form stored sparsely by strictly increasing index tuples;
    components are normal trees."""

    chart: Chart
    degree: int
    comps: dict

    def __post_init__(self):
        if self.degree > self.chart.dim:
            raise ValueError("form degree exceeds chart dimension")
        clean = {}
        for idx, e in self.comps.items():
            idx = tuple(idx)
            if list(idx) != sorted(set(idx)) or len(idx) != self.degree:
                raise ValueError(f"component index {idx} not strictly increasing of length {self.degree}")
            if e != ZERO:
                clean[idx] = e
        self.comps = clean

    def component(self, idx) -> Expr:
        return self.comps.get(tuple(idx), ZERO)

    def scaled(self, factor: Expr) -> "DiffForm":
        return DiffForm(self.chart, self.degree,
                        {idx: mul(factor, e) for idx, e in self.comps.items()})


def exterior_derivative(omega: DiffForm) -> DiffForm:
    """Coordinate exterior derivative; raises on top-degree input."""
    if omega.degree >= omega.chart.dim:
        raise ValueError("cannot raise degree past chart dimension")
    out: dict = {}
    names = omega.chart.names
    for idx, coef in omega.comps.items():
        for m in range(omega.chart.dim):
            if m in idx:
                continue
            merged = tuple(sorted(idx + (m,)))
            sign = (-1) ** merged.index(m)
            term = differentiate(coef, names[m])
            if term == ZERO:
                continue
            prev = out.get(merged, ZERO)
            out[merged] = add(prev, mul(rat(sign), term))
    return DiffForm(omega.chart, omega.degree + 1, out)


@dataclass
class Diffeo:
    """Coordinate map given by one target expression per chart coordinate."""

    chart: Chart
    targets: tuple

    def __post_init__(self):
        if len(self.targets) != self.chart.dim:
            raise ValueError(f"{len(self.targets)} targets for {self.chart.dim} chart coordinates")

    def bindings(self) -> dict:
        return {n: t for n, t in zip(self.chart.names, self.targets)}

    def jacobian(self):
        names = self.chart.names
        return [[differentiate(t, x) for x in names] for t in self.targets]


def _det(mat) -> Expr:
    """Leibniz expansion without the permutations that read a ZERO entry:
    each of their products is ZERO, which the sum drops."""
    n = len(mat)
    terms = []
    for perm in permutations(range(n)):
        entries = [mat[i][perm[i]] for i in range(n)]
        if ZERO not in entries:
            inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
            terms.append(mul(rat((-1) ** inversions), *entries))
    return add(*terms)


def pullback(m: MetricData, f: Diffeo) -> MetricData:
    """Componentwise pullback of (g, b) along ``f``: one congruence J^T M J
    for both halves, with each stored entry substituted once. A term with a
    ZERO Jacobian factor is left out: its product is ZERO, which the sum
    drops, so each component is the same node."""
    if f.chart != m.chart:
        raise ValueError("diffeo and metric charts differ")
    jac = f.jacobian()
    if m.sample is not None and not _nonzero_somewhere(_det(jac), m.sample):
        raise SingularJacobian("Jacobian determinant vanishes on sample domain")
    binds = f.bindings()
    moved = MetricData(m.chart, {k: substitute(e, binds) for k, e in m.g_upper.items()},
                       {k: substitute(e, binds) for k, e in m.b_upper.items()})
    n = m.chart.dim
    halves = []
    for part, off in ((moved.g, 0), (moved.b, 1)):     # b has no diagonal
        # the nonzero entries e_kl, partners included, in row-major (k, l) order
        entries = [(k, l, e) for k in range(n) for l in range(n) if (e := part(k, l)) != ZERO]
        halves.append({(i, j): add(*[mul(jac[k][i], jac[l][j], e) for k, l, e in entries
                                     if jac[k][i] is not ZERO and jac[l][j] is not ZERO])
                       for i in range(n) for j in range(i + off, n)})
    return metric(m.chart, *halves, m.sample)


_PROBES, _EPS = 16, 1e-8


def _nonzero_somewhere(e: Expr, spec: SampleSpec) -> bool:
    """Whether |e| > _EPS at one of _PROBES sample points without a domain error."""
    rng = random.Random(DEFAULT_SEED)
    seen = 0
    for _ in range(_PROBES * 4):
        if seen >= _PROBES:
            break
        try:
            v = evaluate(e, spec.draw(rng))
        except DomainError:
            continue
        seen += 1
        if abs(v) > _EPS:
            return True
    return False


# ---------------------------------------------------------------------------
# Buscher rules

def buscher_transform(m: MetricData) -> MetricData:
    """Dualize along the index-0 isometry direction.

    Metric half:  ~g00 = 1/g00, ~g0a = b0a/g00,
                  ~gab = gab - (g0a g0b - b0a b0b)/g00.
    B-field half: ~b0a = g0a/g00,
                  ~bab = bab - (g0a b0b - b0a g0b)/g00.
    The pair of rules is an exact involution.
    """
    g00 = m.g(0, 0)
    if g00 == ZERO:
        raise SingularG00("g00 is identically zero")
    if m.sample is not None and not _nonzero_somewhere(g00, m.sample):
        raise SingularG00("g00 vanishes on the sample domain")
    inv = pow_(g00, Fraction(-1))
    n = m.chart.dim
    g_new = {(0, 0): inv}
    b_new = {}
    for a in range(1, n):
        g_new[(0, a)] = mul(m.b(0, a), inv)
        b_new[(0, a)] = mul(m.g(0, a), inv)
    for a in range(1, n):
        for b in range(a, n):
            g_new[(a, b)] = add(
                m.g(a, b),
                mul(rat(-1), add(mul(m.g(0, a), m.g(0, b)),
                                 mul(rat(-1), m.b(0, a), m.b(0, b))), inv))
            if a != b:
                b_new[(a, b)] = add(
                    m.b(a, b),
                    mul(rat(-1), add(mul(m.g(0, a), m.b(0, b)),
                                     mul(rat(-1), m.b(0, a), m.g(0, b))), inv))
    return metric(m.chart, g_new, b_new, m.sample)


def metrics_equal(a: MetricData, b: MetricData, spec: SampleSpec | None = None,
                  trials: int = DEFAULT_TRIALS, tol: float = DEFAULT_TOL,
                  seed: int = DEFAULT_SEED, compare_b: bool = True):
    """Componentwise randomized equality; returns (ok, witness).

    ``compare_b=False`` restricts to the metric half, for identities that
    are statements about g alone (the dualization rules can leave a
    residual B-field that such statements do not constrain).
    """
    if a.chart != b.chart:
        return False, (("chart",), None)
    spec = spec or a.sample or b.sample
    if spec is None:
        raise ValueError("no sample spec available")
    blocks = _Blocks(spec, trials, seed)    # all components share its points and columns
    for (i, j), *sides in a.components():
        for part, x in zip(("g", "b") if compare_b else ("g",), sides):
            rep = equal_numeric(x, getattr(b, part)(i, j), spec, trials, tol, seed, _blocks=blocks)
            if not rep:
                return False, ((part, i, j), rep.witness)
    return True, None


# ---------------------------------------------------------------------------
# opaque monopole profile functions

def _single_center_table() -> FunctionTable:
    # H(r, g) = g^-2 + (2r)^-1 and all partial derivatives in closed form.
    def factory(deriv):
        a, b = deriv

        def fn(r, g):
            if a == 0 and b == 0:
                return g ** -2 + 1.0 / (2.0 * r)
            if b == 0:
                return ((-1.0) ** a) * math.factorial(a) / (2.0 * r ** (a + 1))
            if a == 0:
                return ((-1.0) ** b) * math.factorial(b + 1) * g ** (-(b + 2))
            return 0.0

        return fn

    return FunctionTable([OpaqueFunction("H", 2, closure_factory=factory)])


def _multi_center_table(centers: Sequence[Sequence[float]]) -> FunctionTable:
    """3D profile H = g^-2 + sum (1/2)/|x - c| at the polar point (r, theta, phi) and
    coupling g, centers in cartesians. Only the value is registered, as no check
    differentiates it; a point on a center is a pole."""
    def factory(deriv):
        if any(deriv):
            return None

        def fn(r, theta, phi, g):
            st = math.sin(theta)
            x0, x1, x2 = r * (st * math.cos(phi)), r * (st * math.sin(phi)), r * math.cos(theta)
            return g ** -2 + sum(
                0.5 / math.sqrt((x0 - c0) ** 2 + (x1 - c1) ** 2 + (x2 - c2) ** 2)
                for c0, c1, c2 in centers)

        return fn

    return FunctionTable([OpaqueFunction("Hp", 4, closure_factory=factory)])


_BASE_BOXES = {
    KAPPA: (0.1, 6.2),
    THETA: (0.05, math.pi - 0.05),   # singular loci theta in {0, pi}, margin 0.05
    PHI: (0.1, 6.2),
    "g": (0.6, 1.1),
    "beta": (0.2, 1.0),
}


def taub_nut_sample_spec() -> SampleSpec:
    boxes = dict(_BASE_BOXES)
    boxes[R] = (0.3, 3.0)            # singular locus r = 0
    return SampleSpec(boxes, _single_center_table())


def _multi_sample_spec(centers, radii) -> SampleSpec:
    far = max(radii)
    boxes = {**_BASE_BOXES, R: (far + 1.2, far + 4.0)}  # outside every center by margin
    return SampleSpec(boxes, _multi_center_table(centers))


# ---------------------------------------------------------------------------
# monopole geometries

def _monopole_metric(H: Expr, sample: SampleSpec) -> MetricData:
    """Expand H dvec(r).dvec(r) + H^-1 (dk + (1/2)(1-cos t) dphi)^2 literally."""
    r, theta = sym(R), sym(THETA)
    Hinv = pow_(H, Fraction(-1))
    omega = add(ONE, -cos_(theta))
    half_omega = mul(rat(1, 2), omega)
    g = {
        (0, 0): Hinv,
        (0, 3): mul(Hinv, half_omega),
        (1, 1): H,
        (2, 2): mul(H, pow_(r, Fraction(2))),
        (3, 3): add(mul(H, pow_(r, Fraction(2)), pow_(sin_(theta), Fraction(2))),
                    mul(Hinv, half_omega, half_omega)),
    }
    return metric(MONOPOLE_CHART, g, {}, sample)


def make_taub_nut(coupling: Expr | None = None) -> MetricData:
    """Taub-NUT metric on chart (kappa, r, theta, phi) with H = g^-2 + (2r)^-1.

    ``coupling`` defaults to the symbol g and may be any nonzero expression.
    """
    coupling = sym("g") if coupling is None else coupling
    if coupling == ZERO:
        raise ValueError("coupling must be nonzero")
    H = app("H", (sym(R), coupling))
    return _monopole_metric(H, taub_nut_sample_spec())


def h_monopole_metric(H: Expr, sample: SampleSpec) -> MetricData:
    """The smeared dual H ((dk)^2 + dvec(r).dvec(r)): conformally flat product."""
    r, theta = sym(R), sym(THETA)
    g = {
        (0, 0): H,
        (1, 1): H,
        (2, 2): mul(H, pow_(r, Fraction(2))),
        (3, 3): mul(H, pow_(r, Fraction(2)), pow_(sin_(theta), Fraction(2))),
    }
    return metric(MONOPOLE_CHART, g, {}, sample)


def flat_product_metric() -> MetricData:
    """Product metric on R^3 x S^1 in polar coordinates, on the Taub-NUT boxes."""
    return h_monopole_metric(ONE, taub_nut_sample_spec())


class MultiCenterFamily:
    """A p-center monopole configuration; for p >= 2 not a Gibbons-Hawking metric.

    The metric takes the 3D profile Hp = g^-2 + sum (1/2)/|x - c_i| at polar points, but
    its connection is the one-monopole A = (1/2)(1 - cos t) dphi for every p, which fails
    dA = -*dH unless the one center is the origin. The B-field basis follows the radial
    (collinear) model: the tree H_radial = 1 + sum_i (r - |c_i|)^-1, |c_i| the exact
    Fraction of the float radius, valid outside all centers, as the sample box is.
    """

    def __init__(self, centers: Sequence[Sequence[float]]):
        if not centers:
            raise ValueError("a multi-center family needs at least one center")
        cs = [_center(c) for c in centers]
        if len(set(cs)) != len(cs):
            raise DuplicateCenters(f"{centers}")
        self.centers = cs
        self._radii = [math.sqrt(sum(c ** 2 for c in ctr)) for ctr in cs]
        self.sample = _multi_sample_spec(cs, self._radii)
        self.H = app("Hp", (sym(R), sym(THETA), sym(PHI), sym("g")))

    @property
    def p(self) -> int:
        return len(self.centers)

    def metric(self) -> MetricData:
        return _monopole_metric(self.H, self.sample)

    def dual_reference(self) -> MetricData:
        return h_monopole_metric(self.H, self.sample)

    def center_summand(self, i: int) -> Expr:
        if not 0 <= i < self.p:
            raise IndexError(f"center index {i} out of range for {self.p} centers")
        return pow_(add(sym(R), rat(-Fraction(self._radii[i]))), Fraction(-1))

    @cached_property
    def H_radial(self) -> Expr:
        return add(ONE, *map(self.center_summand, range(self.p)))

    def b_potential(self, i: int) -> DiffForm:
        """Radial potential whose exterior derivative gives B_i: the share
        H_i/H of center i in the radial profile. The basis 1 - H_i/H gives
        -B_i, the field at -beta."""
        ratio = mul(self.center_summand(i), pow_(self.H_radial, Fraction(-1)))
        return DiffForm(MONOPOLE_CHART, 1, {(0,): ratio})

    def b_field(self, i: int, beta: Expr) -> DiffForm:
        """B_i = beta d(xi_i); the dk^dr coefficient is -beta d/dr (H_i/H)."""
        return exterior_derivative(self.b_potential(i)).scaled(beta)

    def radial_metric(self) -> MetricData:
        """Monopole-form metric with the radial collinear profile, the
        schematic model in which the per-center dyonic identity closes (the
        fiber B-component and the profile must share one H)."""
        return _monopole_metric(self.H_radial, self.sample)

    def radial_dual_reference(self) -> MetricData:
        return h_monopole_metric(self.H_radial, self.sample)

    def dyonic_shift(self, i: int, beta: Expr) -> Diffeo:
        """Fiber shift kappa -> kappa - beta H_i/H; pulling the radial dual back
        along it reproduces the dual of the radial metric with b-field B_i."""
        return _fiber_shift(self.b_potential(i), beta)


def _center(c) -> tuple:
    """The center ``c`` as three floats, or ValueError naming it."""
    try:
        xs = tuple(float(x) for x in c if isinstance(x, Real) and type(x) is not bool)
        if len(xs) == len(c) == 3 and all(map(math.isfinite, xs)):
            return xs
    except (TypeError, OverflowError):      # not a sized iterable, or an int past the float range
        pass
    raise ValueError(f"center {c!r} is not three finite real numbers")


# ---------------------------------------------------------------------------
# dyonic coordinate

def dyonic_potential() -> DiffForm:
    """Gauge potential of the dyonic field: (1/(g^2 H)) (-dk + ((1-cos t)/2) dphi).

    Its exterior derivative has fiber components b_01 = -H'/(g^2 H^2) and
    b_13 = -H'(1-cos t)/(2 g^2 H^2), which are what the dualization rules
    consume; the theta-phi entry + sin t/(2 g^2 H) is forced by closedness.
    """
    g = sym("g")
    f = mul(pow_(g, Fraction(-2)), pow_(app("H", (sym(R), g)), Fraction(-1)))
    omega_half = mul(rat(1, 2), add(ONE, -cos_(sym(THETA))))
    return DiffForm(MONOPOLE_CHART, 1, {(0,): -f, (3,): mul(f, omega_half)})


def dyonic_b_field(beta: Expr) -> DiffForm:
    """The closed 2-form B = beta d(potential) carrying the dyonic modulus."""
    return exterior_derivative(dyonic_potential()).scaled(beta)


def dyonic_shift(beta: Expr, variant: str = "gamma") -> Diffeo:
    """Fiber shift diffeomorphism kappa -> kappa - beta xi_kappa, xi the
    dyonic potential.

    gamma: kappa -> kappa + beta/(g^2 H); its shift tends to beta at infinity.
    lambda: the same minus beta, approaching the identity at infinity.
    """
    if variant not in ("gamma", "lambda"):
        raise ValueError("variant must be 'gamma' or 'lambda'")
    return _fiber_shift(dyonic_potential(), beta, -beta if variant == "lambda" else ZERO)


def _fiber_shift(potential: DiffForm, beta: Expr, offset: Expr = ZERO) -> Diffeo:
    """The map kappa -> kappa - beta xi_kappa + offset of the monopole chart,
    xi_kappa the fiber component of ``potential``."""
    shift = add(mul(rat(-1), beta, potential.component((0,))), offset)
    return Diffeo(MONOPOLE_CHART, (add(sym(KAPPA), shift), sym(R), sym(THETA), sym(PHI)))


def with_b_field(m: MetricData, b: DiffForm) -> MetricData:
    if b.degree != 2 or b.chart != m.chart:
        raise ValueError("b-field must be a 2-form on the metric chart")
    b_entries = {idx: e for idx, e in b.comps.items()}
    return metric(m.chart, dict(m.g_upper), b_entries, m.sample)


# ---------------------------------------------------------------------------
# conformal comparison

def conformal_factor(m: MetricData, reference: MetricData, trials: int = DEFAULT_TRIALS,
                     tol: float = DEFAULT_TOL, seed: int = DEFAULT_SEED) -> Expr:
    """Return f with m = f * reference under randomized equality, or raise
    NotConformal with the first failing component as witness."""
    if m.chart != reference.chart:
        raise ValueError("charts differ")
    spec = m.sample or reference.sample
    if spec is None:
        raise ValueError("no sample spec available")
    pivot = None
    for (i, j), gref, _ in reference.components():
        if gref != ZERO and _nonzero_somewhere(gref, spec):
            pivot = (i, j)
            break
    if pivot is None:
        raise NotConformal(None, "reference metric is numerically zero")
    f = mul(m.g(*pivot), pow_(reference.g(*pivot), Fraction(-1)))
    scaled = MetricData(m.chart, {k: mul(f, e) for k, e in reference.g_upper.items()}, {})
    ok, failure = metrics_equal(m, scaled, spec, trials, tol, seed, compare_b=False)
    if not ok:
        (_, *component), witness = failure
        raise NotConformal(tuple(component), witness)
    return f
