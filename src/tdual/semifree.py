"""Classification and T-dualization of semi-free circle-action spaces.

A space with only free orbits and fixed points is recorded by its orbit
space model B, the fixed locus F, and the Chern class of the circle bundle
over the complement; two records agree exactly when those data agree. The
T-dual record lives on B x S^1 with flux class lambda x z sourced on
F x S^1, packaged together with the extension descriptor (ideal = the
continuous-trace data on the complement product, quotient = the algebra of
the source locus). The crossed-product spectrum of the basic example is
modeled combinatorially: a product regular part carrying the flux plus a
glued line with an exact period-translation identification; its maximal
Hausdorff regularization is the physical dual.
"""

from __future__ import annotations

from typing import NamedTuple

from .cohomology import Z, CohClass, cochain_space, cross_with_z, homology
from .complexes import (CellComplex, circle_product_ids, cone_on_s2, product_with_circle,
                        sphere, wedge_of_spheres)
from .intlin import IMat


class InvalidClass(ValueError):
    pass


class DegreeMismatch(ValueError):
    pass


class UnwrappedSource(ValueError):
    """Source loci not of the form F x S^1 are rejected: the extension data
    for an unwrapped source is not determined by the classification."""


# ---------------------------------------------------------------------------
# classification records

class SemifreeSpace(NamedTuple):
    """Classification triple (B, F, lambda) of a semi-free circle space.

    ``complement_ids`` is the compact model of B - F inside the base model;
    ``bundle_class`` lives in H^2 of that model.
    """

    base: CellComplex
    fixed_ids: frozenset
    complement_ids: frozenset
    bundle_class: CohClass
    name: str = ""
    charge: int | None = None

    def complement_model(self) -> CellComplex:
        return self.base.subcomplex(self.complement_ids)

    def same_record(self, other: "SemifreeSpace") -> bool:
        return (self.base is other.base
                and self.fixed_ids == other.fixed_ids
                and self.complement_ids == other.complement_ids
                and self.bundle_class == other.bundle_class)

    def describe(self) -> dict:
        return {"base": self.base.name,
                "fixed": sorted(map(str, self.fixed_ids)),
                "complement": sorted(map(str, self.complement_ids)),
                "class": list(self.bundle_class.vector),
                "bundle_class": list(self.bundle_class.reduced()),
                "name": self.name,
                "charge": self.charge}


def _generator_multiple(space, coords: tuple) -> int | None:
    # on H^2 = Z the generator reduces to (1,): a class's coordinate is its multiple
    return coords[0] if space.group() == Z else None


def classify(base: CellComplex, fixed_ids, complement_ids,
             bundle_class: CohClass, name: str = "") -> SemifreeSpace:
    """Validate and canonicalize a classification record.

    The fixed locus and the complement model must be disjoint subcomplexes,
    and the bundle class must be a degree-2 class on the complement model.
    The charge is the class's multiple of a generator of H^2 = Z (else None),
    so records built from equal data compare equal (the uniqueness statement
    of the classification).
    """
    fixed_ids = base.check_subcomplex(fixed_ids)
    comp = base.subcomplex(complement_ids)      # checks the cell set when first built
    complement_ids = frozenset(complement_ids)
    if overlap := fixed_ids & complement_ids:
        raise InvalidClass(f"fixed cells {sorted(map(str, overlap))} "
                           "lie in the complement model of B - F")
    space = cochain_space(comp, 2)
    if bundle_class.space is not space:
        raise InvalidClass("bundle class must live in H^2 of the complement model")
    charge = _generator_multiple(space, space.reduce(bundle_class.vector))  # raises if not a cocycle
    return SemifreeSpace(base, fixed_ids, complement_ids, bundle_class, name, charge)


def kk_record(charge: int = 1) -> SemifreeSpace:
    """Charge-p monopole: B the cone on S^2, F its vertex, bundle class p
    times the Hopf generator over the complement 2-sphere. p = 1 is the
    single monopole; higher p is the lens-type record."""
    base = cone_on_s2()
    comp = base.subcomplex(frozenset({"u", "f2"}))
    gen = cochain_space(comp, 2).generators()[0]
    return classify(base, frozenset({"v"}), frozenset({"u", "f2"}),
                    charge * gen, name=f"KK(p={charge})" if charge != 1 else "Taub-NUT")


def trivial_record() -> SemifreeSpace:
    """Free action, trivial bundle: F empty, lambda = 0 on all of B."""
    base = cone_on_s2()
    comp = base.subcomplex(frozenset(base.all_ids()))
    return classify(base, frozenset(), frozenset(base.all_ids()),
                    cochain_space(comp, 2).zero(), name="trivial")


# ---------------------------------------------------------------------------
# the T-dual record

class ExtensionDescriptor(NamedTuple):
    """The unique extension data: continuous-trace ideal on the complement
    product with the flux class, quotient algebra over the source locus."""

    ideal: str
    ideal_class: tuple
    quotient: str
    __hash__ = None

    def to_json(self) -> dict:
        return {"ideal": self.ideal, "ideal_class": list(self.ideal_class),
                "quotient": self.quotient}


class TDualRecord(NamedTuple):
    source_space: SemifreeSpace
    product: CellComplex                  # B x S^1
    source_ids: frozenset                 # F x S^1 cells
    complement_product: CellComplex       # (B - F) x S^1 model
    flux: CohClass                        # delta# in H^3((B-F) x S^1)
    extension: ExtensionDescriptor

    def describe(self) -> dict:
        return {"space": self.product.name,
                "source_cells": sorted(map(str, self.source_ids)),
                "flux_class": list(self.flux.reduced()),
                "extension": self.extension.to_json()}


def tdualize(s: SemifreeSpace) -> TDualRecord:
    """T-dual of a semi-free record: the trivial circle product over B with
    flux lambda x z emitted from the source locus F x S^1."""
    comp = s.complement_model()
    comp_s1 = product_with_circle(comp)
    product = product_with_circle(s.base)
    flux = cross_with_z(s.bundle_class, comp_s1)
    source_ids = circle_product_ids(s.fixed_ids)
    ext = ExtensionDescriptor(
        ideal="CT((B-F) x S1, flux)", ideal_class=flux.reduced(),
        quotient="C0(R) (x) C0(F) (x) K  over F x S1")
    return TDualRecord(s, product, source_ids, comp_s1, flux, ext)


def make_tdual_record(s: SemifreeSpace, source_ids) -> TDualRecord:
    """Build the dual record with an explicitly supplied source locus.

    Loci that are not of the form F x S^1 (the brane not wrapped on a
    circle orbit) are rejected rather than guessed at.
    """
    rec = tdualize(s)
    if frozenset(source_ids) != rec.source_ids:
        raise UnwrappedSource(
            "source locus is not the full F x S^1; the extension is not "
            "determined by the classification data")
    return rec


# ---------------------------------------------------------------------------
# multi-center homotopy type

def multi_center_homotopy(p: int) -> dict:
    """Homology of the p-center total space, which is homotopy equivalent
    to a wedge of (p-1) 2-spheres; H_1 = 0 and H_2 is free of rank p-1."""
    if p < 1:
        raise ValueError("p must be >= 1")
    w = wedge_of_spheres(p - 1)
    return {k: homology(w, k) for k in range(3)}


# ---------------------------------------------------------------------------
# the crossed-product spectrum of the basic example

class StabilizerDatum(NamedTuple):
    orbit_type: str
    stabilizer: str
    dual_fiber: str


class SpectrumModel(NamedTuple):
    """Spectrum of the basic crossed product: a Hausdorff regular part
    (S^2 x S^1 x (0, inf)) carrying the flux class, with the dual line
    glued on over the fixed point.

    Points of the glued line are labeled by exact multiples of the period
    (2 pi = 1 unit): two are non-separable exactly when they differ by a
    whole number of periods. The regular part is a product model flagged
    with a half-line factor.
    """

    regular_model: CellComplex
    half_line: bool
    flux: CohClass
    glued_line_period: Fraction
    stabilizers: tuple
    is_hausdorff: bool = False

    def non_separable(self, k1: Fraction, k2: Fraction) -> bool:
        """Exact separability predicate on the glued line, arguments in
        period units (multiples of 2 pi)."""
        from fractions import Fraction
        diff = Fraction(k1) - Fraction(k2)
        return diff % self.glued_line_period == 0

    def describe(self) -> dict:
        return {"regular_part": f"{self.regular_model.name} x (0,inf)",
                "flux_class": list(self.flux.reduced()),
                "glued_line": "R with points identified under translation by 2*pi",
                "stabilizers": [{"orbit": s.orbit_type, "stabilizer": s.stabilizer,
                                 "dual_fiber": s.dual_fiber} for s in self.stabilizers],
                "hausdorff": self.is_hausdorff}


def basic_example_spectrum() -> SpectrumModel:
    """The spectrum model of the basic example (cone on S^3 over cone on
    S^2): regular part S^2 x S^1 x (0, inf) with one unit of flux, a full
    line glued over the origin with period-2pi identifications."""
    from fractions import Fraction
    s2s1 = product_with_circle(sphere(2))
    flux = cochain_space(s2s1, 3).generators()[0]
    stabs = (
        StabilizerDatum("free orbit", "Z", "S1"),
        StabilizerDatum("fixed point", "R", "point (no quotienting: k1 - k2 = 0)"),
    )
    return SpectrumModel(regular_model=s2s1, half_line=True, flux=flux,
                         glued_line_period=Fraction(1), stabilizers=stabs)


class RegularizedDual(NamedTuple):
    """Maximal Hausdorff regularization of a spectrum model: the glued line
    collapses to the dual circle over the fixed locus, giving coneS2 x S1."""

    model: CellComplex
    regular_flux: CohClass
    name: str = "coneS2 x S1"
    is_hausdorff: bool = True

    def describe(self) -> dict:
        return {"space": self.name, "model": self.model.name,
                "regular_flux": list(self.regular_flux.reduced())}


def hausdorff_regularization(m) -> RegularizedDual:
    """Quotient the glued line by the period translations (a circle over
    the fixed locus); idempotent on already-regularized input. The flux on
    the regular part is carried over unchanged."""
    if isinstance(m, RegularizedDual):
        return m
    if not isinstance(m, SpectrumModel):
        raise TypeError("expected a SpectrumModel or RegularizedDual")
    model = product_with_circle(cone_on_s2())
    return RegularizedDual(model=model, regular_flux=m.flux)


# ---------------------------------------------------------------------------
# the dyonic datum at class level

class DyonicReport(NamedTuple):
    action_fixes_class: bool
    rotation_multiple: int | None
    beta_label: str
    dual_datum: CohClass
    __hash__ = None

    def describe(self) -> dict:
        return {"action_fixes_class": self.action_fixes_class,
                "rotation_multiple": self.rotation_multiple,
                "beta": self.beta_label,
                "dual_datum": list(self.dual_datum.reduced())}


def dyonic_automorphism_check(x: CellComplex, lam: CohClass,
                              action_mats: dict | None = None) -> DyonicReport:
    """Class-level dyonic datum: verify the circle action fixes lambda on
    cohomology (the induced degree-2 map is the identity on it), record the
    cross product lambda x z as the dual datum, and identify an integral
    class m * generator with the fiber rotation by 2 pi m."""
    if lam.space is not cochain_space(x, 2):
        raise DegreeMismatch("lambda must be a degree-2 class on the given complex")
    if action_mats is None:
        action_mats = {k: IMat.identity(x.n_cells(k)) for k in x.degrees()}
    moved = CohClass(lam.space, tuple(action_mats[2].transpose().mul_vec(list(lam.vector))))
    fixes = moved == lam
    xs1 = product_with_circle(x)
    dual = cross_with_z(lam, xs1)
    rotation = _generator_multiple(lam.space, lam.reduced())
    label = f"2*pi*{rotation}" if rotation is not None else "non-integral"
    return DyonicReport(fixes, rotation, label, dual)
