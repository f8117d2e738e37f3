"""The record types of the integer layers keep the contract they had as
dataclasses: positional and keyword construction in field order, field-wise
``==``, ``repr`` as ``Type(field=value, ...)``, a hash only where the record
was frozen, and the ``__post_init__`` entry points that bench/layers.py wraps."""

from functools import cached_property

import pytest

from tdual.cohomology import (AbelianGroup, CohClass, LESNode, LESReport, Z, cochain_space,
                              long_exact_sequence)
from tdual.complexes import CellComplex, build_complex, cone_on_s2, cp2
from tdual.gerbes import (CoverNerve, GerbeCondition, GerbeModels, GerbeReport,
                          check_two_gerbe, kk_gerbe_models, monopole_two_gerbe)
from tdual.semifree import (DyonicReport, ExtensionDescriptor, RegularizedDual, SemifreeSpace,
                            SpectrumModel, StabilizerDatum, TDualRecord, basic_example_spectrum,
                            dyonic_automorphism_check, hausdorff_regularization, kk_record,
                            tdualize)


# L(1,3) outside the registry of lens spaces, held so that every sample's
# H^2 = Z/3 is one space
L3 = build_complex("L3", {0: ["e0"], 1: ["e1"], 2: ["e2"], 3: ["e3"]}, {2: {("e1", "e2"): 3}})


def _circle(name: str) -> CellComplex:
    return build_complex(name, {0: ["v"], 1: ["e"]})


def _gerbe_models(swap: bool) -> GerbeModels:
    m = kk_gerbe_models()
    if swap:
        return m._replace(patch_neighborhood=m.patch_complement,
                          patch_complement=m.patch_neighborhood)
    return m


def _spectrum(hausdorff: bool) -> SpectrumModel:
    return basic_example_spectrum()._replace(is_hausdorff=hausdorff)


def _dyonic(multiple: int) -> DyonicReport:
    gen = cochain_space(cp2(), 2).generators()[0]
    return dyonic_automorphism_check(cp2(), multiple * gen)


# type -> (its fields in order, a builder of a sample from a key; keys 0 and 1 differ)
RECORDS = {
    CellComplex: (("name", "cells", "rows", "product_of"), lambda k: _circle(f"C{k}")),
    AbelianGroup: (("free_rank", "torsion"), lambda k: AbelianGroup(k, (2, 4))),
    CohClass: (("space", "vector"),
               lambda k: CohClass(cochain_space(L3, 2), (1 + k,))),
    LESNode: (("label", "group", "exact"), lambda k: LESNode("H^0(X)", Z, bool(k))),
    LESReport: (("nodes", "maps"), lambda k: LESReport([LESNode("H^0(X)", Z, None)] * k, {})),
    CoverNerve: (("space", "sets"),
                 lambda k: CoverNerve(cone_on_s2(), [{"v", "u", "a"}, {"u", "f2", "c3"}][k:]
                                      + [cone_on_s2().all_ids()])),
    GerbeCondition: (("name", "where", "ok", "witness"),
                     lambda k: GerbeCondition("p_cocycle", (0, 1), bool(k))),
    GerbeReport: (("slots",),
                  lambda k: GerbeReport([("p_cocycle", [(0, 1)], {(0, 1): "f2"} if k else {})])),
    GerbeModels: (("b", "f_ids", "complement_ids", "bplus", "bplus_minus_f_ids",
                   "patch_neighborhood", "patch_complement"), lambda k: _gerbe_models(bool(k))),
    SemifreeSpace: (("base", "fixed_ids", "complement_ids", "bundle_class", "name", "charge"),
                    lambda k: kk_record(1 + k)),
    ExtensionDescriptor: (("ideal", "ideal_class", "quotient"),
                          lambda k: tdualize(kk_record(1 + k)).extension),
    TDualRecord: (("source_space", "product", "source_ids", "complement_product", "flux",
                   "extension"), lambda k: tdualize(kk_record(1 + k))),
    StabilizerDatum: (("orbit_type", "stabilizer", "dual_fiber"),
                      lambda k: StabilizerDatum("fixed point", "R", f"R/{k}Z")),
    SpectrumModel: (("regular_model", "half_line", "flux", "glued_line_period", "stabilizers",
                     "is_hausdorff"), lambda k: _spectrum(bool(k))),
    RegularizedDual: (("model", "regular_flux", "name", "is_hausdorff"),
                      lambda k: hausdorff_regularization(basic_example_spectrum())._replace(
                          name=f"dual{k}")),
    DyonicReport: (("action_fixes_class", "rotation_multiple", "beta_label", "dual_datum"),
                   lambda k: _dyonic(1 + k)),
}
FROZEN = (AbelianGroup, CohClass, StabilizerDatum)


def test_every_record_type_is_checked():
    assert len(RECORDS) == 16


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    fields, build = RECORDS[cls]
    x, other = build(0), build(1)
    values = [getattr(x, f) for f in fields]
    assert not hasattr(cls, "__dataclass_fields__")
    for same in (cls(*values), cls(**dict(zip(fields, values)))):
        assert type(same) is cls and same == x and not same != x
        if cls in FROZEN:
            assert hash(same) == hash(x)
    assert x != other and not x == other
    assert x != object()
    if cls not in FROZEN:
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(x) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_records_refuse_assignment(cls):
    fields, build = RECORDS[cls]
    x = build(0)
    with pytest.raises(AttributeError):
        setattr(x, fields[0], getattr(x, fields[0]))


def test_printed_reprs():
    assert repr(AbelianGroup(1, (2, 4))) == "AbelianGroup(free_rank=1, torsion=(2, 4))"
    assert repr(StabilizerDatum("free orbit", "Z", "S1")) == \
        "StabilizerDatum(orbit_type='free orbit', stabilizer='Z', dual_fiber='S1')"
    assert repr(GerbeCondition("p_cocycle", (0, 1), False, "f2")) == \
        "GerbeCondition(name='p_cocycle', where=(0, 1), ok=False, witness='f2')"
    assert repr(LESNode("H^2(X)", AbelianGroup(0, (3,)), True)) == \
        "LESNode(label='H^2(X)', group=AbelianGroup(free_rank=0, torsion=(3,)), exact=True)"


@pytest.mark.parametrize("free_rank, torsion, message", [
    (0, (1,), "must exceed 1"),
    (1, (0,), "must exceed 1"),
    (0, (2, 3), "divisibility order"),
    (2, (4, 2), "divisibility order"),
])
def test_abelian_group_rejects_bad_torsion(free_rank, torsion, message):
    with pytest.raises(ValueError, match=message):
        AbelianGroup(free_rank, torsion)
    with pytest.raises(ValueError, match=message):
        AbelianGroup(torsion=torsion, free_rank=free_rank)


def test_classes_compare_and_hash_by_reduced_coordinates():
    space = cochain_space(L3, 2)             # H^2(L(1,3)) = Z/3
    one, four = CohClass(space, (1,)), CohClass(space, (4,))
    assert one == four and not one != four and hash(one) == hash(four)
    assert one != CohClass(space, (2,))
    with pytest.raises(ValueError, match="different spaces"):
        one != CohClass(cochain_space(cone_on_s2().subcomplex({"u", "f2"}), 2), (1,))
    assert 3 * one == space.zero() and -one == CohClass(space, (2,)) and one + one == -one


def test_gerbe_report_conditions_are_computed_once():
    rep = check_two_gerbe(monopole_two_gerbe(2))
    assert isinstance(GerbeReport.__dict__["conditions"], cached_property)
    assert rep.conditions is rep.conditions and rep.passed


def test_les_report_reads_its_nodes():
    rep = long_exact_sequence(cone_on_s2(), {"u", "f2"})
    assert rep.all_exact and all(isinstance(n, LESNode) for n in rep.nodes)


@pytest.mark.parametrize("cls, build", [
    (CellComplex, lambda: _circle("traced")),
    (CoverNerve, lambda: CoverNerve(cone_on_s2(), [cone_on_s2().all_ids()])),
], ids=["CellComplex", "CoverNerve"])
def test_construction_runs_a_patched_post_init(cls, build, monkeypatch):
    seen, original = [], cls.__post_init__

    def traced(self, *args):
        seen.append(self)
        return original(self, *args)

    monkeypatch.setattr(cls, "__post_init__", traced)
    built = build()
    assert seen and seen[-1] is built
