"""Command-line front end: JSON in, JSON or tables out.

Subcommands: buscher, dualize-gerbe, cohomology, classify, tdualize,
spectrum, homotopy, verify. Global options --seed/--trials/--tol control
the randomized identity checks (seed defaults to $TDUAL_SEED or 42).
Exit codes: 0 success, 1 verification failure (witness serialized),
2 usage or input error.

Each handler and each verify suite imports the layers it runs, so a command
loads no other layer; at module level only the standard library is imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from functools import partial

from . import BUILTIN_NAMES, DEFAULT_TOL, DEFAULT_TRIALS

SUITES = ("metrics", "dyonic", "cohomology", "gerbes", "semifree")


class UnknownSuite(KeyError):
    pass


class InputError(ValueError):
    pass


def _default_seed() -> int:
    try:
        return int(os.environ.get("TDUAL_SEED", "42"))
    except ValueError:
        return 42


def _preset_int(preset: str, kind: str, usage: str) -> int:
    """The n of a ``kind:<n>`` preset; InputError(usage) for any other preset."""
    prefix, _, n = preset.partition(":")
    if prefix == kind:
        try:
            return int(n)
        except ValueError:
            pass
    raise InputError(usage)


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer"}


def _checked(value, kind: type, what: str, item: type | None = None):
    """``value`` if its JSON type is ``kind`` and, for an array, every item's
    is ``item``; else InputError naming ``what``."""
    if type(value) is not kind or item and any(type(v) is not item for v in value):
        raise InputError(f"{what} must be a JSON {_JSON_TYPES[kind]}"
                         f"{f' of {_JSON_TYPES[item]}s' if item else ''}, got {value!r:.40}")
    return value


def _number(kind: type, valid, rule: str):
    """An argparse type: ``kind(text)``, or a usage error unless ``valid`` holds."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not valid(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {value}")
        return value
    return parse


def _common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized checks (default $TDUAL_SEED or 42)")
    parser.add_argument("--trials", default=DEFAULT_TRIALS,
                        type=_number(int, lambda n: n >= 1, "trials must be >= 1"))
    parser.add_argument("--tol", default=DEFAULT_TOL, type=_number(
        float, lambda t: 0 <= t < math.inf, "tol must be a finite number >= 0"))
    parser.add_argument("--format", choices=("json", "table"), default="table")
    parser.add_argument("--output", default=None, help="write the result here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tdual",
                                description="topological T-duality toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("buscher", help="dualize a metric along its fiber direction")
    b.add_argument("--preset", choices=("taub-nut", "multi2", "multi3", "multi5"))
    b.add_argument("--input", help="MetricData JSON file")
    b.add_argument("--b-field", choices=("none", "dyonic"), default="none")
    b.add_argument("--verify", choices=("none", "g-h", "involution", "dyonic"),
                   default="g-h")
    _common(b)

    c = sub.add_parser("cohomology", help="integer cohomology of a builtin space")
    c.add_argument("--space", required=True,
                   help=f"one of {', '.join(BUILTIN_NAMES)} (or L1p:<p>, wedge:<k>)")
    c.add_argument("--degree", type=int, required=True)
    _common(c)

    d = sub.add_parser("dualize-gerbe", help="T-dualize a 2-gerbe to a 3-gerbe")
    d.add_argument("--input", help="TwoGerbe JSON file")
    d.add_argument("--preset", help="monopole:<n>")
    _common(d)

    cl = sub.add_parser("classify", help="canonical semi-free classification record")
    cl.add_argument("--preset", help="kk, charge:<p>, or trivial")
    cl.add_argument("--input", help="record JSON file")
    _common(cl)

    t = sub.add_parser("tdualize", help="T-dual record of a semi-free space")
    t.add_argument("--preset", help="kk, charge:<p>, or trivial")
    t.add_argument("--input", help="record JSON file")
    _common(t)

    s = sub.add_parser("spectrum", help="crossed-product spectrum of the test example")
    _common(s)

    h = sub.add_parser("homotopy", help="homology of the p-center space")
    h.add_argument("--centers", type=int, required=True)
    _common(h)

    v = sub.add_parser("verify", help="run a golden identity suite")
    v.add_argument("suite", help=f"one of {', '.join(SUITES)}")
    _common(v)

    return p


# ---------------------------------------------------------------------------
# rendering

def _emit(args, payload: dict, table_lines: list) -> str:
    if args.format == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return "\n".join(table_lines) + "\n"


def _write(args, text: str):
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# buscher

def _load_metric(path: str):
    from . import expr as ex, geometry as geo
    spec = geo.taub_nut_sample_spec()
    try:
        with open(path) as fh:
            obj = json.load(fh)
        m = geo.MetricData.from_json(obj, sample=spec)
    except (OSError, KeyError, ValueError, TypeError, ex.DomainError) as exc:
        raise InputError(f"cannot read metric from {path}: {exc}") from None
    # sampling needs a box for every symbol, a closure for every function and
    # constants that are floats
    for e in [*m.g_upper.values(), *m.b_upper.values()]:
        try:
            ex.compile_expr(e, spec.functions)
        except ex.DomainError as exc:
            raise InputError(f"{path}: {exc}") from None
        unsampled = sorted(ex.free_symbols(e) - spec.boxes.keys())
        if unsampled:
            raise InputError(f"{path}: symbol {unsampled[0]!r} has no sampling box")
        for name, arity in sorted(ex.opaque_functions(e)):
            try:
                spec.functions.lookup(name, arity)
            except ex.UnboundSymbol:
                raise InputError(f"{path}: no function {name}/{arity} is registered") from None
    for part in ("g", "b"):     # from_json keeps the last entry of a component
        keys = [(min(i, j), max(i, j)) for i, j, _ in obj[part]]
        twice = [key for key in keys if keys.count(key) > 1]
        if twice:
            raise InputError(f"{path}: {part} component {twice[0]} is given twice")
    return m


def _multi_preset(p: int, seed: int):
    from .geometry import MultiCenterFamily
    rng = random.Random(seed)
    centers = []
    while len(centers) < p:
        c = tuple(round(rng.uniform(-0.9, 0.9), 3) for _ in range(3))
        if c not in centers:
            centers.append(c)
    return MultiCenterFamily(centers)


def _witness_json(witness) -> dict:
    component, point = witness
    return {"component": list(component), "point": point.to_json() if point else None}


def cmd_buscher(args) -> int:
    from . import expr as ex, geometry as geo
    seed = args.seed if args.seed is not None else _default_seed()
    if args.input:
        m = _load_metric(args.input)
        label = args.input
    elif args.preset == "taub-nut" or args.preset is None:
        m = geo.make_taub_nut()
        label = "taub-nut"
    else:
        fam = _multi_preset(int(args.preset.removeprefix("multi")), seed)
        m = fam.metric()
        label = args.preset
    if args.b_field == "dyonic":
        m = geo.with_b_field(m, geo.dyonic_b_field(ex.sym("beta")))
    try:
        dual, checks = _buscher_checks(args, m, seed)
    except (geo.SingularG00, ex.DomainError) as exc:
        raise InputError(f"{label}: {exc}") from None

    payload = {"input": label, "dual": dual.to_json(),
               "checks": [{"name": n, "passed": bool(o),
                           "witness": None if o or w is None else _witness_json(w)}
                          for n, o, w in checks]}
    lines = [f"buscher dual of {label}"]
    for n, o, w in checks:
        lines.append(f"[{'PASS' if o else 'FAIL'}] {n}")
        if not o and w is not None:
            lines.append(f"        witness: {w}")
    _write(args, _emit(args, payload, lines))
    return 0 if all(o for _, o, _ in checks) else 1


def _buscher_checks(args, m, seed: int):
    """The dual of ``m`` and the (name, passed, witness) of the chosen check."""
    from . import expr as ex, geometry as geo
    if args.verify in ("g-h", "dyonic") and (1, 1) not in m.g_upper:
        raise InputError(f"{args.verify} verification needs a monopole-shaped metric "
                         "with a radial component")
    dual, checks = geo.buscher_transform(m), []
    if args.verify == "involution":
        ok, wit = geo.metrics_equal(geo.buscher_transform(dual), m, trials=args.trials,
                                    tol=args.tol, seed=seed)
        checks.append(("double dual returns the input", ok, wit))
    elif args.verify != "none":
        ref = geo.h_monopole_metric(m.g_upper[(1, 1)], m.sample)   # H times the flat block
        name = "g_H = H((dk)^2 + dr.dr)"
        if args.verify == "dyonic":
            ref = geo.pullback(ref, geo.dyonic_shift(ex.sym("beta")))
            name = "the shifted product metric"
        ok, wit = geo.metrics_equal(dual, ref, trials=args.trials, tol=args.tol, seed=seed,
                                    compare_b=False)
        checks.append((f"dual matches {name}", ok, wit))
    return dual, checks


# ---------------------------------------------------------------------------
# cohomology

def cmd_cohomology(args) -> int:
    from .cohomology import cohomology
    from .complexes import builtin_space
    try:
        x = builtin_space(args.space)
    except KeyError as exc:
        raise InputError(str(exc)) from None
    g = cohomology(x, args.degree)
    payload = {"space": args.space, "degree": args.degree, "group": str(g),
               "free_rank": g.free_rank, "torsion": list(g.torsion)}
    _write(args, _emit(args, payload, [f"H^{args.degree}({args.space}) = {g}"]))
    return 0


# ---------------------------------------------------------------------------
# gerbes

def _complex_from_json(obj):
    from .complexes import build_complex
    cells = {int(k): _checked(v, list, f"cells {k}", str)
             for k, v in _checked(obj["cells"], dict, "cells").items()}
    ids = [c for v in cells.values() for c in v]
    if min(cells, default=0) < 0 or len(set(ids)) < len(ids):
        raise InputError("cells need degrees >= 0 and distinct ids")
    inc = {}
    for k, entries in _checked(obj.get("boundaries", {}), dict, "boundaries").items():
        inc[int(k)] = {(low, up): _checked(c, int, f"coefficient of {low} in {up}")
                       for up, low, c in _checked(entries, list, f"boundaries {k}")}
    return build_complex(_checked(obj.get("name", "X"), str, "name"), cells, inc)


def _gerbe_from_json(obj):
    from .complexes import builtin_space
    from .gerbes import CoverNerve, TwoGerbe
    space = _checked(obj, dict, "gerbe")["space"]
    x = builtin_space(space) if type(space) is str else \
        _complex_from_json(_checked(space, dict, "space"))
    if x.top < len(TwoGerbe.layers):
        raise InputError(f"a 2-gerbe's class has degree {len(TwoGerbe.layers)}, "
                         f"above the top cell degree {x.top} of {x.name}")
    cover = CoverNerve(x, [frozenset(_checked(s, list, "cover set", str))
                           for s in _checked(obj["cover"], list, "cover")])

    def parse(label):
        return {tuple(int(i) for i in key.split(",")): _checked(vec, list, f"{label} {key}", int)
                for key, vec in _checked(obj.get(label, {}), dict, label).items()}

    return TwoGerbe(cover, **{layer.attr: parse(layer.label) for layer in TwoGerbe.layers})


def _gerbe_to_json(g) -> dict:
    out = {"space": g.cover.space.name,
           "cover": [sorted(map(str, s)) for s in g.cover.sets]}
    for layer in g.layers:
        out[layer.label] = {",".join(map(str, t)): list(vec)
                            for t, vec in getattr(g, layer.attr).items()}
    return out


def cmd_dualize_gerbe(args) -> int:
    from .cohomology import cross_with_z
    from .complexes import product_with_circle
    from .gerbes import (MalformedNerve, check_three_gerbe, check_two_gerbe, monopole_two_gerbe,
                         tdualize_two_gerbe)
    if args.preset:
        g = monopole_two_gerbe(_preset_int(args.preset, "monopole", "preset must be monopole:<n>"))
    elif args.input:
        try:
            with open(args.input) as fh:
                g = _gerbe_from_json(json.load(fh))
        except (OSError, KeyError, ValueError, TypeError, MalformedNerve) as exc:
            raise InputError(f"cannot read gerbe: {exc}") from None
    else:
        raise InputError("need --preset or --input")
    rep2 = check_two_gerbe(g)
    payload = {"two_gerbe_report": rep2.to_json()}
    lines = [f"[{'PASS' if rep2.passed else 'FAIL'}] 2-gerbe validity"]
    if not rep2.passed:
        f = rep2.failures()[0]
        lines.append(f"        {f.name} fails at {f.where}")
        _write(args, _emit(args, payload, lines))
        return 1
    xs1 = product_with_circle(g.cover.space)
    tg = tdualize_two_gerbe(g, xs1)
    rep3 = check_three_gerbe(tg)
    crossed = cross_with_z(rep2.characteristic_class, xs1)
    class_ok = rep3.characteristic_class == crossed
    payload.update({"three_gerbe": _gerbe_to_json(tg),
                    "three_gerbe_report": rep3.to_json(),
                    "class_equals_cross_product": class_ok})
    lines.append(f"[{'PASS' if rep3.passed else 'FAIL'}] 3-gerbe validity")
    lines.append(f"[{'PASS' if class_ok else 'FAIL'}] dual class equals (class x z)")
    _write(args, _emit(args, payload, lines))
    return 0 if rep3.passed and class_ok else 1


# ---------------------------------------------------------------------------
# semi-free records

def _record_from_args(args):
    from .cohomology import CohClass, cochain_space
    from .complexes import builtin_space
    from .semifree import classify, kk_record, trivial_record
    if args.preset:
        if args.preset == "kk":
            return kk_record()
        if args.preset == "trivial":
            return trivial_record()
        return kk_record(_preset_int(args.preset, "charge",
                                     "preset must be kk, trivial, or charge:<p>"))
    if args.input:
        try:
            with open(args.input) as fh:
                obj = _checked(json.load(fh), dict, "record")
            base = builtin_space(_checked(obj["base"], str, "base"))
            fixed, comp = (frozenset(_checked(obj[key], list, key, str))
                           for key in ("fixed", "complement"))
            model = base.subcomplex(comp)
            if model.top < 2:
                raise InputError(f"the bundle class has degree 2, above the top cell degree "
                                 f"{model.top} of the complement")
            lam = CohClass(cochain_space(model, 2),
                           tuple(_checked(obj["class"], list, "class", int)))
            return classify(base, fixed, comp, lam, name=_checked(obj.get("name", ""), str, "name"))
        except (OSError, KeyError, ValueError, TypeError) as exc:
            raise InputError(f"cannot read record: {exc}") from None
    raise InputError("need --preset or --input")


def cmd_classify(args) -> int:
    rec = _record_from_args(args)
    payload = rec.describe()
    lines = [f"record: {payload['name'] or 'unnamed'}",
             f"  base model: {payload['base']}",
             f"  fixed locus cells: {', '.join(payload['fixed_cells']) or '(empty)'}",
             f"  bundle class: {payload['bundle_class']}"]
    _write(args, _emit(args, payload, lines))
    return 0


def cmd_tdualize(args) -> int:
    from .cohomology import fiber_integrate
    from .semifree import tdualize
    rec = _record_from_args(args)
    dual = tdualize(rec)
    back_ok = fiber_integrate(dual.flux, dual.complement_product) == rec.bundle_class
    payload = dual.describe()
    payload["round_trip"] = back_ok
    lines = [f"T-dual of {rec.name or 'record'}: {payload['space']}",
             f"  flux class: {payload['flux_class']}",
             f"  source cells: {', '.join(payload['source_cells']) or '(none)'}",
             f"  extension ideal: {payload['extension']['ideal']}",
             f"  extension quotient: {payload['extension']['quotient']}",
             f"[{'PASS' if back_ok else 'FAIL'}] fiber integration returns the bundle class"]
    _write(args, _emit(args, payload, lines))
    return 0 if back_ok else 1


def cmd_spectrum(args) -> int:
    from fractions import Fraction
    from .semifree import basic_example_spectrum, hausdorff_regularization
    sp = basic_example_spectrum()
    reg = hausdorff_regularization(sp)
    samples = [(Fraction(2), Fraction(0)), (Fraction(1, 2), Fraction(0)),
               (Fraction(7, 3), Fraction(1, 3)), (Fraction(5, 4), Fraction(1, 3))]
    table = [{"k1": str(a), "k2": str(b), "non_separable": sp.non_separable(a, b)}
             for a, b in samples]
    payload = {"spectrum": sp.describe(), "regularization": reg.describe(),
               "separability_samples": table}
    lines = ["crossed-product spectrum of the test example:",
             f"  regular part: {payload['spectrum']['regular_part']} "
             f"with flux {payload['spectrum']['flux_class']}",
             f"  glued fiber: {payload['spectrum']['glued_line']}"]
    for s in payload["spectrum"]["stabilizers"]:
        lines.append(f"  {s['orbit']}: stabilizer {s['stabilizer']} -> {s['dual_fiber']}")
    lines.append(f"  regularization: {reg.name} (physical T-dual)")
    for row in table:
        lines.append(f"  k1={row['k1']} k2={row['k2']} (units of 2*pi): "
                     f"{'non-separable' if row['non_separable'] else 'separable'}")
    _write(args, _emit(args, payload, lines))
    return 0


def cmd_homotopy(args) -> int:
    from .semifree import multi_center_homotopy
    if args.centers < 1:
        raise InputError("--centers must be >= 1")
    groups = multi_center_homotopy(args.centers)
    payload = {"centers": args.centers,
               "homology": {str(k): str(g) for k, g in groups.items()}}
    lines = [f"{args.centers}-center space is homotopy equivalent to a wedge "
             f"of {args.centers - 1} two-spheres:"]
    lines.extend(f"  H_{k} = {g}" for k, g in groups.items())
    _write(args, _emit(args, payload, lines))
    return 0


# ---------------------------------------------------------------------------
# golden suites

def _metric_identity_checks(seed, trials, tol, dyonic: bool):
    """Yield (name, passed, witness); a witness is (component, Witness)."""
    from . import geometry as geo
    tn = geo.make_taub_nut()
    h = geo.app("H", (geo.sym("r"), geo.sym("g")))
    ref = geo.h_monopole_metric(h, tn.sample)
    if not dyonic:
        ok, wit = geo.metrics_equal(geo.buscher_transform(tn), ref, trials=trials,
                                    tol=tol, seed=seed, compare_b=False)
        yield "taub-nut dual equals H((dk)^2 + dr.dr)", ok, wit
        fam = geo.MultiCenterFamily([(0.4, 0.0, 0.1), (-0.3, 0.2, -0.5)])
        ok, wit = geo.metrics_equal(geo.buscher_transform(fam.metric()),
                                    fam.dual_reference(), trials=trials, tol=tol,
                                    seed=seed, compare_b=False)
        yield "2-center dual equals H((dk)^2 + dr.dr)", ok, wit
        name = "dual conformal factor is the monopole profile"
        try:
            f = geo.conformal_factor(geo.buscher_transform(tn), geo.flat_product_metric(),
                                     trials=trials, tol=tol, seed=seed)
        except geo.NotConformal as exc:
            yield name, False, (("g", *exc.component), exc.witness)
        else:
            rep = geo.equal_numeric(f, h, tn.sample, trials, tol, seed)
            yield name, rep.equal, (("factor",), rep.witness)
    else:
        beta = geo.sym("beta")
        field = geo.dyonic_b_field(beta)
        wit = None
        for idx, c in geo.exterior_derivative(field).comps.items():
            rep = geo.equal_numeric(c, geo.rat(0), tn.sample, trials, tol, seed)
            if not rep:
                wit = (("dB", *idx), rep.witness)
                break
        yield "dyonic field is closed", wit is None, wit
        dual = geo.buscher_transform(geo.with_b_field(tn, field))
        target = geo.pullback(ref, geo.dyonic_shift(beta))
        ok, wit = geo.metrics_equal(dual, target, trials=trials, tol=tol, seed=seed,
                                    compare_b=False)
        yield "dual of (g, beta*Omega) is the shifted product metric", ok, wit
        fam = geo.MultiCenterFamily([(0.4, 0.1, 0.0), (-0.3, 0.2, 0.1)], "unit")
        base = fam.radial_metric()
        dual_i = geo.buscher_transform(geo.with_b_field(base, fam.b_field(0, beta)))
        target_i = geo.pullback(fam.radial_dual_reference(), fam.dyonic_shift(0, beta))
        ok, wit = geo.metrics_equal(dual_i, target_i, fam.sample, trials=trials,
                                    tol=tol, seed=seed, compare_b=False)
        yield "per-center dual matches the H_i/H-shifted product metric", ok, wit


def _suite_cohomology(seed, trials, tol):
    from .cohomology import (AbelianGroup, Z, cochain_space, cohomology, cross_with_z,
                             fiber_integrate, long_exact_sequence)
    from .complexes import builtin_space, cone_on_s2
    yield "H^3(S2xS1) = Z", cohomology(builtin_space("S2xS1"), 3) == Z
    yield "H^2(CP2) = Z", cohomology(builtin_space("CP2"), 2) == Z
    yield "H^2(L(1,3)) = Z/3", cohomology(builtin_space("L1p:3"), 2) == AbelianGroup(0, (3,))
    yield "pair (D3, S2) long exact sequence exact", \
        long_exact_sequence(cone_on_s2(), {"u", "f2"}).all_exact
    s2 = builtin_space("S2")
    xs1 = builtin_space("S2xS1")
    gen = cochain_space(s2, 2).generators()[0]
    yield "fiber integration inverts cross product", \
        fiber_integrate(cross_with_z(gen, xs1), xs1) == gen


def _suite_gerbes(seed, trials, tol):
    from .cohomology import cross_with_z
    from .complexes import product_with_circle
    from .gerbes import (check_three_gerbe, check_two_gerbe, gauge_perturb, monopole_two_gerbe,
                         tdualize_two_gerbe)
    g = monopole_two_gerbe(2)
    rep = check_two_gerbe(g)
    yield "monopole 2-gerbe valid", rep.passed
    xs1 = product_with_circle(g.cover.space)
    tg = tdualize_two_gerbe(g, xs1)
    rep3 = check_three_gerbe(tg)
    yield "dual 3-gerbe valid", rep3.passed
    yield "dual class equals class x z", \
        rep3.characteristic_class == cross_with_z(rep.characteristic_class, xs1)
    gp = gauge_perturb(g, seed)
    repp = check_two_gerbe(gp)
    yield "gauge perturbation preserves validity and class", \
        repp.passed and repp.characteristic_class == rep.characteristic_class


def _suite_semifree(seed, trials, tol):
    from fractions import Fraction
    from .cohomology import cochain_space, fiber_integrate
    from .gerbes import kk_gerbe_models, semifree_class_to_two_gerbe
    from .semifree import basic_example_spectrum, hausdorff_regularization, kk_record, tdualize
    kk = kk_record()
    dual = tdualize(kk)
    yield "taub-nut record emits one unit of flux", dual.flux.reduced() == (1,)
    yield "fiber integration returns the bundle class", \
        fiber_integrate(dual.flux, dual.complement_product) == kk.bundle_class
    sp = basic_example_spectrum()
    yield "non-separable iff difference in 2*pi*Z", (
        sp.non_separable(Fraction(3), Fraction(1))
        and not sp.non_separable(Fraction(1, 2), Fraction(0)))
    reg = hausdorff_regularization(sp)
    yield "regularization is the coneS2 x S1 dual", reg.name == "coneS2 x S1"
    models = kk_gerbe_models()
    lam = cochain_space(models.complement_model(), 2).generators()[0]
    gerbe, pushed = semifree_class_to_two_gerbe(lam, models)
    yield "monopole class pushes to the H^3 generator", \
        pushed == cochain_space(models.bplus, 3).generators()[0]


def golden_verify(suite: str, seed: int, trials: int, tol: float):
    """The checks of one suite: (name, passed), or (name, passed, witness)
    for the metric identity suites."""
    table = {"metrics": partial(_metric_identity_checks, dyonic=False),
             "dyonic": partial(_metric_identity_checks, dyonic=True),
             "cohomology": _suite_cohomology, "gerbes": _suite_gerbes,
             "semifree": _suite_semifree}
    if suite not in table:
        raise UnknownSuite(suite)
    return list(table[suite](seed, trials, tol))


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    try:
        results = golden_verify(args.suite, seed, args.trials, args.tol)
    except UnknownSuite:
        raise InputError(f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)}")
    checks, lines = [], [f"suite {args.suite}:"]
    for name, ok, *witness in results:
        checks.append({"name": name, "passed": bool(ok)})
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}")
        if not ok and witness:
            checks[-1]["witness"] = _witness_json(witness[0])
            lines.append(f"        witness: {witness[0]}")
    payload = {"suite": args.suite, "checks": checks,
               "passed": all(c["passed"] for c in checks)}
    _write(args, _emit(args, payload, lines))
    return 0 if payload["passed"] else 1


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "buscher": cmd_buscher,
        "cohomology": cmd_cohomology,
        "dualize-gerbe": cmd_dualize_gerbe,
        "classify": cmd_classify,
        "tdualize": cmd_tdualize,
        "spectrum": cmd_spectrum,
        "homotopy": cmd_homotopy,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
