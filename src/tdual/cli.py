"""Command-line front end: JSON in, JSON or tables out.

Subcommands: buscher, dualize-gerbe, cohomology, classify, tdualize, spectrum,
homotopy, verify. Only buscher and verify sample, and take --seed/--trials/--tol (seed
defaults to $TDUAL_SEED or 42); a verify suite that samples no points refuses the last two.
Each handler returns (payload, table lines, verdicts), and ``_render`` writes
them: exit 0 if every verdict passed, 1 if one failed (its witness is
serialized), 2 on a usage or input error.

Each handler and each verify suite imports the layers it runs, so a command
loads no other layer; at module level only the standard library is imported.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from types import SimpleNamespace
from typing import NamedTuple

from . import BUILTIN_NAMES, DEFAULT_SEED, DEFAULT_TOL, DEFAULT_TRIALS, MAX_CELLS


class InputError(ValueError):
    pass


def _default_seed() -> int:
    try:
        return int(os.environ.get("TDUAL_SEED", DEFAULT_SEED))
    except ValueError:
        return DEFAULT_SEED


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


def _sampling(parser: argparse.ArgumentParser, trials=DEFAULT_TRIALS, tol=DEFAULT_TOL):
    parser.add_argument("--seed", type=int, default=_default_seed(),
                        help="seed for randomized checks (default $TDUAL_SEED or 42)")
    parser.add_argument("--trials", default=trials,
                        type=_number(int, lambda n: n >= 1, "trials must be >= 1"))
    parser.add_argument("--tol", default=tol, type=_number(
        float, lambda t: 0 <= t < math.inf, "tol must be a finite number >= 0"))


def _common(parser: argparse.ArgumentParser):
    parser.add_argument("--format", choices=("json", "table"), default="table")
    parser.add_argument("--output", default=None, help="write the result here instead of stdout")


def build_parser(argv: list | None = None) -> argparse.ArgumentParser:
    """All eight subcommands; given ``argv``, only the one argparse dispatches
    to, its first token not starting with "-", gets its arguments."""
    p = argparse.ArgumentParser(prog="tdual",
                                description="topological T-duality toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    invoked = next((a for a in argv if a[:1] != "-"), None) if argv is not None else None

    def command(name: str, text: str):
        parser = sub.add_parser(name, help=text)
        if argv is None or name == invoked:
            return parser
        return SimpleNamespace(add_argument=lambda *args, **kwargs: None)     # never parsed

    b = command("buscher", "dualize a metric along its fiber direction")
    b.add_argument("--preset", choices=("taub-nut", "multi2", "multi3", "multi5"))
    b.add_argument("--input", help="MetricData JSON file")
    b.add_argument("--b-field", choices=("none", "dyonic"), default="none")
    b.add_argument("--verify", choices=("none", "g-h", "involution", "dyonic"),
                   default="g-h")
    _sampling(b)
    _common(b)

    c = command("cohomology", "integer cohomology of a builtin space")
    c.add_argument("--space", required=True,
                   help=f"one of {', '.join(BUILTIN_NAMES)} (or L1p:<p>, wedge:<k>)")
    c.add_argument("--degree", type=int, required=True)
    _common(c)

    d = command("dualize-gerbe", "T-dualize a 2-gerbe to a 3-gerbe")
    d.add_argument("--input", help="TwoGerbe JSON file")
    d.add_argument("--preset", help="monopole:<n>")
    _common(d)

    cl = command("classify", "canonical semi-free classification record")
    cl.add_argument("--preset", help="kk, charge:<p>, or trivial")
    cl.add_argument("--input", help="record JSON file")
    _common(cl)

    t = command("tdualize", "T-dual record of a semi-free space")
    t.add_argument("--preset", help="kk, charge:<p>, or trivial")
    t.add_argument("--input", help="record JSON file")
    _common(t)

    s = command("spectrum", "crossed-product spectrum of the test example")
    _common(s)

    h = command("homotopy", "homology of the p-center space")
    h.add_argument("--centers", type=int, required=True)
    _common(h)

    v = command("verify", "run a golden identity suite")
    v.add_argument("suite", help=f"one of {', '.join(SUITES)}")
    _sampling(v, None, None)    # cmd_verify fills in the defaults of a suite that samples
    _common(v)

    return p


# ---------------------------------------------------------------------------
# verdicts and rendering

class Verdict(NamedTuple):
    """One certified claim. ``witness`` is the (component, Witness) of a
    failed sampled check; ``note`` is the line printed under a failure."""

    name: str
    passed: bool
    witness: tuple | None = None
    note: str | None = None

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": bool(self.passed)}
        if self.witness:
            component, point = self.witness
            out["witness"] = {"component": list(component),
                              "point": point.to_json() if point else None}
        return out


def _sampled(name: str, ok: bool, witness) -> Verdict:
    """The verdict of a sampled check; a failure keeps its witness."""
    if ok:
        return Verdict(name, True)
    return Verdict(name, False, witness, witness and f"witness: {witness}")


def _render(args, payload: dict, lines: list, verdicts: list) -> int:
    """Write the JSON payload, or the table lines followed by one PASS/FAIL
    line per verdict; exit 1 if a verdict failed, else 0."""
    if args.format == "json":
        import json
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        for v in verdicts:
            lines.append(f"[{'PASS' if v.passed else 'FAIL'}] {v.name}")
            if v.note:
                lines.append(f"        {v.note}")
        text = "\n".join(lines) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)
    return 0 if all(v.passed for v in verdicts) else 1


def _read_json(path: str, what: str, parse, errors: tuple = ()):
    """``parse`` of the JSON in ``path``; a failure to open, decode or parse
    it is an InputError 'cannot read <what>: ...'."""
    import json
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except RecursionError:      # from the JSON decoder
        raise InputError(f"cannot read {what}: input nested too deeply") from None
    except KeyError as exc:     # a bare one is a field the reader looked up
        missing = f"missing field {exc.args[0]!r}" if type(exc) is KeyError else exc
        raise InputError(f"cannot read {what}: {missing}") from None
    except (OSError, ValueError, TypeError, *errors) as exc:
        raise InputError(f"cannot read {what}: {exc}") from None


# ---------------------------------------------------------------------------
# buscher

def _load_metric(path: str):
    from . import expr as ex, geometry as geo
    spec = geo.taub_nut_sample_spec()
    m = _read_json(path, f"metric from {path}", lambda obj: geo.MetricData.from_json(obj, spec),
                   (ex.DomainError,))
    if failure := ex.sampling_failure([*m.g_upper.values(), *m.b_upper.values()], spec):
        raise InputError(f"{path}: {failure}")
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


def _gh_reference(m, dyonic: bool = False):
    """H((dk)^2 + dr.dr) for the profile H of ``m``, dyonically shifted if asked."""
    from . import expr as ex, geometry as geo
    ref = geo.h_monopole_metric(m.g_upper[(1, 1)], m.sample)
    return geo.pullback(ref, geo.dyonic_shift(ex.sym("beta"))) if dyonic else ref


def _equal(args, name: str, a, b, spec=None, compare_b: bool = False) -> Verdict:
    from .geometry import metrics_equal
    return _sampled(name, *metrics_equal(a, b, spec, trials=args.trials, tol=args.tol,
                                         seed=args.seed, compare_b=compare_b))


def cmd_buscher(args):
    from . import expr as ex, geometry as geo
    label = args.input or args.preset or "taub-nut"
    if args.input:
        m = _load_metric(args.input)
    elif label == "taub-nut":
        m = geo.make_taub_nut()
    else:
        m = _multi_preset(int(label.removeprefix("multi")), args.seed).metric()
    dyonic, monopole = args.b_field == "dyonic", args.verify in ("g-h", "dyonic")
    if (dyonic or monopole) and m.chart != geo.MONOPOLE_CHART:
        what = "the dyonic b-field" if dyonic else f"{args.verify} verification"
        raise InputError(f"{what} needs a metric on the chart (kappa, r, theta, phi) "
                         "with kappa and phi periodic")
    if dyonic:
        m = geo.with_b_field(m, geo.dyonic_b_field(ex.sym("beta")))
    if monopole and (1, 1) not in m.g_upper:
        raise InputError(f"{args.verify} verification needs a monopole-shaped metric "
                         "with a radial component")
    try:
        if args.verify == "dyonic" or dyonic:   # both are written on the single-center H(r, g)
            m.sample.functions.lookup("H", 2)
        dual = geo.buscher_transform(m)
        if args.verify == "involution":
            verdicts = [_equal(args, "double dual returns the input", geo.buscher_transform(dual),
                               m, compare_b=True)]
        elif args.verify == "none":
            verdicts = []
        else:
            name = "the shifted product metric" if args.verify == "dyonic" else \
                "g_H = H((dk)^2 + dr.dr)"
            verdicts = [_equal(args, f"dual matches {name}", dual,
                               _gh_reference(m, args.verify == "dyonic"))]
    except (geo.SingularG00, ex.DomainError, ex.UnboundSymbol) as exc:
        # the message itself: str() of an UnboundSymbol, a KeyError, would quote it
        raise InputError(f"{label}: {exc.args[0]}") from None
    payload = {"input": label, "dual": dual.to_json(),
               "checks": [{"witness": None, **v.to_json()} for v in verdicts]}
    return payload, [f"buscher dual of {label}"], verdicts


# ---------------------------------------------------------------------------
# cohomology

def cmd_cohomology(args):
    from .cohomology import cohomology
    from .complexes import builtin_space
    try:
        x = builtin_space(args.space)
    except KeyError as exc:
        raise InputError(exc.args[0]) from None
    g = cohomology(x, args.degree)
    payload = {"space": args.space, "degree": args.degree, "group": str(g),
               "free_rank": g.free_rank, "torsion": list(g.torsion)}
    return payload, [f"H^{args.degree}({args.space}) = {g}"], []


# ---------------------------------------------------------------------------
# gerbes

def _complex_from_json(obj):
    from .complexes import build_complex
    cells = {int(k): _checked(v, list, f"cells {k}", str)
             for k, v in _checked(obj["cells"], dict, "cells").items()}
    ids = [c for v in cells.values() for c in v]
    if min(cells, default=0) < 0 or len(set(ids)) < len(ids):
        raise InputError("cells need degrees >= 0 and distinct ids")
    if len(ids) > MAX_CELLS:
        raise InputError(f"a complex may have at most {MAX_CELLS} cells, got {len(ids)}")
    inc = {}
    for k, entries in _checked(obj.get("boundaries", {}), dict, "boundaries").items():
        inc[int(k)] = {(low, up): _checked(c, int, f"coefficient of {low} in {up}")
                       for up, low, c in _checked(entries, list, f"boundaries {k}")}
    return build_complex(_checked(obj.get("name", "X"), str, "name"), cells, inc)


def _gerbe_from_json(obj):
    from .complexes import builtin_space
    from .gerbes import CoverNerve, ThreeGerbe, TwoGerbe
    space = _checked(obj, dict, "gerbe")["space"]
    x = builtin_space(space) if type(space) is str else \
        _complex_from_json(_checked(space, dict, "space"))
    if x.top < len(TwoGerbe.layers):
        raise InputError(f"a 2-gerbe's class has degree {len(TwoGerbe.layers)}, "
                         f"above the top cell degree {x.top} of {x.name}")
    cover = CoverNerve(x, [frozenset(_checked(s, list, "cover set", str))
                           for s in _checked(obj["cover"], list, "cover")])
    for q in range(1, len(ThreeGerbe.layers) + 2):     # the layers of both gerbes and their checks
        if (n := cover.cochain_size(q)) > MAX_CELLS:
            raise InputError(f"a cover's cochains may have at most {MAX_CELLS} entries "
                             f"in one nerve degree, got {n} in degree {q}")

    def indices(label, key):
        try:
            return tuple(int(i) for i in key.split(","))
        except ValueError:
            raise InputError(f"{label} key {key!r} is not comma-separated integers") from None

    def parse(label):
        return {indices(label, key): _checked(vec, list, f"{label} {key}", int)
                for key, vec in _checked(obj.get(label, {}), dict, label).items()}

    return TwoGerbe(cover, **{layer.attr: parse(layer.label) for layer in TwoGerbe.layers})


def _gerbe_to_json(g) -> dict:
    out = {"space": g.cover.space.name,
           "cover": [sorted(map(str, s)) for s in g.cover.sets]}
    for layer in g.layers:
        out[layer.label] = {",".join(map(str, t)): list(vec)
                            for t, vec in getattr(g, layer.attr).items()}
    return out


def _dualize_checks(g, names):
    """Check ``g``, dualize it, check the dual and compare its class with class x z.
    Returns both reports, the dual (None after a failed check of g) and the verdicts."""
    from .cohomology import cross_with_z
    from .complexes import product_with_circle
    from .gerbes import check_three_gerbe, check_two_gerbe, tdualize_two_gerbe
    rep2 = check_two_gerbe(g)
    if not rep2.passed:
        f = rep2.failures()[0]
        return rep2, None, None, [Verdict(names[0], False, note=f"{f.name} fails at {f.where}")]
    xs1 = product_with_circle(g.cover.space)
    tg = tdualize_two_gerbe(g, xs1)
    rep3 = check_three_gerbe(tg)
    class_ok = rep3.characteristic_class == cross_with_z(rep2.characteristic_class, xs1)
    return rep2, tg, rep3, [Verdict(names[0], True), Verdict(names[1], rep3.passed),
                            Verdict(names[2], class_ok)]


def cmd_dualize_gerbe(args):
    from .gerbes import monopole_two_gerbe
    if args.preset:
        g = monopole_two_gerbe(_preset_int(args.preset, "monopole", "preset must be monopole:<n>"))
    elif args.input:
        g = _read_json(args.input, "gerbe", _gerbe_from_json)
    else:
        raise InputError("need --preset or --input")
    rep2, tg, rep3, verdicts = _dualize_checks(
        g, ("2-gerbe validity", "3-gerbe validity", "dual class equals (class x z)"))
    payload = {"two_gerbe_report": rep2.to_json()}
    if tg is not None:
        payload.update({"three_gerbe": _gerbe_to_json(tg), "three_gerbe_report": rep3.to_json(),
                        "class_equals_cross_product": verdicts[2].passed})
    return payload, [], verdicts


# ---------------------------------------------------------------------------
# semi-free records

def _record_from_json(obj):
    from .cohomology import CohClass, cochain_space
    from .complexes import builtin_space
    from .semifree import classify
    obj = _checked(obj, dict, "record")
    if "fixed_cells" in obj and "fixed" not in obj:
        raise InputError("this is classify output; a record also names its complement model "
                         "(base, fixed, complement, class)")
    base = builtin_space(_checked(obj["base"], str, "base"))
    fixed, comp = (frozenset(_checked(obj[key], list, key, str))
                   for key in ("fixed", "complement"))
    model = base.subcomplex(comp)
    if model.top < 2:
        raise InputError(f"the bundle class has degree 2, above the top cell degree "
                         f"{model.top} of the complement")
    lam = CohClass(cochain_space(model, 2), tuple(_checked(obj["class"], list, "class", int)))
    return classify(base, fixed, comp, lam, name=_checked(obj.get("name", ""), str, "name"))


def _record_from_args(args):
    from .semifree import kk_record, trivial_record
    if args.preset:
        if args.preset == "kk":
            return kk_record()
        if args.preset == "trivial":
            return trivial_record()
        return kk_record(_preset_int(args.preset, "charge",
                                     "preset must be kk, trivial, or charge:<p>"))
    if args.input:
        return _read_json(args.input, "record", _record_from_json)
    raise InputError("need --preset or --input")


def cmd_classify(args):
    payload = _record_from_args(args).describe()
    lines = [f"record: {payload['name'] or 'unnamed'}",
             f"  base model: {payload['base']}",
             f"  fixed locus cells: {', '.join(payload['fixed']) or '(empty)'}",
             f"  bundle class: {payload['bundle_class']}"]
    return payload, lines, []


def _round_trip(rec, dual) -> Verdict:
    from .cohomology import fiber_integrate
    return Verdict("fiber integration returns the bundle class",
                   fiber_integrate(dual.flux, dual.complement_product) == rec.bundle_class)


def cmd_tdualize(args):
    from .semifree import tdualize
    rec = _record_from_args(args)
    dual = tdualize(rec)
    verdict = _round_trip(rec, dual)
    payload = dual.describe()
    payload["round_trip"] = verdict.passed
    lines = [f"T-dual of {rec.name or 'record'}: {payload['space']}",
             f"  flux class: {payload['flux_class']}",
             f"  source cells: {', '.join(payload['source_cells']) or '(none)'}",
             f"  extension ideal: {payload['extension']['ideal']}",
             f"  extension quotient: {payload['extension']['quotient']}"]
    return payload, lines, [verdict]


def cmd_spectrum(args):
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
    return payload, lines, []


def cmd_homotopy(args):
    from .semifree import multi_center_homotopy
    if not 1 <= args.centers <= MAX_CELLS:
        raise InputError(f"--centers must be {'>= 1' if args.centers < 1 else f'<= {MAX_CELLS}'}")
    groups = multi_center_homotopy(args.centers)
    payload = {"centers": args.centers,
               "homology": {str(k): str(g) for k, g in groups.items()}}
    lines = [f"{args.centers}-center space is homotopy equivalent to a wedge "
             f"of {args.centers - 1} two-spheres:"]
    lines.extend(f"  H_{k} = {g}" for k, g in groups.items())
    return payload, lines, []


# ---------------------------------------------------------------------------
# golden suites: each yields one Verdict per check

def _suite_metrics(args):
    from . import geometry as geo
    tn = geo.make_taub_nut()
    dual = geo.buscher_transform(tn)
    yield _equal(args, "taub-nut dual equals H((dk)^2 + dr.dr)", dual, _gh_reference(tn))
    fam = geo.MultiCenterFamily([(0.4, 0.0, 0.1), (-0.3, 0.2, -0.5)])
    yield _equal(args, "2-center dual equals H((dk)^2 + dr.dr)",
                 geo.buscher_transform(fam.metric()), fam.dual_reference())
    name = "dual conformal factor is the monopole profile"
    try:
        f = geo.conformal_factor(dual, geo.flat_product_metric(),
                                 trials=args.trials, tol=args.tol, seed=args.seed)
    except geo.NotConformal as exc:
        yield _sampled(name, False, (("g", *exc.component), exc.witness))
    else:
        rep = geo.equal_numeric(f, tn.g_upper[(1, 1)], tn.sample, args.trials, args.tol,
                                args.seed)
        yield _sampled(name, rep.equal, (("factor",), rep.witness))


def _suite_dyonic(args):
    from . import geometry as geo
    tn = geo.make_taub_nut()
    beta = geo.sym("beta")
    field = geo.dyonic_b_field(beta)
    reps = ((idx, geo.equal_numeric(c, geo.rat(0), tn.sample, args.trials, args.tol, args.seed))
            for idx, c in geo.exterior_derivative(field).comps.items())
    wit = next(((("dB", *idx), rep.witness) for idx, rep in reps if not rep), None)
    yield _sampled("dyonic field is closed", wit is None, wit)
    yield _equal(args, "dual of (g, beta*Omega) is the shifted product metric",
                 geo.buscher_transform(geo.with_b_field(tn, field)), _gh_reference(tn, True))
    fam = geo.MultiCenterFamily([(0.4, 0.1, 0.0), (-0.3, 0.2, 0.1)])
    dual_i = geo.buscher_transform(geo.with_b_field(fam.radial_metric(), fam.b_field(0, beta)))
    target_i = geo.pullback(fam.radial_dual_reference(), fam.dyonic_shift(0, beta))
    yield _equal(args, "per-center dual matches the H_i/H-shifted product metric",
                 dual_i, target_i, fam.sample)


def _suite_cohomology(args):
    from .cohomology import (AbelianGroup, Z, cochain_space, cohomology, cross_with_z,
                             fiber_integrate, long_exact_sequence)
    from .complexes import builtin_space, cone_on_s2
    yield Verdict("H^3(S2xS1) = Z", cohomology(builtin_space("S2xS1"), 3) == Z)
    yield Verdict("H^2(CP2) = Z", cohomology(builtin_space("CP2"), 2) == Z)
    yield Verdict("H^2(L(1,3)) = Z/3",
                  cohomology(builtin_space("L1p:3"), 2) == AbelianGroup(0, (3,)))
    yield Verdict("pair (D3, S2) long exact sequence exact",
                  long_exact_sequence(cone_on_s2(), {"u", "f2"}).all_exact)
    xs1 = builtin_space("S2xS1")
    gen = cochain_space(builtin_space("S2"), 2).generators()[0]
    yield Verdict("fiber integration inverts cross product",
                  fiber_integrate(cross_with_z(gen, xs1), xs1) == gen)


def _suite_gerbes(args):
    from .gerbes import check_two_gerbe, gauge_perturb, monopole_two_gerbe
    g = monopole_two_gerbe(2)
    rep, _, _, verdicts = _dualize_checks(
        g, ("monopole 2-gerbe valid", "dual 3-gerbe valid", "dual class equals class x z"))
    yield from verdicts
    repp = check_two_gerbe(gauge_perturb(g, args.seed))
    yield Verdict("gauge perturbation preserves validity and class",
                  repp.passed and repp.characteristic_class == rep.characteristic_class)


def _suite_semifree(args):
    from fractions import Fraction
    from .cohomology import cochain_space
    from .gerbes import kk_gerbe_models, semifree_class_to_two_gerbe
    from .semifree import basic_example_spectrum, hausdorff_regularization, kk_record, tdualize
    kk = kk_record()
    dual = tdualize(kk)
    yield Verdict("taub-nut record emits one unit of flux", dual.flux.reduced() == (1,))
    yield _round_trip(kk, dual)
    sp = basic_example_spectrum()
    yield Verdict("non-separable iff difference in 2*pi*Z",
                  sp.non_separable(Fraction(3), Fraction(1))
                  and not sp.non_separable(Fraction(1, 2), Fraction(0)))
    yield Verdict("regularization is the coneS2 x S1 dual",
                  hausdorff_regularization(sp).name == "coneS2 x S1")
    models = kk_gerbe_models()
    lam = cochain_space(models.complement_model(), 2).generators()[0]
    _, pushed = semifree_class_to_two_gerbe(lam, models)
    yield Verdict("monopole class pushes to the H^3 generator",
                  pushed == cochain_space(models.bplus, 3).generators()[0])


SUITES = {"metrics": _suite_metrics, "dyonic": _suite_dyonic, "cohomology": _suite_cohomology,
          "gerbes": _suite_gerbes, "semifree": _suite_semifree}


def cmd_verify(args):
    if args.suite not in SUITES:
        raise InputError(f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)}")
    for name, default in (("trials", DEFAULT_TRIALS), ("tol", DEFAULT_TOL)):
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif args.suite not in ("metrics", "dyonic"):       # the suites that sample points
            raise InputError(f"suite {args.suite} samples no points, so it takes no --{name}")
    verdicts = list(SUITES[args.suite](args))
    payload = {"suite": args.suite, "checks": [v.to_json() for v in verdicts],
               "passed": all(v.passed for v in verdicts)}
    return payload, [f"suite {args.suite}:"], verdicts


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handler = globals()[f"cmd_{args.command.replace('-', '_')}"]
    try:
        if vars(args).get("preset") and vars(args).get("input"):
            raise InputError("give --preset or --input, not both")
        return _render(args, *handler(args))
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
