"""Command-line front end: subcommands, exit codes, determinism."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tdual.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv):
    import io
    from contextlib import redirect_stdout, redirect_stderr
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# happy paths

def test_buscher_taub_nut_verifies_the_dual():
    code, out, _ = run_cli("buscher", "--preset", "taub-nut", "--verify", "g-h")
    assert code == 0
    assert "[PASS] dual matches g_H" in out


def test_buscher_involution_check():
    code, out, _ = run_cli("buscher", "--preset", "taub-nut", "--verify", "involution")
    assert code == 0
    assert "[PASS]" in out


def test_buscher_dyonic_identity():
    code, out, _ = run_cli("buscher", "--b-field", "dyonic", "--verify", "dyonic")
    assert code == 0


def test_buscher_json_output_schema(tmp_path):
    out_path = tmp_path / "dual.json"
    code, _, _ = run_cli("buscher", "--preset", "taub-nut", "--format", "json",
                         "--output", str(out_path))
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["checks"][0]["passed"]
    assert {"chart", "g", "b"} <= set(obj["dual"])


def test_cohomology_table():
    code, out, _ = run_cli("cohomology", "--space", "S2xS1", "--degree", "3")
    assert code == 0
    assert out.strip() == "H^3(S2xS1) = Z"


def test_cohomology_lens_torsion():
    code, out, _ = run_cli("cohomology", "--space", "L1p:7", "--degree", "2")
    assert code == 0
    assert "Z/7" in out


def test_dualize_gerbe_preset():
    code, out, _ = run_cli("dualize-gerbe", "--preset", "monopole:2")
    assert code == 0
    assert "[PASS] dual class equals (class x z)" in out


def test_dualize_gerbe_from_json(tmp_path):
    gerbe = {
        "space": "S3plus",
        "cover": [["v", "u", "a", "f2", "c3"], ["u", "f2", "c3out"]],
        "p": {"0,1": [3]},
    }
    path = tmp_path / "gerbe.json"
    path.write_text(json.dumps(gerbe))
    code, out, _ = run_cli("dualize-gerbe", "--input", str(path), "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["class_equals_cross_product"]
    assert obj["two_gerbe_report"]["passed"]


@pytest.mark.parametrize("argv, expected", [
    (["--preset", "monopole:3"], "dualize_monopole3.json"),
    (["--input", str(GOLDEN / "gerbe4_input.json")], "dualize_gerbe4.json"),
    (["--input", str(GOLDEN / "gerbe7_input.json")], "dualize_gerbe7.json"),
])
def test_dualize_gerbe_json_matches_golden(argv, expected):
    # the golden files are earlier output, byte for byte; the 3-gerbe's
    # top slot on six-fold tuples has since been renamed to match the
    # 2-gerbe's mu_nerve_cocycle
    golden = (GOLDEN / expected).read_text().replace('"nu_sixfold"', '"nu_nerve_cocycle"')
    code, out, _ = run_cli("dualize-gerbe", *argv, "--format", "json")
    assert code == 0
    assert out == golden


def _coupling_metric_json(terms: int = 25, seed: int = 25):
    # Taub-NUT with a fixed coupling sum of (n/d) g^e, n, d in 1..9, e in 1..3
    from tdual.expr import add, mul, pow_, rat, sym
    from tdual.geometry import make_taub_nut
    rng = random.Random(seed)
    coupling = add(*[mul(rat(rng.randint(1, 9), rng.randint(1, 9)),
                         pow_(sym("g"), rng.randint(1, 3))) for _ in range(terms)])
    return make_taub_nut(coupling).to_json()


@pytest.mark.parametrize("argv, expected", [
    (["--preset", "taub-nut", "--verify", "involution"], "buscher_taub_nut_involution.json"),
    (["--b-field", "dyonic", "--verify", "dyonic", "--seed", "7"], "buscher_dyonic_seed7.json"),
    (["--input", "coupling25.json"], "buscher_coupling25.json"),
    # the profile H is written out again in every entry: the reader, the
    # normal form and the double dual on one metric of many shared subtrees
    (["--input", "coupling100.json", "--verify", "involution"],
     "buscher_coupling100_involution.json"),
])
def test_buscher_json_matches_golden(argv, expected, tmp_path, monkeypatch):
    # the golden files are earlier output, byte for byte; the input path is
    # echoed, so the input is read from the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "coupling25.json").write_text(json.dumps(_coupling_metric_json()))
    (tmp_path / "coupling100.json").write_text(json.dumps(_coupling_metric_json(100, seed=1)))
    code, out, _ = run_cli("buscher", *argv, "--format", "json")
    assert code == 0
    assert out == (GOLDEN / expected).read_text()


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("argv, golden, exit_code", [
    *[(["verify", suite, "--seed", "7"], f"verify_{suite}_seed7", 0)
      for suite in ("metrics", "dyonic", "cohomology", "gerbes", "semifree")],
    # no float comparison meets a tolerance of 1e-300: fails with witnesses
    *[(["verify", suite, "--seed", "7", "--tol", "1e-300"], f"verify_{suite}_tol1e-300", 1)
      for suite in ("metrics", "dyonic")],
    # 300 points per check: three blocks of sampled points
    (["verify", "metrics", "--seed", "7", "--trials", "300"], "verify_metrics_seed7_trials300", 0),
])
def test_verify_matches_golden(argv, golden, exit_code, fmt):
    # the golden files are earlier output, byte for byte
    code, out, err = run_cli(*argv, *(["--format", "json"] if fmt == "json" else []))
    assert (code, err) == (exit_code, "")
    assert out == (GOLDEN / f"{golden}.{fmt}").read_text()


def test_classify_and_tdualize_presets():
    code, out, _ = run_cli("classify", "--preset", "charge:3")
    assert code == 0 and "bundle class: [3]" in out
    code, out, _ = run_cli("tdualize", "--preset", "kk")
    assert code == 0 and "flux class: [1]" in out and "[PASS]" in out


def test_tdualize_record_from_json(tmp_path):
    record = {"base": "coneS2", "fixed": ["v"], "complement": ["u", "f2"],
              "class": [2], "name": "charge-2"}
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(record))
    code, out, _ = run_cli("tdualize", "--input", str(path))
    assert code == 0
    assert "flux class: [2]" in out


def test_spectrum_output():
    code, out, _ = run_cli("spectrum")
    assert code == 0
    assert "coneS2 x S1" in out
    assert "non-separable" in out


def test_homotopy_table():
    code, out, _ = run_cli("homotopy", "--centers", "5")
    assert code == 0
    assert "H_2 = Z^4" in out


def test_buscher_without_verification_prints_only_its_header():
    assert run_cli("buscher", "--verify", "none") == (0, "buscher dual of taub-nut\n", "")


def test_trivial_record_classifies_and_dualizes_to_empty_classes():
    code, out, _ = run_cli("classify", "--preset", "trivial")
    assert code == 0
    assert out.splitlines()[2:] == ["  fixed locus cells: (empty)", "  bundle class: []"]
    code, out, _ = run_cli("tdualize", "--preset", "trivial")
    assert code == 0
    assert "  flux class: []" in out.splitlines()
    assert out.endswith("[PASS] fiber integration returns the bundle class\n")


@pytest.mark.parametrize("suite", ["metrics", "dyonic", "cohomology", "gerbes", "semifree"])
def test_verify_suites_pass_within_budget(suite):
    import time
    start = time.perf_counter()
    code, out, _ = run_cli("verify", suite)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "FAIL" not in out
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# failure and error paths

def test_malformed_input_exits_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"not": "a metric"}')
    code, _, err = run_cli("buscher", "--input", str(path))
    assert code == 2
    assert "error" in err


R_JSON = {"k": "sym", "name": "r"}


MALFORMED_ENTRIES = [
    ([1, 1, {"k": "rat", "v": [1, 0]}], "nonzero denominator"),
    ([1, 1, {"k": "pow", "base": R_JSON, "exp": [1, 0]}], "nonzero denominator"),
    ([1, 1, {"k": "sym", "name": "zeta"}], "symbol 'zeta' has no sampling box"),
    ([1, 1, {"k": "app", "name": "F", "deriv": [0], "args": [R_JSON]}],
     "no function F/1 is registered"),
    ([7, 7, R_JSON], "outside the 4-dim chart"),
    ([1, 1, {"k": "pow", "base": {"k": "rat", "v": [0, 1]}, "exp": [-1, 1]}],
     "0 raised to a negative power"),
    ([1, 1, {"k": "root", "arg": R_JSON}], "malformed expression node {'k': 'root'"),
    ([1, 1, {"k": "app", "name": "H", "deriv": [-1, 0], "args": [R_JSON, R_JSON]}],
     "one order >= 0 per argument"),
    ([1, 1, {"k": "app", "name": "H", "deriv": [10 ** 6, 0], "args": [R_JSON, R_JSON]}],
     "derivative order 1000000 exceeds"),
    # a component given twice is ambiguous
    ([0, 0, R_JSON], "g component (0, 0) is given twice"),
    ([3, 0, R_JSON], "g component (0, 3) is given twice"),
    # a chart field of the wrong type, given as {field: value}
    ({"names": [0, "r", "theta", "phi"]}, "chart 'names' must be a list of str"),
    ({"periodic": ["no", False, False, False]}, "chart 'periodic' must be a list of bool"),
    # a node without one of its fields names the field
    ([1, 1, {"k": "rat"}], "malformed expression node {'k': 'rat'}: missing field 'v'"),
    ([1, 1, {"v": [1, 1]}], "malformed expression node {'v': [1, 1]}: missing field 'k'"),
]


def _malformed_metric(entry):
    from tdual.geometry import make_taub_nut
    obj = make_taub_nut().to_json()
    if type(entry) is dict:
        obj["chart"].update(entry)
    elif entry[:2] == [1, 1]:       # the reader refuses a second (1, 1) entry
        _replace_entry(obj, 1, 1, entry[2])
    else:
        obj["g"].append(entry)
    return obj


@pytest.mark.parametrize("entry, message", MALFORMED_ENTRIES)
def test_malformed_metric_entry_exits_two(entry, message, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_malformed_metric(entry)))
    code, out, err = run_cli("buscher", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("entry, message", MALFORMED_ENTRIES)
def test_sampling_failure_of_a_malformed_metric_is_the_per_root_scan(entry, message):
    import expr_oracle
    from tdual.expr import DomainError, sampling_failure
    from tdual.geometry import MetricData, taub_nut_sample_spec
    spec = taub_nut_sample_spec()
    try:
        m = MetricData.from_json(_malformed_metric(entry), spec)
    except (DomainError, KeyError, TypeError, ValueError):
        return      # refused by the reader, before any scan
    roots = [*m.g_upper.values(), *m.b_upper.values()]
    assert sampling_failure(roots, spec) == expr_oracle.sampling_failure(roots, spec)
    assert message in sampling_failure(roots, spec)


def _replace_entry(obj, i, j, node):
    obj["g"] = [e for e in obj["g"] if e[:2] != [i, j]] + ([[i, j, node]] if node else [])
    return obj


def _sin_chain_g00(depth):
    """The Taub-NUT metric JSON with g00 = sin(sin(...(r))), ``depth`` deep."""
    from tdual.geometry import make_taub_nut
    text = json.dumps(_replace_entry(make_taub_nut().to_json(), 0, 0, "@"))
    return text.replace('"@"', '{"k": "sin", "arg": ' * depth + json.dumps(R_JSON) + "}" * depth)


@pytest.mark.parametrize("command, text", [
    ("buscher", lambda: _sin_chain_g00(400)),           # too deep for the expression reader
    ("buscher", lambda: _sin_chain_g00(3000)),          # too deep for the JSON decoder
    ("dualize-gerbe", lambda: "[" * 5000 + "]" * 5000),
    ("classify", lambda: "[" * 5000 + "]" * 5000),
])
def test_deeply_nested_input_exits_two(command, text, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(text())
    code, out, err = run_cli(command, "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read ") and err.count("\n") == 1
    assert err.endswith(": input nested too deeply\n")


@pytest.mark.parametrize("verify", ["none", "involution", "g-h", "dyonic"])
def test_a_metric_nested_to_the_reader_bound_runs_every_verify(verify, tmp_path):
    from tdual.expr import MAX_DEPTH
    path = tmp_path / "deep.json"
    path.write_text(_sin_chain_g00(MAX_DEPTH))
    code, out, err = run_cli("buscher", "--input", str(path), "--verify", verify,
                             "--format", "json")
    assert code in (0, 1) and err == ""
    assert [c["passed"] for c in json.loads(out)["checks"]] == [code == 0] * (verify != "none")


def test_a_metric_nested_past_the_reader_bound_exits_two(tmp_path):
    from tdual.expr import MAX_DEPTH
    path = tmp_path / "deep.json"
    path.write_text(_sin_chain_g00(MAX_DEPTH + 1))
    code, out, err = run_cli("buscher", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot read metric from {path}: input nested too deeply\n"


@pytest.mark.parametrize("source", [("--preset", "taub-nut"), ("--preset", "multi3"),
                                    ("--b-field", "dyonic"), ("--input", "coupling")])
def test_the_buscher_payload_leaves_the_shared_dicts_as_written(source, tmp_path, monkeypatch):
    from tdual import geometry as geo
    from tdual.expr import add, mul, pow_, rat, sym
    if source[1] == "coupling":
        g = sym("g")
        coupling = add(*[mul(rat(n, 7), pow_(g, n % 3 + 1)) for n in range(1, 40)])
        source = ("--input", str(tmp_path / "m.json"))
        Path(source[1]).write_text(json.dumps(geo.make_taub_nut(coupling).to_json()))
    written, to_json = [], geo.MetricData.to_json
    monkeypatch.setattr(geo.MetricData, "to_json",
                        lambda m: written.append((obj := to_json(m), json.dumps(obj))) or obj)
    code, out, _ = run_cli("buscher", *source, "--verify", "involution", "--format", "json")
    assert code == 0 and len(written) == 1
    obj, text = written[0]
    assert json.dumps(obj) == text and json.loads(out)["dual"] == json.loads(text)


R_MINUS_10 = {"k": "sum", "terms": [R_JSON, {"k": "rat", "v": [-10, 1]}]}


@pytest.mark.parametrize("edit, argv, message", [
    (lambda o: _replace_entry(o, 0, 0, None), (), "g00 is identically zero"),
    (lambda o: _replace_entry(o, 0, 0, {"k": "pow", "base": R_MINUS_10, "exp": [1, 2]}), (),
     "g00 vanishes on the sample domain"),
    (lambda o: _replace_entry(o, 2, 2, {"k": "pow", "base": R_MINUS_10, "exp": [-1, 2]}), (),
     "under fractional power -1/2"),
    (lambda o: _replace_entry(o, 0, 0, {"k": "rat", "v": [10 ** 400, 1]}), (),
     "rational constant outside the float range"),
    (lambda o: _replace_entry(o, 2, 2, {"k": "app", "name": "H", "deriv": [0, 0], "args": [
        R_JSON, {"k": "rat", "v": [1, 10 ** 300]}]}), (), "non-finite value from H"),
    (lambda o: _replace_entry(o, 2, 2, {"k": "sin", "arg": {"k": "prod", "factors": [
        {"k": "rat", "v": [10 ** 308, 1]}, {"k": "sum", "terms": [R_JSON, {"k": "rat", "v": [2, 1]}]}]}}),
     (), "sin of non-finite inf"),
    (lambda o: _replace_entry(o, 1, 1, None), ("--verify", "dyonic"),
     "dyonic verification needs a monopole-shaped metric"),
    # 10^308 r^2 is inf on the whole box, so no sample can be compared
    (lambda o: _replace_entry(o, 2, 2, {"k": "prod", "factors": [
        {"k": "rat", "v": [10 ** 308, 1]}, R_JSON, R_JSON]}), ("--verify", "involution"),
     "non-finite sample value inf"),
])
def test_unsamplable_metric_exits_two(edit, argv, message, tmp_path):
    from tdual.geometry import make_taub_nut
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(make_taub_nut().to_json())))
    code, out, err = run_cli("buscher", "--input", str(path), *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def _psi_chart_metric(tmp_path) -> str:
    """A file holding the Taub-NUT metric JSON on the chart (kappa, r, theta, psi)."""
    from tdual.geometry import make_taub_nut
    obj = make_taub_nut().to_json()
    obj["chart"]["names"][3] = "psi"
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("argv, what", [
    ((), "g-h verification"),
    (("--verify", "dyonic"), "dyonic verification"),
    (("--b-field", "dyonic"), "the dyonic b-field"),
    (("--b-field", "dyonic", "--verify", "involution"), "the dyonic b-field"),
])
def test_monopole_checks_refuse_a_metric_on_another_chart(argv, what, tmp_path):
    assert run_cli("buscher", "--input", _psi_chart_metric(tmp_path), *argv) == (
        2, "", f"error: {what} needs a metric on the chart (kappa, r, theta, phi) "
               "with kappa and phi periodic\n")


def test_a_metric_on_another_chart_dualizes_and_checks_its_involution(tmp_path):
    code, out, _ = run_cli("buscher", "--input", _psi_chart_metric(tmp_path),
                           "--verify", "involution", "--format", "json")
    assert code == 0
    assert json.loads(out)["dual"]["chart"]["names"] == ["kappa", "r", "theta", "psi"]


def test_a_chart_mismatch_is_witnessed_by_the_chart():
    from argparse import Namespace
    from tdual.cli import _equal
    from tdual.expr import Chart
    from tdual.geometry import make_taub_nut, metric
    tn = make_taub_nut()
    other = metric(Chart(("kappa", "r", "theta", "psi"), tn.chart.periodic), tn.g_upper)
    verdict = _equal(Namespace(trials=10, tol=1e-9, seed=1), "same metric", tn, other)
    assert verdict.to_json() == {"name": "same metric", "passed": False,
                                 "witness": {"component": ["chart"], "point": None}}


def test_the_deepest_metric_the_reader_takes_passes_the_sampling_scan(tmp_path):
    from tdual.cli import InputError, _load_metric
    path = tmp_path / "deep.json"

    def loads(depth: int) -> bool:
        path.write_text(_sin_chain_g00(depth))
        try:
            _load_metric(str(path))     # a RecursionError in the scan escapes
        except InputError as exc:
            assert str(exc).endswith(": input nested too deeply")
            return False
        return True

    taken, refused = 1, 400
    assert loads(taken) and not loads(refused)
    while refused - taken > 1:      # every depth tried is a tree the reader took or refused
        mid = (taken + refused) // 2
        taken, refused = (mid, refused) if loads(mid) else (taken, mid)
    assert taken > 100


@pytest.mark.parametrize("suite, failing", [
    ("metrics", ["taub-nut dual equals H((dk)^2 + dr.dr)",
                 "2-center dual equals H((dk)^2 + dr.dr)",
                 "dual conformal factor is the monopole profile"]),
    ("dyonic", ["dual of (g, beta*Omega) is the shifted product metric",
                "per-center dual matches the H_i/H-shifted product metric"]),
])
def test_failing_identity_check_reports_its_witness(suite, failing):
    # no float comparison meets a tolerance of 1e-300 everywhere
    code, out, err = run_cli("verify", suite, "--tol", "1e-300", "--format", "json")
    assert code == 1 and err == ""
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == failing
    for c in checks:
        assert ("witness" in c) == (not c["passed"])
        if not c["passed"]:
            assert c["witness"]["component"][0] == "g"
            assert c["witness"]["point"]["abs_diff"] > 0
            assert set(c["witness"]["point"]["point"]) >= {"r", "theta", "g"}
    code, out, _ = run_cli("verify", suite, "--tol", "1e-300")
    lines = out.splitlines()
    assert code == 1
    for name in failing:
        at = lines.index(f"[FAIL] {name}")
        assert lines[at + 1].startswith("        witness: (('g', ")


def test_unknown_suite_exits_two():
    code, _, err = run_cli("verify", "nope")
    assert code == 2


def test_unknown_space_exits_two():
    code, _, err = run_cli("cohomology", "--space", "K3", "--degree", "2")
    assert code == 2


@pytest.mark.parametrize("space,degree", [("L1p:abc", "1"), ("L1p:0", "1"), ("L1p:-2", "1"),
                                          ("wedge:x", "1"), ("wedge:-3", "2"), ("wedge:", "2")])
def test_malformed_space_size_exits_two(space, degree):
    code, out, err = run_cli("cohomology", "--space", space, "--degree", degree)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["classify", "tdualize"])
def test_malformed_charge_preset_exits_two(command):
    code, out, err = run_cli(command, "--preset", "charge:x")
    assert code == 2
    assert out == "" and err == "error: preset must be kk, trivial, or charge:<p>\n"


def test_zero_trials_is_a_usage_error():
    code, out, err = run_cli("buscher", "--preset", "taub-nut", "--trials", "0")
    assert code == 2
    assert out == ""
    assert "argument --trials: trials must be >= 1" in err
    assert "Traceback" not in err


def test_non_integer_trials_is_a_usage_error():
    code, out, err = run_cli("buscher", "--trials", "abc")
    assert (code, out) == (2, "")
    assert err.endswith("tdual buscher: error: argument --trials: invalid int value: 'abc'\n")


@pytest.mark.parametrize("argv, line", [
    (["dualize-gerbe"], "error: need --preset or --input\n"),
    (["classify"], "error: need --preset or --input\n"),
    (["homotopy", "--centers", "0"], "error: --centers must be >= 1\n"),
])
def test_missing_or_nonpositive_input_exits_two(argv, line):
    assert run_cli(*argv) == (2, "", line)


@pytest.mark.parametrize("argv", [["buscher", "--preset", "taub-nut"], ["verify", "metrics"]])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tol_outside_finite_nonnegative_is_a_usage_error(argv, tol):
    # NaN and inf would certify any metric, and -1 fail equal sides
    code, out, err = run_cli(*argv, "--tol", tol)
    assert (code, out) == (2, "")
    assert f"argument --tol: tol must be a finite number >= 0, got {float(tol)}\n" in err


def test_unwritable_output_exits_two(tmp_path):
    path = tmp_path / "missing" / "h2.txt"
    code, out, err = run_cli("cohomology", "--space", "CP2", "--degree", "2", "--output", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {path}: No such file or directory\n"


def test_invalid_gerbe_exits_two(tmp_path):
    gerbe = {
        "space": "S3plus",
        "cover": [["v", "u", "a", "f2", "c3"], ["u", "f2", "c3out"]],
        # not a cocycle on the overlap is impossible in degree 2 here, so
        # corrupt the section data instead: a theta with no triples is
        # rejected by the nerve, so supply a bad pair vector length
        "p": {"0,1": [1, 2]},
    }
    path = tmp_path / "bad_gerbe.json"
    path.write_text(json.dumps(gerbe))
    code, _, err = run_cli("dualize-gerbe", "--input", str(path))
    assert code == 2


def test_failing_matching_slot_exits_one_with_its_cell(tmp_path):
    # delta_n p is nonzero on the 2-cell f2 of U_012, which has no 1-cells
    gerbe = {"space": "S3plus", "p": {"0,1": [1]},
             "cover": [["v", "u", "a", "f2", "c3"], ["u", "f2", "c3out"],
                       ["v", "u", "a", "f2", "c3"]]}
    path = tmp_path / "gerbe.json"
    path.write_text(json.dumps(gerbe))
    code, out, _ = run_cli("dualize-gerbe", "--input", str(path))
    assert code == 1
    assert out == ("[FAIL] 2-gerbe validity\n"
                   "        p_theta_matching fails at (0, 1, 2)\n")
    code, out, _ = run_cli("dualize-gerbe", "--input", str(path), "--format", "json")
    failures = [c for c in json.loads(out)["two_gerbe_report"]["conditions"] if not c["ok"]]
    assert code == 1
    assert failures == [{"name": "p_theta_matching", "tuple": [0, 1, 2], "ok": False,
                         "witness": "f2"}]


TWO_PATCH_GERBE = {"space": "S3plus", "p": {"0,1": [1]},
                   "cover": [["v", "u", "a", "f2", "c3"], ["u", "f2", "c3out"]]}
CHARGE_2_RECORD = {"base": "coneS2", "fixed": ["v"], "complement": ["u", "f2"], "class": [2],
                   "name": "charge-2"}


@pytest.mark.parametrize("gerbe, message", [
    (dict(TWO_PATCH_GERBE, space={"cells": [1]}), "cells must be a JSON object, got [1]"),
    (dict(TWO_PATCH_GERBE, space=["S3plus"]), "space must be a JSON object"),
    (dict(TWO_PATCH_GERBE, p=[1]), "p must be a JSON object, got [1]"),
    (dict(TWO_PATCH_GERBE, p={"0,1": [1.5]}), "p 0,1 must be a JSON array of integers"),
    (dict(TWO_PATCH_GERBE, p={"0,1": [True]}), "p 0,1 must be a JSON array of integers"),
    (dict(TWO_PATCH_GERBE, cover=["vuaf2c3", "uf2c3out"]), "cover set must be a JSON array"),
    ([TWO_PATCH_GERBE], "gerbe must be a JSON object"),
    # the trivial gerbe on S2: its class would lie in H^3 of a 2-complex
    ({"space": "S2", "cover": [["v", "c2"], ["v", "c2"]]},
     "a 2-gerbe's class has degree 3, above the top cell degree 2 of S2"),
    ({"space": {"cells": {"0": ["v"], "1": ["e"]}, "boundaries": {"1": [["e", "v", 1.5]]}},
      "cover": [["v", "e"]]}, "coefficient of v in e must be a JSON integer"),
    ({"space": {"name": ["X"], "cells": {"0": ["v"]}}, "cover": [["v"]]},
     "name must be a JSON string"),
    # a degree -1 cell has no circle product cell, which the dual cover needs
    ({"space": {"cells": {"-1": ["w"], "0": ["v"], "3": ["c"]}}, "cover": [["v", "c", "w"]]},
     "cells need degrees >= 0 and distinct ids"),
    ({"space": {"cells": {"0": ["v"], "1": ["v"], "3": ["c"]}}, "cover": [["v", "c"]]},
     "cells need degrees >= 0 and distinct ids"),
    # incidences at degrees the space does not have name their missing face
    ({"space": {"name": "X", "cells": {"0": ["v"], "3": ["c"]},
                "boundaries": {"5": [["zz", "qq", 7]], "7": [["c", "v", 3]]}},
      "cover": [["v", "c"]]},
     "cannot read gerbe: degree 5 incidence of 'qq' in 'zz': there is no face 'qq' of degree 4"),
])
def test_malformed_gerbe_json_exits_two(gerbe, message, tmp_path):
    path = tmp_path / "gerbe.json"
    path.write_text(json.dumps(gerbe))
    code, out, err = run_cli("dualize-gerbe", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read gerbe: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("layer, key, message", [
    # a key's length is the layer's tuple length, named before the nerve is consulted
    ("p", "0", "p tuple (0,) has length 1; the p layer expects 2"),
    ("theta", "0,1", "theta tuple (0, 1) has length 2; the theta layer expects 3"),
    ("p", "", "p key '' is not comma-separated integers"),
    ("mu", "a,b", "mu key 'a,b' is not comma-separated integers"),
    # a key of the right length names a tuple that is not in the nerve
    ("p", "0,0", "tuple (0, 0) has repeated indices"),
    ("p", "0,2", "tuple (0, 2) is not a nonempty nerve tuple"),
])
def test_gerbe_json_keys_name_their_layer(layer, key, message, tmp_path):
    path = tmp_path / "gerbe.json"
    path.write_text(json.dumps(dict(TWO_PATCH_GERBE, **{layer: {key: [1]}})))
    code, out, err = run_cli("dualize-gerbe", "--input", str(path))
    assert (code, out, err) == (2, "", f"error: cannot read gerbe: {message}\n")


@pytest.mark.parametrize("command", ["classify", "tdualize"])
@pytest.mark.parametrize("record, message", [
    (dict(CHARGE_2_RECORD, base=["x"]), "base must be a JSON string"),
    (dict(CHARGE_2_RECORD, **{"class": [1.5]}), "class must be a JSON array of integers"),
    (dict(CHARGE_2_RECORD, name=["charge-2"]), "name must be a JSON string"),
    (dict(CHARGE_2_RECORD, complement="u"), "complement must be a JSON array of strings"),
    (dict(CHARGE_2_RECORD, fixed=[0]), "fixed must be a JSON array of strings"),
    # a class on a complement with no 2-cells has no degree-3 cross product
    (dict(CHARGE_2_RECORD, complement=[], **{"class": []}),
     "the bundle class has degree 2, above the top cell degree 0 of the complement"),
    ([CHARGE_2_RECORD], "record must be a JSON object"),
])
def test_malformed_record_json_exits_two(command, record, message, tmp_path):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    code, out, err = run_cli(command, "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read record: ") and err.count("\n") == 1
    assert message in err


def test_record_outside_its_subcomplex_names_the_first_face_in_face_order(tmp_path):
    # a's faces are u (+1) and v (-1); v comes first in the 0-cell order
    path = tmp_path / "record.json"
    path.write_text(json.dumps(dict(CHARGE_2_RECORD, complement=["a"])))
    code, out, err = run_cli("classify", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "error: cannot read record: boundary of a leaves the cell set at v\n"


@pytest.mark.parametrize("argv", [
    ["--preset", "multi2", "--b-field", "dyonic"],
    ["--preset", "multi2", "--b-field", "dyonic", "--verify", "involution"],
    ["--preset", "multi3", "--verify", "dyonic"],
])
def test_multi_center_dyonic_is_an_input_error(argv):
    # the dyonic field and shift are written on the single-center H(r, g)
    code, out, err = run_cli("buscher", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: multi") and err.count("\n") == 1
    assert "no registered function H/2" in err


@pytest.mark.parametrize("argv, line", [
    (["cohomology", "--space", "foo", "--degree", "1"], "unknown builtin space 'foo'"),
    (["buscher", "--preset", "multi2", "--b-field", "dyonic"],
     "multi2: no registered function H/2"),
    (["buscher", "--preset", "multi3", "--verify", "dyonic"],
     "multi3: no registered function H/2"),
], ids=["cohomology", "multi2", "multi3"])
def test_missing_name_errors_print_the_message_unquoted(argv, line):
    assert run_cli(*argv) == (2, "", f"error: {line}\n")


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


@pytest.mark.parametrize("command, obj, what", [
    ("buscher", {"g": [], "b": []}, "metric from {path}: missing field 'chart'"),
    ("buscher", {"chart": {"names": ["kappa"]}, "g": [], "b": []},
     "metric from {path}: missing field 'periodic'"),
    ("buscher", {"chart": {"names": [], "periodic": []}, "g": [], "b": []},
     "metric from {path}: a chart needs at least the fiber coordinate"),
    ("dualize-gerbe", _without(TWO_PATCH_GERBE, "cover"), "gerbe: missing field 'cover'"),
    ("dualize-gerbe", dict(TWO_PATCH_GERBE, space="foo"), "gerbe: unknown builtin space 'foo'"),
    ("dualize-gerbe", dict(TWO_PATCH_GERBE, space="L1p:x"),
     "gerbe: builtin space L1p:<p> needs an integer p >= 1, got 'L1p:x'"),
    ("classify", _without(CHARGE_2_RECORD, "complement"), "record: missing field 'complement'"),
    ("tdualize", dict(CHARGE_2_RECORD, base="foo"), "record: unknown builtin space 'foo'"),
])
def test_reader_errors_name_the_missing_field_or_space(command, obj, what, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    line = f"error: cannot read {what.format(path=path)}\n"
    assert run_cli(command, "--input", str(path)) == (2, "", line)


@pytest.mark.parametrize("preset", ["monopole:x", "monopole:", "dirac:2"])
def test_malformed_gerbe_preset_exits_two(preset):
    code, out, err = run_cli("dualize-gerbe", "--preset", preset)
    assert code == 2
    assert out == "" and err == "error: preset must be monopole:<n>\n"


def test_gerbe_failing_a_slot_exits_one(tmp_path):
    gerbe = json.loads((GOLDEN / "gerbe7_input.json").read_text())
    gerbe["mu"]["0,1,2,5"][0] += 1
    path = tmp_path / "bad_mu.json"
    path.write_text(json.dumps(gerbe))
    code, out, _ = run_cli("dualize-gerbe", "--input", str(path))
    assert code == 1
    assert out == ("[FAIL] 2-gerbe validity\n"
                   "        mu_nerve_cocycle fails at (0, 1, 2, 3, 5)\n")


@pytest.mark.parametrize("fmt, golden", [("table", "dualize_gerbe7_bad.txt"),
                                         ("json", "dualize_gerbe7_bad.json")])
def test_failing_gerbe_report_matches_golden(fmt, golden):
    # earlier output, byte for byte: gerbe7_input.json with one entry changed
    # in theta and one in mu, so every failing tuple and cell id is pinned
    code, out, _ = run_cli("dualize-gerbe", "--input", str(GOLDEN / "gerbe7_bad_input.json"),
                           "--format", fmt)
    assert code == 1
    assert out == (GOLDEN / golden).read_text()


def test_usage_error_exits_two():
    code, _, _ = run_cli("no-such-command")
    assert code == 2


# ---------------------------------------------------------------------------
# determinism

@pytest.mark.parametrize("command", [None, "buscher", "cohomology", "dualize-gerbe", "classify",
                                     "tdualize", "spectrum", "homotopy", "verify"])
def test_help_matches_golden(command, monkeypatch):
    # earlier output, byte for byte, at argparse's 80-column width
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run_cli(*([command] if command else []), "--help")
    assert code == 0
    assert out == (GOLDEN / f"help_{command or 'top'}.txt").read_text()


IMPORTS_AFTER = """
import contextlib, io, json, sys
import tdual.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert tdual.cli.main(sys.argv[1:]) == 0
print(json.dumps([name for name in sys.modules if name.startswith("tdual")]))
"""


def _tdual_modules_after(*argv) -> set:
    """The tdual modules of a fresh interpreter that imported tdual.cli and,
    given an argv, ran ``main`` on it."""
    import tdual
    src = str(Path(tdual.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", IMPORTS_AFTER, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout))


def test_the_cli_names_no_private_expr_name():
    import ast
    from tdual import cli, expr
    tree = ast.parse(Path(cli.__file__).read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
               for alias in node.names}         # from . import expr as ex, geometry as geo
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module for alias in node.names]
    read = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in modules]
    assert {"ex", "geo"} <= modules and "DomainError" in read
    assert [name for name in imported + read if name.startswith("_") and hasattr(expr, name)] == []


def test_importing_the_cli_loads_no_layer():
    assert _tdual_modules_after() == {"tdual", "tdual.cli"}


INTEGER_LAYERS = {"tdual.intlin", "tdual.complexes", "tdual.cohomology"}
METRIC_LAYERS = {"tdual.expr", "tdual.geometry"}


@pytest.mark.parametrize("argv, loaded, absent", [
    (["cohomology", "--space", "CP2", "--degree", "2"], INTEGER_LAYERS,
     METRIC_LAYERS | {"tdual.gerbes", "tdual.semifree"}),
    (["verify", "cohomology"], INTEGER_LAYERS, METRIC_LAYERS | {"tdual.gerbes", "tdual.semifree"}),
    (["buscher", "--preset", "taub-nut"], METRIC_LAYERS,
     INTEGER_LAYERS | {"tdual.gerbes", "tdual.semifree"}),
    (["verify", "metrics"], METRIC_LAYERS, INTEGER_LAYERS | {"tdual.gerbes", "tdual.semifree"}),
    (["classify", "--preset", "kk"], {"tdual.semifree"}, METRIC_LAYERS),
    (["dualize-gerbe", "--preset", "monopole:2"], {"tdual.gerbes"}, METRIC_LAYERS),
])
def test_each_command_loads_only_its_layers(argv, loaded, absent):
    modules = _tdual_modules_after(*argv)
    assert loaded <= modules and not modules & absent


def test_byte_identical_output_for_fixed_seed():
    runs = [run_cli("verify", "metrics", "--seed", "7", "--format", "json")
            for _ in range(2)]
    assert runs[0] == runs[1]
    different = run_cli("buscher", "--preset", "taub-nut", "--format", "json",
                        "--seed", "9")
    same = run_cli("buscher", "--preset", "taub-nut", "--format", "json",
                   "--seed", "9")
    assert different == same


def test_entry_point_runs_as_module():
    proc = subprocess.run([sys.executable, "-m", "tdual.cli", "cohomology",
                           "--space", "CP2", "--degree", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Z" in proc.stdout


def test_env_var_overrides_default_seed(monkeypatch):
    import tdual.cli as cli
    monkeypatch.setenv("TDUAL_SEED", "12345")
    assert cli._default_seed() == 12345
    monkeypatch.setenv("TDUAL_SEED", "not-an-int")
    assert cli._default_seed() == 42


def test_metric_json_round_trips_through_buscher(tmp_path):
    from tdual.geometry import make_taub_nut
    path = tmp_path / "tn.json"
    path.write_text(json.dumps(make_taub_nut().to_json()))
    code, out, _ = run_cli("buscher", "--input", str(path), "--verify", "g-h")
    assert code == 0
    assert "[PASS]" in out


def test_failed_verification_serializes_witness(tmp_path):
    from tdual.geometry import MONOPOLE_CHART, metric, taub_nut_sample_spec
    from tdual.expr import rat, sym
    # a metric whose radial entry is not the conformal profile of its dual
    m = metric(MONOPOLE_CHART,
               {(0, 0): rat(1), (1, 1): sym("r"), (2, 2): rat(1), (3, 3): rat(1)},
               {}, taub_nut_sample_spec())
    path = tmp_path / "warped.json"
    path.write_text(json.dumps(m.to_json()))
    code, out, _ = run_cli("buscher", "--input", str(path), "--verify", "g-h",
                           "--format", "json")
    assert code == 1
    obj = json.loads(out)
    failing = [c for c in obj["checks"] if not c["passed"]]
    assert failing and failing[0]["witness"]["point"]


# ---------------------------------------------------------------------------
# fuzzing the metric JSON input path

_LEAVES = st.one_of(
    st.sampled_from(["kappa", "r", "theta", "phi", "g", "beta"]).map(
        lambda n: {"k": "sym", "name": n}),
    st.sampled_from([[0, 1], [1, 1], [-2, 1], [1, 2], [10 ** 308, 1], [1, 10 ** 300],
                     [10 ** 400, 1], [1, 10 ** 400]]).map(lambda v: {"k": "rat", "v": v}))
_EXPONENTS = st.sampled_from([[-2, 1], [-1, 1], [-1, 2], [1, 2], [3, 2], [2, 1], [3, 1]])
_NODES = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.lists(kids, min_size=1, max_size=3).map(lambda ts: {"k": "sum", "terms": ts}),
    st.lists(kids, min_size=1, max_size=3).map(lambda fs: {"k": "prod", "factors": fs}),
    st.tuples(kids, _EXPONENTS).map(lambda t: {"k": "pow", "base": t[0], "exp": t[1]}),
    st.tuples(st.sampled_from(["sin", "cos"]), kids).map(lambda t: {"k": t[0], "arg": t[1]}),
    st.tuples(kids, kids, st.lists(st.integers(0, 2), min_size=2, max_size=2)).map(
        lambda t: {"k": "app", "name": "H", "deriv": t[2], "args": [t[0], t[1]]}),
), max_leaves=6)
_INDEX = st.sampled_from([0, 0, 1, 2, 3, 3, 4, -1])       # 4 and -1 lie outside the chart
# (half, i, j, node): replace the (i, j) entry, or remove it when node is None
_EDITS = st.lists(st.tuples(st.sampled_from(["g", "g", "b"]), _INDEX, _INDEX,
                            st.none() | _NODES), max_size=4)

# fields given the wrong JSON type
_WRONG_TYPES = [
    lambda o: o["chart"].update(names="kappa"),
    lambda o: o["chart"].update(periodic=[]),
    lambda o: o["chart"].update(names=[]),
    lambda o: o.update(g={"0": 1}),
    lambda o: o.update(b=None),
    lambda o: o["g"].append([0, "1", {"k": "sym", "name": "r"}]),
    lambda o: o["g"].append([1, 1]),
    lambda o: o["g"].append([1, 1, "r"]),
    lambda o: o["g"].append([1, 1, {"k": "sym", "name": 3}]),
    lambda o: o["g"].append([1, 1, {"k": "app", "name": "H", "deriv": 0, "args": []}]),
]


@settings(max_examples=120, deadline=None)
@given(_EDITS, st.none() | st.sampled_from(_WRONG_TYPES), st.sampled_from(["g-h", "involution"]))
def test_fuzzed_metric_input_never_escapes(tmp_path_factory, edits, wrong_type, verify):
    from tdual.geometry import make_taub_nut
    obj = make_taub_nut().to_json()
    for half, i, j, node in edits:
        obj[half] = [e for e in obj[half] if e[:2] != [i, j]]
        if node is not None:
            obj[half].append([i, j, node])
    if wrong_type is not None:
        wrong_type(obj)
    path = tmp_path_factory.getbasetemp() / "fuzzed_metric.json"
    path.write_text(json.dumps(obj))
    code, _, _ = run_cli("buscher", "--input", str(path), "--trials", "3", "--verify", verify)
    assert code in (0, 1, 2)


# ---------------------------------------------------------------------------
# fuzzing the gerbe and record JSON input paths

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2)
    | st.sampled_from(["", "v", "u", "0,1", "S3plus", "S2"]),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.sampled_from(["cells", "boundaries", "name", "0", "1", "0,1"]), kids, max_size=3),
    max_leaves=6)
_CELL_IDS = st.lists(st.sampled_from(["v", "u", "a", "e", "f2", "c2", "c3", "c3out", "x"]),
                     max_size=6)
_BLOCK = st.dictionaries(st.sampled_from(["0,1", "1,0", "0,2", "0,0", "0,1,2", "0,1,2,3", "x"]),
                         st.lists(st.integers(-3, 3), max_size=3), max_size=3)
_COMPLEX = st.fixed_dictionaries(
    {"cells": st.dictionaries(st.sampled_from(["0", "1", "2", "3", "-1", "x"]),
                              _CELL_IDS | _JSON, max_size=4)},
    optional={"boundaries": st.dictionaries(
        st.sampled_from(["1", "2", "3", "x"]),
        st.lists(st.tuples(st.sampled_from(["e", "f2", "c3"]), st.sampled_from(["v", "e", "f2"]),
                           st.integers(-2, 2) | _JSON).map(list), max_size=3) | _JSON,
        max_size=2),
        "name": st.sampled_from(["X", "Y"]) | _JSON})
_GERBE_EDITS = st.fixed_dictionaries({}, optional={
    "space": st.sampled_from(["S3plus", "S3", "S2", "CP2", "S2xS1", "wedge:2", "nope"])
    | _COMPLEX | _JSON,
    "cover": st.lists(_CELL_IDS, max_size=4) | _JSON,
    **{label: _BLOCK | _JSON for label in ("p", "theta", "mu")}})
_RECORD_EDITS = st.fixed_dictionaries({}, optional={
    "base": st.sampled_from(["coneS2", "S3plus", "S2", "D2", "nope"]) | _JSON,
    "fixed": _CELL_IDS | _JSON,
    "complement": _CELL_IDS | _JSON,
    "class": st.lists(st.integers(-3, 3), max_size=3) | _JSON,
    "name": st.sampled_from(["", "r"]) | _JSON})


def _run_json_input(tmp_path_factory, command, obj):
    path = tmp_path_factory.getbasetemp() / "fuzzed_input.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(command, "--input", str(path))
    assert code in (0, 1, 2)
    assert code != 2 or (err.startswith("error: ") and err.count("\n") == 1)


@settings(max_examples=60, deadline=None)
@given(_GERBE_EDITS, st.sets(st.sampled_from(sorted(TWO_PATCH_GERBE))))
@example({"space": {"cells": [1]}}, set())
@example({"p": [1]}, set())
def test_fuzzed_gerbe_input_never_escapes(tmp_path_factory, edits, dropped):
    obj = {k: v for k, v in dict(TWO_PATCH_GERBE, **edits).items() if k not in dropped}
    _run_json_input(tmp_path_factory, "dualize-gerbe", obj)


@settings(max_examples=60, deadline=None)
@given(_RECORD_EDITS, st.sets(st.sampled_from(sorted(CHARGE_2_RECORD))),
       st.sampled_from(["classify", "tdualize"]))
@example({"base": ["x"]}, set(), "classify")
@example({"base": ["x"]}, set(), "tdualize")
def test_fuzzed_record_input_never_escapes(tmp_path_factory, edits, dropped, command):
    obj = {k: v for k, v in dict(CHARGE_2_RECORD, **edits).items() if k not in dropped}
    _run_json_input(tmp_path_factory, command, obj)
