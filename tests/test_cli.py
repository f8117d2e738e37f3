"""Command-line front end: subcommands, exit codes, determinism."""

import argparse
import importlib
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tdual import MAX_CELLS, cli
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
    # the profile H is one node table entry that every entry refers to: the
    # reader, the normal form and the double dual on many shared subtrees
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


@pytest.mark.parametrize("name", ["buscher_taub_nut_involution.json", "buscher_dyonic_seed7.json",
                                  "buscher_coupling25.json", "buscher_coupling100_involution.json"])
def test_legacy_and_table_duals_read_to_the_same_nodes(name, tmp_path):
    # golden/legacy holds the same output from before the dual was written
    # as a node table: each entry's whole tree, at every occurrence
    import expr_oracle
    from tdual.geometry import MetricData, taub_nut_sample_spec
    legacy = json.loads((GOLDEN / "legacy" / name).read_text())
    table = json.loads((GOLDEN / name).read_text())
    assert {**table, "dual": expr_oracle.inline_document(table["dual"])} == legacy
    old, new = (MetricData.from_json(doc["dual"], taub_nut_sample_spec()) for doc in (legacy, table))
    assert old.chart == new.chart
    for part in ("g_upper", "b_upper"):
        a, b = getattr(old, part), getattr(new, part)
        assert a.keys() == b.keys() and all(a[key] is b[key] for key in a)
    # each form reads back through the command line
    for form, doc in (("legacy", legacy), ("table", table)):
        path = tmp_path / f"{form}.json"
        path.write_text(json.dumps(doc["dual"]))
        code, out, err = run_cli("buscher", "--input", str(path), "--verify", "involution")
        assert (code, err) == (0, "") and "[PASS] double dual returns the input" in out


@pytest.mark.parametrize("argv, golden", [
    (["cohomology", "--space", "L1p:12", "--degree", "2", "--format", "json"],
     "cohomology_L1p12_deg2.json"),
    (["cohomology", "--space", "wedge:1100", "--degree", "2"], "cohomology_wedge1100_deg2.txt"),
    (["homotopy", "--centers", "12"], "homotopy_centers12.txt"),
])
def test_group_answers_match_golden(argv, golden):
    # the golden files are output of the coordinate route, byte for byte
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text()


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
    obj["g"] = [e for e in obj["g"] if e[:2] != [i, j]]
    obj["g"] += [[i, j, node]] if node is not None else []
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


def _g00(obj, *entries):
    """``obj`` with ``entries`` appended to its node table and g00 the last of them."""
    obj["nodes"].extend(entries)
    return _replace_entry(obj, 0, 0, len(obj["nodes"]) - 1)


def _sin_table(obj, past=0):
    """``obj`` with a chain sin(sin(...(r))), ``past`` levels deeper than the
    reader bound, appended to its node table; g00 is its top."""
    from tdual.expr import MAX_DEPTH
    n = len(obj["nodes"])
    return _g00(obj, R_JSON, *[{"k": "sin", "arg": n + i} for i in range(MAX_DEPTH + past)])


def _doubling(obj, levels):
    """The index of a_levels, for a_0 = r and a_k = sin(a_(k-1)) + cos(a_(k-1))
    appended to the node table of ``obj``: 3 entries a level, 2^(levels+2) - 3 uses."""
    n = len(obj["nodes"])
    obj["nodes"].append(R_JSON)
    for a in range(n, n + 3 * levels, 3):
        obj["nodes"] += [{"k": "sin", "arg": a}, {"k": "cos", "arg": a},
                         {"k": "sum", "terms": [a + 1, a + 2]}]
    return len(obj["nodes"]) - 1


def _pole_g00(obj, levels):
    """``obj`` with g00 = (sin(a)^2 + cos(a)^2 - 1)^-1 for a = a_levels of ``_doubling``:
    a pole at every point, whose message names the base."""
    a = _doubling(obj, levels)
    return _g00(obj, {"k": "sin", "arg": a}, {"k": "cos", "arg": a},
                {"k": "pow", "base": a + 1, "exp": [2, 1]},
                {"k": "pow", "base": a + 2, "exp": [2, 1]},
                {"k": "sum", "terms": [a + 3, a + 4, {"k": "rat", "v": [-1, 1]}]},
                {"k": "pow", "base": a + 5, "exp": [-1, 1]})


def _inline(obj):
    import expr_oracle
    return expr_oracle.inline_document(obj)


MALFORMED_TABLES = [
    # a reference to a later entry, to its own entry, out of range or negative
    (lambda o, n: _g00(o, {"k": "sin", "arg": n + 1}, R_JSON), "reference {n1} is to no earlier"),
    (lambda o, n: _g00(o, {"k": "cos", "arg": n}), "reference {n} is to no earlier"),
    (lambda o, n: _replace_entry(o, 0, 0, n + 5), "reference {n5} is to no earlier"),
    (lambda o, n: _replace_entry(o, 0, 0, -1), "reference -1 is to no earlier"),
    (lambda o, n: _g00(o, {"k": "sum", "terms": [0, -1]}), "reference -1 is to no earlier"),
    # a bool, a float or a string where a reference goes
    (lambda o, n: _replace_entry(o, 0, 0, True), "malformed expression node True"),
    (lambda o, n: _g00(o, {"k": "pow", "base": False, "exp": [1, 1]}),
     "malformed expression node False"),
    (lambda o, n: _g00(o, {"k": "prod", "factors": [0, 1.0]}), "malformed expression node 1.0"),
    (lambda o, n: _g00(o, {"k": "app", "name": "H", "deriv": [0, 0], "args": ["0", 1]}),
     "malformed expression node '0'"),
    # a table that is not a list, or an entry that is not a node object
    (lambda o, n: dict(o, nodes={"0": R_JSON}), "nodes must be a list, got {{'0'"),
    (lambda o, n: _g00(o, 3), "node {n} must be a node object, got 3"),
    (lambda o, n: _g00(o, [R_JSON]), "node {n} must be a node object, got [{{"),
    # a reference in a document without a table
    (lambda o, n: _replace_entry(_inline(o), 0, 0, 2), "reference 2 is to no earlier"),
    (lambda o, n: _replace_entry(_inline(o), 0, 0, 0), "reference 0 is to no earlier"),
    (lambda o, n: _replace_entry(_inline(o), 0, 0, {"k": "sin", "arg": 0}),
     "reference 0 is to no earlier"),
    # more nodes, each counted at every use, than the inline document may have: in
    # one entry a few KB long, or in two entries that each have fewer
    (lambda o, n: _pole_g00(o, 120), "more than 100000 nodes counted at every use"),
    (lambda o, n: _replace_entry(_replace_entry(o, 1, 1, a := _doubling(o, 14)), 0, 0, a),
     "more than 100000 nodes counted at every use"),
    # a chain of references deeper than the reader bound, in the table or below an entry
    (lambda o, n: _sin_table(o, 1), "input nested too deeply"),
    (lambda o, n: _replace_entry(_sin_table(o), 0, 0, {"k": "sin", "arg": len(o["nodes"]) - 1}),
     "input nested too deeply"),
]


@pytest.mark.parametrize("edit, message", MALFORMED_TABLES)
def test_a_malformed_node_table_is_refused(edit, message, tmp_path):
    from tdual.geometry import MetricData, make_taub_nut, taub_nut_sample_spec
    obj = make_taub_nut().to_json()
    n = len(obj["nodes"])
    obj = edit(obj, n)
    message = message.format(n=n, n1=n + 1, n5=n + 5)
    with pytest.raises(ValueError, match=re.escape(message)):
        MetricData.from_json(json.loads(json.dumps(obj)), taub_nut_sample_spec())
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli("buscher", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read metric from {path}: ") and err.count("\n") == 1
    assert message in err


def _power_chain(obj, n):
    """200 powers of powers of r, each exponent a ratio of 4 000-digit integers."""
    rng = random.Random(1)
    return _g00(obj, R_JSON, *({"k": "pow", "base": n + i, "exp": [
        rng.randrange(10 ** 3999, 10 ** 4000), rng.randrange(10 ** 3999, 10 ** 4000)]}
        for i in range(200)))


OVERSIZED_FOLDS = [
    # 2^(10^30)
    lambda o, n: _g00(o, {"k": "rat", "v": [2, 1]}, {"k": "pow", "base": n, "exp": [10 ** 30, 1]}),
    # one 4 000-digit constant, 1 000 times
    lambda o, n: _g00(o, {"k": "rat", "v": [10 ** 3999 + 7, 1]},
                      {"k": "prod", "factors": [n] * 1000}),
    _power_chain,
]


def _limited_memory():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))


@pytest.mark.parametrize("edit", OVERSIZED_FOLDS, ids=["power", "product", "power-chain"])
def test_a_constant_fold_past_the_bound_exits_two_at_once(edit, tmp_path):
    """Run in a child with 1.5 GB of address space and a timeout: without the
    bound, the power takes memory until it fails and the others take seconds."""
    import tdual
    from tdual.expr import MAX_FOLD_BITS
    from tdual.geometry import make_taub_nut
    obj = make_taub_nut().to_json()
    path = tmp_path / "fold.json"
    path.write_text(json.dumps(edit(obj, len(obj["nodes"]))))
    src = str(Path(tdual.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "tdual.cli", "buscher", "--input", str(path),
                           "--verify", "none"], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=10, preexec_fn=_limited_memory)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: cannot read metric from {path}: folding constants")
    assert proc.stderr.endswith(f" bits passes {MAX_FOLD_BITS} bits\n")
    assert proc.stderr.count("\n") == 1


def test_a_reference_chain_at_the_reader_bound_dualizes(tmp_path):
    from tdual.geometry import make_taub_nut
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(_sin_table(make_taub_nut().to_json())))
    code, out, err = run_cli("buscher", "--input", str(path), "--verify", "involution",
                             "--format", "json")
    assert code in (0, 1) and err == ""
    assert [c["passed"] for c in json.loads(out)["checks"]] == [code == 0]


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


@pytest.mark.parametrize("command, preset", [("buscher", "multi2"), ("dualize-gerbe", "monopole:2"),
                                             ("classify", "kk"), ("tdualize", "kk")])
def test_preset_with_input_exits_two_before_reading_either(command, preset, tmp_path):
    # the input file does not exist, so an open of it would be a different error
    missing = str(tmp_path / "missing.json")
    for argv in (["--preset", preset, "--input", missing], ["--input", missing, "--preset", preset]):
        assert run_cli(command, *argv) == (2, "", "error: give --preset or --input, not both\n")


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
    # a custom space is where cell data enters, so its boundary squared is checked there
    ({"space": {"name": "X", "cells": {"0": ["v"], "1": ["e"], "2": ["f"]},
                "boundaries": {"1": [["e", "v", 1]], "2": [["f", "e", 1]]}},
      "cover": [["v", "e", "f"]]},
     "cannot read gerbe: boundary squared nonzero at degree 2 in X\n"),
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
    # the complement models B - F, so it holds no fixed cell
    (dict(CHARGE_2_RECORD, fixed=["u"], **{"class": [1]}),
     "fixed cells ['u'] lie in the complement model of B - F"),
    (dict(CHARGE_2_RECORD, complement=["v", "u", "a", "f2", "c3"], **{"class": [0]}),
     "fixed cells ['v'] lie in the complement model of B - F"),
    # the 2-cochain 1 on f2 has coboundary c3 on the whole cone
    ({"base": "coneS2", "fixed": [], "complement": ["v", "u", "a", "f2", "c3"], "class": [1]},
     "vector is not a cocycle in H^2(coneS2|sub)\n"),
])
def test_malformed_record_json_exits_two(command, record, message, tmp_path):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    code, out, err = run_cli(command, "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read record: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("command", ["classify", "tdualize"])
def test_classify_output_read_as_a_record_is_refused_in_one_line(command, tmp_path):
    # classify output that names the fixed cells as fixed_cells, without the
    # complement it used, names no record
    path = tmp_path / "r.json"
    argv = ["classify", "--preset", "charge:2", "--format", "json", "--output", str(path)]
    assert run_cli(*argv) == (0, "", "")
    written = json.loads(path.read_text())
    assert sorted(written) == [
        "base", "bundle_class", "charge", "class", "complement", "fixed", "name"]
    path.write_text(json.dumps({"fixed_cells": written["fixed"], **{
        key: written[key] for key in ("base", "bundle_class", "charge", "name")}}))
    assert run_cli(command, "--input", str(path)) == (2, "", (
        "error: cannot read record: this is classify output; a record also names its "
        "complement model (base, fixed, complement, class)\n"))


# records on bases whose model name is not their registry name
ROUND_TRIP_RECORDS = {
    "L1p:3": {"base": "L1p:3", "fixed": [], "complement": ["e0", "e1", "e2", "e3"], "class": [1]},
    "wedge:2": {"base": "wedge:2", "fixed": [], "complement": ["v", "s0", "s1"], "class": [1, -2]},
    "S3plus": {"base": "S3plus", "fixed": ["v"], "complement": ["u", "f2"], "class": [2]},
}


@pytest.mark.parametrize("source", ["kk", "charge:2", "charge:-3", "trivial", *ROUND_TRIP_RECORDS])
def test_classify_output_reads_back_as_the_same_record(source, tmp_path):
    given = ["--preset", source]
    if source in ROUND_TRIP_RECORDS:
        record = tmp_path / "record.json"
        record.write_text(json.dumps(ROUND_TRIP_RECORDS[source]))
        given = ["--input", str(record)]
    path = tmp_path / "r.json"
    assert run_cli("classify", *given, "--format", "json", "--output", str(path)) == (0, "", "")
    for argv in (["classify"], ["classify", "--format", "json"], ["tdualize"],
                 ["tdualize", "--format", "json"]):
        want = run_cli(*argv, *given)
        assert run_cli(*argv, "--input", str(path)) == want and want[0] == 0
    assert run_cli("classify", "--input", str(path), "--format", "json")[1] == path.read_text()


@pytest.mark.parametrize("record, charge", [
    (CHARGE_2_RECORD, 2),
    (dict(CHARGE_2_RECORD, **{"class": [-3]}), -3),
    # H^2 of the whole cone is 0, and H^2(L(1,3)) is Z/3: no charge
    ({"base": "coneS2", "fixed": [], "complement": ["v", "u", "a", "f2", "c3"], "class": [0]},
     None),
    ({"base": "L1p:3", "fixed": [], "complement": ["e0", "e1", "e2", "e3"], "class": [1]}, None),
])
def test_record_charge_is_read_off_its_class(record, charge, tmp_path):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    code, out, err = run_cli("classify", "--input", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["charge"] == charge


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
    ["--preset", "multi2", "--b-field", "dyonic", "--verify", "none"],
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


def _corrupted(g, attr):
    """``g`` read back through the public constructor, as outside input is,
    with the first entry of layer ``attr`` on its first tuple raised by one."""
    data = [dict(getattr(g, layer.attr)) for layer in g.layers]
    layer = data[[layer.attr for layer in g.layers].index(attr)]
    t = next(iter(layer))
    layer[t] = [layer[t][0] + 1, *layer[t][1:]]
    return type(g)(g.cover, *data)


def _six_patch_gerbe():
    """A scrambled 2-gerbe of class 2 on six patches of the two-disc S^3, whose
    nerve has tuples up to degree 5, so every layer has data."""
    from tdual.cohomology import cochain_space
    from tdual.gerbes import CoverNerve, kk_gerbe_models, two_gerbe_from_class
    two = kk_gerbe_models().cover()
    cover = CoverNerve(two.space, list(two.sets) * 3)
    gen = cochain_space(cover.space, 3).generators()[0].vector
    return two_gerbe_from_class(cover, [2 * v for v in gen], scramble_seed=5)


GERBE_VERDICTS = ("monopole 2-gerbe valid", "dual 3-gerbe valid", "dual class equals class x z",
                  "gauge perturbation preserves validity and class")


@pytest.mark.parametrize("name, corrupt, failing", [
    # a mu entry off on six patches: the check fails, and so its perturbation's
    ("monopole_two_gerbe", lambda real: lambda n: _corrupted(_six_patch_gerbe(), "mu"),
     [GERBE_VERDICTS[0], GERBE_VERDICTS[3]]),
    # an eta entry off: the dual fails its check and so has no class
    ("tdualize_two_gerbe",
     lambda real: lambda g, xs1=None: _corrupted(real(_six_patch_gerbe()), "eta"),
     [GERBE_VERDICTS[1], GERBE_VERDICTS[2]]),
    # an A entry off on the two patches: still a 3-gerbe, of another class
    ("tdualize_two_gerbe", lambda real: lambda g, xs1=None: _corrupted(real(g, xs1), "a"),
     [GERBE_VERDICTS[2]]),
    # a p entry off on the source's cover: valid, of another class, which a
    # perturbed gerbe reading its source's report would not see
    ("gauge_perturb", lambda real: lambda g, seed: _corrupted(real(g, seed), "p"),
     [GERBE_VERDICTS[3]]),
])
def test_each_gerbes_verdict_fails_on_a_corrupted_gerbe(name, corrupt, failing, monkeypatch):
    from tdual import gerbes
    monkeypatch.setattr(gerbes, name, corrupt(getattr(gerbes, name)))
    code, out, err = run_cli("verify", "gerbes", "--format", "json")
    assert (code, err) == (1, "")
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == failing
    code, out, _ = run_cli("verify", "gerbes")
    assert code == 1
    assert [line[7:] for line in out.splitlines() if line.startswith("[FAIL] ")] == failing


def _without(name, degree):
    """A ``cohomology`` that answers 0 for H^degree of the complex ``name``."""
    from tdual.cohomology import TRIVIAL
    return lambda real: lambda x, k: TRIVIAL if (x.name, k) == (name, degree) else real(x, k)


def _doubled(real):
    return lambda *args: 2 * real(*args)


def _doubled_push(real):
    def push(lam, models):
        g, pushed = real(lam, models)
        return g, 2 * pushed
    return push


COHOMOLOGY_VERDICTS = ("H^3(S2xS1) = Z", "H^2(CP2) = Z", "H^2(L(1,3)) = Z/3",
                       "pair (D3, S2) long exact sequence exact",
                       "fiber integration inverts cross product")
SEMIFREE_VERDICTS = ("taub-nut record emits one unit of flux",
                     "fiber integration returns the bundle class",
                     "non-separable iff difference in 2*pi*Z",
                     "monopole class pushes to the H^3 generator")


@pytest.mark.parametrize("suite, module, name, corrupt, failing", [
    ("cohomology", "cohomology", "cohomology", _without("S2xS1", 3), [COHOMOLOGY_VERDICTS[0]]),
    ("cohomology", "cohomology", "cohomology", _without("CP2", 2), [COHOMOLOGY_VERDICTS[1]]),
    ("cohomology", "cohomology", "cohomology", _without("L(1,3)", 2), [COHOMOLOGY_VERDICTS[2]]),
    # every interior node reported inexact
    ("cohomology", "cohomology", "long_exact_sequence",
     lambda real: lambda x, a: real(x, a)._replace(nodes=[
         n if n.exact is None else n._replace(exact=False) for n in real(x, a).nodes]),
     [COHOMOLOGY_VERDICTS[3]]),
    ("cohomology", "cohomology", "fiber_integrate", _doubled, [COHOMOLOGY_VERDICTS[4]]),
    # two units of flux: their fiber integral is twice the bundle class too
    ("semifree", "semifree", "tdualize",
     lambda real: lambda rec: real(rec)._replace(flux=2 * real(rec).flux),
     list(SEMIFREE_VERDICTS[:2])),
    ("semifree", "cohomology", "fiber_integrate", _doubled, [SEMIFREE_VERDICTS[1]]),
    # half a period: 1/2 - 0 is a whole number of periods
    ("semifree", "semifree", "basic_example_spectrum",
     lambda real: lambda: real()._replace(glued_line_period=Fraction(1, 2)),
     [SEMIFREE_VERDICTS[2]]),
    ("semifree", "gerbes", "semifree_class_to_two_gerbe", _doubled_push, [SEMIFREE_VERDICTS[3]]),
], ids=["H3-S2xS1", "H2-CP2", "H2-L13", "les", "cross", "flux", "round-trip", "spectrum", "push"])
def test_each_computed_verdict_fails_on_a_corrupted_layer(suite, module, name, corrupt, failing,
                                                          monkeypatch):
    layer = importlib.import_module(f"tdual.{module}")
    monkeypatch.setattr(layer, name, corrupt(getattr(layer, name)))
    code, out, err = run_cli("verify", suite, "--format", "json")
    assert (code, err) == (1, "")
    assert [c["name"] for c in json.loads(out)["checks"] if not c["passed"]] == failing
    code, out, _ = run_cli("verify", suite)
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("[FAIL] ")] == \
        [f"[FAIL] {name}" for name in failing]


def test_the_round_trip_of_tdualize_fails_on_a_corrupted_fiber_integration(monkeypatch):
    from tdual import cohomology
    monkeypatch.setattr(cohomology, "fiber_integrate", _doubled(cohomology.fiber_integrate))
    code, out, err = run_cli("tdualize", "--preset", "kk", "--format", "json")
    assert (code, err, json.loads(out)["round_trip"]) == (1, "", False)
    code, out, _ = run_cli("tdualize", "--preset", "kk")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("[FAIL] ")] == \
        ["[FAIL] fiber integration returns the bundle class"]


@pytest.mark.parametrize("argv, line", [
    (["cohomology", "--space", "wedge:100000000", "--degree", "2"],
     "error: builtin space wedge:<k> needs an integer 0 <= k <= 99999, got 'wedge:100000000'\n"),
    (["cohomology", "--space", "wedge:100000", "--degree", "2"],
     "error: builtin space wedge:<k> needs an integer 0 <= k <= 99999, got 'wedge:100000'\n"),
    (["homotopy", "--centers", "100000000"], "error: --centers must be <= 100000\n"),
    (["homotopy", "--centers", "100001"], "error: --centers must be <= 100000\n"),
])
def test_a_size_past_the_cell_bound_exits_two_at_once(argv, line):
    start = time.perf_counter()
    assert run_cli(*argv) == (2, "", line)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("copies, entries, degree", [(40, 548340, 3), (20, 232560, 5)])
def test_a_cover_past_the_cell_bound_exits_two_at_once(copies, entries, degree, tmp_path):
    # each copy holds every cell: one pattern of `copies` indices, on six cells
    path = tmp_path / "gerbe.json"
    path.write_text(json.dumps({"space": "S3plus",
                                "cover": [["v", "u", "a", "f2", "c3", "c3out"]] * copies}))
    start = time.perf_counter()
    assert run_cli("dualize-gerbe", "--input", str(path)) == (
        2, "", f"error: cannot read gerbe: a cover's cochains may have at most {MAX_CELLS} "
               f"entries in one nerve degree, got {entries} in degree {degree}\n")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv, first", [
    (["cohomology", "--space", "wedge:99999", "--degree", "2"], "H^2(wedge:99999) = Z^99999"),
    (["homotopy", "--centers", "100000"], "100000-center space is homotopy equivalent to a wedge "
                                          "of 99999 two-spheres:"),
])
def test_the_cell_bound_admits_its_largest_size(argv, first):
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == first


@pytest.mark.parametrize("space, message", [
    ("wedge:100000000",
     "builtin space wedge:<k> needs an integer 0 <= k <= 99999, got 'wedge:100000000'"),
    ({"cells": {"0": ["v"], "3": [f"c{i}" for i in range(MAX_CELLS)]}},
     f"a complex may have at most {MAX_CELLS} cells, got {MAX_CELLS + 1}"),
])
def test_a_gerbe_space_past_the_cell_bound_exits_two_at_once(space, message, tmp_path):
    path = tmp_path / "gerbe.json"
    path.write_text(json.dumps({"space": space, "cover": [["v"]]}))
    start = time.perf_counter()
    assert run_cli("dualize-gerbe", "--input", str(path)) == \
        (2, "", f"error: cannot read gerbe: {message}\n")
    assert time.perf_counter() - start < 1.0


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


COMMANDS = ("buscher", "cohomology", "dualize-gerbe", "classify", "tdualize", "spectrum",
            "homotopy", "verify")


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h", "cohomology"], *([c, "--help"] for c in COMMANDS),
    ["no-such-command"], ["no-such-command", "--space", "S2"], ["-1", "spectrum"], [""],
    ["cohomology", "--bogus"], ["cohomology", "--space", "S2"], ["cohomology", "--degree", "x"],
    ["cohomology", "--space", "S2", "--degree", "2", "--format", "yaml"],
    ["--bogus", "cohomology", "--space", "S2", "--degree", "2"],
    ["--", "cohomology", "--space", "S2", "--degree", "2"],
    ["cohomology", "--space", "L1p:12", "--degree", "2", "--format", "json"],
    ["spectrum", "extra"], ["verify"], ["verify", "cohomology", "--trials", "0"],
    ["verify", "--seed", "3", "cohomology"], ["homotopy", "--centers", "3", "--tol", "-1"],
    ["buscher", "--preset", "nope"], ["classify", "--preset", "kk", "--format", "json"],
], ids=lambda argv: " ".join(argv) if any(argv) else repr(argv))
def test_a_parser_built_for_one_command_answers_as_the_full_parser(argv, monkeypatch):
    # the exit code, stdout and stderr of a parser with every command's arguments
    monkeypatch.setenv("COLUMNS", "80")
    lazy = run_cli(*argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: full())
    assert run_cli(*argv) == lazy


def test_only_the_invoked_command_gets_its_arguments():
    def options(parser) -> dict:
        sub = next(a for a in parser._actions if a.dest == "command")
        return {name: [a.dest for a in p._actions] for name, p in sub.choices.items()}

    full, lazy = options(cli.build_parser()), options(cli.build_parser(["homotopy", "-h"]))
    assert list(full) == list(lazy) == list(COMMANDS)
    assert lazy == {name: full[name] if name == "homotopy" else ["help"] for name in COMMANDS}
    assert full["homotopy"] == ["help", "centers", "format", "output"]


SAMPLING = ["--seed", "3", "--trials", "5", "--tol", "1e-6"]

# per command, argvs that together give each of its options
EVERY_OPTION = {
    "buscher": [["--preset", "multi2", "--b-field", "none", "--verify", "involution", *SAMPLING],
                ["--input", "{metric}", *SAMPLING]],
    "cohomology": [["--space", "S2", "--degree", "2"]],
    "dualize-gerbe": [["--preset", "monopole:2"], ["--input", "{gerbe}"]],
    "classify": [["--preset", "kk"], ["--input", "{record}"]],
    "tdualize": [["--preset", "kk"], ["--input", "{record}"]],
    "spectrum": [[]],
    "homotopy": [["--centers", "3"]],
    "verify": [["metrics", *SAMPLING]],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_every_option_a_command_takes_is_read(command, tmp_path, monkeypatch):
    # the handler and _render read each option an argv gives: no flag is accepted and ignored
    from tdual.geometry import make_taub_nut
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command").choices[command]
    options = {a.dest: a.option_strings for a in sub._actions if a.dest != "help"}
    inputs = {"metric": make_taub_nut().to_json(), "gerbe": TWO_PATCH_GERBE,
              "record": CHARGE_2_RECORD}
    for name, obj in inputs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    handler = getattr(cli, f"cmd_{command.replace('-', '_')}")

    def recorded(args):
        args.__class__ = Recording          # main hands the same object to _render
        return handler(args)

    monkeypatch.setattr(cli, handler.__name__, recorded)
    given_somewhere = set()
    for argv in EVERY_OPTION[command]:
        argv = [arg.format(**{name: tmp_path / f"{name}.json" for name in inputs})
                for arg in argv] + ["--format", "json", "--output", str(tmp_path / "out")]
        given = {dest for dest, flags in options.items()
                 if not flags or any(flag in argv for flag in flags)}
        read.clear()
        assert run_cli(command, *argv) == (0, "", ""), argv
        assert given <= read, (argv, sorted(given - read))
        given_somewhere |= given
    assert given_somewhere == set(options)


# prints, without importing json, each module loaded after its own imports
IMPORTS_AFTER = """
import contextlib, io, sys
before = set(sys.modules)
import tdual.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert tdual.cli.main(sys.argv[1:]) == 0
print(*sorted(set(sys.modules) - before))
"""


def _modules_after(*argv) -> set:
    """The modules that a fresh interpreter loaded to import tdual.cli and,
    given an argv, to run ``main`` on it."""
    import tdual
    src = str(Path(tdual.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", IMPORTS_AFTER, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def _tdual_modules_after(*argv) -> set:
    return {name for name in _modules_after(*argv) if name.startswith("tdual")}


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


# Each integer-side command, and the costly standard modules it may import:
# json to read --input or write --format json, fractions for the spectrum.
@pytest.mark.parametrize("argv, wanted", [
    (["cohomology", "--space", "CP2", "--degree", "2"], set()),
    (["cohomology", "--space", "CP2", "--degree", "2", "--format", "json"], {"json"}),
    (["dualize-gerbe", "--preset", "monopole:2"], set()),
    (["dualize-gerbe", "--input", "{gerbe}"], {"json"}),
    (["classify", "--preset", "kk"], set()),
    (["classify", "--input", "{record}"], {"json"}),
    (["tdualize", "--preset", "charge:2"], set()),
    (["tdualize", "--input", "{record}", "--format", "json"], {"json"}),
    (["spectrum"], {"fractions"}),
    (["spectrum", "--format", "json"], {"json", "fractions"}),
    (["homotopy", "--centers", "3"], set()),
    (["verify", "cohomology"], set()),
    (["verify", "gerbes"], set()),
    (["verify", "semifree"], {"fractions"}),
    (["verify", "semifree", "--format", "json"], {"json", "fractions"}),
], ids=lambda arg: " ".join(arg) if type(arg) is list else "+".join(sorted(arg)) or "-")
def test_integer_side_commands_import_no_dataclasses(argv, wanted, tmp_path):
    inputs = {"gerbe": TWO_PATCH_GERBE, "record": CHARGE_2_RECORD}
    for name, obj in inputs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    argv = [arg.format(**{name: tmp_path / f"{name}.json" for name in inputs}) for arg in argv]
    loaded = _modules_after(*argv)
    assert "tdual.cohomology" in loaded and not loaded & {"tdual.expr", "tdual.geometry"}
    assert loaded & {"dataclasses", "inspect", "json", "fractions"} == wanted


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
    import tdual.expr
    monkeypatch.setenv("TDUAL_SEED", "12345")
    assert cli._default_seed() == 12345
    monkeypatch.setenv("TDUAL_SEED", "not-an-int")
    assert cli._default_seed() == 42
    monkeypatch.delenv("TDUAL_SEED")
    assert cli._default_seed() == tdual.DEFAULT_SEED == tdual.expr.DEFAULT_SEED == 42


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
