"""``tools/cli_digest.py`` prints one digest line per argv of the ``cli`` workload."""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

_DIGEST_PY = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"


def _load_digest():
    spec = importlib.util.spec_from_file_location("cli_digest", _DIGEST_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_a_line_holds_the_exit_code_both_hashes_and_the_argv():
    digest = _load_digest()
    got = digest.run(["cohomology", "--space", "S2", "--degree", "2"], ".bench_work/1")
    assert got == (0, "H^2(S2) = Z\n", "", "cohomology --space S2 --degree 2")
    assert digest.line(*got) == f"0 {_sha(got[1])} {_sha('')} cohomology --space S2 --degree 2"


def test_the_input_directory_is_one_placeholder_in_the_argv_and_the_streams(tmp_path):
    digest = _load_digest()
    code, out, err, argv = digest.run(["classify", "--input", f"{tmp_path}/record.json"],
                                      str(tmp_path))
    assert (code, out, argv) == (2, "", "classify --input <inputs>/record.json")
    assert err.startswith("error: ") and "<inputs>/record.json" in err
    assert str(tmp_path) not in err


def test_the_seed_1_digest_is_the_committed_one():
    # stdout, stderr and exit code of every cli benchmark argv stay byte-identical;
    # a change that means to alter them regenerates the file and says so
    proc = subprocess.run([sys.executable, str(_DIGEST_PY), "--seed", "1"],
                          capture_output=True, text=True, check=True)
    golden = _DIGEST_PY.parent.parent / "tests" / "golden" / "cli_digest_seed1.txt"
    assert proc.stdout == golden.read_text()
