"""``tools/cli_digest.py`` prints one digest line per argv of the ``cli`` workload."""

import hashlib
import importlib.util
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
