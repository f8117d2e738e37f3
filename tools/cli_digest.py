"""Print one digest line per distinct argv of the ``cli`` benchmark workload.

    PYTHONPATH=src python tools/cli_digest.py [--seed N]

builds the ``cli`` workload's ops and input files for the seed (default 1)
through ``bench/workloads.py``, runs each distinct argv once through
``tdual.cli.main`` in this process, and prints, one line per argv sorted by
argv, its exit code, the SHA-256 of its stdout and of its stderr, and the
argv. The per-process input directory is written as ``<inputs>`` in the
argv and in both streams, so two runs print the same lines for the same
behaviour. The input files are removed afterwards. To compare two commits,
run it in a ``git archive`` export of each and diff the outputs; the code
under test is the ``src`` beside this file.

Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import os
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PLACEHOLDER = "<inputs>"


def run(argv: list, inputs: str) -> tuple:
    """(exit code, stdout, stderr, argv) of ``argv`` through ``tdual.cli.main``
    in this process, with ``inputs`` written as the placeholder throughout."""
    from tdual import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return (code, *(text.replace(inputs, PLACEHOLDER)
                     for text in (out.getvalue(), err.getvalue(), shlex.join(argv))))


def line(code: int, out: str, err: str, argv: str) -> str:
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    return f"{code} {sha(out)} {sha(err)} {argv}"


def _cli_workload():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Cli()


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args(argv).seed
    sys.path.insert(0, str(ROOT / "src"))
    here, workload = os.getcwd(), _cli_workload()
    os.chdir(ROOT)                  # the argvs name their input files relative to it
    try:
        ops = workload.make_ops(seed, 1)
        inputs = str(workload.workdir.relative_to(ROOT))
        distinct = dict.fromkeys(tuple(op.params["argv"]) for op in ops)
        lines = [line(*run(list(a), inputs)) for a in distinct]
    finally:
        workload.cleanup()
        os.chdir(here)
    print("\n".join(sorted(lines, key=lambda s: s.split(" ", 3)[3])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
