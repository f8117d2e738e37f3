"""Mutate the command line's JSON inputs and report each break of its input contract.

    PYTHONPATH=src python tools/fuzz_inputs.py --seed N --cases K

takes five seed inputs: the Taub-NUT metric of ``make_taub_nut().to_json()``,
the gerbes ``tests/golden/gerbe4_input.json`` and
``tests/golden/gerbe7_input.json``, the record ``classify --preset charge:2
--format json`` writes, and a gerbe on a custom complex (the two-disc S^3
written out cell by cell). For each seed input it runs K cases. A case
applies one to three mutations to a copy of the input; a mutation walks
down from the top, going into a random child of a dict or list at each
level with probability 0.8, and where it stops it drops a key of a dict,
duplicates an item of a list, or replaces the value with one of a fixed
list. The case writes the result to a file and runs the command that reads
it (``buscher``, ``dualize-gerbe``, ``classify`` or ``tdualize --input``)
through ``tdual.cli.main`` in this process, under a 5 s ``SIGALRM``.

The contract: a case exits 0, exits 1 (a verification failed), or exits 2
with exactly one ``error:`` line on stderr. The tool prints, each with its
argv and input, every case that raises out of ``main`` (with the
traceback), every exit 2 whose stderr is not one ``error:`` line, any other
exit code, and every case the alarm stops. It exits 1 if it printed any,
else 0, and writes one summary line (cases and exit codes) to stderr. Case
i of seed input S draws from ``random.Random(f"{N}:{S}:{i}")``, so a
reported case replays alone.

Standard library only; POSIX (``SIGALRM``).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import random
import signal
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIMIT_S = 5
DESCEND = 0.8
REPLACEMENTS = (None, True, False, 0, 1, -1, 2, 3, 10 ** 6, -(10 ** 30), 2 ** 63, 0.5,
                float("nan"), float("inf"), "", "v", "x", "0,1", "S3plus", "wedge:3",
                [], [0], [1, 2], ["v"], {}, {"k": "rat", "v": [1, 0]}, {"0": ["v"]})

# the two-disc S^3 of ``complexes.s3_two_disc`` as a custom complex, with one unit of flux
CUSTOM_GERBE = {
    "space": {"name": "S3c",
              "cells": {"0": ["v", "u"], "1": ["a"], "2": ["f2"], "3": ["c3", "c3out"]},
              "boundaries": {"1": [["a", "u", 1], ["a", "v", -1]],
                             "3": [["c3", "f2", 1], ["c3out", "f2", -1]]}},
    "cover": [["v", "u", "a", "f2", "c3"], ["u", "f2", "c3out"]],
    "p": {"0,1": [1]},
}


class Slow(BaseException):
    """The alarm went off; no handler's ``except Exception`` takes it."""


def seed_inputs() -> dict:
    """Seed input name -> (its JSON document, the argv that reads it from ``{path}``)."""
    from tdual.geometry import make_taub_nut
    from tdual.semifree import kk_record

    def golden(name):
        return json.loads((ROOT / "tests" / "golden" / name).read_text())

    gerbe = ["dualize-gerbe", "--input", "{path}"]
    return {"metric": (make_taub_nut().to_json(), ["buscher", "--input", "{path}"]),
            "gerbe4": (golden("gerbe4_input.json"), gerbe),
            "gerbe7": (golden("gerbe7_input.json"), gerbe),
            "record": (kk_record(2).describe(), ["classify", "--input", "{path}"]),
            "custom": (CUSTOM_GERBE, gerbe)}


def mutate(doc, rng: random.Random):
    """``doc`` with one mutation at a random depth; containers change in place."""
    if isinstance(doc, (dict, list)) and doc and rng.random() < DESCEND:
        key = rng.choice(list(doc)) if isinstance(doc, dict) else rng.randrange(len(doc))
        doc[key] = mutate(doc[key], rng)
        return doc
    if isinstance(doc, dict) and doc and rng.random() < 0.5:
        del doc[rng.choice(list(doc))]
        return doc
    if isinstance(doc, list) and doc and rng.random() < 0.5:
        i = rng.randrange(len(doc))
        doc.insert(i, copy.deepcopy(doc[i]))
        return doc
    return copy.deepcopy(rng.choice(REPLACEMENTS))


def argv_of(command: list, path: str, rng: random.Random) -> list:
    """The seed input's argv on ``path``; a record goes to classify or tdualize,
    a metric through one of the four --verify checks."""
    argv = [path if arg == "{path}" else arg for arg in command]
    if argv[0] == "classify":
        argv[0] = rng.choice(["classify", "tdualize"])
    elif argv[0] == "buscher":
        argv += ["--verify", rng.choice(["g-h", "involution", "dyonic", "none"])]
    return argv


def run_case(argv: list) -> tuple:
    """(outcome, detail) of ``argv`` through ``tdual.cli.main``: outcome is the
    exit code, "traceback" or "slow"; detail is stderr or the traceback."""
    from tdual import cli

    out, err = io.StringIO(), io.StringIO()

    def alarm(signum, frame):
        raise Slow

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Slow:
        return "slow", err.getvalue()
    except Exception:
        return "traceback", traceback.format_exc()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def breaks_contract(outcome, detail: str) -> bool:
    if outcome in (0, 1):
        return False
    return not (outcome == 2 and detail.startswith("error: ") and detail.count("\n") == 1
                and detail.endswith("\n"))


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cases", type=int, default=200, help="cases per seed input")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    outcomes, reported = Counter(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, (doc, command) in seed_inputs().items():
            path = str(Path(tmp) / f"{name}.json")
            for i in range(args.cases):
                rng = random.Random(f"{args.seed}:{name}:{i}")
                case = copy.deepcopy(doc)
                for _ in range(1 + rng.randrange(3)):
                    case = mutate(case, rng)
                text = json.dumps(case)
                Path(path).write_text(text)
                case_argv = argv_of(command, path, rng)
                outcome, detail = run_case(case_argv)
                outcomes[outcome] += 1
                if breaks_contract(outcome, detail):
                    reported += 1
                    shown = " ".join(case_argv).replace(path, "<input>")
                    print(f"== {name} case {i}: {outcome}: {shown}\n"
                          f"input: {text}\n{detail.rstrip()}\n", flush=True)
    summary = ", ".join(f"{k}: {n}" for k, n in sorted(outcomes.items(), key=str))
    sys.stderr.write(f"fuzz_inputs: seed {args.seed}, {sum(outcomes.values())} cases "
                     f"({summary}), {reported} reported\n")
    return 1 if reported else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
