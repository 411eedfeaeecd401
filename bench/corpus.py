"""The `cli` workload: the golden corpus run as separate processes.

Each operation runs one corpus case as `python -m ordhomeo.cli ...` with
`tests/golden/data` as the working directory, one child at a time, and
checks its stdout bytes and exit code against `tests/golden/cases.txt`.
Interpreter start, import and argument parsing are nearly all of the
wall time, so this workload moves only with start-up and parser changes.
"""

from __future__ import annotations

import os
import random
import shlex
from time import perf_counter

from core import Inputs, Op, Speed
from layers import ROOT, bare_interpreter

GOLDEN = ROOT / "tests" / "golden"
DATA = GOLDEN / "data"
PROBES = 15  # runs of each start-up control in a traced run
ROUND = 8  # cases per round: rounds of about a second, not the whole corpus


def _interp_s() -> float:
    t0 = perf_counter()
    bare_interpreter()
    return perf_counter() - t0


# A process start gauges the machine's speed for process starts far better
# than any in-process loop: the bare interpreter, which no change to this
# repository can move, run about every 0.3 s; 0.055 s is its start-up time
# on a quiet 2-core Intel Xeon VM.
SPEED = Speed(_interp_s, 0.055, 0.3)


def load_cases(text: str) -> list[tuple[str, list[str], int, bytes]]:
    """(label, argv, exit code, stdout bytes) per case.  A case is a "$"
    line, an optional "? exit N" line, then its stdout up to the next
    case, trailing blank lines dropped."""
    cases = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        if not lines[i].startswith("$ "):
            i += 1
            continue
        label = lines[i][2:]
        i += 1
        code = 0
        if i < len(lines) and lines[i].startswith("? exit"):
            code = int(lines[i].split()[-1])
            i += 1
        body = []
        while i < len(lines) and not lines[i].startswith("$ "):
            body.append(lines[i])
            i += 1
        while body and body[-1] == "":
            body.pop()
        out = "\n".join(body) + "\n" if body else ""
        cases.append((label, shlex.split(label), code, out.encode()))
    return cases


def setup(L, seed: int, inputs: Inputs) -> list[Op]:
    """One operation per corpus case, in an order drawn from the seed."""
    cases = load_cases((GOLDEN / "cases.txt").read_text())
    random.Random(seed).shuffle(cases)
    ops = []
    for label, argv, code, out in cases:
        want = (code, out)
        ops.append(Op("case", "cli", lambda L, argv=argv: L.run(argv, DATA),
                      lambda got, want=want: got == want))
    return ops


def probe(L) -> int:
    """Run the start-up controls, then `main` in-process on every case,
    through the traced namespace L; returns the cases `main` got wrong."""
    for _ in range(PROBES):
        L.interp()
        L.import_cli()
    wrong = 0
    here = os.getcwd()
    os.chdir(DATA)
    try:
        for _, argv, code, out in load_cases((GOLDEN / "cases.txt").read_text()):
            wrong += L.main(argv) != (code, out.decode())
    finally:
        os.chdir(here)
    return wrong
