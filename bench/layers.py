"""Calls into the library's layers, optionally traced.

The benchmark reaches the library only through the namespace `api`
returns.  Untraced, its attributes are the library's functions
themselves.  Traced, each is wrapped to append one span per call:

    (name, start, end, op_id, counts, failed)

`name` is "<module>.<function>", `op_id` the operation that made the
call (0 outside operations, as in set-up), and `counts` the work
measured at the same boundary, such as piece counts in and out of
`compose`.  The benchmark's loop adds one "op.<kind>" span per operation.
Library spans nest directly under an operation and never under each
other, so a library span's self time is its duration, and an
operation's self time is its duration minus its library spans.  Spans
stay in memory until the run ends.

The `cli` layer is the command a user types: `cli.run` runs one
`python -m ordhomeo.cli` process; `cli.interp` (a bare interpreter) and
`cli.import_cli` (interpreter plus `import ordhomeo.cli`) are its controls.
"""

from __future__ import annotations

import gzip
import io
import json
import operator
import os
import subprocess
import sys
from contextlib import redirect_stderr
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 60


def _python(args: list[str], cwd: Path | None = None) -> tuple[int, bytes]:
    """Run the interpreter under default flags with the checkout's `src`
    importable; returns (exit code, stdout bytes)."""
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout


def bare_interpreter() -> tuple[int, bytes]:
    return _python(["-c", "pass"])


def _main_in_process(argv: list[str]) -> tuple[int, str]:
    from ordhomeo.cli import main

    out = io.StringIO()
    with redirect_stderr(io.StringIO()):
        try:
            code = main(argv, out=out)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue()


def _library():
    from ordhomeo import dynamics, homeo, ordinals, sieve

    def pieces(g):
        return len(g.pieces)

    # name -> (function, counts(args, result) or None)
    return {
        "ordinals.parse_ordinal": (ordinals.parse_ordinal, None),
        "ordinals.format_ordinal": (ordinals.format_ordinal, None),
        "ordinals.add": (operator.add, None),
        "ordinals.mul": (operator.mul, None),
        "ordinals.left_subtract": (ordinals.left_subtract, None),
        "ordinals.sort": (sorted, lambda a, r: {"items": len(r)}),
        "homeo.initial": (homeo.initial, None),
        "homeo.span": (homeo.span, None),
        "homeo.swap_points": (homeo.swap_points, None),
        "homeo.interval_swap": (homeo.interval_swap, None),
        "homeo.build": (homeo.build, lambda a, r: {"n": pieces(r)}),
        "homeo.compose": (homeo.compose, lambda a, r: {
            "n": max(pieces(a[0]), pieces(a[1])),
            "in": pieces(a[0]) + pieces(a[1]), "out": pieces(r)}),
        "homeo.inverse": (homeo.inverse, lambda a, r: {"n": pieces(r)}),
        "homeo.apply": (homeo.apply, lambda a, r: {"n": pieces(a[0])}),
        "homeo.sup_image": (homeo.sup_image, lambda a, r: {"n": pieces(a[0])}),
        "homeo.fixed_points": (homeo.fixed_points, lambda a, r: {"n": pieces(a[0])}),
        "homeo.common_fixed_points": (homeo.common_fixed_points, None),
        "homeo.invariant_prefix": (homeo.invariant_prefix, None),
        "homeo.invariant_point": (homeo.invariant_point, None),
        "homeo.find_fixed_point_above": (homeo.find_fixed_point_above, None),
        "homeo.parse_homeo": (homeo.parse_homeo, lambda a, r: {"n": pieces(r)}),
        "homeo.format_homeo": (homeo.format_homeo, lambda a, r: {"n": pieces(a[0])}),
        "dynamics.TransitivityProblem": (dynamics.TransitivityProblem, None),
        "dynamics.make_transitive": (dynamics.make_transitive, None),
        "dynamics.roelcke_decompose": (dynamics.roelcke_decompose, None),
        "dynamics.dense_approx": (dynamics.dense_approx, None),
        "dynamics.baire_density_witness": (dynamics.baire_density_witness, None),
        "sieve.ConstraintSystem": (sieve.ConstraintSystem.of, None),
        "sieve.PartialInjection": (sieve.PartialInjection, None),
        "sieve.satisfiable": (sieve.satisfiable, lambda a, r: {
            "n": len(a[0].constraints), "sat": r is not None}),
        "sieve.chain_limit": (sieve.chain_limit, None),
        "sieve.extend_to_permutation": (sieve.extend_to_permutation, None),
        "cli.run": (lambda argv, cwd: _python(["-m", "ordhomeo.cli", *argv], cwd), None),
        "cli.interp": (bare_interpreter, None),
        "cli.import_cli": (lambda: _python(["-c", "import ordhomeo.cli"]), None),
        "cli.main": (_main_in_process, None),
    }


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = 0

    def wrap(self, name, fn, counts):
        spans = self.spans

        def traced(*args):
            t0 = perf_counter()
            try:
                result = fn(*args)
            except BaseException:
                spans.append((name, t0, perf_counter(), self.op_id, None, True))
                raise
            t1 = perf_counter()
            spans.append((name, t0, t1, self.op_id,
                          counts(args, result) if counts else None, False))
            return result
        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            for name, t0, t1, op_id, counts, failed in self.spans:
                f.write(json.dumps({"name": name, "start": t0, "end": t1,
                                    "op": op_id, "counts": counts,
                                    "failed": failed}) + "\n")


def api(tracer: Tracer | None = None) -> SimpleNamespace:
    """The library's functions by their short names, e.g. `L.compose`;
    wrapped to record spans when a tracer is given."""
    funcs = {}
    for name, (fn, counts) in _library().items():
        short = name.split(".", 1)[1]
        funcs[short] = fn if tracer is None else tracer.wrap(name, fn, counts)
    return SimpleNamespace(**funcs)
