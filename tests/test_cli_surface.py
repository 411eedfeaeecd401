"""The argparse surface of the CLI: the help of every parser and the
usage errors of argv that does not fit a command, pinned in
`golden/surface.txt`.

Each record there is a "$" line (the argv, shell-quoted), a "? exit N"
line, then stdout as printed and stderr with each line prefixed "! ".
The records are the output of `transcript(argv)` at 80 columns; after an
intended change to the surface, write the new transcripts to the file.
`invalid choice` errors are checked only for their exit code, usage
lines and error prefix, because Python 3.12 patch releases changed how
the choices are quoted.
"""

import io
import re
import shlex
from pathlib import Path

import pytest

from ordhomeo.cli import main

SURFACE = Path(__file__).parent / "golden" / "surface.txt"

# group -> command -> its positional count; "+" marks a last positional
# that takes one or more values
COMMANDS = {
    "ord": {"eval": "1", "cmp": "2", "sub": "2", "rank": "1", "class": "1", "cbrank": "1"},
    "homeo": {"check": "1", "apply": "2", "compose": "1+", "invert": "1", "order": "1",
              "fix": "1", "common-fix": "1+", "fixpoint-above": "2+",
              "invariant-prefix": "2", "invariant-point": "2"},
    "dyn": {"transitive": "1+", "roelcke": "2+", "dense": "1", "baire-member": "2",
            "baire-witness": "2", "demo-discontinuity": "1"},
    "sieve": {"normalize": "1", "hall": "1", "match": "1", "contains": "2", "chain": "1+",
              "extend": "1"},
}


def _probes():
    probes = [["-h"], [], ["--bogus"], ["--unicode"], ["ord", "--unicode", "eval", "1"],
              ["dyn", "transitive", "--frozen=3"], ["dyn", "transitive", "--frozen"],
              ["dyn", "transitive", "--frozen=4", "3 -> 5"],
              ["dyn", "transitive", "--fro", "4", "3 -> 5"],
              ["dyn", "dense", "x", "--target"], ["dyn", "dense", "x", "--t"]]
    for group, commands in COMMANDS.items():
        probes += [[group, "-h"], [group], [group, "--bogus"]]
        for command, count in commands.items():
            n = int(count[0])
            probes += [[group, command, "-h"], [group, command],
                       [group, command, "--bogus"] + ["x"] * n]
            if n > 1:
                probes.append([group, command] + ["x"] * (n - 1))
            if not count.endswith("+"):
                probes.append([group, command] + ["x"] * n + ["extra"])
    return probes


PROBES = _probes()
CHOICE_PROBES = [["nope"]] + [[group, "nope"] for group in COMMANDS]


def _run(argv):
    out = io.StringIO()
    try:
        code = main(argv, out=out)
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue()


def transcript(argv, capsys) -> str:
    code, out = _run(argv)
    captured = capsys.readouterr()
    err = "".join(f"! {line}\n" for line in captured.err.splitlines())
    return f"$ {shlex.join(argv)}\n? exit {code}\n{out}{captured.out}{err}"


def _pinned() -> dict[str, str]:
    records = re.split(r"(?m)^(?=\$ )", SURFACE.read_text())
    return {r.partition("\n")[0]: r for r in records if r}


PINNED = _pinned()


@pytest.fixture(autouse=True)
def _eighty_columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def test_every_pinned_record_is_probed():
    assert sorted(PINNED) == sorted(f"$ {shlex.join(argv)}" for argv in PROBES)
    assert len(PROBES) == len(PINNED)


@pytest.mark.parametrize("argv", PROBES, ids=[shlex.join(a) for a in PROBES])
def test_surface_matches_its_pin(argv, capsys):
    assert transcript(argv, capsys) == PINNED[f"$ {shlex.join(argv)}"]


@pytest.mark.parametrize("argv", CHOICE_PROBES, ids=[shlex.join(a) for a in CHOICE_PROBES])
def test_invalid_choice_exits_2_after_the_usage(argv, capsys):
    missing = [a for a in argv if a != "nope"]
    _run(missing)  # the same parser without the bad word: its usage lines
    usage = capsys.readouterr().err.splitlines()[:-1]
    code, out = _run(argv)
    err = capsys.readouterr()
    lines = err.err.splitlines()
    assert (code, out, err.out) == (2, "", "")
    assert usage[0].startswith("usage: ordhomeo") and lines[:-1] == usage
    prog = " ".join(["ordhomeo"] + [a for a in missing if a in COMMANDS])
    assert lines[-1].startswith(f"{prog}: error: argument ")
    assert "invalid choice" in lines[-1]
