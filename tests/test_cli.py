import contextlib
import io
import itertools
import random
import shlex
import sys
import time
from pathlib import Path

import pytest

import ordhomeo
from ordhomeo import cli, sieve
from ordhomeo.cli import main
from ordhomeo.errors import ContractError
from ordhomeo.homeo import parse_homeo
from ordhomeo.ordinals import format_ordinal, parse_ordinal

from helpers import random_ordinal

GOLDEN = Path(__file__).parent / "golden"
DATA = GOLDEN / "data"


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def load_cases():
    cases = []
    lines = (GOLDEN / "cases.txt").read_text().splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if not line.startswith("$ "):
            i += 1
            continue
        command = shlex.split(line[2:])
        i += 1
        exit_code = 0
        if i < len(lines) and lines[i].startswith("? exit"):
            exit_code = int(lines[i].split()[-1])
            i += 1
        body = []
        while i < len(lines) and not lines[i].startswith("$ "):
            body.append(lines[i])
            i += 1
        while body and body[-1] == "":
            body.pop()
        expected = "\n".join(body) + "\n" if body else ""
        cases.append((line[2:], command, exit_code, expected))
    return cases


CASES = load_cases()


@pytest.mark.parametrize("label,command,exit_code,expected",
                         CASES, ids=[c[0] for c in CASES])
def test_golden(label, command, exit_code, expected, monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    code, out = run_cli(command)
    assert out == expected
    assert code == exit_code


def test_corpus_is_large_enough():
    assert len(CASES) >= 25


# ---------------------------------------------------------------------------
# the argv matcher, checked against the argparse tree built from the same table


POOL = ["1", "w", "-1", "--frozen", "-h", "x=y", ""]


def _generated_argv():
    """Every command with 0-3 words from POOL, with and without --unicode."""
    for group, (_, commands) in cli._COMMANDS.items():
        for command in commands:
            for k in range(4):
                for words in itertools.product(POOL, repeat=k):
                    yield [group, command, *words]
                    yield ["--unicode", group, command, *words]


SURFACE_ARGV = [shlex.split(line[2:]) for line in
                (GOLDEN / "surface.txt").read_text().splitlines() if line.startswith("$ ")]


def _by_argparse(parser, argv):
    """cli._shape of what argparse reads from argv, or None if it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._shape(parser.parse_args(argv))
        except SystemExit:
            return None


@pytest.mark.parametrize("argvs,accepted", [
    ([case[1] for case in CASES], 59),
    (SURFACE_ARGV, 0),
    # the 4 option-free pool words, in every fitting count: 680 argv, twice
    (list(_generated_argv()), 1360),
], ids=["golden", "surface", "generated"])
def test_the_matcher_reads_argv_as_argparse_does(argvs, accepted):
    parser = cli._build_parser()
    matched = 0
    for argv in argvs:
        shape = cli._match(argv)
        if shape is not None:
            assert _by_argparse(parser, argv) == shape, argv
            matched += 1
    assert matched == accepted


def test_round_trip_random_ordinals():
    rng = random.Random(90)
    for _ in range(1000):
        x = random_ordinal(rng, max_rank=4, max_coef=30)
        code, out = run_cli(["ord", "eval", format_ordinal(x)])
        assert code == 0
        assert out.strip() == format_ordinal(x)
        assert parse_ordinal(out.strip()) == x


def test_emitted_homeo_reparses_canonically(monkeypatch):
    monkeypatch.chdir(DATA)
    for args in (["homeo", "check", "swap.hom"],
                 ["homeo", "invert", "swap.hom"],
                 ["homeo", "compose", "swap.hom", "trans01.hom"],
                 ["dyn", "transitive", "w -> w*2", "5 -> 9"],
                 ["dyn", "baire-witness", "trans1w1.hom", "1"]):
        code, out = run_cli(args)
        assert code == 0
        g = parse_homeo(out)
        from ordhomeo.homeo import format_homeo
        assert format_homeo(g) == out


def test_emitted_constraints_reparse_canonically(monkeypatch):
    monkeypatch.chdir(DATA)
    from ordhomeo.sieve import format_constraints, parse_constraints
    for args in (["sieve", "normalize", "dup.cs"],
                 ["sieve", "normalize", "forced.cs"]):
        code, out = run_cli(args)
        assert code == 0
        assert format_constraints(parse_constraints(out)) == out


def test_missing_file(monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    code, out = run_cli(["homeo", "check", "nope.hom"])
    assert code == 1 and out == ""


def test_resource_error_exit_code():
    code, out = run_cli(["ord", "eval", "w^" * 40 + "w"])
    assert code == 3 and out == ""


@pytest.mark.parametrize("expr,exit_code", [
    pytest.param("(" * 3000 + "1" + ")" * 3000, 3, id="3000-nested-parentheses"),
    pytest.param("w^" * 3000 + "w", 3, id="3000-level-tower"),
    pytest.param("9" * 5000, 3, id="5000-digit-literal"),
    pytest.param(f"(({'9' * 3000})*{'9' * 3000})", 3, id="coefficient-past-digit-limit"),
    pytest.param("w*\u00b2", 2, id="superscript-digit"),
])
def test_hostile_input_ends_in_one_line(expr, exit_code, capsys):
    assert run_cli(["ord", "eval", expr]) == (exit_code, "")
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(("resource error:", "parse error:"))


@pytest.mark.parametrize("argv,exit_code", [
    pytest.param(["dyn", "baire-member", "id.hom", "9" * 5000], 3, id="5000-digit-argument"),
    pytest.param(["dyn", "baire-member", "id.hom", "5x"], 2, id="not-an-integer"),
    pytest.param(["dyn", "demo-discontinuity", str(cli._DEMO_CAP + 1)], 3,
                 id="demo-discontinuity-past-cap"),
])
def test_integer_arguments_end_in_one_line(argv, exit_code, monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    assert run_cli(argv) == (exit_code, "")
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(("resource error:", "parse error:"))
    assert "99999" not in err  # the message does not echo a long argument


def test_integer_argument_without_a_digit_limit(monkeypatch, capsys):
    # Python 3.10.0-3.10.6 have no int/str digit limit and no getter for it
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    monkeypatch.chdir(DATA)
    assert run_cli(["dyn", "baire-member", "id.hom", "5x"]) == (2, "")
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("parse error:")


def test_check_accepts_an_infinite_mixed_piece(tmp_path, capsys):
    # both sides of each piece have order type w + 1
    path = tmp_path / "mixed.hom"
    path.write_text("[0, w] -> (w, w*2]\n(w, w*2] -> [0, w]\n")
    assert run_cli(["homeo", "check", str(path)]) == (0, (
        "[0, 0] -> (w, w + 1]\n"
        "(0, w] -> (w + 1, w*2]\n"
        "(w, w + 1] -> [0, 0]\n"
        "(w + 1, w*2] -> (0, w]\n"
        "# support w*2\n"))
    assert capsys.readouterr().err == ""


def test_fixpoint_above_a_slow_climb(tmp_path, capsys):
    # from w the closure iteration climbs w + 2, w + 4, ... to its limit
    path = tmp_path / "climb.hom"
    path.write_text("[0, 0] -> (w, w+1]\n(0, w] -> [0, w]\n(w, w*2] -> (w+1, w*2]\n")
    assert run_cli(["homeo", "fixpoint-above", "w", str(path)]) == (0, "w*2\n")
    assert run_cli(["homeo", "fixpoint-above", "0", str(path)]) == (0, "w*2\n")
    assert capsys.readouterr().err == ""


def test_order_of_an_infinite_order_map_is_a_resource_error(tmp_path, capsys):
    # 2, 3, ... shift up by one, so the orbit of 2 never closes
    path = tmp_path / "shift.hom"
    path.write_text("[0, 1] -> [0, 1]\n(1, w] -> (2, w]\n(w, w + 1] -> (1, 2]\n"
                    "(w + 1, w*2] -> (w, w*2]\n")
    start = time.perf_counter()
    assert run_cli(["homeo", "order", str(path)]) == (3, "")
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("resource error:")


def test_roelcke_on_a_map_that_fixes_its_last_point(tmp_path, capsys):
    # g fixes w*2, the top of its support; roelcke_decompose checks that
    # u h u', rebuilt by compose, equals g, so compose must cut the
    # identity tail that its padded pieces leave above w*2
    path = tmp_path / "climb.hom"
    path.write_text("[0, 0] -> (w, w+1]\n(0, w] -> [0, w]\n(w, w*2] -> (w+1, w*2]\n")
    code, out = run_cli(["dyn", "roelcke", str(path), "1", "w"])
    assert code == 0 and out.startswith("sigma: ")
    assert capsys.readouterr().err == ""


def test_unsatisfiable_chain_is_a_domain_error(capsys):
    # a one-member chain refines itself vacuously, so only the matching
    # of its limit finds the pigeonhole; that used to exit 4
    assert run_cli(["sieve", "chain", str(DATA / "pigeon.cs")]) == (1, "")
    assert capsys.readouterr().err == "error: the chain's limit (element 1) is unsatisfiable\n"


@pytest.mark.parametrize("left,right,expected", [
    ("narrow.cs", "wide.cs", "true\n"),
    ("wide.cs", "narrow.cs", "false\n"),
    ("pigeon.cs", "wide.cs", "true\n"),
    ("pigeon.cs", "narrow.cs", "true\n"),  # vacuous, though pigeon.cs does not refine narrow.cs
])
def test_contains_matches_its_left_side_once(left, right, expected, monkeypatch):
    calls = []
    real = sieve.satisfiable

    def counted(cs):
        calls.append(cs)
        return real(cs)

    monkeypatch.setattr(sieve, "satisfiable", counted)
    monkeypatch.setattr(ordhomeo, "satisfiable", counted)
    monkeypatch.chdir(DATA)
    assert run_cli(["sieve", "contains", left, right]) == (0, expected)
    assert len(calls) == 1


def test_internal_error_exits_4(monkeypatch, capsys):
    def broken(x):
        raise ContractError("an invariant failed")

    commands = cli._COMMANDS["ord"][1]
    monkeypatch.setitem(commands, "eval", (commands["eval"][0], broken))
    assert run_cli(["ord", "eval", "1"]) == (4, "")
    assert capsys.readouterr().err == "internal error: an invariant failed\n"


TRANS1W1 = "[0, 0] -> [0, 0]\n(0, 1] -> (w, w + 1]\n(1, w] -> (1, w]\n(w, w + 1] -> (0, 1]\n"


@pytest.mark.parametrize("options,expected", [
    pytest.param(["--constraint", "5"], "# identity\n# support 0\n", id="5"),
    # 1 and its image w + 1 are kept, so the witness moves 2 instead: g itself
    pytest.param(["--constraint", "1"], TRANS1W1 + "# support w + 1\n", id="1"),
    pytest.param(["--constraint", "5", "--constraint", "1"], TRANS1W1 + "# support w + 1\n",
                 id="5-and-1"),
])
def test_baire_witness_keeps_its_constraint_points(options, expected, monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    assert run_cli(["dyn", "baire-witness", "trans1w1.hom", "1"] + options) == (0, expected)
    assert capsys.readouterr().err == ""


def test_a_bad_constraint_is_a_parse_error(monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    argv = ["dyn", "baire-witness", "trans1w1.hom", "1", "--constraint", "w^^2"]
    assert run_cli(argv) == (2, "")
    assert capsys.readouterr().err.startswith("parse error:")
