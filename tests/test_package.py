"""The package surface: lazy exports, what each CLI group loads, and the
immutable value records."""

import ast
import copy
import os
import pickle
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import ordhomeo
from ordhomeo.dynamics import TransitivityProblem
from ordhomeo.errors import DomainError, ParseError, ResourceError, ValidationError
from ordhomeo.homeo import (ClopenInterval, OrdinalSet, Piece, PwHomeo, format_interval, initial,
                           parse_homeo, span)
from ordhomeo.ordinals import OMEGA, ONE, ZERO, Ordinal, PointClass, _set, parse_ordinal
from ordhomeo.sieve import (ConstraintSystem, FinitePermutation, PartialInjection,
                            parse_constraints, parse_injection)

DATA = Path(__file__).parent / "golden" / "data"
SRC = Path(ordhomeo.__file__).resolve().parent.parent

EXPORTS = {
    "errors": ["ContractError", "DomainError", "OrdhomeoError", "ParseError",
               "ResourceError", "ValidationError"],
    "ordinals": ["OMEGA", "ONE", "ZERO", "Ordinal", "PointClass", "absorb_threshold",
                 "cb_rank_segment", "classify", "compare", "diff_exponent",
                 "enumerate_level", "format_ordinal", "in_derived",
                 "isolating_left_endpoint", "left_subtract", "omega_pow", "parse_ordinal",
                 "rank"],
    "homeo": ["ClopenInterval", "OrdinalSet", "Piece", "PwHomeo", "apply", "build",
              "canonicalize", "common_fixed_points", "compose", "enum_index",
              "find_fixed_point_above", "fixed_points", "format_homeo", "format_interval",
              "format_ordinal_set", "identity", "index_of", "initial", "interval_swap",
              "invariant_point", "invariant_prefix", "inverse", "order_of",
              "order_type", "parse_homeo", "restrict_to_initial", "span",
              "sup_image", "swap_points"],
    "dynamics": ["RoelckeCertificate", "TransitivityProblem", "baire_density_witness",
                 "dense_approx", "discontinuity_sequence", "fresh_point", "in_baire_T",
                 "make_transitive", "roelcke_decompose"],
    "sieve": ["ConstraintSystem", "FinitePermutation", "PartialInjection", "below",
              "chain_limit", "contains", "extend_to_permutation", "format_constraints",
              "format_injection", "format_permutation", "hall_brute", "normalize",
              "parse_constraints", "parse_injection", "satisfiable"],
}


def test_exports_are_the_submodules_objects():
    assert sorted(ordhomeo.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    for module, names in EXPORTS.items():
        sub = import_module(f"ordhomeo.{module}")
        assert getattr(ordhomeo, module) is sub
        for name in names:
            assert getattr(ordhomeo, name) is getattr(sub, name)
    namespace = {}
    exec("from ordhomeo import *", namespace)
    assert set(ordhomeo.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        ordhomeo.no_such_name


# ---------------------------------------------------------------------------
# start-up: each check runs in a fresh interpreter


BASE = {"ordhomeo", "ordhomeo.cli", "ordhomeo.errors"}


def _loaded_by(code: str) -> tuple[set[str], set[str]]:
    """The ordhomeo modules loaded after running code in a fresh
    interpreter, and which of `argparse` and `dataclasses` were."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = f"import sys\n{code}\nprint(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", script], cwd=DATA, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stdout.splitlines()[-1].split())
    return {m for m in modules if m.startswith("ordhomeo")}, {"argparse", "dataclasses"} & modules


def _after_main(argv: list[str]) -> str:
    """Code that runs main(argv) and checks it exits 0, as `-h` does
    through SystemExit."""
    return ("import contextlib, io\nfrom ordhomeo.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    try:\n        code = main({argv!r}, io.StringIO())\n"
            "    except SystemExit as exit:\n        code = exit.code\n"
            "assert code == 0, code")


@pytest.mark.parametrize("code,loaded", [
    pytest.param("import ordhomeo.cli", BASE, id="import-cli"),
    pytest.param(_after_main(["ord", "eval", "w+1"]), BASE | {"ordhomeo.ordinals"}, id="ord"),
    pytest.param(_after_main(["homeo", "check", "swap.hom"]),
                 BASE | {"ordhomeo.ordinals", "ordhomeo.homeo"}, id="homeo"),
    pytest.param(_after_main(["sieve", "normalize", "dup.cs"]),
                 BASE | {"ordhomeo.ordinals", "ordhomeo.sieve"}, id="sieve"),
    pytest.param("import ordhomeo\nordhomeo.homeo.compose",
                 {"ordhomeo", "ordhomeo.errors", "ordhomeo.ordinals", "ordhomeo.homeo"},
                 id="submodule-attribute"),
])
def test_a_command_loads_only_its_group(code, loaded):
    assert _loaded_by(code) == (loaded, set())


def test_dyn_loads_only_its_group():
    loaded = BASE | {"ordhomeo.ordinals", "ordhomeo.homeo", "ordhomeo.dynamics"}
    # RoelckeCertificate is still a dataclass, so dyn loads dataclasses
    assert _loaded_by(_after_main(["dyn", "transitive", "3 -> 5"])) == (loaded, {"dataclasses"})


@pytest.mark.parametrize("argv", [["ord", "eval", "w+1"], ["homeo", "fix", "swap.hom"],
                                  ["dyn", "baire-member", "swap.hom", "1"],
                                  ["sieve", "match", "pigeon.cs"]], ids=lambda argv: argv[0])
def test_a_fitting_command_never_imports_argparse(argv):
    assert "argparse" not in _loaded_by(_after_main(argv))[1]


def test_help_imports_argparse():
    assert "argparse" in _loaded_by(_after_main(["ord", "eval", "-h"]))[1]


# ---------------------------------------------------------------------------
# records


def _records():
    """(two equal but distinct records, the repr of the dataclass each
    record type replaced) per record type."""
    o = parse_ordinal

    def pieces():  # the swap of [0, 0] and (0, 1], canonical as unpickling requires
        return (Piece(initial(ZERO), span(ZERO, ONE)), Piece(span(ZERO, ONE), initial(ZERO)))

    return [
        (lambda: PointClass("successor", o("w + 2")),
         "PointClass(kind='successor', predecessor=w + 2)"),
        (lambda: initial(o("w")), "ClopenInterval(start=0, end=w + 1)"),
        (lambda: Piece(span(o("w"), o("w*2")), initial(ONE)),
         "Piece(source=ClopenInterval(start=w + 1, end=w*2 + 1), "
         "target=ClopenInterval(start=0, end=2))"),
        (lambda: PwHomeo(pieces()),
         "PwHomeo(pieces=(Piece(source=ClopenInterval(start=0, end=1), "
         "target=ClopenInterval(start=1, end=2)), Piece(source=ClopenInterval(start=1, end=2), "
         "target=ClopenInterval(start=0, end=1))))"),
        (lambda: OrdinalSet.from_parts([(ZERO, ZERO)], o("w*2")),
         "OrdinalSet(runs=((0, 1), (w*2 + 1, None)))"),
        (lambda: ConstraintSystem(((ONE, frozenset([OMEGA])),)),
         "ConstraintSystem(constraints=((1, frozenset({w})),))"),
        (lambda: PartialInjection(((ONE, OMEGA),)), "PartialInjection(pairs=((1, w),))"),
        (lambda: FinitePermutation(((ONE, o("2")),)), "FinitePermutation(cycles=((1, 2),))"),
        (lambda: TransitivityProblem(((ONE, o("2")),)),
         "TransitivityProblem(pairs=((1, 2),), frozen=frozenset())"),
    ]


RECORDS = _records()
IDS = [r[1].split("(")[0] for r in RECORDS]


@pytest.mark.parametrize("make,text", RECORDS, ids=IDS)
def test_record_is_an_immutable_value(make, text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == text
    name = type(a).__slots__[0]
    for change in (lambda: setattr(a, name, None), lambda: delattr(a, name),
                   lambda: setattr(a, "extra", 1)):
        with pytest.raises(AttributeError):
            change()
    assert a == b


@pytest.mark.parametrize("make,text", RECORDS, ids=IDS)
def test_same_fields_under_another_record_type_differ(make, text):
    a = make()
    values = [getattr(a, name) for name in type(a).__slots__]
    for make_other, _ in RECORDS:
        cls = type(make_other())
        if cls is type(a) or len(cls.__slots__) != len(values):
            continue
        impostor = object.__new__(cls)  # skips cls's own checks
        for name, value in zip(cls.__slots__, values):
            _set(impostor, name, value)
        assert a != impostor and impostor != a


@pytest.mark.parametrize("make,text", RECORDS, ids=IDS)
def test_record_copies_and_pickles(make, text):
    a = make()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == hash(a) and repr(b) == text


def test_unpickling_a_map_goes_through_build():
    w = OMEGA
    broken = PwHomeo((Piece(initial(w), initial(w + ONE)),))  # order types differ
    with pytest.raises(ValidationError):
        pickle.loads(pickle.dumps(broken))
    not_canonical = PwHomeo((Piece(initial(ZERO), initial(ZERO)),))  # an identity piece
    assert pickle.loads(pickle.dumps(not_canonical)) == PwHomeo(())


def test_unpickling_an_empty_interval_is_refused():
    empty = ClopenInterval(OMEGA * 2 + ONE, OMEGA + ONE)  # the constructor trusts its ends
    assert empty.__reduce__() == (span, (OMEGA * 2, OMEGA))
    with pytest.raises(DomainError):
        pickle.loads(pickle.dumps(empty))


@pytest.mark.parametrize("read", [copy.copy, pickle.dumps, format_interval],
                         ids=["copy", "pickle", "format"])
def test_the_empty_interval_at_0_is_refused_by_name(read):
    # [0, 0) has no last point, hi, to print or to rebuild it from
    with pytest.raises(DomainError) as err:
        read(ClopenInterval(ZERO, ZERO))
    assert str(err.value) == "empty interval [0, 0)"


def test_unpickling_a_set_goes_through_from_parts():
    w = OMEGA
    # runs that touch at 3 and overlap on [4, w], which the constructor trusts
    raw = OrdinalSet(((ZERO, Ordinal(3)), (Ordinal(3), Ordinal(5)), (Ordinal(4), w + ONE),
                      (w * 2, None)))
    assert raw.__reduce__() == (OrdinalSet.from_parts, (raw.intervals, raw.tail_from))
    want = OrdinalSet.from_parts([(ZERO, w), (w * 2, w * 2)], w * 2)
    assert want.runs == ((ZERO, w + ONE), (w * 2, None))
    for b in (copy.copy(raw), pickle.loads(pickle.dumps(raw))):
        assert b == want and b != raw


# ---------------------------------------------------------------------------
# the line-based file formats


DIGITS = sys.get_int_max_str_digits()  # the most digits int() reads from a str
LONG_VALUE = "1 -> 2\n  3 -> " + "9" * (DIGITS + 1)  # its number starts at column 8 of line 2


@pytest.mark.parametrize("parse,text,message", [
    (parse_homeo, "# swap\n\n[0, 0] -> [0, 0]\n[0, 1]\n",
     "line 4: expected 'interval -> interval'"),
    (parse_injection, "1 -> 2\n  # note\n3 to 4\n", "line 3: expected 'from -> to'"),
    (parse_constraints, "\n1 : { 2 }\n1 { 2 }\n", "line 3: expected 'point : { values }'"),
    (parse_constraints, "1 : { 2 }\n#\n2 : 3\n", "line 3: expected a braced value set"),
])
def test_line_formats_name_the_line_and_the_expected_shape(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


@pytest.mark.parametrize("parse,text,error,message", [
    (parse_homeo, "[0, 0] -> [0, 0]\n# c\n(0, w] -> (0, w^^2]\n", ParseError,
     "line 3: expected 'w', a number, or '(' (position 17)"),
    (parse_homeo, "\n(0, w] -> [0, w]\n(w, w] -> (w, w]\n", DomainError,
     "line 3: empty interval (w, w]"),
    (parse_injection, "1 -> 2\n3 -> w+\n", ParseError,
     "line 2: expected 'w', a number, or '(' (position 8)"),
    (parse_injection, "# note\n1 -> 2\nw*0 -> 4\n", DomainError,
     "line 3: zero coefficient (position 3)"),
    (parse_constraints, "1 : { 2 }\n\nw : { 3, w*0 }\n", DomainError,
     "line 3: zero coefficient (position 12)"),
    (parse_constraints, "1 : { 2 }\nw) : { 3 }\n", ParseError,
     "line 2: trailing input (position 2)"),
    pytest.param(parse_injection, LONG_VALUE, ResourceError,
                 f"line 2: number longer than {DIGITS} digits (position 8)", id="long-value"),
])
def test_line_formats_name_the_line_of_a_bad_value(parse, text, error, message):
    # the same class as the value's own error, so the CLI's exit code is unchanged
    with pytest.raises(error) as err:
        parse(text)
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("parse,text,column", [
    (parse_homeo, "[0, 0] -> [0, 0]\n# c\n(0, w] -> (0, w^^2]\n", 17),
    (parse_homeo, "[0, 0] -> [0, 0]\n\t  (0, w]  ->  ( 0 , w^^2]\n", 24),
    (parse_homeo, "  ( w^ , w*2] -> (w, w*2]\n", 8),
    (parse_injection, " 1 -> 2\n   3 ->w+\n", 10),
    (parse_constraints, "  w :{ 3 ,, 4 }\n", 11),
    (parse_constraints, "  w*0 : { 3 }\n", 5),
    (parse_constraints, "1 : {2, 3,w*0}\n", 13),
    pytest.param(parse_injection, LONG_VALUE, 8, id="long-value"),
])
def test_a_bad_value_reports_its_column_in_the_line(parse, text, column):
    # the column in the line as written, leading whitespace included (a tab is
    # one column), of the character the value parser stopped at
    with pytest.raises((ParseError, DomainError, ResourceError)) as err:
        parse(text)
    assert err.value.position == column
    assert str(err.value).endswith(f"(position {column})")


def test_no_module_binds_a_top_level_name_twice():
    # a second def or assignment silently replaces the first, and whatever
    # read the name in between keeps the old one
    for path in sorted((SRC / "ordhomeo").glob("*.py")):
        seen = set()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            twice = seen.intersection(names)
            assert not twice, f"{path.name} binds {sorted(twice)} again at line {node.lineno}"
            seen.update(names)
