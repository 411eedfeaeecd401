"""Command-line front end.

Four command groups: `ord` (calculator), `homeo` (piecewise-map
toolbox), `dyn` (constructions), `sieve` (constraint systems).  Reports
go to stdout, errors to stderr.  Exit codes: 0 success, 1 domain or
precondition error, 2 parse error, 3 resource cap, 4 internal error
(a broken invariant, reported in one line).

Each command is one row of `_COMMANDS`: its arguments, each with the
loader that turns its text into a value, and a runner that computes the
result from the loaded values.  Argv that fits the table exactly (an
optional leading --unicode, a group, a command, then option-free words
in the count its positionals take) is read by `_match`; only other argv,
help, options and usage errors included, imports argparse, whose tree
is built from the same table.  The arguments are loaded in table order,
and `_render` formats the result by its type.  Runners reach the library
through the package's lazy exports, so a command loads only what it
runs: `ord` never compiles `homeo`, `dynamics` or `sieve`.

Output is deterministic (no timestamps, stable ordering) and uses the
same grammars the inputs do, so emitted ordinals, maps, and constraint
systems re-parse to themselves.  ASCII "w" denotes the first infinite
ordinal everywhere; --unicode switches the display only.
"""

import sys
from functools import reduce
from pathlib import Path

import ordhomeo as O

from .errors import ContractError, DomainError, ParseError, ResourceError

_DEMO_CAP = 10_000  # most terms `dyn demo-discontinuity` prints


# loaders: an argument's text -> its value


def _read(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise DomainError(f"no such file: {path}")
    return p.read_text()


def _ordinal(text: str):
    return O.parse_ordinal(text)


def _file(parser: str):
    """The loader of a file argument: the package's `parser` on its text."""
    return lambda path: getattr(O, parser)(_read(path))


_map = _file("parse_homeo")
_constraints = _file("parse_constraints")
_injection = _file("parse_injection")


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        # 0 is no limit: Python before 3.10.7 has none, and no getter
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if limit and sum(ch.isdecimal() for ch in text) > limit:
            raise ResourceError(f"integer argument longer than {limit} digits") from None
        raise ParseError(f"expected an integer, got {text!r}") from None
    if n < 1:
        raise DomainError("expected a positive integer")
    return n


def _pair(text: str):
    if "->" not in text:
        raise ParseError(f"expected 'x -> y', got {text!r}")
    left, _, right = text.partition("->")
    return O.parse_ordinal(left), O.parse_ordinal(right)


# runners whose compute step is more than one library call


def _class(x):
    c = O.classify(x)
    return ("successor(", c.predecessor, ")") if c.kind == "successor" else c.kind


def _roelcke(g, points):
    cert = O.roelcke_decompose(g, points)
    sigma = " ".join(f"{i + 1}->{j + 1}" for i, j in cert.sigma) or "{}"
    return [f"sigma: {sigma}", "# u", cert.u, "# h", cert.h, "# u'", cert.u_prime]


def _dense(g, targets, family):
    h, k = O.dense_approx(g, targets, family)
    alpha = O.invariant_point(g, max(targets) + O.ONE if targets else O.ONE)
    return [("# alpha ", alpha), "# h", h, "# k", k]


def _demo(count: int):
    if count > _DEMO_CAP:
        raise ResourceError(f"demo-discontinuity limited to {_DEMO_CAP} terms")
    return [(f"{n} ", O.apply(O.discontinuity_sequence(n), O.Ordinal(n)))
            for n in range(1, count + 1)]


def _match(cs):
    witness = O.satisfiable(cs)
    return "unsatisfiable" if witness is None else witness


def _contains(a, b):
    if O.satisfiable(a) is None:
        print("left side is unsatisfiable; inclusion is vacuous", file=sys.stderr)
        return True
    return O.sieve._refines(O.normalize(a), O.normalize(b))


def _chain(systems):
    limit, witness = O.chain_limit(systems)
    return ["# limit", limit, "# witness", witness]


# group -> (help, {command -> (arguments, runner)}).  An argument is
# (name, loader) or (name, loader, help): a plain name takes one value,
# NAME+ one or more, and --NAME is an option that may repeat.  The runner
# takes the loaded values in table order (the order the loaders run in,
# which argparse's own positional/option split does not constrain).
_COMMANDS = {
    "ord": ("ordinal calculator", {
        "eval": ([("expr", _ordinal)], lambda x: x),
        "cmp": ([("left", _ordinal), ("right", _ordinal)], lambda a, b: O.compare(a, b)),
        "sub": ([("left", _ordinal), ("right", _ordinal)], lambda a, b: O.left_subtract(a, b)),
        "rank": ([("expr", _ordinal)], lambda x: O.rank(x)),
        "class": ([("expr", _ordinal)], _class),
        "cbrank": ([("expr", _ordinal)], lambda x: O.cb_rank_segment(x)),
    }),
    "homeo": ("piecewise homeomorphisms", {
        "check": ([("file", _map)], lambda g: g),
        "apply": ([("file", _map), ("point", _ordinal)], lambda g, x: O.apply(g, x)),
        "compose": ([("file+", _map, "application order: rightmost applied first")],
                    lambda maps: reduce(lambda g, h: O.compose(h, g), reversed(maps))),
        "invert": ([("file", _map)], lambda g: O.inverse(g)),
        "order": ([("file", _map)], lambda g: O.order_of(g)),
        "fix": ([("file", _map)], lambda g: O.fixed_points(g)),
        "common-fix": ([("file+", _map)], lambda maps: O.common_fixed_points(maps)),
        "fixpoint-above": ([("bound", _ordinal), ("file+", _map)],
                           lambda bound, maps: O.find_fixed_point_above(maps, bound)),
        "invariant-prefix": ([("file", _map), ("bound", _ordinal)],
                             lambda g, bound: O.invariant_prefix(g, bound)),
        "invariant-point": ([("file", _map), ("bound", _ordinal)],
                            lambda g, bound: O.invariant_point(g, bound)),
    }),
    "dyn": ("dynamical constructions", {
        "transitive": ([("PAIR+", _pair, "'x -> y'"), ("--frozen", _ordinal)],
                       lambda pairs, frozen: O.make_transitive(
                           O.TransitivityProblem(tuple(pairs), frozenset(frozen)))),
        "roelcke": ([("file", _map), ("point+", _ordinal)], _roelcke),
        "dense": ([("file", _map), ("--target", _ordinal), ("--family", _ordinal)], _dense),
        "baire-member": ([("file", _map), ("n", _positive_int)],
                         lambda g, n: O.in_baire_T(g, n)),
        "baire-witness": ([("file", _map), ("--constraint", _ordinal), ("n", _positive_int)],
                          lambda g, constraints, n: O.baire_density_witness(g, n, constraints)),
        "demo-discontinuity": ([("n", _positive_int)], _demo),
    }),
    "sieve": ("constraint systems", {
        "normalize": ([("file", _constraints)], lambda cs: O.normalize(cs)),
        "hall": ([("file", _constraints)], lambda cs: O.hall_brute(cs)),
        "match": ([("file", _constraints)], _match),
        "contains": ([("left", _constraints), ("right", _constraints)], _contains),
        "chain": ([("file+", _constraints)], _chain),
        "extend": ([("file", _injection)], lambda h: O.extend_to_permutation(h)),
    }),
}


def _build_parser():
    import argparse  # only argv that `_match` declines pays for it

    top = argparse.ArgumentParser(prog="ordhomeo")
    top.add_argument("--unicode", action="store_true",
                     help="display the first infinite ordinal as ω")
    groups = top.add_subparsers(dest="group", required=True)
    for group, (group_help, commands) in _COMMANDS.items():
        subparsers = groups.add_parser(group, help=group_help).add_subparsers(
            dest="command", required=True)
        for command, (arguments, _) in commands.items():
            parser = subparsers.add_parser(command)
            for name, _, *doc in arguments:
                shape = ({"action": "append", "default": [], "metavar": "EXPR"}
                         if name.startswith("--") else {"nargs": "+"} if name[-1] == "+" else {})
                parser.add_argument(name.rstrip("+"), help=doc[0] if doc else None, **shape)
    return top


def _shape(args) -> tuple:
    """(group, command, unicode, argument texts in table order) of an
    argparse namespace: a text is a list for NAME+ and --NAME."""
    arguments = _COMMANDS[args.group][1][args.command][0]
    return (args.group, args.command, args.unicode,
            [getattr(args, name.strip("-+")) for name, *_ in arguments])


def _match(argv: list):
    """`_shape` of argv that fits `_COMMANDS` exactly, without argparse:
    an optional leading --unicode, a group and one of its commands, then
    one word per positional, one or more for NAME+, and none that starts
    with "-" (so no option).  Any other argv gives None."""
    uni = argv[:1] == ["--unicode"]
    if len(argv) < uni + 2 or any(word.startswith("-") for word in argv[uni:]):
        return None
    group, command, *words = argv[uni:]
    try:
        arguments = _COMMANDS[group][1][command][0]
    except KeyError:
        return None
    positionals = [name for name, *_ in arguments if not name.startswith("--")]
    spare = len(words) - len(positionals)  # extra words a NAME+ takes
    if spare < 0 or spare and not any(name.endswith("+") for name in positionals):
        return None
    texts = []
    for name, *_ in arguments:
        if name.startswith("--"):
            texts.append([])
        elif name.endswith("+"):
            texts.append(words[:spare + 1])
            del words[:spare + 1]
        else:
            texts.append(words.pop(0))
    return group, command, uni, texts


def _load(texts: list, arguments) -> list:
    """Each argument's value through its loader, in table order; an
    argument that takes several values loads to a list."""
    return [[loader(t) for t in text] if isinstance(text, list) else loader(text)
            for text, (_, loader, *_) in zip(texts, arguments)]


# result type name -> the package's formatter for it (by name, so that
# rendering an ordinal does not import the modules of the other types)
_FORMATTERS = {"Ordinal": "format_ordinal", "OrdinalSet": "format_ordinal_set",
               "PwHomeo": "format_homeo", "ConstraintSystem": "format_constraints",
               "PartialInjection": "format_injection",
               "FinitePermutation": "format_permutation"}


def _render(result, uni: bool) -> str:
    """The printed text of a runner's result, chosen by its type: a value
    through its formatter, a bool as true/false, str and int as they are,
    a list part after part, and a tuple as one line of its parts."""
    if isinstance(result, list):
        return "".join(_render(part, uni) for part in result)
    if isinstance(result, tuple):
        return "".join(_render(part, uni)[:-1] for part in result) + "\n"
    if isinstance(result, bool):
        text = "true" if result else "false"
    elif type(result).__name__ in _FORMATTERS:
        text = getattr(O, _FORMATTERS[type(result).__name__])(result, uni)
    else:
        text = str(result)
    return text if text.endswith("\n") else text + "\n"


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    group, command, uni, texts = _match(argv) or _shape(_build_parser().parse_args(argv))
    arguments, runner = _COMMANDS[group][1][command]
    try:
        out.write(_render(runner(*_load(texts, arguments)), uni))
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except ResourceError as err:
        print(f"resource error: {err}", file=sys.stderr)
        return 3
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ContractError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 4
    return 0


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
