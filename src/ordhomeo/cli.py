"""Command-line front end.

Four command groups: `ord` (calculator), `homeo` (piecewise-map
toolbox), `dyn` (constructions), `sieve` (constraint systems).  Reports
go to stdout, errors to stderr.  Exit codes: 0 success, 1 domain or
precondition error, 2 parse error, 3 resource cap, 4 internal error
(a broken invariant, reported in one line).

Output is deterministic (no timestamps, stable ordering) and uses the
same grammars the inputs do, so emitted ordinals, maps, and constraint
systems re-parse to themselves.  ASCII "w" denotes the first infinite
ordinal everywhere; --unicode switches the display only.
"""

import argparse
import sys
from pathlib import Path

from .errors import ContractError, DomainError, ParseError, ResourceError

# Each runner imports its group's modules itself, so a command loads
# only what it runs: `ord` never compiles `homeo`, `dynamics` or `sieve`.

_DEMO_CAP = 10_000  # most terms `dyn demo-discontinuity` prints


def _read(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise DomainError(f"no such file: {path}")
    return p.read_text()


def _load_homeo(path: str):
    from .homeo import parse_homeo
    return parse_homeo(_read(path))


def _load_constraints(path: str):
    from .sieve import parse_constraints
    return parse_constraints(_read(path))


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


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ordhomeo")
    top.add_argument("--unicode", action="store_true",
                     help="display the first infinite ordinal as ω")
    groups = top.add_subparsers(dest="group", required=True)

    g_ord = groups.add_parser("ord", help="ordinal calculator")
    s = g_ord.add_subparsers(dest="command", required=True)
    s.add_parser("eval").add_argument("expr")
    p = s.add_parser("cmp")
    p.add_argument("left")
    p.add_argument("right")
    p = s.add_parser("sub")
    p.add_argument("left")
    p.add_argument("right")
    s.add_parser("rank").add_argument("expr")
    s.add_parser("class").add_argument("expr")
    s.add_parser("cbrank").add_argument("expr")

    g_homeo = groups.add_parser("homeo", help="piecewise homeomorphisms")
    s = g_homeo.add_subparsers(dest="command", required=True)
    s.add_parser("check").add_argument("file")
    p = s.add_parser("apply")
    p.add_argument("file")
    p.add_argument("point")
    p = s.add_parser("compose")
    p.add_argument("files", nargs="+", metavar="file",
                   help="application order: rightmost applied first")
    s.add_parser("invert").add_argument("file")
    s.add_parser("order").add_argument("file")
    s.add_parser("fix").add_argument("file")
    s.add_parser("common-fix").add_argument("files", nargs="+", metavar="file")
    p = s.add_parser("fixpoint-above")
    p.add_argument("bound")
    p.add_argument("files", nargs="+", metavar="file")
    p = s.add_parser("invariant-prefix")
    p.add_argument("file")
    p.add_argument("bound")
    p = s.add_parser("invariant-point")
    p.add_argument("file")
    p.add_argument("bound")

    g_dyn = groups.add_parser("dyn", help="dynamical constructions")
    s = g_dyn.add_subparsers(dest="command", required=True)
    p = s.add_parser("transitive")
    p.add_argument("--frozen", action="append", default=[], metavar="EXPR")
    p.add_argument("pairs", nargs="+", metavar="PAIR", help="'x -> y'")
    p = s.add_parser("roelcke")
    p.add_argument("file")
    p.add_argument("points", nargs="+", metavar="point")
    p = s.add_parser("dense")
    p.add_argument("file")
    p.add_argument("--target", action="append", default=[], metavar="EXPR")
    p.add_argument("--family", action="append", default=[], metavar="EXPR")
    p = s.add_parser("baire-member")
    p.add_argument("file")
    p.add_argument("n")
    p = s.add_parser("baire-witness")
    p.add_argument("file")
    p.add_argument("n")
    p.add_argument("--constraint", action="append", default=[], metavar="EXPR")
    s.add_parser("demo-discontinuity").add_argument("n")

    g_sieve = groups.add_parser("sieve", help="constraint systems")
    s = g_sieve.add_subparsers(dest="command", required=True)
    s.add_parser("normalize").add_argument("file")
    s.add_parser("hall").add_argument("file")
    s.add_parser("match").add_argument("file")
    p = s.add_parser("contains")
    p.add_argument("left")
    p.add_argument("right")
    s.add_parser("chain").add_argument("files", nargs="+", metavar="file")
    s.add_parser("extend").add_argument("file")
    return top


def _run_ord(args, out, uni: bool) -> None:
    from .ordinals import (cb_rank_segment, classify, compare, format_ordinal,
                           left_subtract, parse_ordinal, rank)

    if args.command == "eval":
        print(format_ordinal(parse_ordinal(args.expr), uni), file=out)
    elif args.command == "cmp":
        print(compare(parse_ordinal(args.left), parse_ordinal(args.right)), file=out)
    elif args.command == "sub":
        a, b = parse_ordinal(args.left), parse_ordinal(args.right)
        print(format_ordinal(left_subtract(a, b), uni), file=out)
    elif args.command == "rank":
        print(format_ordinal(rank(parse_ordinal(args.expr)), uni), file=out)
    elif args.command == "class":
        c = classify(parse_ordinal(args.expr))
        if c.kind == "successor":
            print(f"successor({format_ordinal(c.predecessor, uni)})", file=out)
        else:
            print(c.kind, file=out)
    elif args.command == "cbrank":
        print(format_ordinal(cb_rank_segment(parse_ordinal(args.expr)), uni), file=out)


def _run_homeo(args, out, uni: bool) -> None:
    from .homeo import (apply, common_fixed_points, compose, find_fixed_point_above,
                        fixed_points, format_homeo, format_ordinal_set,
                        invariant_point, invariant_prefix, inverse, order_of)
    from .ordinals import format_ordinal, parse_ordinal

    if args.command == "check":
        print(format_homeo(_load_homeo(args.file), uni), end="", file=out)
    elif args.command == "apply":
        g = _load_homeo(args.file)
        print(format_ordinal(apply(g, parse_ordinal(args.point)), uni), file=out)
    elif args.command == "compose":
        maps = [_load_homeo(f) for f in args.files]
        g = maps[-1]
        for h in reversed(maps[:-1]):
            g = compose(h, g)
        print(format_homeo(g, uni), end="", file=out)
    elif args.command == "invert":
        print(format_homeo(inverse(_load_homeo(args.file)), uni), end="", file=out)
    elif args.command == "order":
        n = order_of(_load_homeo(args.file))
        print("cap-exceeded" if n is None else n, file=out)
    elif args.command == "fix":
        print(format_ordinal_set(fixed_points(_load_homeo(args.file)), uni), file=out)
    elif args.command == "common-fix":
        s = common_fixed_points([_load_homeo(f) for f in args.files])
        print(format_ordinal_set(s, uni), file=out)
    elif args.command == "fixpoint-above":
        gs = [_load_homeo(f) for f in args.files]
        beta = find_fixed_point_above(gs, parse_ordinal(args.bound))
        print(format_ordinal(beta, uni), file=out)
    elif args.command == "invariant-prefix":
        g = _load_homeo(args.file)
        print(format_ordinal(invariant_prefix(g, parse_ordinal(args.bound)), uni), file=out)
    elif args.command == "invariant-point":
        g = _load_homeo(args.file)
        print(format_ordinal(invariant_point(g, parse_ordinal(args.bound)), uni), file=out)


def _parse_pair(text: str):
    from .ordinals import parse_ordinal

    if "->" not in text:
        raise ParseError(f"expected 'x -> y', got {text!r}")
    left, _, right = text.partition("->")
    return parse_ordinal(left), parse_ordinal(right)


def _run_dyn(args, out, uni: bool) -> None:
    from .dynamics import (TransitivityProblem, baire_density_witness, dense_approx,
                           discontinuity_sequence, in_baire_T, make_transitive,
                           roelcke_decompose)
    from .homeo import apply, format_homeo, invariant_point
    from .ordinals import Ordinal, format_ordinal, parse_ordinal

    if args.command == "transitive":
        pairs = tuple(_parse_pair(p) for p in args.pairs)
        frozen = frozenset(parse_ordinal(f) for f in args.frozen)
        g = make_transitive(TransitivityProblem(pairs, frozen))
        print(format_homeo(g, uni), end="", file=out)
    elif args.command == "roelcke":
        g = _load_homeo(args.file)
        points = [parse_ordinal(p) for p in args.points]
        cert = roelcke_decompose(g, points)
        if cert.sigma:
            body = " ".join(f"{i + 1}->{j + 1}" for i, j in cert.sigma)
        else:
            body = "{}"
        print(f"sigma: {body}", file=out)
        for name, part in (("u", cert.u), ("h", cert.h), ("u'", cert.u_prime)):
            print(f"# {name}", file=out)
            print(format_homeo(part, uni), end="", file=out)
    elif args.command == "dense":
        g = _load_homeo(args.file)
        targets = [parse_ordinal(t) for t in args.target]
        family = [parse_ordinal(f) for f in args.family]
        h, k = dense_approx(g, targets, family)
        alpha = invariant_point(g, max(targets) + Ordinal(1) if targets else Ordinal(1))
        print(f"# alpha {format_ordinal(alpha, uni)}", file=out)
        print("# h", file=out)
        print(format_homeo(h, uni), end="", file=out)
        print("# k", file=out)
        print(format_homeo(k, uni), end="", file=out)
    elif args.command == "baire-member":
        g = _load_homeo(args.file)
        print("true" if in_baire_T(g, _positive_int(args.n)) else "false", file=out)
    elif args.command == "baire-witness":
        g = _load_homeo(args.file)
        constraints = [parse_ordinal(c) for c in args.constraint]
        h = baire_density_witness(g, _positive_int(args.n), constraints)
        print(format_homeo(h, uni), end="", file=out)
    elif args.command == "demo-discontinuity":
        count = _positive_int(args.n)
        if count > _DEMO_CAP:
            raise ResourceError(f"demo-discontinuity limited to {_DEMO_CAP} terms")
        for n in range(1, count + 1):
            g = discontinuity_sequence(n)
            print(f"{n} {format_ordinal(apply(g, Ordinal(n)), uni)}", file=out)


def _run_sieve(args, out, uni: bool) -> None:
    from .sieve import (chain_limit, contains, extend_to_permutation, format_constraints,
                        format_injection, format_permutation, hall_brute, normalize,
                        parse_injection, satisfiable)

    if args.command == "normalize":
        system = normalize(_load_constraints(args.file))
        print(format_constraints(system, uni), end="", file=out)
    elif args.command == "hall":
        print("true" if hall_brute(_load_constraints(args.file)) else "false", file=out)
    elif args.command == "match":
        witness = satisfiable(_load_constraints(args.file))
        if witness is None:
            print("unsatisfiable", file=out)
        else:
            print(format_injection(witness, uni), end="", file=out)
    elif args.command == "contains":
        a = _load_constraints(args.left)
        b = _load_constraints(args.right)
        if satisfiable(a) is None:
            print("left side is unsatisfiable; inclusion is vacuous", file=sys.stderr)
        print("true" if contains(a, b) else "false", file=out)
    elif args.command == "chain":
        chain = [_load_constraints(f) for f in args.files]
        limit, witness = chain_limit(chain)
        print("# limit", file=out)
        print(format_constraints(limit, uni), end="", file=out)
        print("# witness", file=out)
        print(format_injection(witness, uni), end="", file=out)
    elif args.command == "extend":
        h = parse_injection(_read(args.file))
        print(format_permutation(extend_to_permutation(h), uni), end="", file=out)


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    runner = {"ord": _run_ord, "homeo": _run_homeo,
              "dyn": _run_dyn, "sieve": _run_sieve}[args.group]
    try:
        runner(args, out, args.unicode)
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
