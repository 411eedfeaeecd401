"""Constraint systems over the ordinals and their matching theory.

A constraint system is a finite conjunction "point x_i must map into the
finite set Y_i"; it describes a basic open set of the full symmetric
group of the (effectively infinite) ordinal ground set.  The module
decides satisfiability by augmenting-path matching, cross-checkable
against a direct exhaustive test of Hall's condition, orders systems by
refinement, takes limits of refining chains, and extends any partial
injection to a finitely-supported permutation.  Refinement is syntactic
and transitive, so a refining chain's limit is its last member, and one
matching of that member witnesses the whole chain.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from .errors import ContractError, DomainError, ParseError, ResourceError
from .ordinals import Ordinal, _at, _Record, _set, _split_lines, format_ordinal, parse_ordinal

_HALL_BRUTE_LIMIT = 20


class ConstraintSystem(_Record):
    """Pairs (point, allowed values).  `normalize` merges repeated
    points by intersecting their allowed sets."""

    __slots__ = ("constraints",)

    def __init__(self, constraints: tuple[tuple[Ordinal, frozenset[Ordinal]], ...]):
        _set(self, "constraints", constraints)

    @staticmethod
    def of(items: Iterable[tuple[Ordinal, Iterable[Ordinal]]]) -> "ConstraintSystem":
        return ConstraintSystem(tuple((p, frozenset(vals)) for p, vals in items))

    @property
    def points(self) -> list[Ordinal]:
        return [p for p, _ in self.constraints]

    def syntactically_unsatisfiable(self) -> bool:
        return any(not vals for _, vals in self.constraints)


class PartialInjection(_Record):
    """Finitely many pairs, injective in both coordinates."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[Ordinal, Ordinal], ...]):
        _set(self, "pairs", pairs)

    def validate(self) -> None:
        froms = [a for a, _ in self.pairs]
        tos = [b for _, b in self.pairs]
        if len(set(froms)) != len(froms):
            raise DomainError("duplicate source in partial injection")
        if len(set(tos)) != len(tos):
            raise DomainError("duplicate target in partial injection")

    def as_mapping(self) -> dict[Ordinal, Ordinal]:
        return dict(self.pairs)


def normalize(cs: ConstraintSystem) -> ConstraintSystem:
    """Distinct points in increasing order, duplicate points merged by
    intersection; an empty intersection survives as an (unsatisfiable)
    empty allowed set."""
    merged: dict[Ordinal, frozenset[Ordinal]] = {}
    for p, vals in cs.constraints:
        merged[p] = merged[p] & vals if p in merged else vals
    return ConstraintSystem(tuple((p, merged[p]) for p in sorted(merged)))


def satisfiable(cs: ConstraintSystem) -> Optional[PartialInjection]:
    """A witness injection h with h(x_i) in Y_i, or None exactly when
    Hall's condition fails.  Deterministic augmenting-path matching:
    points in normalized order, values in increasing order."""
    ncs = normalize(cs)
    if ncs.syntactically_unsatisfiable():
        return None
    points = ncs.points
    allowed = {p: sorted(vals) for p, vals in ncs.constraints}
    match: dict[Ordinal, Ordinal] = {}  # value -> point
    for p in points:
        # depth-first search for an augmenting path from p, on an explicit
        # stack of frames [point, its untried values, the value it tries]
        seen: set[Ordinal] = set()
        stack = [[p, iter(allowed[p]), None]]
        while stack:
            top = stack[-1]
            for v in top[1]:
                if v not in seen:
                    break
            else:
                stack.pop()
                continue
            seen.add(v)
            top[2] = v
            if v not in match:
                for q, _, u in stack:
                    match[u] = q
                break
            stack.append([match[v], iter(allowed[match[v]]), None])
        else:
            return None
    chosen = {p: v for v, p in match.items()}
    return PartialInjection(tuple((p, chosen[p]) for p in points))


def hall_brute(cs: ConstraintSystem) -> bool:
    """Hall's condition by exhaustive subsets: every subfamily's union
    must be at least as large as the subfamily.  Independent oracle for
    `satisfiable`; limited to 20 points."""
    ncs = normalize(cs)
    k = len(ncs.constraints)
    if k > _HALL_BRUTE_LIMIT:
        raise ResourceError(f"hall_brute limited to {_HALL_BRUTE_LIMIT} points, got {k}")
    sets = [vals for _, vals in ncs.constraints]
    for size in range(1, k + 1):
        for combo in itertools.combinations(sets, size):
            union = frozenset().union(*combo)
            if len(union) < size:
                return False
    return True


def _refines(na: ConstraintSystem, nb: ConstraintSystem) -> bool:
    """Whether every constraint of the normal form nb is refined by a
    constraint of the normal form na on the same point."""
    lookup = dict(na.constraints)
    return all(p in lookup and lookup[p] <= vals for p, vals in nb.constraints)


def contains(a: ConstraintSystem, b: ConstraintSystem) -> bool:
    """Whether the open set described by a lies inside the one described
    by b: every constraint of b must be refined by a constraint of a on
    the same point.  Vacuously true for unsatisfiable a."""
    na = normalize(a)
    return satisfiable(na) is None or _refines(na, normalize(b))


def below(a: ConstraintSystem, b: ConstraintSystem) -> bool:
    """The refinement relation on satisfiable systems (the witnessing
    middle system is a itself)."""
    for name, cs in (("left", a), ("right", b)):
        if satisfiable(cs) is None:
            raise DomainError(f"{name} side is unsatisfiable")
    return _refines(normalize(a), normalize(b))


def chain_limit(chain: Sequence[ConstraintSystem]) -> tuple[ConstraintSystem, PartialInjection]:
    """Limit of a refining chain (each element below the previous) and a
    witness injection satisfying every member.  Refinement is transitive,
    so the limit is the last member's normal form, found with one
    matching; a witness for it satisfies every earlier member."""
    if not chain:
        raise DomainError("empty chain")
    members = [normalize(cs) for cs in chain]
    for i in range(len(members) - 1):
        if not _refines(members[i + 1], members[i]):
            raise DomainError(f"chain violation between elements {i + 1} and {i + 2}")
    limit = members[-1]
    witness = satisfiable(limit)
    if witness is None:
        raise DomainError(f"the chain's limit (element {len(members)}) is unsatisfiable")
    mapping = witness.as_mapping()
    for i, ncs in enumerate(members):
        for p, vals in ncs.constraints:
            if mapping[p] not in vals:
                raise ContractError(f"witness violates chain element {i + 1}")
    return limit, witness


class FinitePermutation(_Record):
    """A finitely-supported permutation of the ordinal ground set,
    stored as disjoint cycles (each rotated to start at its least
    element, listed by that element)."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: tuple[tuple[Ordinal, ...], ...]):
        _set(self, "cycles", cycles)

    def apply(self, x: Ordinal) -> Ordinal:
        for cycle in self.cycles:
            if x in cycle:
                return cycle[(cycle.index(x) + 1) % len(cycle)]
        return x

    def support(self) -> frozenset[Ordinal]:
        return frozenset(x for cycle in self.cycles for x in cycle)

    @property
    def is_identity(self) -> bool:
        return not self.cycles


def extend_to_permutation(h: PartialInjection) -> FinitePermutation:
    """Close each maximal chain a -> ... -> z of the injection into a
    cycle (z back to a); the result is a bijection extending h whose
    support is exactly the points of h's chains."""
    h.validate()
    mapping = h.as_mapping()
    heads = sorted(mapping.keys() - mapping.values())
    cycles = []
    visited: set[Ordinal] = set()
    # a walk from a chain head ends where the chain leaves the sources,
    # one from any other source where it comes back to the start
    for start in heads + sorted(mapping):
        if start in visited:
            continue
        cycle = [start]
        while (x := mapping.get(cycle[-1], start)) != start:
            cycle.append(x)
        visited.update(cycle)
        if len(cycle) > 1:
            least = cycle.index(min(cycle))
            cycles.append(tuple(cycle[least:] + cycle[:least]))
    cycles.sort(key=lambda c: c[0])
    return FinitePermutation(tuple(cycles))


# ---------------------------------------------------------------------------
# text formats
#
# constraint system, one constraint per line:   ordexpr : { a , b , ... }
# partial injection, one pair per line:         ordexpr -> ordexpr
# "#" lines are comments in both.


def format_constraints(cs: ConstraintSystem) -> str:
    lines = []
    for p, vals in cs.constraints:
        inner = ", ".join(format_ordinal(v) for v in sorted(vals))
        lines.append(f"{format_ordinal(p)} : {{ {inner} }}".replace("{  }", "{ }"))
    if not lines:
        lines.append("# empty system")
    return "\n".join(lines) + "\n"


def _value_set(text: str) -> list:
    body = text.strip()
    if not body.startswith("{") or not body.endswith("}"):
        raise ParseError("expected a braced value set")
    inner = body[1:-1]
    if not inner.strip():
        return []
    at = len(text) - len(text.lstrip()) + 1  # the column of inner, less one
    vals = []
    for part in inner.split(","):
        vals.append(_at(at, parse_ordinal, part))
        at += len(part) + 1
    return vals


def parse_constraints(text: str) -> ConstraintSystem:
    return ConstraintSystem.of(_split_lines(text, ":", "'point : { values }'",
                                            parse_ordinal, _value_set))


def format_injection(h: PartialInjection) -> str:
    lines = [f"{format_ordinal(a)} -> {format_ordinal(b)}"
             for a, b in h.pairs]
    if not lines:
        lines.append("# empty injection")
    return "\n".join(lines) + "\n"


def parse_injection(text: str) -> PartialInjection:
    pairs = _split_lines(text, "->", "'from -> to'", parse_ordinal, parse_ordinal)
    h = PartialInjection(tuple(pairs))
    h.validate()
    return h


def format_permutation(perm: FinitePermutation) -> str:
    if perm.is_identity:
        return "# identity\n"
    lines = ["(" + " ".join(format_ordinal(x) for x in cycle) + ")"
             for cycle in perm.cycles]
    return "\n".join(lines) + "\n"
