"""The `constructions` workload: the paper's constructions on small maps,
constraint-system matching, and the ordinal kernel called directly.

The maps are products of four random moves on the grid
{w^2*a + w*b + c : a, b, c <= 6}, as in the test suite, so they have
about fifteen pieces and the ordinal kernel's constant factors, not the
piece algebra's asymptotics, set the cost.  Every result is checked by
its defining property, evaluated in the nested model of ref.py.
"""

from __future__ import annotations

import random

import ref
from core import Inputs, Op

# operations of each kind in one round, each on its own input: enough
# inputs that their differing costs average out within one round, with
# make_transitive the middle of the mix, so that the median operation is
# one of them rather than falling between kinds of different cost
COUNTS = {
    "make_transitive": 300,
    "roelcke_decompose": 120,
    "dense_approx": 20,
    "baire_density_witness": 20,
    "chain_limit": 10,
    "extend_to_permutation": 20,
    "ordinal_batch": 20,
}
# systems per size for `satisfiable`; the first SAT_PER_SIZE are satisfiable
SAT_SIZES, SYSTEMS_PER_SIZE, SAT_PER_SIZE = (10, 50, 200), 12, 8
HALL_BRUTE_MAX = 20

GRID = [ref.poly(a, b, c) for a in range(7) for b in range(7) for c in range(7)]


class Builder:
    """Makes library values from nested-model ones, noting each ordinal
    as an input."""

    def __init__(self, L, inputs: Inputs):
        self.L = L
        self.inputs = inputs

    def ordinal(self, x: tuple):
        self.inputs.ordinals.append(x)
        return self.L.parse_ordinal(ref.fmt(x))

    def span(self, lo: tuple, hi: tuple):
        return self.L.span(self.ordinal(lo), self.ordinal(hi))


def point_of_rank(rng: random.Random, r: int) -> tuple:
    """A random point whose last CNF exponent is exactly r."""
    terms = [(ref.nat(e), rng.randint(1, 6)) for e in (r + 2, r + 1) if rng.random() < 0.4]
    return tuple(terms) + ((ref.nat(r), rng.randint(1, 6)),)


def random_map(rng: random.Random, b: Builder, moves: int = 4):
    """A product of random moves: point transpositions and swaps of
    rank-1 or rank-2 blocks of the grid."""
    L = b.L
    isolated = [x for x in GRID if x and ref.rank(x) == ref.ZERO]
    g = None
    for _ in range(moves):
        kind = rng.choice(["points", "rank1", "rank2"])
        if kind == "points":
            x, y = rng.sample(isolated, 2)
            move = L.swap_points(b.ordinal(x), b.ordinal(y))
        elif kind == "rank1":
            (a1, b1), (a2, b2) = rng.sample([(a, c) for a in range(7) for c in range(6)], 2)
            move = L.interval_swap(b.span(ref.poly(a1, b1, 0), ref.poly(a1, b1 + 1, 0)),
                                   b.span(ref.poly(a2, b2, 0), ref.poly(a2, b2 + 1, 0)))
        else:
            a1, a2 = rng.sample(range(6), 2)
            move = L.interval_swap(b.span(ref.poly(a1, 0, 0), ref.poly(a1 + 1, 0, 0)),
                                   b.span(ref.poly(a2, 0, 0), ref.poly(a2 + 1, 0, 0)))
        g = move if g is None else L.compose(move, g)
    b.inputs.pieces.append(len(g.pieces))
    return g


# ---------------------------------------------------------------------------
# the dynamics constructions


def _transitivity(rng, b: Builder) -> Op:
    pairs, xs, ys = [], set(), set()
    while len(pairs) < 5:
        r = rng.randint(0, 3)
        x, y = point_of_rank(rng, r), point_of_rank(rng, r)
        if x not in xs and y not in ys:
            pairs.append((x, y))
            xs.add(x)
            ys.add(y)
    frozen = set()
    while len(frozen) < 5:
        f = point_of_rank(rng, rng.randint(0, 3))
        if f not in xs and f not in ys:
            frozen.add(f)
    frozen = sorted(frozen)
    problem = b.L.TransitivityProblem(
        tuple((b.ordinal(x), b.ordinal(y)) for x, y in pairs),
        frozenset(b.ordinal(f) for f in frozen))

    def check(g):
        gp = ref.pieces_of(g)
        return (all(ref.evaluate(gp, x) == y for x, y in pairs)
                and all(ref.evaluate(gp, f) == f for f in frozen))
    return Op("make_transitive", "dynamics", lambda L: L.make_transitive(problem), check)


def _roelcke(rng, b: Builder) -> Op:
    g = random_map(rng, b)
    points = rng.sample(GRID, 3)
    args = (g, [b.ordinal(x) for x in points])

    def check(cert):
        u, h, u_ = (ref.pieces_of(m) for m in (cert.u, cert.h, cert.u_prime))
        if any(ref.evaluate(m, x) != x for m in (u, u_) for x in points):
            return False
        # u.h.u' and g agree everywhere iff they agree at each end of every
        # cell on which all four are single pieces: pull every piece end
        # back to the source side and test there, and one point above.
        inv_u_ = [(t, s) for s, t in u_]
        inv_h = [(t, s) for s, t in h]
        gp = ref.pieces_of(g)
        ends = set(points)
        for ps, pull in ((gp, []), (u_, []), (h, [inv_u_]), (u, [inv_h, inv_u_])):
            for s, _ in ps:
                for x in (s[1], ref.ZERO if s[0] is None else ref.add(s[0], ref.ONE)):
                    for inv in pull:
                        x = ref.evaluate(inv, x)
                    ends.update((x, ref.add(x, ref.ONE)))
        return all(ref.evaluate(u, ref.evaluate(h, ref.evaluate(u_, x)))
                   == ref.evaluate(gp, x) for x in ends)
    return Op("roelcke_decompose", "dynamics", lambda L: L.roelcke_decompose(*args), check)


def _dense(rng, b: Builder) -> Op:
    g = random_map(rng, b)
    targets, family = rng.sample(GRID, 2), rng.sample(GRID, 2)
    args = (g, [b.ordinal(x) for x in targets], [b.ordinal(x) for x in family])
    gp = ref.pieces_of(g)

    def check(result):
        h, k = (ref.pieces_of(m) for m in result)
        pushed = [ref.evaluate(k, f) for f in family]
        return (all(ref.evaluate(h, t) == ref.evaluate(gp, t) for t in targets)
                and len(set(pushed)) == len(family)
                and all(kf > max(targets) and ref.rank(kf) == ref.rank(f)
                        and ref.evaluate(h, kf) == kf for f, kf in zip(family, pushed)))
    return Op("dense_approx", "dynamics", lambda L: L.dense_approx(*args), check)


def _baire(rng, b: Builder) -> Op:
    g = random_map(rng, b)
    n = rng.randint(1, 9)
    constraints = rng.sample(GRID, 3)
    args = (g, n, [b.ordinal(x) for x in constraints])
    gp = ref.pieces_of(g)

    def check(h):
        hp = ref.pieces_of(h)
        # the witness fixes the least integer >= n that avoids every
        # constraint point and its image
        fixes = any(ref.evaluate(hp, ref.nat(k)) == ref.nat(k)
                    for k in range(n, n + 2 * len(constraints) + 1))
        return fixes and all(ref.evaluate(hp, c) == ref.evaluate(gp, c) for c in constraints)
    return Op("baire_density_witness", "dynamics", lambda L: L.baire_density_witness(*args), check)


# ---------------------------------------------------------------------------
# the sieve: matching, chain limits, permutations


def _distinct_points(rng, k: int) -> list[tuple]:
    seen = set()
    while len(seen) < k:
        seen.add(ref.poly(rng.randint(0, 3), rng.randint(0, 9), rng.randint(0, 9)))
    out = sorted(seen)
    rng.shuffle(out)
    return out


def _system(rng, n: int, satisfiable: bool) -> list[tuple]:
    """n constraints (point, allowed values) with a planted matching; an
    unsatisfiable one confines four points to three values."""
    points = _distinct_points(rng, n)
    pool = _distinct_points(rng, n + n // 2 + 3)
    planted = pool[:n]
    system = [(p, sorted({v} | set(rng.sample(pool, 2)))) for p, v in zip(points, planted)]
    if not satisfiable:
        trap = rng.sample(pool, 3)
        for i in rng.sample(range(n), 4):
            system[i] = (system[i][0], sorted(rng.sample(trap, rng.randint(1, 3))))
    return system


def _lib_system(b: Builder, system):
    return b.L.ConstraintSystem([(b.ordinal(p), [b.ordinal(v) for v in vals])
                                 for p, vals in system])


def _injection_ok(pairs, system) -> bool:
    allowed = {p: set(vals) for p, vals in system}
    mapping = dict(pairs)
    return (len(mapping) == len(pairs) == len(allowed)
            and len(set(mapping.values())) == len(mapping)
            and all(p in allowed and v in allowed[p] for p, v in mapping.items()))


def _satisfiable(rng, b: Builder, n: int, sat: bool) -> Op:
    from ordhomeo.sieve import hall_brute

    system = _system(rng, n, sat)
    cs = _lib_system(b, system)
    if n <= HALL_BRUTE_MAX and hall_brute(cs) != sat:
        raise AssertionError(f"hall_brute disagrees with the planted system of {n} points")

    def check(witness):
        if witness is None:
            return not sat
        pairs = [(ref.from_lib(p), ref.from_lib(v)) for p, v in witness.pairs]
        return sat and _injection_ok(pairs, system)
    return Op(f"satisfiable.n{n}", "sieve", lambda L: L.satisfiable(cs), check)


def _chain(rng, b: Builder) -> Op:
    """Three systems, each refining the one before: a subset of every
    allowed set (keeping the planted value) plus two new points."""
    points = _distinct_points(rng, 10)
    pool = _distinct_points(rng, 20)
    planted = dict(zip(points, pool))
    current = {p: {planted[p]} | set(rng.sample(pool, 4)) for p in points[:6]}
    chain = [dict(current)]
    for new in (points[6:8], points[8:10]):
        current = {p: {planted[p]} | set(rng.sample(sorted(vals), 2))
                   for p, vals in current.items()}
        current.update({p: {planted[p]} | set(rng.sample(pool, 3)) for p in new})
        chain.append(dict(current))
    systems = [_lib_system(b, [(p, sorted(v)) for p, v in s.items()]) for s in chain]
    limit = sorted((p, sorted(v)) for p, v in chain[-1].items())

    def check(result):
        lim, witness = result
        got = [(ref.from_lib(p), sorted(ref.from_lib(v) for v in vals))
               for p, vals in lim.constraints]
        pairs = [(ref.from_lib(p), ref.from_lib(v)) for p, v in witness.pairs]
        return got == limit and all(
            _injection_ok([(p, v) for p, v in pairs if p in s], list(s.items()))
            for s in chain)
    return Op("chain_limit", "sieve", lambda L: L.chain_limit(systems), check)


def _extension(rng, b: Builder) -> Op:
    """An injection made of open chains and closed cycles."""
    points = _distinct_points(rng, 10)
    pairs, i = [], 0
    while i < len(points) - 1:
        size = rng.randint(2, 4)
        group = points[i:i + size]
        pairs += list(zip(group, group[1:]))
        if len(group) > 2 and rng.random() < 0.5:
            pairs.append((group[-1], group[0]))
        i += size
    h = b.L.PartialInjection(tuple((b.ordinal(x), b.ordinal(y)) for x, y in pairs))

    def check(perm):
        cycles = [[ref.from_lib(x) for x in c] for c in perm.cycles]
        flat = [x for c in cycles for x in c]
        nxt = {c[i]: c[(i + 1) % len(c)] for c in cycles for i in range(len(c))}
        return (len(flat) == len(set(flat))
                and set(flat) == {x for pair in pairs for x in pair}
                and all(nxt.get(x) == y for x, y in pairs))
    return Op("extend_to_permutation", "sieve", lambda L: L.extend_to_permutation(h), check)


# ---------------------------------------------------------------------------
# the ordinal kernel, called directly


def random_ordinal(rng: random.Random, d: int) -> tuple:
    """A random ordinal of nesting depth exactly d >= 1."""
    if d == 1:
        return ref.nat(rng.randint(1, 50))
    exps = {random_ordinal(rng, d - 1)}
    while len(exps) < rng.randint(1, 3):
        exps.add(random_ordinal(rng, rng.randint(1, d - 1)))
    terms = tuple((e, rng.randint(1, 9)) for e in sorted(exps, reverse=True))
    return terms + ((ref.ZERO, rng.randint(1, 9)),) if rng.random() < 0.5 else terms


def _ordinal_batch(rng, b: Builder, size: int = 12) -> Op:
    """Parse `size` expressions, then add, multiply and left-subtract
    neighbours, sort everything and format it.  A third of the values
    lie below w^2, and arithmetic between two of those is predicted by
    the closed-form pair model; the rest by the nested model."""
    values = [ref.poly(rng.randint(0, 9), rng.randint(1, 9)) if i % 3 == 0
              else random_ordinal(rng, rng.randint(1, 4)) for i in range(size)]
    texts = [ref.fmt(x) for x in values]
    b.inputs.ordinals += values
    steps, expected = [], list(values)
    for i in range(size - 1):
        x, y = values[i], values[i + 1]
        lo, hi = sorted((x, y))
        try:
            px, py, plo, phi = ref.pair(x), ref.pair(y), ref.pair(lo), ref.pair(hi)
        except ValueError:
            total, prod, diff = ref.add(x, y), ref.mul(x, y), ref.left_sub(lo, hi)
        else:
            prod = ref.pair_mul(px, py)
            total = ref.from_pair(ref.pair_add(px, py))
            prod = ref.mul(x, y) if prod is None else ref.from_pair(prod)
            diff = ref.from_pair(ref.pair_sub(plo, phi))
        expected += [total, prod, diff]
        steps.append((i, i + 1, x > y))
    want = [ref.fmt(x) for x in sorted(expected)]

    def run(L):
        vs = [L.parse_ordinal(t) for t in texts]
        out = list(vs)
        for i, j, swapped in steps:
            out.append(L.add(vs[i], vs[j]))
            out.append(L.mul(vs[i], vs[j]))
            out.append(L.left_subtract(vs[j], vs[i]) if swapped
                       else L.left_subtract(vs[i], vs[j]))
        return [L.format_ordinal(x) for x in L.sort(out)]
    return Op("ordinal_batch", "ordinals", run, lambda got: got == want)


MAKERS = {
    "make_transitive": _transitivity,
    "roelcke_decompose": _roelcke,
    "dense_approx": _dense,
    "baire_density_witness": _baire,
    "chain_limit": _chain,
    "extend_to_permutation": _extension,
    "ordinal_batch": _ordinal_batch,
}


def setup(L, seed: int, inputs: Inputs) -> list[Op]:
    rng = random.Random(seed)
    b = Builder(L, inputs)
    ops = [MAKERS[kind](rng, b) for kind, count in COUNTS.items() for _ in range(count)]
    for n in SAT_SIZES:
        ops += [_satisfiable(rng, b, n, i < SAT_PER_SIZE) for i in range(SYSTEMS_PER_SIZE)]
    rng.shuffle(ops)
    return ops
