import io
import math
import random

import pytest

from ordhomeo import sieve
from ordhomeo.cli import main
from ordhomeo.errors import ContractError, DomainError, ParseError, ResourceError
from ordhomeo.sieve import (
    ConstraintSystem,
    FinitePermutation,
    PartialInjection,
    below,
    chain_limit,
    contains,
    extend_to_permutation,
    format_constraints,
    format_injection,
    format_permutation,
    hall_brute,
    normalize,
    parse_constraints,
    parse_injection,
    satisfiable,
)
from ordhomeo.ordinals import OMEGA, ONE, Ordinal

from helpers import o


def cs(*items):
    return ConstraintSystem.of([(Ordinal(p) if isinstance(p, int) else p,
                                 [Ordinal(v) if isinstance(v, int) else v for v in vals])
                                for p, vals in items])


PIGEON = cs((1, [7, 8]), (2, [7, 8]), (3, [7, 8]))


def random_system(rng, max_points=12, pool_size=8):
    pool = [Ordinal(v) for v in range(pool_size)]
    n = rng.randint(1, max_points)
    items = []
    for _ in range(n):
        p = OMEGA * rng.randint(0, 3) + rng.randint(0, 9)
        vals = rng.sample(pool, rng.randint(1, min(3, pool_size)))
        items.append((p, vals))
    return ConstraintSystem.of(items)


class TestNormalize:
    def test_merges_by_intersection(self):
        n = normalize(cs((1, [2, 3]), (1, [3, 4])))
        assert n.constraints == ((ONE, frozenset({Ordinal(3)})),)

    def test_identity_on_clean_systems(self):
        n = normalize(cs((1, [2])))
        assert n.constraints == ((ONE, frozenset({Ordinal(2)})),)

    def test_flags_empty_intersection(self):
        n = normalize(cs((1, [2]), (1, [3])))
        assert n.syntactically_unsatisfiable()

    def test_sorts_points(self):
        n = normalize(cs((5, [1]), (2, [1])))
        assert n.points == [Ordinal(2), Ordinal(5)]


class TestSatisfiable:
    def test_forced_then_free(self):
        w = satisfiable(cs((1, [7]), (2, [7, 8])))
        assert w.as_mapping() == {ONE: Ordinal(7), Ordinal(2): Ordinal(8)}

    def test_pigeonhole(self):
        assert satisfiable(PIGEON) is None

    def test_witness_satisfies(self):
        rng = random.Random(70)
        for _ in range(200):
            system = random_system(rng)
            w = satisfiable(system)
            if w is not None:
                m = w.as_mapping()
                assert len(set(m.values())) == len(m)
                for p, vals in normalize(system).constraints:
                    assert m[p] in vals

    def test_agrees_with_hall_brute(self):
        rng = random.Random(71)
        for _ in range(300):
            system = random_system(rng)
            assert (satisfiable(system) is not None) == hall_brute(system)

    def test_a_long_augmenting_path(self, tmp_path, capsys):
        # point k may take 10000 + k - 1 or 10000 + k and tries the first,
        # which point k - 1 holds, so the search for k walks back through
        # every earlier point: 1200 steps, past the interpreter's
        # recursion limit
        n = 1200
        system = cs((1, [10001]), *((k, [10000 + k - 1, 10000 + k]) for k in range(2, n + 1)))
        h = satisfiable(system)
        h.validate()
        assert h.as_mapping() == {Ordinal(k): Ordinal(10000 + k) for k in range(1, n + 1)}
        path = tmp_path / "staircase.txt"
        path.write_text(format_constraints(system))
        out = io.StringIO()
        assert main(["sieve", "match", str(path)], out=out) == 0
        assert out.getvalue() == format_injection(h)
        assert capsys.readouterr().err == ""

    def test_hall_brute_size_limit(self):
        big = cs(*[(i, [i]) for i in range(25)])
        with pytest.raises(ResourceError):
            hall_brute(big)


class TestContains:
    def test_relaxation(self):
        assert contains(cs((1, [7])), cs((1, [7, 8])))

    def test_unrelated_point(self):
        assert not contains(cs((1, [7])), cs((2, [7])))

    def test_strict_shrink(self):
        assert not contains(cs((1, [7, 8])), cs((1, [7])))

    def test_vacuous_when_left_unsatisfiable(self):
        assert contains(cs((1, [7]), (1, [8])), cs((2, [5])))

    def test_antisymmetric_up_to_normalization(self):
        rng = random.Random(72)
        for _ in range(200):
            a, b = random_system(rng), random_system(rng)
            if satisfiable(a) is None or satisfiable(b) is None:
                continue
            if contains(a, b) and contains(b, a):
                assert normalize(a) == normalize(b)

    def test_below_requires_satisfiable(self):
        with pytest.raises(DomainError):
            below(cs((1, [7]), (1, [8])), cs((1, [7])))

    def test_contains_and_below_agree_with_reference(self):
        rng = random.Random(77)
        for _ in range(400):
            a = random_system(rng, max_points=6)
            b = shrink_step(rng, a) if rng.random() < 0.5 else random_system(rng, max_points=6)
            for x, y in ((a, b), (b, a)):
                assert contains(x, y) == contains_ref(x, y)
                assert outcome(below, x, y) == outcome(below_ref, x, y)

    def test_below_reflexive_transitive(self):
        rng = random.Random(73)
        systems = [s for s in (random_system(rng, max_points=5) for _ in range(60))
                   if satisfiable(s) is not None]
        for s in systems:
            assert below(s, s)
        for a in systems[:12]:
            for b in systems[:12]:
                for c in systems[:12]:
                    if below(a, b) and below(b, c):
                        assert below(a, c)


def shrink_step(rng, system):
    """One refinement: shrink some allowed set or add a constraint,
    keeping satisfiability."""
    base = normalize(system).constraints
    for _ in range(30):
        items = [(p, set(vals)) for p, vals in base]
        if rng.random() < 0.5 and items:
            i = rng.randrange(len(items))
            p, vals = items[i]
            if len(vals) > 1:
                vals.discard(rng.choice(sorted(vals)))
                items[i] = (p, vals)
        else:
            items.append((OMEGA * rng.randint(0, 3) + rng.randint(10, 19),
                          {Ordinal(v) for v in rng.sample(range(8), rng.randint(1, 3))}))
        candidate = ConstraintSystem.of(items)
        if satisfiable(candidate) is not None:
            return candidate
    return system


def outcome(f, *args):
    """f(*args), or the type and text of the error it raises."""
    try:
        return f(*args)
    except (DomainError, ContractError) as err:
        return type(err), str(err)


# the bodies these functions had when every refinement test ran its own
# matchings and the limit was rebuilt from the whole chain: references

def contains_ref(a, b):
    na = normalize(a)
    if satisfiable(na) is None:
        return True
    lookup = dict(na.constraints)
    for p, vals in normalize(b).constraints:
        if p not in lookup or not lookup[p] <= vals:
            return False
    return True


def below_ref(a, b):
    for name, system in (("left", a), ("right", b)):
        if satisfiable(system) is None:
            raise DomainError(f"{name} side is unsatisfiable")
    return contains_ref(a, b)


def chain_limit_ref(chain):
    if not chain:
        raise DomainError("empty chain")
    for i in range(len(chain) - 1):
        if not below_ref(chain[i + 1], chain[i]):
            raise DomainError(f"chain violation between elements {i + 1} and {i + 2}")
    limit = normalize(ConstraintSystem(tuple(c for system in chain for c in system.constraints)))
    witness = satisfiable(limit)
    if witness is None:
        raise ContractError("chain limit lost satisfiability")
    mapping = witness.as_mapping()
    for i, system in enumerate(chain):
        for p, vals in normalize(system).constraints:
            if mapping[p] not in vals:
                raise ContractError(f"witness violates chain element {i + 1}")
    return limit, witness


def extend_to_permutation_ref(h):
    h.validate()
    mapping = h.as_mapping()
    sources = set(mapping)
    targets = set(mapping.values())
    cycles = []
    visited = set()
    for start in sorted(sources - targets):
        chain = [start]
        while chain[-1] in mapping:
            chain.append(mapping[chain[-1]])
        visited.update(chain)
        if len(chain) > 1:
            cycles.append(chain)
    for start in sorted(sources - visited):
        if start in visited:
            continue
        cycle = [start]
        while mapping[cycle[-1]] != start:
            cycle.append(mapping[cycle[-1]])
        visited.update(cycle)
        if len(cycle) > 1:
            cycles.append(cycle)
    canon = []
    for cycle in cycles:
        least = min(range(len(cycle)), key=lambda i: cycle[i])
        canon.append(tuple(cycle[least:] + cycle[:least]))
    canon.sort(key=lambda c: c[0])
    return FinitePermutation(tuple(canon))


def pigeon_step(rng, system):
    """A refinement that is unsatisfiable: three fresh points that share
    two values."""
    base = normalize(system).constraints
    fresh = [OMEGA * 4 + k for k in rng.sample(range(10), 3)]
    vals = rng.sample(range(8), 2)
    return ConstraintSystem.of([*((p, set(v)) for p, v in base), *((p, vals) for p in fresh)])


def random_chain(rng):
    """1-4 members, each (mostly) a refinement of the one before, now
    and then an unrelated or an unsatisfiable one."""
    chain = [random_system(rng, max_points=6)]
    for _ in range(rng.randrange(4)):
        r = rng.random()
        if r < 0.6:
            chain.append(shrink_step(rng, chain[-1]))
        elif r < 0.75:
            chain.append(pigeon_step(rng, chain[-1]))
        elif r < 0.85:
            chain.append(chain[-1])
        else:
            chain.append(random_system(rng, max_points=6))
    return chain


class TestChains:
    def test_constant_chain(self):
        a = cs((1, [7, 8]))
        limit, witness = chain_limit([a, a, a])
        assert normalize(limit) == normalize(a)
        assert witness.as_mapping()[ONE] in {Ordinal(7), Ordinal(8)}

    def test_shrinking_chain(self):
        chain = [cs((1, [5, 6, 7])), cs((1, [5, 6])), cs((1, [5]))]
        limit, witness = chain_limit(chain)
        assert normalize(limit).constraints == ((ONE, frozenset({Ordinal(5)})),)
        assert witness.as_mapping() == {ONE: Ordinal(5)}

    def test_violation_detected(self):
        with pytest.raises(DomainError, match="chain violation"):
            chain_limit([cs((1, [5])), cs((1, [5, 6]))])

    def test_random_chains(self):
        rng = random.Random(74)
        for _ in range(60):
            system = random_system(rng, max_points=6)
            if satisfiable(system) is None:
                continue
            chain = [system]
            for _ in range(rng.randint(1, 8)):
                chain.append(shrink_step(rng, chain[-1]))
            limit, witness = chain_limit(chain)
            mapping = witness.as_mapping()
            for member in chain:
                for p, vals in normalize(member).constraints:
                    assert mapping[p] in vals

    def test_empty_chain(self):
        with pytest.raises(DomainError):
            chain_limit([])

    def test_unsatisfiable_single_member(self):
        # the refinement checks pass vacuously, so the one matching of the
        # limit is what finds it unsatisfiable: a domain error, not an
        # internal one
        with pytest.raises(DomainError, match=r"^the chain's limit \(element 1\) is unsatisfiable$"):
            chain_limit([PIGEON])

    def test_unsatisfiable_limit_of_a_refining_chain(self):
        wide = cs((1, [7, 8, 9]), (2, [7, 8]))
        with pytest.raises(DomainError, match=r"\(element 3\) is unsatisfiable"):
            chain_limit([wide, cs((1, [7, 8]), (2, [7, 8])), PIGEON])

    def test_matches_once(self, monkeypatch):
        calls = []

        def counted(system):
            calls.append(system)
            return satisfiable(system)

        monkeypatch.setattr(sieve, "satisfiable", counted)
        chain = [cs((1, [5, 6, 7])), cs((1, [5, 6]), (2, [6, 7])), cs((1, [5]), (2, [6, 7]))]
        limit, witness = chain_limit(chain)
        assert calls == [limit] and limit == normalize(chain[-1])
        assert witness.as_mapping() == {ONE: Ordinal(5), Ordinal(2): Ordinal(6)}

    def test_agrees_with_reference(self):
        rng = random.Random(78)
        seen = {"limit": 0, "violation": 0, "unsatisfiable": 0}
        for _ in range(600):
            chain = random_chain(rng)
            got, want = outcome(chain_limit, chain), outcome(chain_limit_ref, chain)
            if isinstance(want[0], type):
                # both raise a domain error; the text differs only where a
                # member is unsatisfiable (the reference named a side, or
                # failed internally for one member)
                assert got[0] is DomainError
                if all(satisfiable(member) is not None for member in chain):
                    assert got == want
                    seen["violation"] += 1
                else:
                    seen["unsatisfiable"] += 1
            else:
                assert got == want
                seen["limit"] += 1
        assert min(seen.values()) >= 50, seen


class TestExtend:
    def test_single_pair_closes_to_transposition(self):
        perm = extend_to_permutation(PartialInjection(((ONE, Ordinal(5)),)))
        assert perm.cycles == ((ONE, Ordinal(5)),)
        assert perm.apply(Ordinal(5)) == ONE

    def test_chain_closes_to_cycle(self):
        h = PartialInjection(((ONE, Ordinal(2)), (Ordinal(2), Ordinal(3))))
        perm = extend_to_permutation(h)
        assert perm.cycles == ((ONE, Ordinal(2), Ordinal(3)),)

    def test_existing_cycle_preserved(self):
        h = PartialInjection(((ONE, Ordinal(2)), (Ordinal(2), ONE)))
        perm = extend_to_permutation(h)
        assert perm.cycles == ((ONE, Ordinal(2)),)

    def test_fixed_points_dropped(self):
        perm = extend_to_permutation(PartialInjection(((OMEGA, OMEGA),)))
        assert perm.is_identity

    def test_random_injections(self):
        rng = random.Random(75)
        universe = [OMEGA * a + b for a in range(4) for b in range(6)]
        for _ in range(100):
            froms = rng.sample(universe, rng.randint(0, 10))
            tos = rng.sample(universe, len(froms))
            h = PartialInjection(tuple(zip(froms, tos)))
            perm = extend_to_permutation(h)
            for a, b in h.pairs:
                assert perm.apply(a) == b
            support = perm.support()
            image = {perm.apply(x) for x in support}
            assert image == support  # bijection on its support
            # the order (lcm of cycle lengths) divides |support|!, so
            # iterating |support|! times is the identity on the support
            order = math.lcm(*(len(c) for c in perm.cycles)) if perm.cycles else 1
            assert math.factorial(len(support)) % order == 0
            for x in support:
                y = x
                for _ in range(order):
                    y = perm.apply(y)
                assert y == x

    def test_agrees_with_reference(self):
        rng = random.Random(79)
        universe = [OMEGA * a + b for a in range(4) for b in range(6)]
        for _ in range(300):
            # a random permutation's cycles, some cut open into chains
            points = rng.sample(universe, rng.randint(0, 14))
            pairs = []
            while points:
                k = rng.randint(1, len(points))
                group, points = points[:k], points[k:]
                pairs += zip(group, group[1:])
                if rng.random() < 0.5:
                    pairs.append((group[-1], group[0]))
            rng.shuffle(pairs)
            h = PartialInjection(tuple(pairs))
            assert extend_to_permutation(h) == extend_to_permutation_ref(h)
        for _ in range(300):
            froms = rng.sample(universe, rng.randint(0, 10))
            h = PartialInjection(tuple(zip(froms, rng.sample(universe, len(froms)))))
            assert extend_to_permutation(h) == extend_to_permutation_ref(h)

    def test_invalid_injection(self):
        with pytest.raises(DomainError):
            extend_to_permutation(PartialInjection(((ONE, Ordinal(2)), (ONE, Ordinal(3)))))


class TestTextFormats:
    def test_garbage_lines_raise_cleanly(self):
        rng = random.Random(76)
        alphabet = "w0123456789+*^(){}:,-> #"
        for parse in (parse_constraints, parse_injection):
            for _ in range(500):
                text = "\n".join(
                    "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 16)))
                    for _ in range(rng.randint(1, 3)))
                try:
                    parse(text)
                except (ParseError, DomainError, ResourceError):
                    pass

    def test_constraints_round_trip(self):
        text = "1 : { 2, 3 }\nw : { 0, w*2 }\n"
        system = parse_constraints(text)
        assert format_constraints(normalize(system)) == text

    def test_empty_set_round_trip(self):
        system = normalize(parse_constraints("1 : { 2 }\n1 : { 3 }\n"))
        text = format_constraints(system)
        assert text == "1 : { }\n"
        assert parse_constraints(text).syntactically_unsatisfiable()

    def test_injection_round_trip(self):
        text = "3 -> 7\nw -> w*2\n"
        h = parse_injection(text)
        assert format_injection(h) == text

    def test_permutation_format(self):
        perm = extend_to_permutation(parse_injection("3 -> 7\n"))
        assert format_permutation(perm) == "(3 7)\n"
        assert format_permutation(FinitePermutation(())) == "# identity\n"
