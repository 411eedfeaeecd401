import copy
import pickle
import random
import re
from functools import cmp_to_key

import pytest

from ordhomeo import homeo, ordinals
from ordhomeo.errors import DomainError, ParseError, ResourceError
from ordhomeo.homeo import Piece, initial
from ordhomeo.ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    _restore,
    _set,
    absorb_threshold,
    cb_rank_segment,
    classify,
    compare,
    diff_exponent,
    enumerate_level,
    format_ordinal,
    in_derived,
    isolating_left_endpoint,
    left_subtract,
    nesting_depth,
    omega_pow,
    parse_ordinal,
    rank,
)

from helpers import (
    all_pairs,
    o,
    pair_add,
    pair_mul,
    pair_sub,
    pair_to_ordinal,
    random_ordinal,
)


class TestParseFormat:
    def test_literal_cnf(self):
        x = o("w^2*3 + w + 5")
        assert x.terms == ((Ordinal(2), 3), (ONE, 1), (ZERO, 5))

    def test_absorption_on_parse(self):
        # 1 + w evaluates to w
        assert format_ordinal(o("1 + w")) == "w"

    def test_merge_below_omega_squared(self):
        # oracle: (2,0) + (1,0) = (3,0)
        assert pair_add((2, 0), (1, 0)) == (3, 0)
        assert format_ordinal(o("w*2 + w")) == "w*3"

    def test_round_trip_examples(self):
        for text in ["0", "1", "w", "w + 1", "w*3", "w^2*3 + w + 5",
                     "w^(w)*2 + w^2 + 3", "w^(w^2 + 1) + w^7*4 + 2"]:
            assert format_ordinal(parse_ordinal(text)) == text

    def test_parentheses_and_whitespace(self):
        assert parse_ordinal("( w + 1 ) * 2") == o("w*2 + 1")
        assert parse_ordinal("w^(w)") == omega_pow(OMEGA)
        assert parse_ordinal("w^w") == omega_pow(OMEGA)

    def test_left_associative_addition(self):
        assert parse_ordinal("1 + w + 1") == o("w + 1")

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_ordinal("w^^2")
        assert err.value.position == 3

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_ordinal("w 2")

    def test_zero_coefficient_is_domain_error(self):
        with pytest.raises(DomainError):
            parse_ordinal("w*0")

    def test_depth_cap(self):
        deep = "w^" * 40 + "w"
        with pytest.raises(ResourceError):
            parse_ordinal(deep)
        assert parse_ordinal("w^" * 8 + "w")
        assert parse_ordinal("(" * 32 + "1" + ")" * 32) == ONE
        with pytest.raises(ResourceError):
            parse_ordinal("(" * 33 + "1" + ")" * 33)
        # 31 carets are within the parser's count of 32, so this is
        # omega_pow's cap on the value's tower height
        with pytest.raises(ResourceError, match="exponent tower deeper than 32"):
            parse_ordinal("w^" * 31 + "w")


@pytest.mark.parametrize("call, error, message", [
    (lambda: Ordinal("3"), TypeError, "cannot build an ordinal from str"),
    (lambda: Ordinal(-1), DomainError, "ordinals are non-negative"),
    (lambda: int(OMEGA), DomainError, "w is infinite"),
    (lambda: enumerate_level(ONE, o("w*2"), OMEGA, 3), DomainError,
     "enumerate_level: empty range ]w*2, w]"),
], ids=["Ordinal-of-str", "Ordinal-of-negative", "int-of-w", "enumerate-level-empty-range"])
def test_bad_arguments_raise(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


class TestComparison:
    def test_examples(self):
        assert o("w") < o("w + 1")
        assert o("w^w") > o("w^2*9 + w*9 + 9")
        assert o("w*2 + 1") == o("w*2 + 1")

    def test_three_way(self):
        assert compare(o("w"), o("w + 1")) == "LT"
        assert compare(o("w^w"), o("w^2*9 + w*9 + 9")) == "GT"
        assert compare(o("w*2 + 1"), o("w*2 + 1")) == "EQ"

    def test_coefficient_beats_tail(self):
        assert o("w^2*2") > o("w^2 + w*9 + 9")

    def test_prefix_is_smaller(self):
        assert o("w^2") < o("w^2 + 1")

    def test_int_coercion(self):
        assert Ordinal(3) == 3
        assert o("w") > 1000000


class TestArithmetic:
    def test_absorption(self):
        assert 1 + OMEGA == OMEGA
        assert OMEGA + 1 == o("w + 1")
        assert OMEGA + 1 != OMEGA

    def test_successor_append(self):
        assert (o("w + 1") + o("w + 1")) == o("w*2 + 1")

    def test_multiply_examples(self):
        assert OMEGA * 2 == o("w*2")
        assert 2 * OMEGA == OMEGA
        x = o("w^2 + w*3 + 4")
        assert x * 1 == x
        assert x * ZERO == ZERO
        assert ZERO * x == ZERO

    def test_multiply_distributes_through_limit(self):
        # (w+1)*w = w^2: the finite tail washes out at the limit
        assert o("w + 1") * OMEGA == o("w^2")

    def test_left_subtract_examples(self):
        assert left_subtract(OMEGA, o("w*2")) == OMEGA
        assert left_subtract(Ordinal(3), OMEGA) == OMEGA
        assert left_subtract(o("w*2 + 1"), o("w*2 + 5")) == Ordinal(4)

    def test_left_subtract_requires_order(self):
        with pytest.raises(DomainError):
            left_subtract(o("w + 1"), OMEGA)

    def test_pair_oracle_exhaustive_small(self):
        pairs = all_pairs(6)
        for x in pairs:
            for y in pairs:
                ox, oy = pair_to_ordinal(x), pair_to_ordinal(y)
                assert ox + oy == pair_to_ordinal(pair_add(x, y))
                if x <= y:
                    assert left_subtract(ox, oy) == pair_to_ordinal(pair_sub(x, y))
                p = pair_mul(x, y)
                if p is not None:
                    assert ox * oy == pair_to_ordinal(p)

    def test_associativity_random(self):
        rng = random.Random(42)
        for _ in range(300):
            a, b, c = (random_ordinal(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_subtract_round_trip_random(self):
        rng = random.Random(43)
        for _ in range(300):
            a, b = random_ordinal(rng), random_ordinal(rng)
            if a > b:
                a, b = b, a
            assert a + left_subtract(a, b) == b


class TestRankAndTopology:
    def test_omega_pow(self):
        assert omega_pow(ZERO) == ONE
        assert omega_pow(ONE) == OMEGA
        assert omega_pow(OMEGA) == o("w^(w)")
        assert omega_pow(Ordinal(3)) == o("w^3")

    def test_rank_examples(self):
        assert rank(o("w^2 + w*3")) == ONE
        assert rank(o("w^w")) == OMEGA
        assert rank(Ordinal(7)) == ZERO
        assert rank(ZERO) == ZERO

    def test_rank_stable_under_left_addition(self):
        rng = random.Random(44)
        for _ in range(200):
            a, s = random_ordinal(rng), random_ordinal(rng)
            if s.is_zero:
                s = ONE
            assert rank(a + s) == rank(s)

    def test_classify(self):
        assert classify(ZERO).kind == "zero"
        c = classify(o("w + 3"))
        assert c.kind == "successor" and c.predecessor == o("w + 2")
        assert classify(o("w*2")).kind == "limit"
        assert classify(ONE).predecessor == ZERO

    def test_absorb_threshold(self):
        assert absorb_threshold(OMEGA) == o("w^2")
        assert absorb_threshold(Ordinal(5)) == OMEGA
        assert absorb_threshold(o("w^2*3 + w")) == o("w^3")
        assert absorb_threshold(ZERO) == ONE

    def test_absorb_threshold_is_least(self):
        rng = random.Random(45)
        for _ in range(50):
            a = random_ordinal(rng)
            if a.is_zero:
                continue
            t = absorb_threshold(a)
            assert a + t == t
            for _ in range(100):
                s = random_ordinal(rng)
                if ZERO < s < t:
                    assert a + s != s

    def test_diff_exponent(self):
        assert diff_exponent(ONE, Ordinal(2)) == ZERO
        assert diff_exponent(o("w*2 + 1"), o("w*2 + 3")) == ZERO
        assert o("w*2 + 1") + OMEGA == o("w*2 + 3") + OMEGA
        assert diff_exponent(o("w"), o("w")) is None
        assert diff_exponent(ZERO, o("w^2")) == Ordinal(2)

    def test_diff_exponent_boundary(self):
        rng = random.Random(46)
        for _ in range(200):
            a, b = random_ordinal(rng), random_ordinal(rng)
            d = diff_exponent(a, b)
            if d is None:
                continue
            threshold = omega_pow(d + ONE)
            assert a + threshold == b + threshold
            for _ in range(10):
                s = random_ordinal(rng)
                if s < threshold:
                    assert (a + s == b + s) == (a == b)
                above = threshold + s
                assert a + above == b + above

    def test_in_derived(self):
        assert in_derived(o("w^2"), Ordinal(2))
        assert not in_derived(o("w^2"), Ordinal(3))
        assert in_derived(ZERO, ZERO)
        assert not in_derived(ZERO, ONE)

    def test_enumerate_level(self):
        assert enumerate_level(ONE, ZERO, o("w*9"), 3) == [o("w"), o("w*2"), o("w*3")]
        assert enumerate_level(ZERO, ZERO, o("w"), 4) == [Ordinal(n) for n in (1, 2, 3, 4)]
        assert enumerate_level(ONE, o("w*2 + 5"), o("w*4"), 9) == [o("w*3"), o("w*4")]

    def test_enumerate_level_matches_rank_scan(self):
        grid = {o("w^2") * a_ + OMEGA * b_ + c
                for a_ in range(7) for b_ in range(7) for c in range(7)}
        # ranges whose level members all lie on the grid, so the scan is complete
        cases = [(ZERO, Ordinal(3), Ordinal(6)),
                 (ONE, Ordinal(3), o("w*6 + 6")),
                 (Ordinal(2), ZERO, o("w^2*6 + w*6 + 6"))]
        for alpha, lo, hi in cases:
            want = sorted(t for t in grid if lo < t <= hi and t and rank(t) == alpha)
            assert enumerate_level(alpha, lo, hi, 1000) == want

    def test_isolating_left_endpoint(self):
        assert isolating_left_endpoint(o("w*2")) == OMEGA
        assert isolating_left_endpoint(o("w^2")) == ZERO
        assert isolating_left_endpoint(o("w + 1")) == OMEGA
        with pytest.raises(DomainError):
            isolating_left_endpoint(ZERO)

    def test_isolating_left_endpoint_contract(self):
        rng = random.Random(47)
        for _ in range(100):
            y = random_ordinal(rng)
            if y.is_zero:
                continue
            x = isolating_left_endpoint(y)
            assert x < y and x + omega_pow(rank(y)) == y
            for _ in range(10):
                t = x + random_ordinal(rng)
                if x < t < y:
                    assert rank(t) < rank(y)

    def test_cb_rank_segment(self):
        assert cb_rank_segment(ZERO) == ONE
        assert cb_rank_segment(OMEGA) == Ordinal(2)
        assert cb_rank_segment(o("w^2*2 + 5")) == Ordinal(3)

    def test_cb_rank_segment_brute(self):
        # brute derived-set computation on a grid covering [0, beta]
        for beta in [ZERO, Ordinal(5), OMEGA, o("w*3 + 2"), o("w^2*2 + 5")]:
            grid = [x for b_ in range(8) for a_ in range(8) for c in range(8)
                    if (x := o("w^2") * a_ + OMEGA * b_ + c) <= beta]
            level = [x for x in grid if x]
            alpha = 0
            while level:
                level = [x for x in level if rank(x) >= alpha + 1]
                alpha += 1
            first_empty = alpha if grid != [ZERO] else 1
            assert cb_rank_segment(beta) == Ordinal(max(first_empty, 1))

    def test_nesting_depth(self):
        assert nesting_depth(ZERO) == 0
        assert nesting_depth(Ordinal(5)) == 1
        assert nesting_depth(OMEGA) == 2
        assert nesting_depth(omega_pow(OMEGA)) == 3


class TestHashing:
    def test_usable_as_keys(self):
        d = {o("w + 1"): "a", o("w*2"): "b"}
        assert d[OMEGA + 1] == "a"
        assert len({o("w"), parse_ordinal("1 + w"), OMEGA}) == 1


class TestParserFuzz:
    def test_garbage_raises_cleanly(self):
        rng = random.Random(48)
        alphabet = "w0123456789+*^() ."
        for _ in range(2000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            try:
                x = parse_ordinal(text)
            except (ParseError, DomainError, ResourceError):
                continue
            assert parse_ordinal(format_ordinal(x)) == x


# ---------------------------------------------------------------------------
# The seed kernel's recursive comparison and arithmetic, kept as reference
# bodies for the key kernel.  A reference value is a tuple of
# (exponent, coefficient) terms in CNF order, each exponent again such a
# tuple; its order comes from ref_cmp alone, never from Python's tuple
# order.


def ref(x):
    return tuple((ref(e), c) for e, c in x.terms)


def ref_cmp(a, b):
    for (ea, ca), (eb, cb) in zip(a, b):
        k = ref_cmp(ea, eb)
        if k:
            return k
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a) != len(b):
        return -1 if len(a) < len(b) else 1
    return 0


def ref_add(a, b):
    if not b:
        return a
    if not a:
        return b
    e = b[0][0]
    i = 0
    while i < len(a) and ref_cmp(a[i][0], e) > 0:
        i += 1
    if i < len(a) and ref_cmp(a[i][0], e) == 0:
        return a[:i] + ((e, a[i][1] + b[0][1]),) + b[1:]
    return a[:i] + b


def ref_mul(a, b):
    if not a or not b:
        return ()
    lead = a[0][0]
    out = []
    for e, c in b:
        if e:
            out.append((ref_add(lead, e), c))
        else:
            out.append((lead, a[0][1] * c))
            out.extend(a[1:])
    return tuple(out)


def ref_common_prefix(a, b):
    i = 0
    while i < len(a) and i < len(b) and a[i] == b[i]:
        i += 1
    return i


def ref_left_subtract(a, b):
    i = ref_common_prefix(a, b)
    if i == len(a):
        return b[i:]
    (ea, ca), (eb, cb) = a[i], b[i]
    if ref_cmp(ea, eb) == 0:
        return ((ea, cb - ca),) + b[i + 1:]
    return b[i:]


def ref_diff_exponent(a, b):
    i = ref_common_prefix(a, b)
    if i == len(a) and i == len(b):
        return None
    if i == len(a):
        return b[i][0]
    if i == len(b):
        return a[i][0]
    ea, eb = a[i][0], b[i][0]
    return ea if ref_cmp(ea, eb) >= 0 else eb


def random_tower(rng, height):
    """A few terms w^e*c, e a random tower of height - 1, largest first,
    followed by random_ordinal(rng)."""
    value = ZERO
    if height:
        exps = [random_tower(rng, height - 1) for _ in range(rng.randint(0, 3))]
        for e in sorted(exps, reverse=True):
            value = value + omega_pow(e) * rng.randint(1, 9)
    return value + random_ordinal(rng)


class TestKeyKernel:
    def values(self, seed, n):
        rng = random.Random(seed)
        return [random_tower(rng, rng.randint(0, 3)) for _ in range(n)]

    def test_order_matches_reference(self):
        xs = self.values(60, 60)
        # successors, and equal values held in distinct tuples
        xs += [x + ONE for x in xs[:10]] + [parse_ordinal(format_ordinal(x)) for x in xs[:5]]
        for a in xs:
            for b in xs:
                k = ref_cmp(ref(a), ref(b))
                assert compare(a, b) == ("LT", "EQ", "GT")[k + 1]
                assert (a < b, a <= b, a == b, a != b, a > b, a >= b) == (
                    k < 0, k <= 0, k == 0, k != 0, k > 0, k >= 0)
        assert [ref(x) for x in sorted(xs)] == sorted(map(ref, xs), key=cmp_to_key(ref_cmp))

    def test_arithmetic_matches_reference(self):
        xs = self.values(61, 40)
        for a in xs:
            for b in xs:
                ra, rb = ref(a), ref(b)
                assert ref(a + b) == ref_add(ra, rb)
                assert ref(a * b) == ref_mul(ra, rb)
                d = diff_exponent(a, b)
                assert (None if d is None else ref(d)) == ref_diff_exponent(ra, rb)
                if ref_cmp(ra, rb) <= 0:
                    assert ref(left_subtract(a, b)) == ref_left_subtract(ra, rb)
                else:
                    with pytest.raises(DomainError):
                        left_subtract(a, b)

    def test_hash_follows_equality_and_terms_rebuild(self):
        rng = random.Random(62)
        xs = self.values(62, 40)
        for x in xs:
            rebuilt = sum((omega_pow(e) * c for e, c in x.terms), ZERO)
            assert rebuilt == x and hash(rebuilt) == hash(x)
        equal = 0
        for _ in range(300):
            a, b, c = (rng.choice(xs) for _ in range(3))
            for x, y in [((a + b) + c, a + (b + c)), (a * (b + c), a * b + a * c), (a, b)]:
                if x == y:
                    equal += 1
                    assert hash(x) == hash(y)
        assert equal >= 600

    def test_constructor_checks_cnf(self):
        # a raw key enters only through copy and pickle, whose constructor
        # _restore checks it in every mode; the last key's exponent is not
        # in CNF, which the check in _make never looked at
        w = OMEGA._key
        for key in [((w, 1), (w, 2)), (((), 1), (w, 1)), ((w, 0),), ((w, 1), ((), 0)),
                    ((((w, 1), (w, 2)), 1),)]:
            with pytest.raises(DomainError):
                _restore(key)

    def test_unpickling_a_bad_key_is_refused(self):
        bad = object.__new__(Ordinal)
        _set(bad, "_key", ((OMEGA._key, 1), (OMEGA._key, 2)))
        data = pickle.dumps(bad)
        with pytest.raises(DomainError):
            pickle.loads(data)
        with pytest.raises(DomainError):
            copy.copy(bad)

    def test_the_suite_checks_every_key_and_map(self):
        # tests/conftest.py installs the checked _make before homeo binds it
        # and wraps homeo._canonical; both raise also under -O
        assert homeo._make is ordinals._make
        with pytest.raises(AssertionError, match="strictly decrease"):
            ordinals._make(((OMEGA._key, 1), (OMEGA._key, 2)))
        with pytest.raises(AssertionError, match="not canonical"):
            homeo._canonical([Piece(initial(OMEGA), initial(OMEGA + ONE))])


@pytest.mark.parametrize("n", [0, 3, 10**30])
def test_finite_ordinal_hashes_as_its_int(n):
    # Ordinal(n) == n, so dicts and sets must treat the two as one key
    x = Ordinal(n)
    assert hash(x) == hash(n)
    assert {n: "a"}[x] == "a" and {x: "a"}[n] == "a"
    assert len({x, n}) == 1


def test_ordinal_is_immutable():
    x = parse_ordinal("w + 1")
    with pytest.raises(AttributeError):
        x._key = ()
    with pytest.raises(AttributeError):
        del x._key
    assert x == OMEGA + ONE


@pytest.mark.parametrize("text", ["0", "5", "w^(w + 1)*3 + w*2 + 7"])
def test_ordinal_copies_and_pickles(text):
    x = parse_ordinal(text)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and hash(y) == hash(x) and type(y) is Ordinal
