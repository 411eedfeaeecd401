"""Shared oracles and random generators for the test suite.

The pair oracle models ordinals below w^2 as integer pairs (a, b) for
w*a + b, with closed-form arithmetic.  It is kept deliberately
independent of the library code it cross-checks.
"""

from __future__ import annotations

import random
from operator import attrgetter

from ordhomeo.homeo import (PwHomeo, compose, identity, interval_swap, order_type, span,
                            swap_points)
from ordhomeo.ordinals import (OMEGA, ONE, ZERO, Ordinal, absorb_threshold, classify,
                               left_subtract, omega_pow, parse_ordinal, rank)

# ---------------------------------------------------------------------------
# pair oracle (ordinals below w^2)


def pair_add(x, y):
    a, b = x
    c, d = y
    if c > 0:
        return (a + c, d)
    return (a, b + d)


def pair_sub(x, y):
    """xi with x + xi = y; requires x <= y (lexicographic)."""
    a, b = x
    c, d = y
    if x > y:
        raise AssertionError(f"pair_sub needs x <= y, got {x} > {y}")
    if a == c:
        return (0, d - b)
    return (c - a, d)


def pair_mul(x, y):
    """Product, or None when it leaves the pair-representable range."""
    a, b = x
    c, d = y
    if (a, b) == (0, 0) or (c, d) == (0, 0):
        return (0, 0)
    if c == 0:
        return (a * d, b) if a else (0, b * d)
    if a == 0:
        # finite times infinite: b*(w*c + d) = w*c + b*d, since b*w = w
        return (c, b * d) if b > 1 else (c, d)
    return None


def pair_to_ordinal(x) -> Ordinal:
    a, b = x
    return OMEGA * a + b


def all_pairs(max_coef):
    return [(a, b) for a in range(max_coef + 1) for b in range(max_coef + 1)]


# ---------------------------------------------------------------------------
# random ordinals


def random_ordinal(rng: random.Random, max_rank=3, max_coef=9) -> Ordinal:
    """A random CNF value with finite exponents up to max_rank."""
    value = Ordinal(0)
    for e in range(max_rank, -1, -1):
        if rng.random() < 0.5:
            value = value + omega_pow(Ordinal(e)) * rng.randint(1, max_coef)
    return value


def random_point_of_rank(rng: random.Random, r: int, max_coef=6) -> Ordinal:
    """A random point whose last CNF exponent is exactly r."""
    value = Ordinal(0)
    for e in range(r + 2, r, -1):
        if rng.random() < 0.4:
            value = value + omega_pow(Ordinal(e)) * rng.randint(1, max_coef)
    return value + omega_pow(Ordinal(r)) * rng.randint(1, max_coef)


def o(text: str) -> Ordinal:
    return parse_ordinal(text)


W2 = omega_pow(Ordinal(2))

# ---------------------------------------------------------------------------
# random piecewise maps
#
# All moves are aligned to the grid {w^2*a + w*b + c : a, b, c <= 6}, so
# a map drawn here is determined by its values on the grid alone: grid
# agreement is a faithful extensional-equality oracle for these maps.

GRID = [W2 * a + OMEGA * b + c
        for a in range(7) for b in range(7) for c in range(7)]

GRID_ISOLATED = [x for x in GRID if rank(x) == Ordinal(0)]


def _rank2_block(a):
    return span(W2 * a, W2 * (a + 1))


def _rank1_block(a, b):
    return span(W2 * a + OMEGA * b, W2 * a + OMEGA * (b + 1))


def random_move(rng: random.Random):
    kind = rng.choice(["points", "rank1", "rank2"])
    if kind == "points":
        x, y = rng.sample(GRID_ISOLATED, 2)
        return swap_points(x, y)
    if kind == "rank1":
        blocks = [(a, b) for a in range(7) for b in range(6)]
        (a1, b1), (a2, b2) = rng.sample(blocks, 2)
        return interval_swap(_rank1_block(a1, b1), _rank1_block(a2, b2))
    a1, a2 = rng.sample(range(6), 2)
    return interval_swap(_rank2_block(a1), _rank2_block(a2))


def random_homeo(rng: random.Random, max_moves=4):
    g = identity()
    for _ in range(rng.randint(0, max_moves)):
        g = compose(random_move(rng), g)
    return g


def random_transitivity_problem(rng: random.Random, n_pairs=5, n_frozen=5,
                                max_rank=3):
    from ordhomeo.dynamics import TransitivityProblem
    pairs = []
    xs, ys = set(), set()
    while len(pairs) < n_pairs:
        r = rng.randint(0, max_rank)
        x = random_point_of_rank(rng, r)
        y = random_point_of_rank(rng, r)
        if x in xs or y in ys:
            continue
        pairs.append((x, y))
        xs.add(x)
        ys.add(y)
    frozen = set()
    while len(frozen) < n_frozen:
        f = random_point_of_rank(rng, rng.randint(0, max_rank))
        if f not in xs and f not in ys:
            frozen.add(f)
    return TransitivityProblem(tuple(pairs), frozenset(frozen))


# ---------------------------------------------------------------------------
# canonical form (tests/conftest.py runs this on every map _canonical or
# inverse returns)


def check_canonical(g: PwHomeo) -> None:
    """Raise AssertionError, also under -O, unless g is in the canonical
    form: every interval nonempty and clopen ([0, hi] or ]lo, hi]); the
    sources in order, and the targets, each tiling the same [0, support]; both
    sides of a piece of one order type; no target-contiguous neighbours
    but the first point split off an infinite piece that starts at 0 on
    one side only, which is always split off; no trailing identity piece,
    and no identity tail in the last piece."""
    def fail(why: str):  # the repr: an empty interval has no closed form to print
        raise AssertionError(f"not canonical, {why}:\n{g!r}")

    ps = g.pieces
    if not ps:
        return
    ends = []
    for side, ivs in (("source", [p.source for p in ps]),
                      ("target", sorted((p.target for p in ps), key=attrgetter("start")))):
        end = ZERO
        for iv in ivs:
            if not iv.start < iv.end:
                fail(f"empty {side} [{iv.start}, {iv.end})")
            if iv.start != end:
                fail(f"{side}s do not tile in order at {iv.start}")
            if classify(iv.end).kind != "successor":
                fail(f"{side} end {iv.end} is not a successor")
            end = iv.end
        ends.append(end)
    if ends[1] != ends[0]:
        fail(f"targets end at {ends[1]}, not where the sources end, {ends[0]}")
    for p in ps:
        if order_type(p.source) != order_type(p.target):
            fail(f"order types {order_type(p.source)} vs {order_type(p.target)}")
        if p.source.start.is_zero != p.target.start.is_zero and not order_type(p.source).is_finite:
            fail("an infinite piece starts at 0 on one side only")
    for p, q in zip(ps, ps[1:]):
        split = (p.source.end == p.source.start + ONE
                 and p.source.start.is_zero != p.target.start.is_zero
                 and not order_type(q.source).is_finite)
        if q.target.start == p.target.end and not split:
            fail(f"unmerged neighbours at source {q.source.start}")
    last = ps[-1]
    if last.source == last.target:
        fail("trailing identity piece")
    lo, hi = sorted((last.source.start, last.target.start))
    if last.source.end == last.target.end and lo != hi:
        # [s, e) -> [c, e) fixes s + t exactly when (-lo + hi) + t = t, so
        # it fixes all its points from the least such t on, and must stop
        # at the first of them
        fixed_from = last.source.start + absorb_threshold(left_subtract(lo, hi))
        if fixed_from + ONE < last.source.end:
            fail(f"identity tail past {fixed_from} in the last piece")


# ---------------------------------------------------------------------------
# ordinal sets


def check_set_runs(s) -> None:
    """Raise AssertionError, also under -O, unless s's runs are in the
    normal form: half-open (lo, end) with lo < end, increasing, neighbours
    neither overlapping nor touching, and only the last unbounded."""
    runs = s.runs
    for k, (lo, end) in enumerate(runs):
        if end is None and k != len(runs) - 1:
            raise AssertionError(f"unbounded run from {lo} is not the last: {runs}")
        if end is not None and not lo < end:
            raise AssertionError(f"empty run [{lo}, {end}): {runs}")
        if k and not runs[k - 1][1] < lo:
            raise AssertionError(f"runs {runs[k - 1]} and {(lo, end)} overlap or touch")
