"""Group-dynamical constructions on piecewise homeomorphisms.

`make_transitive` realises pointwise transitivity on rank levels: any
rank-matched assignment of finitely many points extends to a map fixing
a prescribed finite set.  On top of it sit a u*h*u' decomposition with
u, u' taken from the fixator of the given points and h from a finite
catalog indexed by partial injections (`roelcke_decompose`), an
approximation splitting a map into an initial-segment copy plus a
conjugator pushed above it (`dense_approx`), and witnesses showing the
sets of maps fixing some integer at or past n are dense
(`baire_density_witness`).

Fresh points are generated deterministically so that runs reproduce:
fresh(r, seq, floor) extends the prefix of floor above w^(r+2) with
w^(r+1)*q + w^r*(seq+1), q minimal past the floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ContractError, DomainError
from .homeo import (
    PwHomeo,
    _common_runs,
    _runs,
    apply,
    compose,
    identity,
    interval_swap,
    invariant_point,
    inverse,
    restrict_to_initial,
    span,
    swap_points,
)
from .ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    _Record,
    _set,
    format_ordinal,
    isolating_left_endpoint,
    omega_pow,
    rank,
)


def fresh_point(r: Ordinal, seq: int, floor: Ordinal) -> Ordinal:
    """A rank-r point above floor, distinct across seq values."""
    level = r + ONE
    prefix = sum((omega_pow(e) * c for e, c in floor.terms if e >= level), ZERO)
    return prefix + omega_pow(level) + omega_pow(r) * (seq + 1)


class TransitivityProblem(_Record):
    """Send x_i to y_i (rank-matched, both sides duplicate-free) while
    fixing every frozen point."""

    __slots__ = ("pairs", "frozen")

    def __init__(self, pairs: tuple[tuple[Ordinal, Ordinal], ...],
                 frozen: frozenset[Ordinal] = frozenset()):
        _set(self, "pairs", pairs)
        _set(self, "frozen", frozen)

    def validate(self) -> None:
        if not self.pairs:
            raise DomainError("no pairs to realise")
        xs = [x for x, _ in self.pairs]
        ys = [y for _, y in self.pairs]
        if len(set(xs)) != len(xs):
            raise DomainError("duplicate source points")
        if len(set(ys)) != len(ys):
            raise DomainError("duplicate target points")
        for i, (x, y) in enumerate(self.pairs):
            if rank(x) != rank(y):
                raise DomainError(
                    f"pair {i + 1} ({format_ordinal(x)} -> {format_ordinal(y)}): rank mismatch")
            if (x in self.frozen or y in self.frozen) and x != y:
                raise DomainError(
                    f"pair {i + 1} ({format_ordinal(x)} -> {format_ordinal(y)}): frozen point moved")


def _raise_endpoint(lo: Ordinal, top: Ordinal, obstructions) -> Ordinal:
    """Push a left endpoint above every obstruction strictly inside
    ]lo, top[; any such endpoint still spans an interval of the same
    order type, by absorption."""
    return max((z for z in obstructions if lo < z < top), default=lo)


def make_transitive(problem: TransitivityProblem) -> PwHomeo:
    """A canonical map g with g(x_i) = y_i for every pair and g(f) = f
    for every frozen point.

    Pairs are processed in input order, tracking the current position of
    every source point through the moves already made; each step either
    transposes two isolated points or swaps two disjoint rank-alpha
    intervals whose left endpoints are raised above every protected
    point and above the other interval."""
    problem.validate()
    protected = set(problem.frozen)
    positions = [x for x, _ in problem.pairs]
    acc = identity()
    for i, (_, y) in enumerate(problem.pairs):
        p = positions[i]
        if p == y:
            protected.add(y)
            continue
        r = rank(y)
        if r.is_zero:
            move = swap_points(p, y)
        else:
            obstructions = protected | {positions[j] for j in range(len(positions)) if j != i}
            lo_p = isolating_left_endpoint(p)
            lo_y = isolating_left_endpoint(y)
            if p < y:
                lo_y = _raise_endpoint(lo_y, y, obstructions | {p})
                lo_p = _raise_endpoint(lo_p, p, obstructions)
            else:
                lo_p = _raise_endpoint(lo_p, p, obstructions | {y})
                lo_y = _raise_endpoint(lo_y, y, obstructions)
            move = interval_swap(span(lo_p, p), span(lo_y, y))
        acc = compose(move, acc)
        positions = [apply(move, q) for q in positions]
        protected.add(y)
    for (x, y), final in zip(problem.pairs, positions):
        if final != y:
            raise ContractError(f"{format_ordinal(x)} landed on {format_ordinal(final)}, "
                                f"wanted {format_ordinal(y)}")
    for f in problem.frozen:
        if apply(acc, f) != f:
            raise ContractError(f"frozen point {format_ordinal(f)} moved")
    return acc


# a dataclass, unlike the other records: bench/tests calls dataclasses.replace on it
@dataclass(frozen=True)
class RoelckeCertificate:
    """g = u . h . u_prime with u and u_prime fixing every marked point
    and h determined by the partial injection sigma (plus the points)."""

    u: PwHomeo
    h: PwHomeo
    u_prime: PwHomeo
    sigma: tuple[tuple[int, int], ...]  # 0-based index pairs


def roelcke_decompose(g: PwHomeo, points: Sequence[Ordinal]) -> RoelckeCertificate:
    """Decompose g over the fixator of the given points.

    sigma records which points g permutes among themselves; h moves the
    remaining points to deterministic fresh targets that depend only on
    the point set, so the h component ranges over a finite family
    indexed by partial injections of the points."""
    points = list(points)
    if not points:
        raise DomainError("no points to decompose over")
    if len(set(points)) != len(points):
        raise DomainError("points must be distinct")
    index = {x: i for i, x in enumerate(points)}
    images = [apply(g, x) for x in points]
    sigma = tuple((i, index[y]) for i, y in enumerate(images) if y in index)
    lookup = dict(sigma)
    floor = max(points)
    h_pairs = []
    for i, x in enumerate(points):
        if i in lookup:
            h_pairs.append((x, points[lookup[i]]))
        else:
            h_pairs.append((x, fresh_point(rank(x), i, floor)))
    h = make_transitive(TransitivityProblem(tuple(h_pairs)))
    u_pairs = tuple((apply(h, x), images[i]) for i, x in enumerate(points) if i not in lookup)
    if u_pairs:
        u = make_transitive(TransitivityProblem(u_pairs, frozenset(points)))
    else:
        u = identity()
    w = compose(inverse(g), compose(u, h))
    for x in points:
        if apply(w, x) != x:
            raise ContractError(f"decomposition failed to fix {format_ordinal(x)}")
    u_prime = inverse(w)
    if compose(u, compose(h, u_prime)) != g:
        raise ContractError("decomposition does not recompose to g")
    return RoelckeCertificate(u, h, u_prime, sigma)


def dense_approx(g: PwHomeo, targets: Sequence[Ordinal],
                 family: Sequence[Ordinal]) -> tuple[PwHomeo, PwHomeo]:
    """(h, k): h agrees with g on [0, alpha] and is the identity above,
    where alpha is the least point >= max(targets) + 1 with
    g([0, alpha]) = [0, alpha]; k pushes every family point to a fresh
    point of equal rank above alpha, so h fixes every k(f)."""
    start = max(targets) + ONE if targets else ONE
    alpha = invariant_point(g, start)
    h = restrict_to_initial(g, alpha)
    seen = list(dict.fromkeys(family))
    if not seen:
        return h, identity()
    floor = max([alpha] + seen)
    k_pairs = tuple((f, fresh_point(rank(f), i, floor)) for i, f in enumerate(seen))
    k = make_transitive(TransitivityProblem(k_pairs))
    return h, k


def in_baire_T(g: PwHomeo, n: int) -> bool:
    """Does g fix some integer k with n <= k < w?  One walk to the first
    fixed run of g at or above n: its first point is the least fixed
    point >= n, finite exactly when such a k exists."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    return next(_common_runs([_runs(g, fixed=True)], Ordinal(n)))[0] < OMEGA


def baire_density_witness(g: PwHomeo, n: int,
                          constraints: Sequence[Ordinal] = ()) -> PwHomeo:
    """A map agreeing with g on every constraint point that fixes some
    integer >= n: precompose with the transposition (k, g^-1(k)) for the
    least admissible integer k (degenerating to g itself when g already
    fixes k)."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    avoid = set(constraints) | {apply(g, c) for c in constraints}
    k = n
    while Ordinal(k) in avoid:
        k += 1
    ko = Ordinal(k)
    pre = apply(inverse(g), ko)
    if pre == ko:
        h = g
    else:
        if rank(pre) != ZERO:  # rank preservation makes this impossible
            raise ContractError(f"preimage of {k} is not isolated")
        h = compose(g, swap_points(ko, pre))
    if not in_baire_T(h, n):
        raise ContractError("witness missed its target set")
    for c in constraints:
        if apply(h, c) != apply(g, c):
            raise ContractError("witness disturbed a constraint point")
    return h


def discontinuity_sequence(n: int) -> PwHomeo:
    """The transposition (n, w + n): pointwise these tend to the
    identity while their values at n run away to w*2."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    return swap_points(Ordinal(n), OMEGA + n)
