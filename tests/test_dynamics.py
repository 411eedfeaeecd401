import random

import pytest

from ordhomeo.dynamics import (
    RoelckeCertificate,
    TransitivityProblem,
    baire_density_witness,
    dense_approx,
    discontinuity_sequence,
    fresh_point,
    in_baire_T,
    make_transitive,
    roelcke_decompose,
)
from ordhomeo.errors import DomainError
from ordhomeo.homeo import (
    apply,
    compose,
    fixed_points,
    identity,
    interval_swap,
    invariant_point,
    span,
    swap_points,
)
from ordhomeo.ordinals import OMEGA, ONE, ZERO, Ordinal, rank

from helpers import (
    GRID,
    o,
    random_homeo,
    random_point_of_rank,
    random_transitivity_problem,
)


def swap_0w():
    return interval_swap(span(ZERO, OMEGA), span(OMEGA, o("w*2")))


class TestFreshPoint:
    def test_rank_and_floor(self):
        rng = random.Random(60)
        for _ in range(200):
            r = Ordinal(rng.randint(0, 3))
            floor = random_point_of_rank(rng, rng.randint(0, 5))
            p = fresh_point(r, rng.randint(0, 9), floor)
            assert rank(p) == r and p > floor

    def test_distinct_per_seq(self):
        floor = o("w^2*3")
        pts = {fresh_point(ONE, i, floor) for i in range(20)}
        assert len(pts) == 20

    def test_matches_minimal_q_form(self):
        # floor below w^(r+2): the least multiple of w^(r+1) past floor
        assert fresh_point(ZERO, 0, o("w*2")) == o("w*3 + 1")
        assert fresh_point(ONE, 0, OMEGA) == o("w^2 + w")
        assert fresh_point(ZERO, 2, Ordinal(7)) == o("w + 3")

    def test_high_floor(self):
        # floor above w^(r+2): its high prefix must be preserved
        p = fresh_point(ZERO, 0, o("w^2"))
        assert p > o("w^2") and rank(p) == ZERO


class TestMakeTransitive:
    def test_single_interval_pair(self):
        g = make_transitive(TransitivityProblem(((OMEGA, o("w*2")),)))
        assert g == swap_0w()
        assert apply(g, OMEGA) == o("w*2")

    def test_rank_zero_with_frozen(self):
        g = make_transitive(TransitivityProblem(((Ordinal(3), Ordinal(5)),),
                                                frozenset([Ordinal(4)])))
        assert apply(g, Ordinal(3)) == Ordinal(5)
        assert apply(g, Ordinal(4)) == Ordinal(4)
        assert g == swap_points(Ordinal(3), Ordinal(5))

    def test_swap_pair_needs_tracking(self):
        prob = TransitivityProblem(((OMEGA, o("w*2")), (o("w*2"), OMEGA)))
        g = make_transitive(prob)
        assert apply(g, OMEGA) == o("w*2")
        assert apply(g, o("w*2")) == OMEGA

    def test_fixed_pair_inside_frozen(self):
        prob = TransitivityProblem(((OMEGA, OMEGA),), frozenset([OMEGA]))
        assert make_transitive(prob).is_identity

    def test_rank_mismatch_rejected(self):
        with pytest.raises(DomainError, match="pair 1"):
            make_transitive(TransitivityProblem(((OMEGA, ONE),)))

    def test_duplicates_rejected(self):
        with pytest.raises(DomainError, match="duplicate"):
            make_transitive(TransitivityProblem(((ONE, Ordinal(2)), (ONE, Ordinal(3)))))

    def test_frozen_collision_rejected(self):
        with pytest.raises(DomainError, match="frozen"):
            make_transitive(TransitivityProblem(((ONE, Ordinal(2)),),
                                                frozenset([Ordinal(2)])))

    def test_empty_problem_rejected(self):
        with pytest.raises(DomainError, match="no pairs"):
            make_transitive(TransitivityProblem(()))

    def test_random_problems(self):
        rng = random.Random(61)
        for _ in range(100):
            prob = random_transitivity_problem(rng)
            g = make_transitive(prob)
            for x, y in prob.pairs:
                assert apply(g, x) == y
            for f in prob.frozen:
                assert apply(g, f) == f


class TestRoelcke:
    def check(self, g, points, cert: RoelckeCertificate):
        assert compose(cert.u, compose(cert.h, cert.u_prime)) == g
        for x in points:
            assert apply(cert.u, x) == x
            assert apply(cert.u_prime, x) == x
        lookup = dict(cert.sigma)
        for i, j in cert.sigma:
            assert apply(g, points[i]) == points[j]
            assert apply(cert.h, points[i]) == points[j]

    def test_identity(self):
        pts = [OMEGA, Ordinal(5)]
        cert = roelcke_decompose(identity(), pts)
        assert cert.u.is_identity and cert.h.is_identity and cert.u_prime.is_identity
        assert cert.sigma == ((0, 0), (1, 1))

    def test_moved_point(self):
        g = swap_0w()
        cert = roelcke_decompose(g, [OMEGA])
        assert cert.sigma == ()
        assert rank(apply(cert.h, OMEGA)) == ONE
        self.check(g, [OMEGA], cert)

    def test_swapped_points(self):
        g = swap_points(Ordinal(2), Ordinal(9))
        pts = [Ordinal(2), Ordinal(9)]
        cert = roelcke_decompose(g, pts)
        assert dict(cert.sigma) == {0: 1, 1: 0}
        self.check(g, pts, cert)

    def test_random_instances(self):
        rng = random.Random(62)
        for _ in range(60):
            g = random_homeo(rng)
            pts = rng.sample(GRID, rng.randint(1, 4))
            cert = roelcke_decompose(g, pts)
            self.check(g, pts, cert)

    def test_h_depends_only_on_sigma(self):
        rng = random.Random(63)
        pts = [OMEGA, o("w*2"), Ordinal(3)]
        seen = {}
        for _ in range(60):
            g = random_homeo(rng)
            cert = roelcke_decompose(g, pts)
            if cert.sigma in seen:
                assert seen[cert.sigma] == cert.h
            else:
                seen[cert.sigma] = cert.h

    def test_duplicate_points_rejected(self):
        with pytest.raises(DomainError):
            roelcke_decompose(identity(), [ONE, ONE])

    def test_empty_points_rejected(self):
        with pytest.raises(DomainError, match="no points"):
            roelcke_decompose(identity(), [])


class TestDenseApprox:
    def test_identity_case(self):
        h, k = dense_approx(identity(), [Ordinal(4)], [ONE])
        assert h.is_identity
        assert apply(k, ONE) > Ordinal(5)

    def test_swap_example(self):
        g = swap_0w()
        h, k = dense_approx(g, [OMEGA], [ONE])
        assert invariant_point(g, OMEGA + 1) == o("w*2")
        assert h == g
        assert apply(k, ONE) > o("w*2")

    def test_empty_targets(self):
        g = swap_0w()
        h, k = dense_approx(g, [], [Ordinal(2)])
        assert h.support <= invariant_point(g, ONE)

    def test_repeated_family_points_count_once(self):
        g = swap_0w()
        h, k = dense_approx(g, [OMEGA], [ONE, Ordinal(2), ONE, ONE])
        assert (h, k) == dense_approx(g, [OMEGA], [ONE, Ordinal(2)])
        assert apply(k, ONE) == o("w*3 + 1")  # first-seen order: 1 is index 0, 2 index 1
        assert apply(k, Ordinal(2)) == o("w*3 + 2")

    def test_contracts_random(self):
        rng = random.Random(64)
        for _ in range(60):
            g = random_homeo(rng)
            targets = rng.sample(GRID, rng.randint(0, 3))
            family = rng.sample(GRID, rng.randint(0, 3))
            h, k = dense_approx(g, targets, family)
            alpha = invariant_point(g, max(targets) + ONE if targets else ONE)
            assert h.support <= alpha
            for t in targets:
                assert apply(h, t) == apply(g, t)
            for f in family:
                kf = apply(k, f)
                assert kf > alpha
                assert apply(h, kf) == kf


class TestBaire:
    def test_identity_member(self):
        assert in_baire_T(identity(), 5)

    def test_transposition_member(self):
        g = swap_points(Ordinal(7), OMEGA + 7)
        assert in_baire_T(g, 7)  # 8, 9, ... are still fixed

    def test_finite_support_blocks(self):
        # move every integer in [3, 40] far away; 41 stays fixed
        g = identity()
        for k in range(3, 41):
            g = compose(swap_points(Ordinal(k), o("w*2") + k), g)
        assert in_baire_T(g, 3)
        assert not fixed_points(g).contains(Ordinal(17))
        assert fixed_points(g).contains(Ordinal(41))

    def test_bad_n(self):
        with pytest.raises(DomainError):
            in_baire_T(identity(), 0)

    def test_witness_degenerate(self):
        h = baire_density_witness(identity(), 1, [Ordinal(5)])
        assert h.is_identity

    def test_witness_fixes_chosen_integer(self):
        g = swap_points(ONE, OMEGA + 1)
        h = baire_density_witness(g, 1, [])
        assert in_baire_T(h, 1)
        assert apply(h, ONE) == ONE

    def test_witness_respects_constraints(self):
        g = swap_points(ONE, OMEGA + 1)
        constraints = [Ordinal(n) for n in range(1, 6)]
        h = baire_density_witness(g, 1, constraints)
        for c in constraints:
            assert apply(h, c) == apply(g, c)
        assert in_baire_T(h, 1)

    def test_witness_random(self):
        rng = random.Random(65)
        for _ in range(60):
            g = random_homeo(rng)
            n = rng.randint(1, 9)
            constraints = rng.sample(GRID, rng.randint(0, 4))
            h = baire_density_witness(g, n, constraints)
            assert in_baire_T(h, n)
            for c in constraints:
                assert apply(h, c) == apply(g, c)


class TestDiscontinuity:
    def test_transposition(self):
        g1 = discontinuity_sequence(1)
        assert g1 == swap_points(ONE, OMEGA + 1)

    def test_escape_row(self):
        for n in range(1, 51):
            assert apply(discontinuity_sequence(n), Ordinal(n)) == OMEGA + n

    def test_pointwise_eventually_constant(self):
        for x in [ZERO, Ordinal(3), OMEGA, OMEGA + 2, o("w*2"), o("w^2 + 1")]:
            cls_finite = x < OMEGA
            threshold = int(x) if cls_finite else (
                int(x.terms[-1][1]) if x.terms[-1][0].is_zero else 0)
            for n in range(threshold + 1, threshold + 20):
                assert apply(discontinuity_sequence(n), x) == x
