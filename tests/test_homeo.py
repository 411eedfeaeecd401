import random
import re

import pytest

from ordhomeo import homeo
from ordhomeo.dynamics import in_baire_T
from ordhomeo.errors import DomainError, ResourceError, ValidationError
from ordhomeo.homeo import (
    IDENTITY,
    ClopenInterval,
    OrdinalSet,
    Piece,
    PwHomeo,
    apply,
    build,
    canonicalize,
    common_fixed_points,
    compose,
    enum_index,
    find_fixed_point_above,
    fixed_points,
    format_homeo,
    format_interval,
    format_ordinal_set,
    identity,
    index_of,
    initial,
    interval_swap,
    invariant_point,
    invariant_prefix,
    inverse,
    order_of,
    order_type,
    parse_homeo,
    restrict_to_initial,
    span,
    sup_image,
    swap_points,
)
from ordhomeo.ordinals import (OMEGA, ONE, ZERO, Ordinal, _pred, absorb_threshold, classify,
                               diff_exponent, format_ordinal, left_subtract, omega_pow, rank)

from helpers import GRID, check_canonical, check_set_runs, o, random_homeo, random_move


def swap_0w() -> PwHomeo:
    """Exchange ]0, w] and ]w, w*2], fixing 0."""
    return interval_swap(span(ZERO, OMEGA), span(OMEGA, o("w*2")))


def shift_up_map() -> PwHomeo:
    """2, 3, ... shift up by one; the freed slot 2 is filled from w+1,
    and ]w+1, w*2] slides down to compensate."""
    return build([
        (initial(ONE), initial(ONE)),
        (span(ONE, OMEGA), span(Ordinal(2), OMEGA)),
        (span(OMEGA, OMEGA + 1), span(ONE, Ordinal(2))),
        (span(OMEGA + 1, o("w*2")), span(OMEGA, o("w*2"))),
    ])


class TestIntervals:
    def test_order_type_labels(self):
        # true order types, which replaced the labels -lo + hi of ]lo, hi]
        assert order_type(initial(OMEGA)) == o("w + 1")
        assert order_type(span(ZERO, OMEGA)) == o("w + 1")
        assert order_type(span(OMEGA, o("w*2"))) == o("w + 1")
        assert order_type(span(Ordinal(4), Ordinal(5))) == ONE

    def test_enum_index(self):
        assert enum_index(span(OMEGA, o("w*2")), ZERO) == o("w + 1")
        assert enum_index(span(ZERO, OMEGA), OMEGA) == OMEGA
        assert index_of(initial(OMEGA), OMEGA) == OMEGA
        assert index_of(span(ZERO, OMEGA), OMEGA) == OMEGA
        assert index_of(span(ZERO, OMEGA), Ordinal(5)) == Ordinal(4)

    def test_enum_index_round_trip(self):
        for iv in [initial(Ordinal(5)), initial(o("w*2")), span(Ordinal(3), OMEGA),
                   span(OMEGA, o("w^2"))]:
            for t in GRID:
                if iv.contains(t):
                    assert enum_index(iv, index_of(iv, t)) == t

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            enum_index(span(ZERO, OMEGA), o("w + 1"))
        with pytest.raises(DomainError):
            index_of(span(ZERO, OMEGA), ZERO)

    def test_empty_interval_rejected(self):
        with pytest.raises(DomainError):
            span(OMEGA, OMEGA)


class TestBuild:
    def test_empty_is_identity(self):
        g = build([])
        assert g.is_identity and g.support == ZERO

    def test_swap_is_valid(self):
        g = build([
            (initial(ZERO), initial(ZERO)),
            (span(ZERO, OMEGA), span(OMEGA, o("w*2"))),
            (span(OMEGA, o("w*2")), span(ZERO, OMEGA)),
        ])
        assert g.support == o("w*2")
        assert len(g.pieces) == 3

    def test_type_mismatch(self):
        with pytest.raises(ValidationError, match=r"order type mismatch \(w \+ 1 vs w\*2 \+ 1\)"):
            build([(initial(OMEGA), span(ZERO, o("w*2")))])

    @pytest.mark.parametrize("pieces", [
        # [0, w) <-> [w, w*2) tiles, but neither interval is closed
        [(ClopenInterval(ZERO, OMEGA), ClopenInterval(OMEGA, OMEGA * 2)),
         (ClopenInterval(OMEGA, OMEGA * 2), ClopenInterval(ZERO, OMEGA))],
        # an empty piece at w + 1, ahead of the piece that starts there
        [(ClopenInterval(OMEGA + 1, OMEGA + 1), ClopenInterval(OMEGA + 1, OMEGA + 1)),
         (initial(OMEGA), initial(OMEGA)), (span(OMEGA, OMEGA + 1), span(OMEGA, OMEGA + 1))],
    ], ids=["limit-ends", "empty"])
    def test_hand_built_intervals_must_be_clopen_and_nonempty(self, pieces):
        # the constructor trusts its ends, so build checks them
        with pytest.raises(ValidationError, match="empty interval or limit end"):
            build(pieces)

    def test_infinite_mixed_piece_rejected(self):
        # [0, w] has order type w + 1 and (0, w + 1] has w + 2
        with pytest.raises(ValidationError, match="order type mismatch"):
            build([(initial(OMEGA), span(ZERO, o("w + 1")))])

    def test_infinite_mixed_pieces_of_equal_order_type(self):
        # [0, w] and (w, w*2] both have order type w + 1
        g = build([
            (initial(OMEGA), span(OMEGA, o("w*2"))),
            (span(OMEGA, o("w*2")), initial(OMEGA)),
        ])
        assert g == build([
            (initial(ZERO), span(OMEGA, OMEGA + 1)),
            (span(ZERO, OMEGA), span(OMEGA + 1, o("w*2"))),
            (span(OMEGA, OMEGA + 1), initial(ZERO)),
            (span(OMEGA + 1, o("w*2")), span(ZERO, OMEGA)),
        ])
        assert len(g.pieces) == 4

    def test_gap_detected(self):
        with pytest.raises(ValidationError, match="gap"):
            build([
                (initial(ZERO), initial(ZERO)),
                (span(ONE, Ordinal(2)), span(ONE, Ordinal(2))),
            ])

    def test_duplicate_coverage_detected(self):
        with pytest.raises(ValidationError):
            build([
                (initial(Ordinal(2)), initial(Ordinal(2))),
                (span(ONE, Ordinal(2)), span(ONE, Ordinal(2))),
            ])

    def test_tied_target_starts_name_the_later_input_piece(self):
        # two targets start at 0 (exclusive); the target check walks the
        # pieces in target order, ties in input order, so it names the
        # second of the two as the input lists them
        with pytest.raises(ValidationError) as err:
            build([
                (span(ONE, Ordinal(2)), span(ZERO, ONE)),
                (span(ZERO, ONE), span(ZERO, ONE)),
                (initial(ZERO), initial(ZERO)),
                (span(Ordinal(2), Ordinal(3)), span(Ordinal(2), Ordinal(3))),
            ])
        assert str(err.value) == ("overlapping target interval in piece: (0, 1] -> (0, 1]"
                                  " (expected start 1)")

    def test_mismatched_ends(self):
        # per-piece labels match and both sides tile contiguously, but
        # ordinal addition is not commutative: 1+1+w = w while 1+w+1 = w+1
        with pytest.raises(ValidationError, match="sources end"):
            build([
                (initial(ZERO), span(OMEGA, OMEGA + 1)),
                (span(ZERO, ONE), initial(ZERO)),
                (span(ONE, OMEGA), span(ZERO, OMEGA)),
            ])


def split_refinement(g: PwHomeo, rng: random.Random) -> list[Piece]:
    """g's pieces, each split at up to six random interior grid points."""
    pieces = []
    for p in g.pieces:
        cuts = sorted({x for x in rng.sample(GRID, 6)
                       if p.source.contains(x) and x != p.source.hi})
        if not cuts or p.source.lo is None and rng.random() < 0.3:
            pieces.append(p)
            continue
        prev = None
        for cut in cuts + [p.source.hi]:
            if prev is None:
                sub = (initial(cut) if p.source.lo is None
                       else span(p.source.lo, cut))
            else:
                sub = span(prev, cut)
            pieces.append(Piece(sub, map_sub_ref(p.source, p.target, sub)))
            prev = cut
    return pieces


class TestCanonicalize:
    def test_identity_pieces_collapse(self):
        g = build([
            (initial(Ordinal(5)), initial(Ordinal(5))),
            (span(Ordinal(5), OMEGA), span(Ordinal(5), OMEGA)),
        ])
        assert g.is_identity

    def test_already_canonical(self):
        pieces = [
            (initial(ZERO), initial(ZERO)),
            (span(ZERO, ONE), span(ONE, Ordinal(2))),
            (span(ONE, Ordinal(2)), span(ZERO, ONE)),
        ]
        g = build(pieces)
        assert len(g.pieces) == 3

    def test_split_piece_merges(self):
        g = build([
            (initial(ZERO), initial(ZERO)),
            (span(ZERO, Ordinal(5)), span(OMEGA, OMEGA + 5)),
            (span(Ordinal(5), OMEGA), span(OMEGA + 5, o("w*2"))),
            (span(OMEGA, o("w*2")), span(ZERO, OMEGA)),
        ])
        assert g == swap_0w()

    def test_resplit_blocked_merge(self):
        # the same bijection of [0, w*2] written two ways: a finite head
        # shifted into an infinite run must canonicalize identically
        coarse = build([
            (initial(Ordinal(5)), span(Ordinal(9), Ordinal(15))),
            (span(Ordinal(5), OMEGA), span(Ordinal(15), OMEGA)),
            (span(OMEGA, OMEGA + 10), initial(Ordinal(9))),
            (span(OMEGA + 10, o("w*2")), span(OMEGA, o("w*2"))),
        ])
        fine = build([
            (initial(ZERO), span(Ordinal(9), Ordinal(10))),
            (span(ZERO, Ordinal(3)), span(Ordinal(10), Ordinal(13))),
            (span(Ordinal(3), OMEGA), span(Ordinal(13), OMEGA)),
            (span(OMEGA, OMEGA + 4), initial(Ordinal(3))),
            (span(OMEGA + 4, OMEGA + 10), span(Ordinal(3), Ordinal(9))),
            (span(OMEGA + 10, o("w*2")), span(OMEGA, o("w*2"))),
        ])
        assert coarse.pieces[0] == Piece(initial(ZERO), span(Ordinal(9), Ordinal(10)))
        for x in GRID:
            assert apply(coarse, x) == apply(fine, x) or x > o("w*2")

    def test_an_identity_tail_is_cut_off_the_last_piece(self):
        # ]w, w*2] -> ]w + 1, w*2] fixes w*2, so an identity piece above
        # it merges with it, and the canonical form cuts it off again
        text = "[0, 0] -> (w, w+1]\n(0, w] -> [0, w]\n(w, w*2] -> (w+1, w*2]\n"
        g = parse_homeo(text)
        assert g.support == o("w*2") and len(g.pieces) == 4
        assert parse_homeo(text + "(w*2, w*2+1] -> (w*2, w*2+1]\n") == g
        assert parse_homeo(text.replace("w*2]", "w*2 + 5]")) == g
        assert compose(g, inverse(g)).is_identity

    def test_canonicalize_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_homeo(rng)
            assert canonicalize(g) == g

    def test_canonical_form_is_representation_independent(self):
        # re-present each map with pieces split at arbitrary interior
        # points; rebuilding must land on the identical canonical form
        rng = random.Random(8)
        for _ in range(60):
            g = random_homeo(rng)
            rebuilt = build(split_refinement(g, rng))
            assert rebuilt == g

    def test_canonicalize_validates_a_hand_built_map(self):
        # the constructor trusts its input; canonicalize runs build's checks
        bad = PwHomeo((Piece(initial(OMEGA), initial(OMEGA + ONE)),))
        with pytest.raises(ValidationError, match="order type mismatch"):
            canonicalize(bad)
        loose = PwHomeo((Piece(initial(Ordinal(4)), initial(Ordinal(4))),
                         Piece(span(Ordinal(4), OMEGA), span(Ordinal(4), OMEGA))))
        assert canonicalize(loose) == IDENTITY
        assert canonicalize(PwHomeo(tuple(reversed(swap_0w().pieces)))) == swap_0w()


def hand_built(*pieces) -> PwHomeo:
    """A PwHomeo of these (source, target) pairs, taken as given."""
    return PwHomeo(tuple(Piece(*p) for p in pieces))


class TestCanonicalCheck:
    """check_canonical, which tests/conftest.py runs on every map
    _canonical returns, rejects each way a map can fail the form."""

    @pytest.mark.parametrize("g, message", [
        (hand_built((ClopenInterval(ONE, ONE),) * 2), "empty source [1, 1)"),
        (hand_built((ClopenInterval(ZERO, OMEGA),) * 2), "source end w is not a successor"),
        (hand_built((span(ZERO, o("1")), initial(ZERO)), (initial(ZERO), span(ZERO, o("1")))),
         "sources do not tile in order"),
        (hand_built((initial(ZERO), span(ZERO, OMEGA)), (span(ZERO, OMEGA), initial(ZERO))),
         "order types 1 vs w"),
        (hand_built((initial(ZERO), span(o("1"), o("2"))), (span(ZERO, o("1")), span(o("2"), o("3"))),
                    (span(o("1"), o("2")), initial(ZERO)), (span(o("2"), o("3")), span(ZERO, o("1")))),
         "unmerged neighbours at source 1"),
        (hand_built((initial(OMEGA), span(OMEGA, o("w*2"))), (span(OMEGA, o("w*2")), initial(OMEGA))),
         "an infinite piece starts at 0 on one side only"),
        (hand_built(*((p.source, p.target) for p in swap_0w().pieces),
                    (span(o("w*2"), o("w*3")), span(o("w*2"), o("w*3")))),
         "trailing identity piece"),
        # 1 + (w + 1) in source order, (w + 1) + 1 in target order
        (hand_built((initial(ZERO), span(OMEGA, OMEGA + 1)), (span(ZERO, OMEGA), initial(OMEGA))),
         "targets end at w + 2, not where the sources end, w + 1"),
        (hand_built((initial(ZERO), span(OMEGA, OMEGA + 1)), (span(ZERO, ONE), initial(ZERO)),
                    (span(ONE, OMEGA), span(ZERO, OMEGA)),
                    (span(OMEGA, o("w*2 + 1")), span(OMEGA + 1, o("w*2 + 1")))),
         "identity tail past w*2 in the last piece"),
        (hand_built((ClopenInterval(ZERO, ZERO),) * 2), "empty source [0, 0)"),
    ])
    def test_rejects(self, g, message):
        with pytest.raises(AssertionError, match=re.escape(message)):
            check_canonical(g)

    def test_accepts_canonical_maps(self):
        for g in [IDENTITY, swap_0w(), shift_up_map(), inverse(shift_up_map())]:
            check_canonical(g)
        # the first point split off an infinite piece is the one allowed
        # target-contiguous pair
        g = build([(initial(OMEGA), span(OMEGA, o("w*2"))), (span(OMEGA, o("w*2")), initial(OMEGA))])
        assert g.pieces[0] == Piece(initial(ZERO), span(OMEGA, OMEGA + 1))
        check_canonical(g)


class TestApplyCompose:
    def test_apply_examples(self):
        g = swap_0w()
        assert apply(g, OMEGA) == o("w*2")
        assert apply(g, ZERO) == ZERO
        assert apply(IDENTITY, o("w^w")) == o("w^w")
        t = swap_points(Ordinal(3), Ordinal(7))
        assert apply(t, Ordinal(5)) == Ordinal(5)
        assert apply(t, Ordinal(3)) == Ordinal(7)

    def test_apply_beyond_support(self):
        g = swap_0w()
        assert apply(g, o("w^2 + 3")) == o("w^2 + 3")

    def test_compose_identity(self):
        g = swap_0w()
        assert compose(g, identity()) == g
        assert compose(identity(), g) == g

    def test_swap_is_involution(self):
        g = swap_0w()
        assert compose(g, g).is_identity

    def test_transposition_composition(self):
        g = compose(swap_points(ONE, Ordinal(2)), swap_points(Ordinal(2), Ordinal(3)))
        assert apply(g, ONE) == Ordinal(2)
        assert apply(g, Ordinal(2)) == Ordinal(3)  # g(2) = (1 2) applied to 2? no: h first
        assert order_of(g) == 3

    def test_compose_agrees_pointwise(self):
        rng = random.Random(11)
        for _ in range(40):
            g, h = random_homeo(rng), random_homeo(rng)
            gh = compose(g, h)
            for x in rng.sample(GRID, 40):
                assert apply(gh, x) == apply(g, apply(h, x))

    def test_inverse(self):
        assert inverse(IDENTITY).is_identity
        rng = random.Random(12)
        for _ in range(30):
            g = random_homeo(rng)
            assert compose(g, inverse(g)).is_identity
            assert compose(inverse(g), g).is_identity

    def test_order_of(self):
        assert order_of(identity()) == 1
        assert order_of(swap_0w()) == 2
        w2, w3 = o("w*2"), o("w*3")
        cyc = compose(interval_swap(span(ZERO, OMEGA), span(OMEGA, w2)),
                      interval_swap(span(OMEGA, w2), span(w2, w3)))
        assert order_of(cyc) == 3

    def test_order_of_infinite_order_map(self):
        # the integer-shift map never returns to the identity: the orbit
        # of 2 never closes
        with pytest.raises(ResourceError, match="10000 cells"):
            order_of(shift_up_map())

    def test_group_laws_random(self):
        rng = random.Random(13)
        for _ in range(25):
            a, b, c = (random_homeo(rng) for _ in range(3))
            assert compose(compose(a, b), c) == compose(a, compose(b, c))
            assert compose(a, inverse(a)).is_identity
            assert compose(identity(), a) == a

    def test_rank_preserved(self):
        rng = random.Random(14)
        for _ in range(30):
            g = random_homeo(rng)
            for x in rng.sample(GRID, 30):
                assert rank(apply(g, x)) == rank(x)

    def test_strictly_increasing_on_pieces(self):
        rng = random.Random(15)
        for _ in range(20):
            g = random_homeo(rng)
            for p in g.pieces:
                pts = sorted(x for x in GRID if p.source.contains(x))
                images = [apply(g, x) for x in pts]
                assert images == sorted(images)
                assert len(set(images)) == len(images)

    def test_canonical_equality_is_extensional_on_grid(self):
        rng = random.Random(16)
        maps = [random_homeo(rng) for _ in range(40)]
        for i, g in enumerate(maps):
            for h in maps[i + 1:]:
                same_grid = all(apply(g, x) == apply(h, x) for x in GRID)
                assert (g == h) == same_grid


def rotation_map(s: int, t: int) -> PwHomeo:
    """Rotate [0, s] up past t, slide the middle, and recycle a block
    from above w back to the bottom.  Every instance forces the
    blocked-merge resplit during canonicalization."""
    w, w2 = OMEGA, o("w*2")
    return build([
        (initial(Ordinal(s)), span(Ordinal(t), Ordinal(t + s + 1))),
        (span(Ordinal(s), w), span(Ordinal(t + s + 1), w)),
        (span(w, w + (t + 1)), initial(Ordinal(t))),
        (span(w + (t + 1), w2), span(w, w2)),
    ])


class TestMixedPieceStress:
    def test_canonical_head_is_minimal(self):
        for s in range(3):
            for t in range(3):
                g = rotation_map(s, t)
                head = g.pieces[0]
                assert head.source == initial(ZERO)
                assert head.target == span(Ordinal(t), Ordinal(t + 1))

    def test_rotations_behave(self):
        rng = random.Random(9)
        rotations = [rotation_map(s, t) for s in range(3) for t in range(3)]
        for g in rotations:
            assert compose(g, inverse(g)).is_identity
            assert parse_homeo(format_homeo(g)) == g
            fixed = fixed_points(g)
            for x in GRID:
                assert fixed.contains(x) == (apply(g, x) == x)
        for _ in range(40):
            f = rng.choice(rotations)
            g = random_homeo(rng)
            fg = compose(f, g)
            for x in rng.sample(GRID, 25):
                assert apply(fg, x) == apply(f, apply(g, x))
                assert rank(apply(fg, x)) == rank(x)
            assert compose(inverse(g), compose(inverse(f), fg)).is_identity


class TestSwaps:
    def test_interval_swap_example(self):
        g = interval_swap(span(OMEGA, o("w*2")), span(o("w*2"), o("w*3")))
        assert apply(g, OMEGA + 1) == o("w*2 + 1")
        assert apply(g, o("w*2")) == o("w*3")
        assert apply(g, Ordinal(5)) == Ordinal(5)

    def test_swap_points_with_zero(self):
        g = swap_points(ZERO, Ordinal(5))
        assert apply(g, ZERO) == Ordinal(5)
        assert apply(g, Ordinal(5)) == ZERO
        assert apply(g, Ordinal(3)) == Ordinal(3)

    def test_overlap_rejected(self):
        with pytest.raises(DomainError, match="overlap"):
            interval_swap(span(ZERO, OMEGA), span(ZERO, OMEGA))

    def test_type_mismatch_rejected(self):
        with pytest.raises(DomainError):
            interval_swap(span(ZERO, OMEGA), span(OMEGA, o("w*2 + 1")))

    def test_non_isolated_point_rejected(self):
        with pytest.raises(DomainError, match="isolated"):
            swap_points(OMEGA, o("w*2"))

    def test_self_swap_rejected(self):
        with pytest.raises(DomainError):
            swap_points(Ordinal(3), Ordinal(3))


class TestOrdinalSet:
    def test_normalization_merges(self):
        s = OrdinalSet.from_parts([(ZERO, Ordinal(2)), (Ordinal(3), Ordinal(5))], None)
        assert s.intervals == ((ZERO, Ordinal(5)),)

    def test_tail_absorbs(self):
        s = OrdinalSet.from_parts([(OMEGA, o("w*2")), (o("w^2"), o("w^2 + 3"))], o("w*3"))
        assert s.intervals == ((OMEGA, o("w*2")),)
        assert s.tail_from == o("w*3")

    def test_tail_pulls_down_through_successors(self):
        s = OrdinalSet.from_parts([(Ordinal(4), Ordinal(6))], Ordinal(6))
        assert s.intervals == () and s.tail_from == Ordinal(3)

    def test_tail_stops_at_limit(self):
        s = OrdinalSet.from_parts([(OMEGA, o("w + 3"))], o("w + 3"))
        assert s.intervals == ((OMEGA, OMEGA),) and s.tail_from == OMEGA

    def test_everything(self):
        s = OrdinalSet.from_parts([(ZERO, Ordinal(10))], Ordinal(4))
        assert s.intervals == ((ZERO, ZERO),) and s.tail_from == ZERO
        assert s.contains(o("w^w"))

    def test_format(self):
        s = OrdinalSet.from_parts([(ZERO, ZERO)], o("w*2"))
        assert format_ordinal_set(s) == "{0} ∪ (w*2, ∞)"
        assert format_ordinal_set(OrdinalSet.from_parts([], None)) == "∅"

    def test_least_geq(self):
        s = OrdinalSet.from_parts([(Ordinal(3), Ordinal(6))], o("w*2"))
        assert s.least_geq(ZERO) == Ordinal(3)
        assert s.least_geq(Ordinal(5)) == Ordinal(5)
        assert s.least_geq(Ordinal(7)) == o("w*2 + 1")
        assert s.least_geq(o("w^2")) == o("w^2")
        assert OrdinalSet.from_parts([], None).least_geq(ZERO) is None

    def test_least_geq_against_scan(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_homeo(rng)
            s = fixed_points(g)
            alpha = rng.choice(GRID)
            least = s.least_geq(alpha)
            assert s.contains(least) and least >= alpha
            for x in GRID:
                if alpha <= x < least:
                    assert not s.contains(x)


class TestFixedPoints:
    def test_swap_example(self):
        s = fixed_points(swap_0w())
        assert s.intervals == ((ZERO, ZERO),)
        assert s.tail_from == o("w*2")

    def test_identity_fixes_everything(self):
        s = fixed_points(IDENTITY)
        assert s == OrdinalSet.from_parts([(ZERO, ZERO)], ZERO)
        assert s.intervals == ((ZERO, ZERO),) and s.tail_from == ZERO
        assert s.contains(ZERO) and s.contains(o("w^w")) and s.contains(Ordinal(17))

    def test_shift_piece_fixes_exactly_limit(self):
        # ]1, w] -> ]2, w] inside a valid map fixes exactly w of that piece
        g = shift_up_map()
        s = fixed_points(g)
        assert s.contains(OMEGA)
        assert s.contains(ONE) and s.contains(ZERO)  # identity head
        assert not s.contains(Ordinal(5))
        assert not s.contains(OMEGA + 1)
        assert s.contains(o("w*2"))
        for x in GRID:
            assert s.contains(x) == (apply(g, x) == x)

    def test_grid_oracle(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_homeo(rng)
            s = fixed_points(g)
            for x in GRID:
                assert s.contains(x) == (apply(g, x) == x)

    def test_always_has_tail(self):
        rng = random.Random(18)
        for _ in range(30):
            assert fixed_points(random_homeo(rng)).tail_from is not None

    def test_cofinal_integers_imply_omega_fixed(self):
        rng = random.Random(19)
        for _ in range(60):
            s = fixed_points(random_homeo(rng))
            if s.has_cofinal_integers():
                assert s.contains(OMEGA)

    def test_common_fixed_points(self):
        g = swap_0w()
        assert common_fixed_points([g, identity()]) == fixed_points(g)
        assert common_fixed_points([g, inverse(g)]) == fixed_points(g)
        both = common_fixed_points([g, swap_points(ZERO, ONE)])
        assert both.intervals == () and both.tail_from == o("w*2")
        with pytest.raises(DomainError):
            common_fixed_points([])


class TestFixedPointAbove:
    def test_worked_example(self):
        assert find_fixed_point_above([swap_0w()], ONE) == o("w*3")

    def test_needs_a_map(self):
        with pytest.raises(DomainError, match="need at least one map"):
            find_fixed_point_above([], ONE)

    def test_identity(self):
        assert find_fixed_point_above([identity()], Ordinal(5)) == OMEGA

    def test_crawl_through_fixed_gap(self):
        # support far above alpha: the single-step stretch collapses to w
        g = interval_swap(span(o("w*2"), o("w*3")), span(o("w*3"), o("w*4")))
        assert find_fixed_point_above([g], ONE) == OMEGA

    def test_crawl_interrupted_by_active_point(self):
        g = swap_points(Ordinal(5), o("w + 3"))
        assert find_fixed_point_above([g], ZERO) == o("w*2")

    def test_limit_witness_differs_from_least_fixed_point(self):
        g = swap_0w()
        assert fixed_points(g).least_geq(ONE) == o("w*2 + 1")
        assert find_fixed_point_above([g], ONE) == o("w*3")

    def test_contracts_random(self):
        rng = random.Random(20)
        for _ in range(40):
            gs = [random_homeo(rng) for _ in range(rng.randint(1, 3))]
            alpha = rng.choice(GRID)
            beta = find_fixed_point_above(gs, alpha)
            assert beta > alpha
            assert common_fixed_points(gs).contains(beta)


class TestStratification:
    def test_sup_image(self):
        g = swap_0w()
        assert sup_image(g, ONE) == OMEGA + 1
        assert sup_image(g, OMEGA + 1) == o("w*2")
        assert sup_image(g, o("w*2")) == o("w*2")
        assert sup_image(g, o("w^2")) == o("w^2")
        assert sup_image(IDENTITY, Ordinal(4)) == Ordinal(4)

    def test_invariant_prefix_example(self):
        assert invariant_prefix(swap_0w(), ONE) == o("w*2")
        assert invariant_prefix(IDENTITY, o("w + 5")) == o("w + 5")

    def test_invariant_prefix_acceleration(self):
        # the shift map needs the jump to its local solution at w
        g = shift_up_map()
        assert invariant_prefix(g, Ordinal(2)) == OMEGA
        assert invariant_point(g, Ordinal(2)) == o("w*2")

    def test_invariant_point_example(self):
        assert invariant_point(swap_points(Ordinal(3), Ordinal(7)), Ordinal(4)) == Ordinal(7)

    def test_minimality_on_grid(self):
        rng = random.Random(21)
        for _ in range(25):
            g = random_homeo(rng)
            alpha = rng.choice(GRID)
            star = invariant_prefix(g, alpha)
            assert sup_image(g, star) <= star and star >= alpha
            for x in GRID:
                if alpha <= x < star:
                    assert sup_image(g, x) > x
            star2 = invariant_point(g, alpha)
            ig = inverse(g)
            assert sup_image(g, star2) <= star2 and sup_image(ig, star2) <= star2
            for x in GRID:
                if alpha <= x < star2:
                    assert sup_image(g, x) > x or sup_image(ig, x) > x

    def test_restrict_to_initial(self):
        g = swap_0w()
        h = restrict_to_initial(g, o("w*2"))
        assert h == g
        alpha = invariant_point(g, ONE)
        h = restrict_to_initial(g, alpha)
        assert h.support <= alpha
        # [0, 1] is not invariant: a caller's error, not a broken invariant
        with pytest.raises(DomainError):
            restrict_to_initial(g, ONE)


class TestTextFormat:
    def test_round_trip(self):
        rng = random.Random(22)
        for _ in range(30):
            g = random_homeo(rng)
            assert parse_homeo(format_homeo(g)) == g

    def test_identity_round_trip(self):
        text = format_homeo(IDENTITY)
        assert "# identity" in text
        assert parse_homeo(text).is_identity

    def test_comments_and_order_insensitive(self):
        text = """
        # a swap, listed out of order
        (w, w*2] -> (0, w]
        [0, 0] -> [0, 0]
        (0, w] -> (w, w*2]
        """
        assert parse_homeo(text) == swap_0w()

    def test_parse_shares_equal_endpoints(self):
        g = parse_homeo(format_homeo(disjoint_swaps(random.Random(23), 40, OMEGA)))
        ends = [x for p in g.pieces for iv in (p.source, p.target)
                for x in (iv.start, iv.end)]
        assert len({id(x) for x in ends}) == len(set(ends)) < len(ends) / 3

    def test_interval_format(self):
        assert format_interval(initial(OMEGA)) == "[0, w]"
        assert format_interval(span(OMEGA, o("w*2"))) == "(w, w*2]"


# ---------------------------------------------------------------------------
# the write path on CNF keys against the bodies it replaced, which
# compared and added through the Ordinal operators, kept here as references


def piece_map_ref(src: ClopenInterval, tgt: ClopenInterval, x: Ordinal) -> Ordinal:
    return tgt.start + left_subtract(src.start, x)


def map_sub_ref(src: ClopenInterval, tgt: ClopenInterval, sub: ClopenInterval) -> ClopenInterval:
    if sub == src:
        return tgt
    return ClopenInterval(piece_map_ref(src, tgt, sub.start), piece_map_ref(src, tgt, sub.end))


def canonical_pass_ref(pieces) -> PwHomeo:
    """Merges every run of target-contiguous pieces, cuts the identity
    suffix off the last run and splits off the first point of an infinite
    piece starting at 0 on one side only."""
    ps = sorted(pieces, key=lambda p: p.source.start)
    runs = [ps[0]]
    for q in ps[1:]:
        p = runs[-1]
        if q.target.start == p.target.end:
            runs[-1] = Piece(ClopenInterval(p.source.start, q.source.end),
                             ClopenInterval(p.target.start, q.target.end))
        else:
            runs.append(q)
    p = runs[-1]
    s, c, e = p.source.start, p.target.start, p.source.end
    if p.target.end == e:
        if s == c:
            runs.pop()
        elif (cut := s + homeo._fix_threshold(p.source, p.target) + ONE) < e:
            runs[-1] = Piece(ClopenInterval(s, cut), ClopenInterval(c, cut))
    out = []
    for p in runs:
        a, c = p.source.start, p.target.start
        if a.is_zero != c.is_zero and not order_type(p.source).is_finite:
            a1, c1 = a + ONE, c + ONE
            out += [Piece(ClopenInterval(a, a1), ClopenInterval(c, c1)),
                    Piece(ClopenInterval(a1, p.source.end), ClopenInterval(c1, p.target.end))]
        else:
            out.append(p)
    return PwHomeo(tuple(out))


def check_tiling_ref(pieces, side: str) -> Ordinal:
    first = getattr(pieces[0], side)
    if not first.start.is_zero:
        raise ValidationError(f"{side}s do not cover 0 (no initial interval); first piece: "
                              f"{homeo._format_piece(pieces[0])}")
    end = first.end
    for p in pieces[1:]:
        iv = getattr(p, side)
        if iv.start != end:
            kind = "overlapping" if iv.start < end else "gap before"
            raise ValidationError(f"{kind} {side} interval in piece: {homeo._format_piece(p)}"
                                  f" (expected start {format_ordinal(_pred(end))})")
        end = iv.end
    return end


def build_ref(pieces) -> PwHomeo:
    ps = [p if isinstance(p, Piece) else Piece(*p) for p in pieces]
    for p in ps:
        a, b = order_type(p.source), order_type(p.target)
        if a != b:
            raise ValidationError(f"order type mismatch ({format_ordinal(a)} vs "
                                  f"{format_ordinal(b)}) in piece: {homeo._format_piece(p)}")
        if not a or rank(p.source.end) > ZERO or rank(p.target.end) > ZERO:
            raise ValidationError(f"empty interval or limit end in piece: {p!r}")
    if not ps:
        return IDENTITY
    by_target = sorted(ps, key=lambda p: p.target.start)
    ps.sort(key=lambda p: p.source.start)
    end_src = check_tiling_ref(ps, "source")
    end_tgt = check_tiling_ref(by_target, "target")
    if end_src != end_tgt:
        raise ValidationError(f"sources end at {format_ordinal(_pred(end_src))}"
                              f" but targets end at {format_ordinal(_pred(end_tgt))}")
    return canonical_pass_ref(ps)


def shuffled(pieces, rng: random.Random) -> list:
    ps = list(pieces)
    rng.shuffle(ps)
    return ps


def built_or_error(build_fn, pieces):
    """The map's pieces, or the error's type and message."""
    try:
        return build_fn(pieces).pieces
    except (DomainError, ValidationError) as err:
        return type(err), str(err)


def broken_piece_lists(g: PwHomeo, rng: random.Random):
    """g's pieces with one fault each of the kinds build reports: a piece
    dropped, doubled, stretched on one side, or reversed; the target at 0
    moved past the support; a piece appended past the support onto a taken
    target or with a gap; an empty piece; a piece with limit ends."""
    ps = list(g.pieces)
    k = rng.randrange(len(ps))
    p, end = ps[k], ps[-1].source.end
    t = order_type(p.target)
    yield ps[:k] + ps[k + 1:]
    z = next(q for q in ps if q.target.start.is_zero)
    moved = Piece(z.source, ClopenInterval(end, end + order_type(z.source)))
    yield [moved if q is z else q for q in ps]
    yield ps + [p]
    yield ps[:k] + [Piece(p.source, ClopenInterval(p.target.start, p.target.end + ONE))] + ps[k + 1:]
    yield ps + [Piece(ClopenInterval(p.source.end, p.source.start), p.target)]
    yield ps + [Piece(ClopenInterval(end, end + t), p.target)]
    yield ps + [Piece(ClopenInterval(end, end + ONE), ClopenInterval(end + ONE, end + 2))]
    x = rng.choice([ZERO, p.source.start, end])
    yield ps + [Piece(ClopenInterval(x, x), ClopenInterval(x, x))]
    yield ps + [Piece(ClopenInterval(ZERO, OMEGA), ClopenInterval(ZERO, OMEGA))]


BUILD_ERRORS = ["order type mismatch", "empty interval or limit end", "sources do not cover 0",
                "targets do not cover 0", "overlapping source", "overlapping target",
                "gap before source", "gap before target", "sources end at", "left_subtract"]


class TestWritePathOnKeys:
    def test_piece_map_and_map_sub_match_reference(self):
        rng = random.Random(42)
        for g in shape_maps():
            for p in g.pieces:
                src, tgt = p.source, p.target
                cuts = sorted({src.start, src.end} | {x + ONE for x in rng.sample(GRID, 12)
                                                      if src.contains(x)})
                for x in cuts:
                    assert homeo._piece_map(src, tgt, x) == piece_map_ref(src, tgt, x)
                for a, b in [*zip(cuts, cuts[1:]), (cuts[0], cuts[-2]), (cuts[1], cuts[-1])]:
                    if a < b:
                        sub = ClopenInterval(a, b)
                        assert homeo._map_sub(src, tgt, sub) == map_sub_ref(src, tgt, sub)

    def test_compose_matches_reference_on_shape_maps(self):
        rng = random.Random(43)
        maps = shape_maps()
        for _ in range(150):
            g, h = rng.choice(maps), rng.choice(maps)
            assert compose(g, h).pieces == compose_ref(g, h).pieces

    def test_canonical_and_build_match_reference_on_shuffled_pieces(self):
        rng = random.Random(44)
        maps = shape_maps()
        for g in maps + [compose(rng.choice(maps), rng.choice(maps)) for _ in range(60)]:
            for ps in (shuffled(g.pieces, rng), shuffled(split_refinement(g, rng), rng)):
                assert build(ps).pieces == build_ref(ps).pieces == g.pieces
                if ps:
                    assert homeo._canonical(ps).pieces == canonical_pass_ref(ps).pieces

    def test_build_errors_match_reference_byte_for_byte(self):
        rng = random.Random(45)
        w = OMEGA
        noncommuting = [(initial(ZERO), span(w, w + 1)), (span(ZERO, ONE), initial(ZERO)),
                        (span(ONE, w), span(ZERO, w))]  # 1 + 1 + w = w, 1 + w + 1 = w + 1
        lists = [[Piece(*p) for p in noncommuting]]
        lists += [ps for g in shape_maps() if not g.is_identity
                  for ps in broken_piece_lists(g, rng)]
        seen = set()
        for ps in lists:
            ps = shuffled(ps, rng)
            got = built_or_error(build, ps)
            assert got == built_or_error(build_ref, ps)
            if isinstance(got[0], type):
                seen |= {kind for kind in BUILD_ERRORS if got[1].startswith(kind)}
        assert seen == set(BUILD_ERRORS)


COMPARISONS = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")


def test_compose_and_build_compare_keys_not_ordinals(monkeypatch):
    # the bodies these replaced made 800-2700 Ordinal comparisons per call
    # on these maps; the write path compares CNF keys instead
    rng = random.Random(46)
    pairs = [(disjoint_swaps(rng, n, OMEGA), disjoint_swaps(rng, n, ONE)) for n in (16, 64, 256)]
    pairs += large_map_pairs(rng)
    inputs = [(g, h, shuffled(compose(g, h).pieces, rng)) for g, h in pairs]
    # tests/conftest.py checks every map _canonical returns, comparing Ordinals
    monkeypatch.setattr(homeo, "_canonical", homeo._canonical.__wrapped__)
    calls = []
    for name in COMPARISONS:
        def counting(self, other, dunder=getattr(Ordinal, name)):
            calls.append(dunder)
            return dunder(self, other)
        monkeypatch.setattr(Ordinal, name, counting)
    for g, h, pieces in inputs:
        calls.clear()
        compose(g, h)
        assert len(calls) <= 2, f"compose of {len(g.pieces)} and {len(h.pieces)} pieces"
        calls.clear()
        build(pieces)
        assert len(calls) <= 2, f"build of {len(pieces)} pieces"


# ---------------------------------------------------------------------------
# the piece algebra against the quadratic bodies it replaced, kept here
# as references


def extended_pieces_ref(g: PwHomeo, beta: Ordinal) -> list[Piece]:
    ps = list(g.pieces)
    if not ps:
        iv = initial(beta)
        return [Piece(iv, iv)]
    if g.support < beta:
        iv = span(g.support, beta)
        ps.append(Piece(iv, iv))
    return ps


def compose_ref(g: PwHomeo, h: PwHomeo) -> PwHomeo:
    """Intersects every target of h with every source of g."""
    if g.is_identity:
        return h
    if h.is_identity:
        return g
    beta = max(g.support, h.support)
    out = []
    for p in extended_pieces_ref(h, beta):
        for q in extended_pieces_ref(g, beta):
            overlap = homeo.interval_intersect(p.target, q.source)
            if overlap is None:
                continue
            src = map_sub_ref(p.target, p.source, overlap)
            tgt = map_sub_ref(q.source, q.target, overlap)
            out.append(Piece(src, tgt))
    return canonical_pass_ref(out)


def intersect_ref(s: OrdinalSet, t: OrdinalSet) -> OrdinalSet:
    """Intersects every interval of s with every interval of t."""
    parts = []
    for lo1, hi1 in s.intervals:
        for lo2, hi2 in t.intervals:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo <= hi:
                parts.append((lo, hi))
        if t.tail_from is not None:
            lo = max(lo1, t.tail_from + ONE)
            if lo <= hi1:
                parts.append((lo, hi1))
    if s.tail_from is not None:
        for lo2, hi2 in t.intervals:
            lo = max(lo2, s.tail_from + ONE)
            if lo <= hi2:
                parts.append((lo, hi2))
    tail = None
    if s.tail_from is not None and t.tail_from is not None:
        tail = max(s.tail_from, t.tail_from)
    return OrdinalSet.from_parts(parts, tail)


def disjoint_swaps(rng: random.Random, n_blocks: int, unit: Ordinal,
                   offset: Ordinal = ZERO) -> PwHomeo:
    """The product of interval_swaps pairing off the blocks
    ]offset + unit*k, offset + unit*(k + 1)], k < n_blocks, at random.
    The swaps are disjoint, so they commute and the product is built
    from their pieces directly."""
    blocks = [span(offset + unit * k, offset + unit * (k + 1)) for k in range(n_blocks)]
    order = rng.sample(range(n_blocks), n_blocks)
    pieces = [(initial(offset), initial(offset))]
    for a, b in zip(order[::2], order[1::2]):
        pieces += [(blocks[a], blocks[b]), (blocks[b], blocks[a])]
    if n_blocks % 2:
        pieces.append((blocks[order[-1]], blocks[order[-1]]))
    return build(pieces)


def large_map_pairs(rng: random.Random):
    """Pairs of maps of a few hundred pieces whose composition splits
    pieces: w-blocks against w*2-blocks offset by w, and against single
    points below w."""
    w_blocks = disjoint_swaps(rng, 240, OMEGA)
    yield w_blocks, disjoint_swaps(rng, 160, o("w*2"), OMEGA)
    yield disjoint_swaps(rng, 200, ONE), w_blocks
    yield disjoint_swaps(rng, 300, ONE), disjoint_swaps(rng, 280, ONE, Ordinal(7))


class TestLinearPieceAlgebra:
    def test_compose_matches_reference_on_random_maps(self):
        rng = random.Random(31)
        for _ in range(60):
            g, h = random_homeo(rng, max_moves=6), random_homeo(rng, max_moves=6)
            assert compose(g, h).pieces == compose_ref(g, h).pieces
            assert compose(h, g).pieces == compose_ref(h, g).pieces

    def test_compose_matches_reference_on_large_maps(self):
        for g, h in large_map_pairs(random.Random(32)):
            assert len(g.pieces) >= 150 and len(h.pieces) >= 150
            gh = compose(g, h)
            assert gh.pieces == compose_ref(g, h).pieces
            assert compose(h, g).pieces == compose_ref(h, g).pieces
            assert compose(inverse(h), inverse(g)) == inverse(gh)

    def test_compose_intersects_linearly(self, monkeypatch):
        g, h = next(large_map_pairs(random.Random(33)))
        handed = []
        canonical = homeo._canonical

        def counting(pieces):
            handed.append(len(pieces))
            return canonical(pieces)

        monkeypatch.setattr(homeo, "_canonical", counting)
        compose(g, h)
        # the padded piece lists hold at most len + len + 1 pieces, and
        # every step of the sweep emits one piece and moves past at least
        # one of them, the last step past both
        assert len(handed) == 1 and 0 < handed[0] <= len(g.pieces) + len(h.pieces)

    def test_intersect_matches_reference(self):
        # common_fixed_points walks every map's fixed runs at once; the
        # reference intersects the maps' fixed-point sets one by one
        rng = random.Random(34)
        maps = [random_homeo(rng, max_moves=6) for _ in range(20)]
        maps += [g for pair in large_map_pairs(rng) for g in pair]
        for _ in range(80):
            gs = rng.sample(maps, rng.randint(2, 3))
            want = fixed_points(gs[0])
            for g in gs[1:]:
                want = intersect_ref(want, fixed_points(g))
            got = common_fixed_points(gs)
            check_set_runs(got)
            assert got == want

    def test_fixed_runs_that_touch_are_merged(self):
        # A fixes its support point w*2, so its fixed run [w*2, w*2 + 1)
        # ends where its tail starts, and the walk yields (w*2, w*2 + 1)
        # and then (w*2 + 1, w*3 + 1): only _joined joins them
        a = parse_homeo("[0, 0] -> (w, w+1]\n(0, w] -> [0, w]\n(w, w*2] -> (w+1, w*2]\n")
        b = swap_points(o("w*3 + 1"), o("w*3 + 2"))
        runs = homeo._common_runs([homeo._runs(g, fixed=True) for g in (a, b)], ZERO)
        assert [(o("w*2"), o("w*2 + 1")), (o("w*2 + 1"), o("w*3 + 1"))] == list(runs)[1:3]
        common = common_fixed_points([a, b])
        check_set_runs(common)
        assert format_ordinal_set(common) == "{w} ∪ [w*2, w*3] ∪ (w*3 + 2, ∞)"
        assert common == intersect_ref(fixed_points(a), fixed_points(b))


# ---------------------------------------------------------------------------
# the one piece lookup against the per-piece scans it replaced, kept here
# as references


def piece_containing_ref(g: PwHomeo, x: Ordinal):
    for p in g.pieces:
        if p.source.contains(x):
            return p
    return None


def apply_ref(g: PwHomeo, x: Ordinal) -> Ordinal:
    p = piece_containing_ref(g, x)
    return x if p is None else piece_map_ref(p.source, p.target, x)


def sup_image_ref(g: PwHomeo, alpha: Ordinal) -> Ordinal:
    best = alpha if alpha > g.support else ZERO
    for p in g.pieces:
        if p.source.hi <= alpha:
            cand = p.target.hi
        elif p.source.contains(alpha):
            cand = piece_map_ref(p.source, p.target, alpha)
        else:
            continue
        best = max(best, cand)
    return best


def restrict_to_initial_ref(g: PwHomeo, alpha: Ordinal) -> PwHomeo:
    if alpha >= g.support:
        return g
    if sup_image_ref(g, alpha) > alpha or sup_image_ref(inverse(g), alpha) > alpha:
        raise DomainError("not invariant")
    kept = []
    for p in g.pieces:
        if p.source.hi <= alpha:
            kept.append(p)
        elif p.source.contains(alpha):
            sub = initial(alpha) if p.source.lo is None else span(p.source.lo, alpha)
            kept.append(Piece(sub, map_sub_ref(p.source, p.target, sub)))
    return build(kept)


def lookup_points(g: PwHomeo) -> list[Ordinal]:
    """Each piece's first and last point, the support and above it."""
    points = [x for p in g.pieces for x in (p.source.start, p.source.hi)]
    return points + [g.support, g.support + ONE, g.support + OMEGA]


def restricted_or_error(restrict, g: PwHomeo, alpha: Ordinal):
    try:
        return restrict(g, alpha)
    except DomainError:
        return DomainError


def lookup_maps():
    rng = random.Random(35)
    maps = [random_homeo(rng, max_moves=6) for _ in range(40)]
    return maps + [g for pair in large_map_pairs(rng) for g in pair]


class TestPieceLookup:
    def test_apply_and_sup_image_match_reference(self):
        maps = lookup_maps()
        assert max(len(g.pieces) for g in maps) >= 290
        for g in maps:
            for x in lookup_points(g):
                i = homeo._locate(g, x)
                assert (g.pieces[i] if i < len(g.pieces) else None) == piece_containing_ref(g, x)
                assert apply(g, x) == apply_ref(g, x)
                assert sup_image(g, x) == sup_image_ref(g, x)

    def test_restrict_to_initial_matches_reference(self):
        rng = random.Random(36)
        for g in lookup_maps():
            points = lookup_points(g)
            if len(points) > 40:  # each call inverts and rebuilds the map
                points = rng.sample(points, 40)
            points += [invariant_point(g, x) for x in points[:8]]
            for x in points:
                got = restricted_or_error(restrict_to_initial, g, x)
                assert got == restricted_or_error(restrict_to_initial_ref, g, x)

    def test_fixed_point_solvers_keep_their_contracts(self):
        # 400 random families of one to three maps through every solver
        rng = random.Random(37)
        for _ in range(400):
            gs = [random_homeo(rng) for _ in range(rng.randint(1, 3))]
            alpha = rng.choice(GRID)
            beta = find_fixed_point_above(gs, alpha)
            assert beta > alpha
            assert all(apply(g, beta) == beta for g in gs)
            assert common_fixed_points(gs).contains(beta)
            g = gs[0]
            ig = inverse(g)
            star = invariant_prefix(g, alpha)
            assert star >= alpha and sup_image(g, star) <= star
            star2 = invariant_point(g, alpha)
            assert star2 >= star
            assert sup_image(g, star2) <= star2 and sup_image(ig, star2) <= star2
            h = restrict_to_initial(g, star2)
            assert h.support <= star2
            for x in rng.sample(GRID, 20):
                assert apply(h, x) == (apply(g, x) if x <= star2 else x)


# ---------------------------------------------------------------------------
# the half-open piece algebra against the two-shape bodies it replaced,
# written on lo/hi ([0, hi] when lo is None, else ]lo, hi]) and kept here
# as references


def enum_index_ref(iv: homeo.ClopenInterval, i: Ordinal) -> Ordinal:
    x = i if iv.lo is None else iv.lo + (ONE + i)
    if x > iv.hi:
        raise DomainError("index out of range")
    return x


def index_of_ref(iv: homeo.ClopenInterval, t: Ordinal) -> Ordinal:
    assert iv.contains(t)
    if iv.lo is None:
        return t
    s = left_subtract(iv.lo, t)
    return Ordinal(int(s) - 1) if s.is_finite else s


def compatible_ref(src: homeo.ClopenInterval, tgt: homeo.ClopenInterval) -> bool:
    """Equal labels (hi + 1 for [0, hi], -lo + hi for ]lo, hi]), and
    finite when the piece is initial on one side only."""
    la, lb = ((iv.hi + ONE if iv.lo is None else left_subtract(iv.lo, iv.hi))
              for iv in (src, tgt))
    if la != lb:
        return False
    return la.is_finite or (src.lo is None) == (tgt.lo is None)


def canonical_ref(pieces) -> PwHomeo:
    """Merges target-contiguous neighbours while the labels agree, and
    re-splits a blocked merge into its first point plus the rest."""
    def extend(iv, hi):
        return initial(hi) if iv.lo is None else span(iv.lo, hi)

    ps = sorted(pieces, key=lambda p: p.source.hi)
    out = []
    block = ps[0]
    for q in ps[1:]:
        if q.target.lo is not None and q.target.lo == block.target.hi:
            src, tgt = extend(block.source, q.source.hi), extend(block.target, q.target.hi)
            if compatible_ref(src, tgt):
                block = Piece(src, tgt)
            elif src.lo is None:
                out.append(Piece(initial(ZERO), span(tgt.lo, tgt.lo + ONE)))
                block = Piece(span(ZERO, src.hi), span(tgt.lo + ONE, tgt.hi))
            else:
                out.append(Piece(span(src.lo, src.lo + ONE), initial(ZERO)))
                block = Piece(span(src.lo + ONE, src.hi), span(ZERO, tgt.hi))
            continue
        out.append(block)
        block = q
    out.append(block)
    while out and out[-1].source == out[-1].target:
        out.pop()
    assert all(compatible_ref(p.source, p.target) for p in out)
    return PwHomeo(tuple(out))


def fix_threshold_ref(src: homeo.ClopenInterval, tgt: homeo.ClopenInterval) -> Ordinal:
    if src.lo is None:
        return max(OMEGA, absorb_threshold(tgt.lo))
    if tgt.lo is None:
        return max(OMEGA, absorb_threshold(src.lo))
    return omega_pow(diff_exponent(src.lo, tgt.lo) + ONE)


def shape_maps() -> list[PwHomeo]:
    """Random maps, the rotations (infinite runs with a mixed head), the
    large swap products, and the inverses of all of them."""
    rng = random.Random(38)
    maps = [random_homeo(rng, max_moves=6) for _ in range(40)]
    maps += [rotation_map(s, t) for s in range(3) for t in range(3)]
    maps += [g for pair in large_map_pairs(rng) for g in pair]
    return maps + [inverse(g) for g in maps]


class TestOneIntervalShape:
    def test_piece_map_matches_reference(self):
        for g in shape_maps():
            for p in g.pieces:
                src, tgt = p.source, p.target
                for x in (src.start, src.hi):
                    i = index_of_ref(src, x)
                    assert index_of(src, x) == i
                    assert enum_index(tgt, i) == enum_index_ref(tgt, i)
                    assert homeo._piece_map(src, tgt, x) == enum_index_ref(tgt, i) == apply(g, x)
                assert homeo._piece_map(src, tgt, src.end) == tgt.end

    def test_fixed_point_thresholds_match_reference(self):
        mixed = 0
        for g in shape_maps():
            for p in g.pieces:
                mixed += (p.source.lo is None) != (p.target.lo is None)
                if p.source != p.target:
                    assert homeo._fix_threshold(p.source, p.target) == \
                        fix_threshold_ref(p.source, p.target)
        assert mixed >= 30

    def test_canonical_matches_reference_on_split_refinements(self):
        rng = random.Random(39)
        for g in shape_maps():
            if g.is_identity:
                continue
            pieces = split_refinement(g, rng)
            assert homeo._canonical(pieces) == canonical_ref(pieces) == g


# ---------------------------------------------------------------------------
# the inverse as its pieces with the sides swapped, against the canonical
# pass it replaced


def inverse_ref(g: PwHomeo) -> PwHomeo:
    if g.is_identity:
        return IDENTITY
    return canonical_pass_ref([Piece(p.target, p.source) for p in g.pieces])


class TestInverseIsTheSwap:
    def test_swapped_pieces_match_the_canonical_pass(self):
        rng = random.Random(41)
        maps = shape_maps()
        for n in range(1, 9):
            for _ in range(30):
                g = identity()
                for _ in range(n):
                    g = compose(random_move(rng), g)
                maps.append(g)
        small = maps[:40] + maps[-240:]
        maps += [compose(rng.choice(small), rng.choice(small)) for _ in range(300)]
        for g in maps:
            ig = inverse(g)
            assert ig == inverse_ref(g)
            assert inverse(ig) == g


# ---------------------------------------------------------------------------
# the closed-form fixed-point solvers against the capped iterations they
# replaced, kept here as references; a reference that reaches its cap
# returns None


ITERATION_CAP = 1000


def piece_local_fix_iter(p: Piece):
    """Least x in the piece from which the piece no longer pushes
    upward, or the piece end when there is no such interior point;
    None for pieces that never push upward."""
    src, tgt = p.source, p.target
    if not src.start < tgt.start:
        return None
    return min(src.start + homeo._fix_threshold(src, tgt), src.hi)


def invariant_prefix_iter(g: PwHomeo, alpha: Ordinal):
    """Iterates alpha -> sup_image, jumping over the interior of a
    driving piece straight to its local solution."""
    cur = alpha
    for _ in range(ITERATION_CAP):
        s = sup_image(g, cur)
        if s <= cur:
            return cur
        nxt = s
        i = homeo._locate(g, cur)
        if i < len(g.pieces) and cur < g.pieces[i].source.hi and homeo._image(g, i, cur) == s:
            jump = piece_local_fix_iter(g.pieces[i])
            if jump is not None and jump > nxt:
                nxt = jump
        cur = nxt
    return None


def invariant_point_iter(g: PwHomeo, alpha: Ordinal):
    ig = inverse(g)
    cur = alpha
    for _ in range(ITERATION_CAP):
        a1 = invariant_prefix_iter(g, cur)
        a2 = None if a1 is None else invariant_prefix_iter(ig, a1)
        if a2 is None or a2 == a1:
            return a2
        cur = a2
    return None


def least_active_above_iter(gs, invs, x: Ordinal):
    """Least y in ]x, x + w[ where the fixed-point iteration step map
    exceeds y: some g moves y up, or some g maps a point above y into
    [0, y] (seen through the inverse's full-piece pulls)."""
    bound = x + OMEGA
    best = None

    def offer(y: Ordinal):
        nonlocal best
        if x < y < bound and (best is None or y < best):
            best = y

    def pointwise_up(m: PwHomeo):
        for p in m.pieces:
            src, tgt = p.source, p.target
            if src.start < tgt.start:
                y = max(src.start, x + ONE)
                if y < src.end and y < src.start + homeo._fix_threshold(src, tgt):
                    offer(y)

    for g in gs:
        pointwise_up(g)
    for h in invs:
        pointwise_up(h)
        for p in h.pieces:
            if p.target.end > p.source.end:
                y = max(p.source.hi, x + ONE)
                if y < p.target.hi:
                    offer(y)
    return best


def find_fixed_point_above_iter(gs, alpha: Ordinal):
    """The closure iteration that alternately pushes a bound through
    every map and its inverse image, with stretches that advance by
    single steps collapsed symbolically to their limit."""
    invs = [inverse(g) for g in gs]
    beta = alpha
    for _ in range(ITERATION_CAP):
        s = beta
        for g, ig in zip(gs, invs):
            s = max(s, apply(g, beta), sup_image(ig, beta))
        if s == beta:
            y = least_active_above_iter(gs, invs, beta)
            if y is None:
                return beta + OMEGA
            beta = y
        else:
            beta = s + ONE
    return None


def fixed_points_loop(g: PwHomeo) -> OrdinalSet:
    """fixed_points as one loop over the pieces, each computing its
    threshold."""
    if g.is_identity:
        return OrdinalSet.from_parts([(ZERO, ZERO)], ZERO)
    parts = []
    for p in g.pieces:
        src, tgt = p.source, p.target
        x0 = src.start if src == tgt else src.start + homeo._fix_threshold(src, tgt)
        if x0 < src.end:
            parts.append((x0, src.hi))
    return OrdinalSet.from_parts(parts, g.support)


def point(x: int) -> homeo.ClopenInterval:
    return initial(ZERO) if x == 0 else span(Ordinal(x - 1), Ordinal(x))


class TestClosedFormSolvers:
    def test_invariant_solvers_match_the_iterations(self):
        rng = random.Random(42)
        checked = 0
        for g in shape_maps() + lookup_maps() + [swap_0w(), shift_up_map()]:
            points = lookup_points(g) + lookup_points(inverse(g))
            for x in rng.sample(points, min(len(points), 8)) + rng.sample(GRID, 3):
                for solve, ref in ((invariant_prefix, invariant_prefix_iter),
                                   (invariant_point, invariant_point_iter)):
                    want = ref(g, x)
                    if want is not None:
                        assert solve(g, x) == want
                        checked += 1
        assert checked >= 3000

    def test_fixed_point_above_matches_the_iteration(self):
        # families of one to three maps, random or drawn from the shape
        # and lookup maps, each map inverted three times in ten
        rng = random.Random(43)
        maps = shape_maps() + lookup_maps()
        checked = 0
        for _ in range(400):
            if rng.random() < 0.5:
                gs = [random_homeo(rng) for _ in range(rng.randint(1, 3))]
            else:
                gs = rng.sample(maps, rng.randint(1, 3))
            gs = [inverse(g) if rng.random() < 0.3 else g for g in gs]
            alpha = rng.choice(GRID)
            want = find_fixed_point_above_iter(gs, alpha)
            if want is not None:
                assert find_fixed_point_above(gs, alpha) == want
                checked += 1
        assert checked >= 390

    def test_fixed_points_match_the_piece_loop(self):
        maps = shape_maps() + lookup_maps() + [IDENTITY, swap_0w(), shift_up_map()]
        for g in maps + [inverse(g) for g in maps]:
            assert fixed_points(g) == fixed_points_loop(g)

    def test_a_long_cycle_has_no_iteration_cap(self):
        # 0 -> 2 -> ... -> 2200 -> 2201 -> 2199 -> ... -> 3 -> 1 -> 0: each
        # step of the capped iteration gained two points
        cycle = [*range(0, 2201, 2), *range(2201, 0, -2)]
        g = build((point(x), point(y)) for x, y in zip(cycle, cycle[1:] + cycle[:1]))
        assert len(g.pieces) == 2202
        assert invariant_prefix(g, ZERO) == Ordinal(2201)
        assert invariant_point(g, ZERO) == Ordinal(2201)

    def test_many_transpositions_have_no_iteration_cap(self):
        # (0 1)(2 3)...(4198 4199)
        g = build((point(x), point(x ^ 1)) for x in range(4200))
        assert len(g.pieces) == 4200
        assert find_fixed_point_above([g], ZERO) == OMEGA


# ---------------------------------------------------------------------------
# membership read off the run walk against the set scans it replaced,
# kept here as references


def meets_integers_from_ref(s: OrdinalSet, n: int) -> bool:
    """Does the set contain a finite value >= n?"""
    if s.tail_from is not None and s.tail_from < OMEGA:
        return True
    for lo, hi in s.intervals:
        if lo < OMEGA and max(lo, Ordinal(n)) <= hi:
            return True
    return False


def contains_ref(s: OrdinalSet, x: Ordinal) -> bool:
    if s.tail_from is not None and x > s.tail_from:
        return True
    return any(lo <= x <= hi for lo, hi in s.intervals)


class TestRunWalkMembership:
    def test_baire_membership_matches_the_set_scan(self):
        rng = random.Random(44)
        maps = [random_homeo(rng) for _ in range(150)]
        for g in maps + [inverse(g) for g in maps[:30]]:
            s = fixed_points(g)
            for n in range(1, 10):
                assert in_baire_T(g, n) == meets_integers_from_ref(s, n)

    @pytest.mark.parametrize("g,n,want", [
        # fixes nothing up to w*2
        (interval_swap(initial(OMEGA), span(OMEGA, o("w*2"))), 1, False),
        (interval_swap(initial(OMEGA), span(OMEGA, o("w*2"))), 5, False),
        (swap_points(Ordinal(3), OMEGA + 3), 3, True),  # moves 3, fixes 4
        (shift_up_map(), 2, False),  # moves every integer from 2 on, fixes w
        (IDENTITY, 1, True),
    ])
    def test_baire_membership_on_hand_built_maps(self, g, n, want):
        assert in_baire_T(g, n) is want
        assert meets_integers_from_ref(fixed_points(g), n) is want

    def test_contains_matches_the_scan(self):
        # the runs against the closed form the set stored before: the
        # same intervals and tail, printed form and queries
        rng = random.Random(45)
        joined = 0
        for _ in range(300):
            parts, tail = random_parts(rng)
            s = OrdinalSet.from_parts(parts, tail)
            check_set_runs(s)
            ivs, t = from_parts_ref(parts, tail)
            assert (s.intervals, s.tail_from) == (ivs, t)
            assert format_ordinal_set(s) == format_set_ref(ivs, t)
            assert s.has_cofinal_integers() == has_cofinal_integers_ref(ivs, t)
            for x in GRID:
                assert s.least_geq(x) == least_geq_ref(ivs, t, x)
                assert s.contains(x) == contains_ref(s, x)
            joined += len(s.runs) < len(parts) + (tail is not None)  # or an empty part dropped
        assert joined >= 100


# ---------------------------------------------------------------------------
# the closed-form set the runs replaced, kept here as a reference: closed
# pairs [lo, hi] merged on hi + 1, then clipped at a tail ]t, oo[


def from_parts_ref(parts, tail_from):
    """(intervals, tail_from) in the closed form."""
    ivs = sorted((lo, hi) for lo, hi in parts if lo <= hi)
    merged = []
    for lo, hi in ivs:
        if merged and lo <= merged[-1][1] + ONE:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    t = tail_from
    if t is not None:
        merged = [(lo, min(hi, t)) for lo, hi in merged if lo <= t]
        if merged and merged[-1][1] == t:
            lo = merged[-1][0]
            if classify(lo).kind == "successor":
                merged.pop()
                t = classify(lo).predecessor
            else:
                # lo is 0 or a limit: [lo, t] + ]t, oo[ = {lo} + ]lo, oo[
                merged[-1] = (lo, lo)
                t = lo
    return tuple(merged), t


def least_geq_ref(intervals, tail_from, alpha):
    best = None
    for lo, hi in intervals:
        if hi >= alpha:
            best = max(lo, alpha)
            break
    if tail_from is not None:
        cand = max(alpha, tail_from + ONE)
        if best is None or cand < best:
            best = cand
    return best


def has_cofinal_integers_ref(intervals, tail_from) -> bool:
    if tail_from is not None and tail_from < OMEGA:
        return True
    return any(lo < OMEGA <= hi for lo, hi in intervals)


def format_set_ref(intervals, tail_from) -> str:
    parts = [f"{{{format_ordinal(lo)}}}" if lo == hi
             else f"[{format_ordinal(lo)}, {format_ordinal(hi)}]" for lo, hi in intervals]
    if tail_from is not None:
        parts.append(f"({format_ordinal(tail_from)}, ∞)")
    return " ∪ ".join(parts) or "∅"


def random_parts(rng: random.Random):
    """Up to five closed pairs of grid points, some empty or single points,
    many touching or overlapping an earlier one, and a tail: none, at 0,
    at a successor or a limit of the grid, or at or inside a pair."""
    parts = []
    for _ in range(rng.randint(0, 5)):
        lo, hi = sorted(rng.sample(GRID, 2))
        if parts and rng.random() < 0.6:
            a, b = rng.choice(parts)
            lo = rng.choice([a, b, b + ONE, max(a, lo)])  # overlapping or touching
            hi = rng.choice([lo, hi, b + ONE])
        parts.append((lo, hi))
    ends = [x for part in parts for x in part]
    tails = [None, ZERO, rng.choice(GRID), OMEGA * rng.randint(1, 6), *ends[:1], *ends[-1:]]
    return parts, rng.choice(tails)


# ---------------------------------------------------------------------------
# element orders read off the cycles of the piece starts against the
# powering loop they replaced, kept here as a reference


def order_of_ref(g: PwHomeo, cap: int):
    """Least n >= 1 with g^n the identity, by composing powers of g, or
    None once n reaches the cap."""
    h = g
    n = 1
    while not h.is_identity:
        if n >= cap:
            return None
        h = compose(h, g)
        n += 1
    return n


def power(g: PwHomeo, n: int) -> PwHomeo:
    """g^n by repeated squaring."""
    out = IDENTITY
    while n:
        if n & 1:
            out = compose(out, g)
        g = compose(g, g)
        n >>= 1
    return out


def prime_factors(n: int) -> set[int]:
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    return out | ({n} if n > 1 else set())


def check_order(g: PwHomeo, n: int) -> None:
    """g^n is the identity and g^(n/p) is not, for every prime p dividing n."""
    assert power(g, n).is_identity
    for p in prime_factors(n):
        assert not power(g, n // p).is_identity


class TestOrderByCycles:
    def test_order_of_matches_the_powering(self):
        rng = random.Random(46)
        maps = [random_homeo(rng, max_moves=6) for _ in range(80)]
        maps += [compose(g, h) for g, h in zip(maps[::2], maps[1::2])]
        answered = 0
        for g in maps + [shift_up_map(), swap_0w()]:
            try:
                got = order_of(g)
            except ResourceError:
                got = None
            want = order_of_ref(g, 200)
            if want is None:  # the order is 200 or more, or infinite
                assert got is None or got >= 200
            else:
                assert got == want
                answered += 1
        assert answered > 100

    def test_large_orders_pass_the_power_check(self):
        rng = random.Random(47)
        maps = [compose(g, h) for g, h in large_map_pairs(rng)]
        maps.append(compose(maps[0], inverse(maps[1])))
        orders = [order_of(g) for g in maps]
        assert max(orders) > 10_000  # past the reference's reach
        for g, n in zip(maps, orders):
            check_order(g, n)

    def test_a_long_cycle(self):
        # 0 -> 2 -> ... -> 600 -> 601 -> 599 -> ... -> 3 -> 1 -> 0
        cycle = [*range(0, 601, 2), *range(601, 0, -2)]
        g = build((point(x), point(y)) for x, y in zip(cycle, cycle[1:] + cycle[:1]))
        assert order_of(g) == 602
        check_order(g, 602)
