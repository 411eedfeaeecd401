"""Finitely-piecewise homeomorphisms of ordinal segments.

A map is stored as finitely many pieces, each the unique order
isomorphism between two clopen intervals, with the source intervals
tiling an initial segment [0, support] and the target intervals tiling
the same segment; beyond the support the map is the identity.  This
class of maps is closed under composition and inverse, every member is
a homeomorphism (pieces are clopen), and membership is decidable.

Intervals come in two shapes: Initial(hi) = [0, hi] and
LeftOpen(lo, hi) = ]lo, hi].  Each interval carries an order-type
label (hi + 1 for initial intervals, the left difference hi - lo for
left-open ones) and a piece requires equal labels on both sides.  A
mixed piece, initial on one side only, is additionally required to be
finite: for infinite lengths the two shapes have different index sets,
so no order isomorphism exists even when the labels agree.

Fixed-point sets are computed exactly, as finite unions of closed
intervals plus an unbounded tail, via the absorption law
a + s = c + s  iff  s >= w^(diff_exponent(a, c) + 1).

`compose` of maps of n and m pieces costs O((n+m) log(n+m)) comparisons.
`apply`, `sup_image`, `invariant_prefix` and `restrict_to_initial` find
a point's piece through one linear scan, `_locate`, that stops there.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Optional, Sequence

from .errors import ContractError, DomainError, ParseError, ValidationError
from .ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    _Record,
    _set,
    _split_lines,
    absorb_threshold,
    classify,
    diff_exponent,
    format_ordinal,
    left_subtract,
    omega_pow,
    parse_ordinal,
    rank,
)

_ITERATION_CAP = 1000


# ---------------------------------------------------------------------------
# clopen intervals


class ClopenInterval(_Record):
    """[0, hi] when lo is None, else ]lo, hi]."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Optional[Ordinal], hi: Ordinal):
        if lo is not None and not lo < hi:
            raise DomainError(f"empty interval ({format_ordinal(lo)}, {format_ordinal(hi)}]")
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    @property
    def is_initial(self) -> bool:
        return self.lo is None

    def contains(self, x: Ordinal) -> bool:
        if self.lo is None:
            return x <= self.hi
        return self.lo < x <= self.hi

    @property
    def first(self) -> Ordinal:
        return ZERO if self.lo is None else self.lo + ONE


def initial(hi: Ordinal) -> ClopenInterval:
    return ClopenInterval(None, hi)


def span(lo: Ordinal, hi: Ordinal) -> ClopenInterval:
    return ClopenInterval(lo, hi)


def order_type_label(iv: ClopenInterval) -> Ordinal:
    """The label pieces must agree on: hi + 1 for [0, hi], hi - lo for
    ]lo, hi]."""
    if iv.lo is None:
        return iv.hi + ONE
    return left_subtract(iv.lo, iv.hi)


def enum_index(iv: ClopenInterval, i: Ordinal) -> Ordinal:
    """The i-th element of the interval.  Indices of ]lo, hi] are the
    shifted offsets 1 + i, so finite members sit at i = offset - 1 and
    infinite members at i = offset."""
    if iv.lo is None:
        if i > iv.hi:
            raise DomainError(f"index {format_ordinal(i)} out of range")
        return i
    x = iv.lo + (ONE + i)
    if x > iv.hi:
        raise DomainError(f"index {format_ordinal(i)} out of range")
    return x


def index_of(iv: ClopenInterval, t: Ordinal) -> Ordinal:
    """Inverse of enum_index."""
    if not iv.contains(t):
        raise DomainError(f"{format_ordinal(t)} is not in the interval")
    if iv.lo is None:
        return t
    s = left_subtract(iv.lo, t)
    if s.is_finite:
        return Ordinal(int(s) - 1)
    return s


def interval_intersect(a: ClopenInterval, b: ClopenInterval) -> Optional[ClopenInterval]:
    hi = min(a.hi, b.hi)
    if a.lo is None and b.lo is None:
        return initial(hi)
    if a.lo is None:
        lo = b.lo
    elif b.lo is None:
        lo = a.lo
    else:
        lo = max(a.lo, b.lo)
    return span(lo, hi) if lo < hi else None


# ---------------------------------------------------------------------------
# pieces


class Piece(_Record):
    __slots__ = ("source", "target")

    def __init__(self, source: ClopenInterval, target: ClopenInterval):
        _set(self, "source", source)
        _set(self, "target", target)


def _compatible(src: ClopenInterval, tgt: ClopenInterval) -> bool:
    la, lb = order_type_label(src), order_type_label(tgt)
    if la != lb:
        return False
    if src.is_initial != tgt.is_initial:
        # mixed pieces only exist at finite length; see module docstring
        return la.is_finite
    return True


def _piece_map(src: ClopenInterval, tgt: ClopenInterval, x: Ordinal) -> Ordinal:
    return enum_index(tgt, index_of(src, x))


def _map_sub(src: ClopenInterval, tgt: ClopenInterval,
             sub: ClopenInterval) -> ClopenInterval:
    """Image of a subinterval sub of src under the piece isomorphism."""
    if sub == src:
        return tgt
    hi2 = _piece_map(src, tgt, sub.hi)
    if sub.lo is None or (src.lo is not None and sub.lo == src.lo):
        # sub reaches to the bottom of src
        return initial(hi2) if tgt.is_initial else span(tgt.lo, hi2)
    lo2 = _piece_map(src, tgt, sub.lo)
    return span(lo2, hi2)


def _format_piece(p: Piece, unicode: bool = False) -> str:
    return f"{format_interval(p.source, unicode)} -> {format_interval(p.target, unicode)}"


# ---------------------------------------------------------------------------
# the maps


class PwHomeo(_Record):
    """Canonical form: pieces sorted by source, no mergeable neighbours,
    no trailing identity piece.  Build one with `build` (or the factory
    helpers); the constructor trusts its input."""

    __slots__ = ("pieces", "support")

    def __init__(self, pieces: tuple[Piece, ...], support: Ordinal):
        _set(self, "pieces", pieces)
        _set(self, "support", support)

    @property
    def is_identity(self) -> bool:
        return not self.pieces

    def __call__(self, x: Ordinal) -> Ordinal:
        return apply(self, x)


IDENTITY = PwHomeo((), ZERO)


def identity() -> PwHomeo:
    return IDENTITY


def _start_key(iv: ClopenInterval):
    """Orders intervals by their left end, [0, hi] first."""
    return (0, ZERO) if iv.is_initial else (1, iv.lo)


# On a tiling, the order of right ends is the order of left ends.
_source_hi = attrgetter("source.hi")


def _check_tiling(pieces: Sequence[Piece], side: str) -> Ordinal:
    """Intervals on one side must tile [0, beta]; returns beta."""
    ivs = sorted(((getattr(p, side), p) for p in pieces), key=lambda e: _start_key(e[0]))
    first_iv, first_p = ivs[0]
    if not first_iv.is_initial:
        raise ValidationError(
            f"{side}s do not cover 0 (no initial interval); first piece: {_format_piece(first_p)}")
    end = first_iv.hi
    for iv, p in ivs[1:]:
        if iv.is_initial:
            raise ValidationError(f"duplicate initial {side} in piece: {_format_piece(p)}")
        if iv.lo != end:
            kind = "overlapping" if iv.lo < end else "gap before"
            raise ValidationError(
                f"{kind} {side} interval in piece: {_format_piece(p)} (expected start {format_ordinal(end)})")
        end = iv.hi
    return end


def build(pieces: Iterable[Piece | tuple[ClopenInterval, ClopenInterval]]) -> PwHomeo:
    """Validate a piece list and return the canonical map it denotes."""
    ps = [p if isinstance(p, Piece) else Piece(*p) for p in pieces]
    for p in ps:
        if not _compatible(p.source, p.target):
            raise ValidationError(
                f"order type mismatch ({format_ordinal(order_type_label(p.source))} vs "
                f"{format_ordinal(order_type_label(p.target))}) in piece: {_format_piece(p)}")
    if not ps:
        return IDENTITY
    beta_src = _check_tiling(ps, "source")
    beta_tgt = _check_tiling(ps, "target")
    if beta_src != beta_tgt:
        raise ValidationError(
            f"sources end at {format_ordinal(beta_src)} but targets end at {format_ordinal(beta_tgt)}")
    return _canonical(ps)


def _extend_iv(iv: ClopenInterval, new_hi: Ordinal) -> ClopenInterval:
    return initial(new_hi) if iv.is_initial else span(iv.lo, new_hi)


def _resplit(src: ClopenInterval, tgt: ClopenInterval) -> tuple[Piece, Piece]:
    """Split a contiguous but label-incompatible merge (one side initial,
    infinite length) into its minimal head plus a valid remainder."""
    if src.is_initial:
        head = Piece(initial(ZERO), span(tgt.lo, tgt.lo + ONE))
        rest = Piece(span(ZERO, src.hi), span(tgt.lo + ONE, tgt.hi))
    else:
        head = Piece(span(src.lo, src.lo + ONE), initial(ZERO))
        rest = Piece(span(src.lo + ONE, src.hi), span(ZERO, tgt.hi))
    if not _compatible(rest.source, rest.target):  # pragma: no cover
        raise ContractError("resplit produced an incompatible remainder")
    return head, rest


def _canonical(pieces: Sequence[Piece]) -> PwHomeo:
    """Merge neighbours whose sources and targets are contiguous, trim
    the identity suffix.  Blocked merges (a finite mixed head absorbed
    into an infinite run) are re-split at the least admissible point, so
    extensionally equal maps reach identical piece lists."""
    ps = sorted(pieces, key=_source_hi)
    out: list[Piece] = []
    block = ps[0]
    for q in ps[1:]:
        if not q.target.is_initial and q.target.lo == block.target.hi:
            merged_src = _extend_iv(block.source, q.source.hi)
            merged_tgt = _extend_iv(block.target, q.target.hi)
            if _compatible(merged_src, merged_tgt):
                block = Piece(merged_src, merged_tgt)
                continue
            head, block = _resplit(merged_src, merged_tgt)
            out.append(head)
            continue
        out.append(block)
        block = q
    out.append(block)
    while out and out[-1].source == out[-1].target:
        out.pop()
    if __debug__:
        for p in out:
            assert _compatible(p.source, p.target), _format_piece(p)
    support = out[-1].source.hi if out else ZERO
    return PwHomeo(tuple(out), support)


def canonicalize(g: PwHomeo) -> PwHomeo:
    """Idempotent on maps produced by this module."""
    if not g.pieces:
        return IDENTITY
    return _canonical(g.pieces)


def _locate(g: PwHomeo, x: Ordinal) -> int:
    """Index of the piece whose source contains x; len(g.pieces) above
    the support.  The sources tile [0, support] in order, so it is the
    first piece whose source ends at or above x."""
    for i, p in enumerate(g.pieces):
        if x <= p.source.hi:
            return i
    return len(g.pieces)


def _image(g: PwHomeo, i: int, x: Ordinal) -> Ordinal:
    """g(x), given i = _locate(g, x)."""
    if i == len(g.pieces):
        return x
    p = g.pieces[i]
    return _piece_map(p.source, p.target, x)


def apply(g: PwHomeo, x: Ordinal) -> Ordinal:
    """g(x); the identity beyond the support.  Preserves rank."""
    return _image(g, _locate(g, x), x)


def _extended_pieces(g: PwHomeo, beta: Ordinal) -> list[Piece]:
    """g's pieces (g not the identity) padded to tile [0, beta]."""
    if g.support == beta:
        return list(g.pieces)
    iv = span(g.support, beta)
    return [*g.pieces, Piece(iv, iv)]


def compose(g: PwHomeo, h: PwHomeo) -> PwHomeo:
    """The map x -> g(h(x)), by one sweep over h's targets and g's sources."""
    if g.is_identity:
        return h
    if h.is_identity:
        return g
    beta = max(g.support, h.support)
    hp = sorted(_extended_pieces(h, beta), key=attrgetter("target.hi"))
    gp = _extended_pieces(g, beta)
    out = []
    i = j = 0
    while i < len(hp) and j < len(gp):
        p, q = hp[i], gp[j]
        overlap = interval_intersect(p.target, q.source)
        if overlap is not None:
            src = _map_sub(p.target, p.source, overlap)
            tgt = _map_sub(q.source, q.target, overlap)
            out.append(Piece(src, tgt))
        if p.target.hi <= q.source.hi:
            i += 1
        if q.source.hi <= p.target.hi:
            j += 1
    return _canonical(out)


def inverse(g: PwHomeo) -> PwHomeo:
    if g.is_identity:
        return IDENTITY
    return _canonical([Piece(p.target, p.source) for p in g.pieces])


def order_of(g: PwHomeo, cap: int = 10_000) -> Optional[int]:
    """Least n >= 1 with g^n the identity, or None past the cap."""
    h = g
    n = 1
    while not h.is_identity:
        if n >= cap:
            return None
        h = compose(h, g)
        n += 1
    return n


def interval_swap(i: ClopenInterval, j: ClopenInterval) -> PwHomeo:
    """Exchange two disjoint intervals of equal order type, identity
    elsewhere (identity filler pieces are generated automatically)."""
    if interval_intersect(i, j) is not None:
        raise DomainError(
            f"intervals overlap: {format_interval(i)} and {format_interval(j)}")
    if order_type_label(i) != order_type_label(j) or not _compatible(i, j):
        raise DomainError(
            f"order type mismatch: {format_interval(i)} vs {format_interval(j)}")
    lower, upper = sorted([i, j], key=_start_key)
    pieces = [Piece(i, j), Piece(j, i)]
    if not lower.is_initial:
        pieces.append(Piece(initial(lower.lo), initial(lower.lo)))
    if lower.hi < upper.lo:
        gap = span(lower.hi, upper.lo)
        pieces.append(Piece(gap, gap))
    return build(pieces)


def swap_points(x: Ordinal, y: Ordinal) -> PwHomeo:
    """The transposition of two isolated (rank 0) points."""
    if x == y:
        raise DomainError("cannot swap a point with itself")
    for p in (x, y):
        if rank(p) != ZERO:
            raise DomainError(f"{format_ordinal(p)} is not isolated (rank > 0)")

    def singleton(p: Ordinal) -> ClopenInterval:
        if p.is_zero:
            return initial(ZERO)
        return span(classify(p).predecessor, p)

    return interval_swap(singleton(x), singleton(y))


# ---------------------------------------------------------------------------
# symbolic sets of ordinals


class OrdinalSet(_Record):
    """Finite union of closed intervals [lo, hi] (points are degenerate
    intervals) plus an optional unbounded tail ]tail_from, oo[.
    Construct through from_parts, which normalizes."""

    __slots__ = ("intervals", "tail_from")

    def __init__(self, intervals: tuple[tuple[Ordinal, Ordinal], ...],
                 tail_from: Optional[Ordinal]):
        _set(self, "intervals", intervals)
        _set(self, "tail_from", tail_from)

    @staticmethod
    def from_parts(parts: Iterable[tuple[Ordinal, Ordinal]],
                   tail_from: Optional[Ordinal]) -> "OrdinalSet":
        ivs = sorted((lo, hi) for lo, hi in parts if lo <= hi)
        merged: list[tuple[Ordinal, Ordinal]] = []
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
                cls = classify(lo)
                if cls.kind == "successor":
                    merged.pop()
                    t = cls.predecessor
                else:
                    # lo is 0 or a limit: [lo, t] + ]t, oo[ = {lo} + ]lo, oo[
                    merged[-1] = (lo, lo)
                    t = lo
        return OrdinalSet(tuple(merged), t)

    def contains(self, x: Ordinal) -> bool:
        if self.tail_from is not None and x > self.tail_from:
            return True
        return any(lo <= x <= hi for lo, hi in self.intervals)

    def is_empty(self) -> bool:
        return not self.intervals and self.tail_from is None

    def intersect(self, other: "OrdinalSet") -> "OrdinalSet":
        a, b = self.intervals, other.intervals
        parts: list[tuple[Ordinal, Ordinal]] = []
        i = j = 0
        while i < len(a) and j < len(b):
            (lo1, hi1), (lo2, hi2) = a[i], b[j]
            parts.append((max(lo1, lo2), min(hi1, hi2)))  # from_parts drops empty ones
            if hi1 <= hi2:
                i += 1
            else:
                j += 1
        for ivs, t in ((a, other.tail_from), (b, self.tail_from)):
            if t is not None:
                parts += [(max(lo, t + ONE), hi) for lo, hi in ivs]
        tail = None
        if self.tail_from is not None and other.tail_from is not None:
            tail = max(self.tail_from, other.tail_from)
        return OrdinalSet.from_parts(parts, tail)

    def least_geq(self, alpha: Ordinal) -> Optional[Ordinal]:
        """Least member >= alpha; None only for sets with no member
        there (a set with a tail always has one)."""
        best: Optional[Ordinal] = None
        for lo, hi in self.intervals:
            if hi >= alpha:
                best = max(lo, alpha)
                break
        if self.tail_from is not None:
            cand = max(alpha, self.tail_from + ONE)
            if best is None or cand < best:
                best = cand
        return best

    def meets_integers_from(self, n: int) -> bool:
        """Does the set contain a finite value >= n?"""
        if self.tail_from is not None and self.tail_from < OMEGA:
            return True
        for lo, hi in self.intervals:
            if lo < OMEGA and max(lo, Ordinal(n)) <= hi:
                return True
        return False

    def has_cofinal_integers(self) -> bool:
        """Arbitrarily large finite members?"""
        if self.tail_from is not None and self.tail_from < OMEGA:
            return True
        return any(lo < OMEGA <= hi for lo, hi in self.intervals)


def format_ordinal_set(s: OrdinalSet, unicode: bool = False) -> str:
    if s.is_empty():
        return "∅"
    parts = []
    for lo, hi in s.intervals:
        if lo == hi:
            parts.append(f"{{{format_ordinal(lo, unicode)}}}")
        else:
            parts.append(f"[{format_ordinal(lo, unicode)}, {format_ordinal(hi, unicode)}]")
    if s.tail_from is not None:
        parts.append(f"({format_ordinal(s.tail_from, unicode)}, ∞)")
    return " ∪ ".join(parts)


# ---------------------------------------------------------------------------
# fixed points


def _fix_threshold(src: ClopenInterval, tgt: ClopenInterval) -> Ordinal:
    """Least shifted offset s at which the piece fixes its points.  For
    mixed (finite) pieces the result exceeds the piece, yielding an
    empty contribution."""
    if src.is_initial:
        return max(OMEGA, absorb_threshold(tgt.lo))
    if tgt.is_initial:
        return max(OMEGA, absorb_threshold(src.lo))
    d = diff_exponent(src.lo, tgt.lo)
    assert d is not None
    return omega_pow(d + ONE)


def fixed_points(g: PwHomeo) -> OrdinalSet:
    """The exact fixed-point set, always containing the tail beyond the
    support (so it is closed, and unbounded at every scale)."""
    if g.is_identity:
        # everything: the degenerate interval {0} plus the tail past 0
        return OrdinalSet.from_parts([(ZERO, ZERO)], ZERO)
    parts = []
    for p in g.pieces:
        if p.source == p.target:
            parts.append((p.source.first, p.source.hi))
            continue
        theta = _fix_threshold(p.source, p.target)
        x0 = theta if p.source.is_initial else p.source.lo + theta
        if x0 <= p.source.hi:
            parts.append((x0, p.source.hi))
    return OrdinalSet.from_parts(parts, g.support)


def common_fixed_points(gs: Sequence[PwHomeo]) -> OrdinalSet:
    if not gs:
        raise DomainError("need at least one map")
    result = fixed_points(gs[0])
    for g in gs[1:]:
        result = result.intersect(fixed_points(g))
    return result


def sup_image(g: PwHomeo, alpha: Ordinal) -> Ordinal:
    """Exact supremum (in fact maximum) of g([0, alpha]): the image of
    alpha or the end of a target lying wholly below it."""
    i = _locate(g, alpha)
    return max([_image(g, i, alpha)] + [p.target.hi for p in g.pieces[:i]])


def _piece_local_fix(p: Piece) -> Optional[Ordinal]:
    """Least x in the piece from which the piece no longer pushes
    upward, or the piece end when there is no such interior point;
    None for pieces that never push upward."""
    src, tgt = p.source, p.target
    if src == tgt:
        return None
    if src.is_initial and not tgt.is_initial:
        return src.hi
    if src.is_initial or tgt.is_initial or tgt.lo < src.lo:
        return None
    return min(src.lo + _fix_threshold(src, tgt), src.hi)


def invariant_prefix(g: PwHomeo, alpha: Ordinal) -> Ordinal:
    """Least alpha* >= alpha with g([0, alpha*]) contained in
    [0, alpha*].  Iterates alpha -> sup_image, jumping over the interior
    of a driving piece straight to its local solution."""
    cur = alpha
    for _ in range(_ITERATION_CAP):
        s = sup_image(g, cur)
        if s <= cur:
            return cur
        nxt = s
        i = _locate(g, cur)
        if i < len(g.pieces) and cur < g.pieces[i].source.hi and _image(g, i, cur) == s:
            jump = _piece_local_fix(g.pieces[i])
            if jump is not None and jump > nxt:
                nxt = jump
        cur = nxt
    raise ContractError("invariant_prefix failed to stabilise")


def invariant_point(g: PwHomeo, alpha: Ordinal) -> Ordinal:
    """Least alpha* >= alpha with g([0, alpha*]) = [0, alpha*]."""
    ig = inverse(g)
    cur = alpha
    for _ in range(_ITERATION_CAP):
        a1 = invariant_prefix(g, cur)
        a2 = invariant_prefix(ig, a1)
        if a2 == a1:
            return a1
        cur = a2
    raise ContractError("invariant_point failed to stabilise")


def _least_active_above(gs: Sequence[PwHomeo], invs: Sequence[PwHomeo],
                        x: Ordinal) -> Optional[Ordinal]:
    """Least y in ]x, x + w[ where the fixed-point iteration step map
    exceeds y: some g moves y up, or some g maps a point above y into
    [0, y] (seen through the inverse's full-piece pulls)."""
    bound = x + OMEGA
    best: Optional[Ordinal] = None

    def offer(y: Optional[Ordinal]):
        nonlocal best
        if y is not None and x < y < bound and (best is None or y < best):
            best = y

    def pointwise_up(m: PwHomeo):
        for p in m.pieces:
            src, tgt = p.source, p.target
            if src == tgt:
                continue
            if src.is_initial and not tgt.is_initial:
                y = x + ONE
                if y <= src.hi:
                    offer(y)
            elif not src.is_initial and not tgt.is_initial and tgt.lo > src.lo:
                y = max(src.lo, x) + ONE
                if y <= src.hi and y < src.lo + _fix_threshold(src, tgt):
                    offer(y)

    for g in gs:
        pointwise_up(g)
    for h in invs:
        pointwise_up(h)
        for p in h.pieces:
            if p.target.hi > p.source.hi:
                y = max(p.source.hi, x + ONE)
                if y < p.target.hi:
                    offer(y)
    return best


def find_fixed_point_above(gs: Sequence[PwHomeo], alpha: Ordinal) -> Ordinal:
    """A common fixed point strictly above alpha: the limit of the
    closure iteration that alternately pushes a bound through every map
    and its inverse image.  Stretches of the iteration that advance by
    single steps are collapsed symbolically to their limit."""
    if not gs:
        raise DomainError("need at least one map")
    invs = [inverse(g) for g in gs]
    beta = alpha
    for _ in range(_ITERATION_CAP):
        s = beta
        for g, ig in zip(gs, invs):
            s = max(s, apply(g, beta), sup_image(ig, beta))
        if s == beta:
            y = _least_active_above(gs, invs, beta)
            if y is None:
                return beta + OMEGA
            beta = y
        else:
            beta = s + ONE
    raise ContractError("fixed-point iteration failed to stabilise")


def restrict_to_initial(g: PwHomeo, alpha: Ordinal) -> PwHomeo:
    """g on [0, alpha] extended by the identity; alpha must satisfy
    g([0, alpha]) = [0, alpha]."""
    if alpha >= g.support:
        return g
    if sup_image(g, alpha) > alpha or sup_image(inverse(g), alpha) > alpha:
        raise ContractError(f"[0, {format_ordinal(alpha)}] is not invariant")
    i = _locate(g, alpha)
    p = g.pieces[i]
    sub = _extend_iv(p.source, alpha)
    return build([*g.pieces[:i], Piece(sub, _map_sub(p.source, p.target, sub))])


# ---------------------------------------------------------------------------
# text format
#
#   piece    := interval "->" interval        (one per line)
#   interval := "[0," ordexpr "]" | "(" ordexpr "," ordexpr "]"
#
# Lines beginning with "#" are comments.  Pieces may appear in any
# order; parsing sorts and validates.  Output is canonical and ends
# with a "# support" comment line.


def format_interval(iv: ClopenInterval, unicode: bool = False) -> str:
    if iv.is_initial:
        return f"[0, {format_ordinal(iv.hi, unicode)}]"
    return f"({format_ordinal(iv.lo, unicode)}, {format_ordinal(iv.hi, unicode)}]"


def parse_interval(text: str) -> ClopenInterval:
    s = text.strip()
    if not s or s[0] not in "[(" or not s.endswith("]"):
        raise ParseError(f"malformed interval {text!r}")
    inner = s[1:-1]
    if inner.count(",") != 1:
        raise ParseError(f"malformed interval {text!r}")
    left, right = inner.split(",")
    lo = parse_ordinal(left)
    hi = parse_ordinal(right)
    if s[0] == "[":
        if not lo.is_zero:
            raise ParseError(f"closed interval must start at 0: {text!r}")
        return initial(hi)
    return span(lo, hi)


def format_homeo(g: PwHomeo, unicode: bool = False) -> str:
    lines = [_format_piece(p, unicode) for p in g.pieces]
    if not lines:
        lines.append("# identity")
    lines.append(f"# support {format_ordinal(g.support, unicode)}")
    return "\n".join(lines) + "\n"


def parse_homeo(text: str) -> PwHomeo:
    ends: dict = {}  # one object per endpoint value, which bounds up to four intervals
    ivs = [ClopenInterval(*(x and ends.setdefault(x, x) for x in (iv.lo, iv.hi)))
           for _, left, right in _split_lines(text, "->", "'interval -> interval'")
           for iv in (parse_interval(left), parse_interval(right))]
    return build(zip(ivs[::2], ivs[1::2]))
