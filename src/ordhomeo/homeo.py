"""Finitely-piecewise homeomorphisms of ordinal segments.

A map is stored as finitely many pieces, each the unique order
isomorphism between two clopen intervals, with the source intervals
tiling an initial segment [0, support] and the target intervals tiling
the same segment; beyond the support the map is the identity.  This
class of maps is closed under composition and inverse, every member is
a homeomorphism (pieces are clopen), and membership is decidable.

Every interval is stored half-open, as [start, end): [0, hi] is
[0, hi + 1) and ]lo, hi] is [lo + 1, hi + 1), the two forms the text
format prints, which `initial` and `span` check; `ClopenInterval(start,
end)` trusts its ends.  [a, b) has order type -a + b, both sides of a
piece have the same one, and the piece [a, .) -> [c, .) is x -> c + (-a + x).
The canonical form merges every run of target-contiguous pieces, cuts
the identity suffix off the last, and writes a piece starting at 0 on
one side only and of infinite order type as its first point plus the rest.

Fixed-point sets are computed exactly, as the walk's half-open runs
(below), via the absorption law for the starts a, c of a piece:
a + s = c + s  iff  s >= w^(diff_exponent(a, c) + 1).

`compose` of maps of n and m pieces costs O((n+m) log(n+m)) comparisons,
`inverse` of n pieces one sort, O(n log n), with no canonical pass.
`apply`, `sup_image` and `restrict_to_initial` find a point's piece
through one linear scan, `_locate`, that stops there.  Every fixed-point
and invariant-set query reads one walk instead, `_common_runs`: each
map's runs (`_runs`, the points of each piece that meet one closed-form
condition; those of `inverse(g)` where the query needs g^-1) read
lazily, in order, as half-open runs [lo, end) like every interval, and
met with the other maps' runs.
"""

from __future__ import annotations

from math import lcm
from operator import attrgetter, itemgetter
from typing import Iterable, Optional, Sequence

from .errors import DomainError, ParseError, ResourceError, ValidationError
from .ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    _at,
    _make,
    _pred,
    _Record,
    _set,
    _split_lines,
    diff_exponent,
    format_ordinal,
    left_subtract,
    omega_pow,
    parse_ordinal,
    rank,
)

ORDER_CAP = 10_000  # most cells `order_of` follows

# ---------------------------------------------------------------------------
# clopen intervals


class ClopenInterval(_Record):
    """[start, end): start is 0 or a successor, end a larger successor.
    Build one from the closed form with `initial` or `span`."""

    __slots__ = ("start", "end")

    def __init__(self, start: Ordinal, end: Ordinal):
        _set(self, "start", start)
        _set(self, "end", end)

    @property
    def lo(self) -> Optional[Ordinal]:
        return None if self.start.is_zero else _pred(self.start)

    @property
    def hi(self) -> Ordinal:
        return _pred(self.end)

    def contains(self, x: Ordinal) -> bool:
        return self.start <= x < self.end

    def __reduce__(self):  # through span's check for an empty interval
        return (span, (self.lo, self.hi)) if self.start else (initial, (self.hi,))


def initial(hi: Ordinal) -> ClopenInterval:
    return ClopenInterval(ZERO, hi + ONE)


def span(lo: Ordinal, hi: Ordinal) -> ClopenInterval:
    if not lo < hi:
        raise DomainError(f"empty interval ({format_ordinal(lo)}, {format_ordinal(hi)}]")
    return ClopenInterval(lo + ONE, hi + ONE)


def order_type(iv: ClopenInterval) -> Ordinal:
    """-start + end, the order type of [start, end)."""
    return left_subtract(iv.start, iv.end)


def enum_index(iv: ClopenInterval, i: Ordinal) -> Ordinal:
    """The i-th element of the interval, start + i."""
    x = iv.start + i
    if x >= iv.end:
        raise DomainError(f"index {format_ordinal(i)} out of range")
    return x


def index_of(iv: ClopenInterval, t: Ordinal) -> Ordinal:
    """Inverse of enum_index."""
    if not iv.contains(t):
        raise DomainError(f"{format_ordinal(t)} is not in the interval")
    return left_subtract(iv.start, t)


def interval_intersect(a: ClopenInterval, b: ClopenInterval) -> Optional[ClopenInterval]:
    start, end = max(a.start, b.start), min(a.end, b.end)
    return ClopenInterval(start, end) if start < end else None


# ---------------------------------------------------------------------------
# pieces


class Piece(_Record):
    __slots__ = ("source", "target")

    def __init__(self, source: ClopenInterval, target: ClopenInterval):
        _set(self, "source", source)
        _set(self, "target", target)


def _piece_map(src: ClopenInterval, tgt: ClopenInterval, x: Ordinal) -> Ordinal:
    """x's image, for x in src or x = src.end, which goes to tgt.end."""
    return tgt.start + left_subtract(src.start, x)


def _map_sub(src: ClopenInterval, tgt: ClopenInterval,
             sub: ClopenInterval) -> ClopenInterval:
    """Image of a subinterval sub of src under the piece isomorphism."""
    if sub == src:
        return tgt
    return ClopenInterval(_piece_map(src, tgt, sub.start), _piece_map(src, tgt, sub.end))


def _format_piece(p: Piece, unicode: bool = False) -> str:
    return f"{format_interval(p.source, unicode)} -> {format_interval(p.target, unicode)}"


# ---------------------------------------------------------------------------
# the maps


class PwHomeo(_Record):
    """Canonical form: pieces sorted by source, no mergeable neighbours,
    no trailing identity piece.  Build one with `build` (or the factory
    helpers); the constructor trusts its input, while `canonicalize` and
    unpickling go through `build`."""

    __slots__ = ("pieces", "support")

    def __init__(self, pieces: tuple[Piece, ...], support: Ordinal):
        _set(self, "pieces", pieces)
        _set(self, "support", support)

    def __reduce__(self):
        return build, (self.pieces,)

    @property
    def is_identity(self) -> bool:
        return not self.pieces

    def __call__(self, x: Ordinal) -> Ordinal:
        return apply(self, x)


IDENTITY = PwHomeo((), ZERO)


def identity() -> PwHomeo:
    return IDENTITY


# Sort keys: the CNF key of a side's start, which sorts as the ordinal
# does, compared in C.  On a tiling, the order of starts is that of ends.
_by_source = attrgetter("source.start._key")
_by_target = attrgetter("target.start._key")


def _check_tiling(pieces: Sequence[Piece], side: str) -> Ordinal:
    """Pieces sorted on one side must tile [0, beta] there; returns beta + 1."""
    first = getattr(pieces[0], side)
    if not first.start.is_zero:
        raise ValidationError(
            f"{side}s do not cover 0 (no initial interval); first piece: {_format_piece(pieces[0])}")
    end = first.end
    for p in pieces[1:]:
        iv = getattr(p, side)
        if iv.start.is_zero:
            raise ValidationError(f"duplicate initial {side} in piece: {_format_piece(p)}")
        if iv.start != end:
            kind = "overlapping" if iv.start < end else "gap before"
            raise ValidationError(f"{kind} {side} interval in piece: {_format_piece(p)}"
                                  f" (expected start {format_ordinal(_pred(end))})")
        end = iv.end
    return end


def build(pieces: Iterable[Piece | tuple[ClopenInterval, ClopenInterval]]) -> PwHomeo:
    """Validate a piece list and return the canonical map it denotes."""
    ps = [p if isinstance(p, Piece) else Piece(*p) for p in pieces]
    for p in ps:
        a, b = order_type(p.source), order_type(p.target)
        if a != b:
            raise ValidationError(f"order type mismatch ({format_ordinal(a)} vs "
                                  f"{format_ordinal(b)}) in piece: {_format_piece(p)}")
        if not a or p.source.end._key[-1][0] or p.target.end._key[-1][0]:  # starts: by the tiling
            raise ValidationError(f"empty interval or limit end in piece: {p!r}")
    if not ps:
        return IDENTITY
    by_target = sorted(ps, key=_by_target)
    ps.sort(key=_by_source)
    end_src = _check_tiling(ps, "source")
    end_tgt = _check_tiling(by_target, "target")
    if end_src != end_tgt:
        raise ValidationError(f"sources end at {format_ordinal(_pred(end_src))}"
                              f" but targets end at {format_ordinal(_pred(end_tgt))}")
    return _canonical(ps)


def _canonical(pieces: Sequence[Piece]) -> PwHomeo:
    """Merge every run of target-contiguous pieces (adjacent order
    isomorphisms unite to one), cut the identity suffix off the last run
    (if [s, e) -> [c, e), it fixes [s + _fix_threshold, e), all if s = c),
    and split off the first point of an infinite piece starting at 0 on
    one side only, so extensionally equal maps reach identical pieces."""
    ps = sorted(pieces, key=_by_source)
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
        elif (cut := s + _fix_threshold(p.source, p.target) + ONE) < e:
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
    support = _pred(out[-1].source.end) if out else ZERO
    return PwHomeo(tuple(out), support)


def canonicalize(g: PwHomeo) -> PwHomeo:
    """g's pieces validated and canonicalized by `build`."""
    return build(g.pieces)


def _locate(g: PwHomeo, x: Ordinal) -> int:
    """Index of the first piece whose source ends above x, which contains
    x as the sources tile [0, support] in order; len(g.pieces) above it."""
    for i, p in enumerate(g.pieces):
        if x < p.source.end:
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


def _extended_pieces(g: PwHomeo, end: Ordinal) -> list[Piece]:
    """g's pieces (g not the identity) padded to tile [0, end)."""
    last = g.pieces[-1].source.end
    if last == end:
        return list(g.pieces)
    iv = ClopenInterval(last, end)
    return [*g.pieces, Piece(iv, iv)]


def compose(g: PwHomeo, h: PwHomeo) -> PwHomeo:
    """The map x -> g(h(x)), by one sweep over h's targets and g's sources."""
    if g.is_identity:
        return h
    if h.is_identity:
        return g
    end = max(g.pieces[-1].source.end, h.pieces[-1].source.end)
    hp = sorted(_extended_pieces(h, end), key=_by_target)
    gp = _extended_pieces(g, end)
    out = []
    i = j = 0
    while i < len(hp) and j < len(gp):
        p, q = hp[i], gp[j]
        overlap = interval_intersect(p.target, q.source)
        if overlap is not None:
            src = _map_sub(p.target, p.source, overlap)
            tgt = _map_sub(q.source, q.target, overlap)
            out.append(Piece(src, tgt))
        if p.target.end <= q.source.end:
            i += 1
        if q.source.end <= p.target.end:
            j += 1
    return _canonical(out)


def inverse(g: PwHomeo) -> PwHomeo:
    """g's pieces with the sides swapped, in target order.  The merge,
    cut and split rules of the canonical form treat the two sides the
    same way, so the swap of a canonical map is canonical as it stands."""
    return PwHomeo(tuple(Piece(p.target, p.source) for p in sorted(g.pieces, key=_by_target)),
                   g.support)


def order_of(g: PwHomeo) -> int:
    """Least n >= 1 with g^n the identity: the lcm of the cycle lengths of
    the pieces' starts.  Their orbits cut [0, support] into cells that g
    permutes, and a cell's only order automorphism is the identity.  An
    orbit may never close: past ORDER_CAP cells this raises ResourceError."""
    n, seen = 1, set()
    for p in g.pieces:  # a target's start is in the orbit of its source's
        x, known = p.source.start, len(seen)
        while x not in seen:  # a new orbit, which closes at its start
            if len(seen) == ORDER_CAP:
                raise ResourceError(f"an orbit did not close within {ORDER_CAP} cells")
            seen.add(x)
            x = apply(g, x)
        n = lcm(n, len(seen) - known or 1)
    return n


def interval_swap(i: ClopenInterval, j: ClopenInterval) -> PwHomeo:
    """Exchange two disjoint intervals of equal order type, identity
    elsewhere (identity filler pieces are generated automatically)."""
    if interval_intersect(i, j) is not None:
        raise DomainError(
            f"intervals overlap: {format_interval(i)} and {format_interval(j)}")
    if order_type(i) != order_type(j):
        raise DomainError(
            f"order type mismatch: {format_interval(i)} vs {format_interval(j)}")
    lower, upper = sorted([i, j], key=attrgetter("start"))
    pieces = [Piece(i, j), Piece(j, i)]
    for start, end in ((ZERO, lower.start), (lower.end, upper.start)):
        if start < end:
            gap = ClopenInterval(start, end)
            pieces.append(Piece(gap, gap))
    return build(pieces)


def swap_points(x: Ordinal, y: Ordinal) -> PwHomeo:
    """The transposition of two isolated (rank 0) points."""
    if x == y:
        raise DomainError("cannot swap a point with itself")
    for p in (x, y):
        if rank(p) != ZERO:
            raise DomainError(f"{format_ordinal(p)} is not isolated (rank > 0)")
    return interval_swap(ClopenInterval(x, x + ONE), ClopenInterval(y, y + ONE))


# ---------------------------------------------------------------------------
# symbolic sets of ordinals


class OrdinalSet(_Record):
    """Increasing half-open runs (lo, end), neither overlapping nor
    touching, only the last one unbounded (lo, None); the constructor
    trusts them.  `from_parts` normalizes the closed form, pairs [lo, hi]
    and a tail ]tail_from, oo[, which is derived when read; copy and
    pickle go through it.  For fixed integers above n see `dynamics.in_baire_T`."""

    __slots__ = ("runs",)

    def __init__(self, runs: tuple[tuple[Ordinal, Optional[Ordinal]], ...]):
        _set(self, "runs", runs)

    def __reduce__(self):
        return OrdinalSet.from_parts, (self.intervals, self.tail_from)

    @staticmethod
    def from_parts(parts: Iterable[tuple[Ordinal, Ordinal]],
                   tail_from: Optional[Ordinal]) -> "OrdinalSet":
        runs = [(lo, hi + ONE) for lo, hi in parts if lo <= hi]
        if tail_from is not None:
            runs.append((tail_from + ONE, None))
        return OrdinalSet(_joined(sorted(runs, key=itemgetter(0))))

    @property
    def tail_from(self) -> Optional[Ordinal]:
        """[t, oo) is ]t - 1, oo[ for a successor t, else {t} plus ]t, oo[."""
        if not self.runs or self.runs[-1][1] is not None:
            return None
        t = self.runs[-1][0]
        return _pred(t) if t and rank(t).is_zero else t

    @property
    def intervals(self) -> tuple[tuple[Ordinal, Ordinal], ...]:
        ivs = tuple((lo, _pred(end)) for lo, end in self.runs if end is not None)
        t = self.tail_from
        return ivs + ((t, t),) if t is not None and t == self.runs[-1][0] else ivs

    def contains(self, x: Ordinal) -> bool:
        return self.least_geq(x) == x

    def is_empty(self) -> bool:
        return not self.runs

    def least_geq(self, alpha: Ordinal) -> Optional[Ordinal]:
        """Least member >= alpha; None if there is none."""
        for lo, end in self.runs:
            if end is None or alpha < end:
                return max(lo, alpha)
        return None

    def has_cofinal_integers(self) -> bool:
        """Arbitrarily large finite members?"""
        return any(lo < OMEGA and (end is None or OMEGA < end) for lo, end in self.runs)


def _joined(runs) -> tuple[tuple[Ordinal, Optional[Ordinal]], ...]:
    """Runs sorted by start, with every two that overlap or touch joined."""
    out = []
    for lo, end in runs:
        if out and (out[-1][1] is None or lo <= out[-1][1]):
            lo, top = out.pop()
            end = end and top and max(end, top)  # None, unbounded, is the only falsy end
        out.append((lo, end))
    return tuple(out)


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
    """Least s with src.start + s = tgt.start + s, for distinct starts:
    the piece fixes src.start + s exactly from there on."""
    return omega_pow(diff_exponent(src.start, tgt.start) + ONE)


def fixed_points(g: PwHomeo) -> OrdinalSet:
    """The exact fixed-point set, always containing the tail beyond the
    support (so it is closed, and unbounded at every scale)."""
    return common_fixed_points([g])


def common_fixed_points(gs: Sequence[PwHomeo]) -> OrdinalSet:
    """The points every map of gs fixes: the common fixed runs, joined
    where they touch (as where a map fixes its support point)."""
    if not gs:
        raise DomainError("need at least one map")
    return OrdinalSet(_joined(_common_runs([_runs(g, fixed=True) for g in gs], ZERO)))


def sup_image(g: PwHomeo, alpha: Ordinal) -> Ordinal:
    """Exact supremum (in fact maximum) of g([0, alpha]): the image of
    alpha or the last point of a target lying wholly below it."""
    i = _locate(g, alpha)
    return _pred(max([_image(g, i, alpha) + ONE] + [p.target.end for p in g.pieces[:i]]))


def _runs(g: PwHomeo, fixed: bool = False):
    """The points a with g([0, a]) contained in [0, a], or with g(a) = a
    if fixed, as increasing half-open runs [lo, end), written (lo, end):
    at most one per piece, ending where its source ends, then the
    unbounded (support + 1, None), (0, None) for the identity.  For a in
    a piece [s, e) -> [c, f), g(a) = a exactly when c = s or
    a >= s + _fix_threshold, and g(a) <= a exactly when c < s or
    g(a) = a; g([0, a]) lies in [0, a] exactly when g(a) <= a and a is at
    or above the last point of every earlier piece's target."""
    top = end = ZERO  # the highest earlier target end (0 if fixed), the last source end
    for p in g.pieces:
        src, tgt = p.source, p.target
        end = src.end
        if top <= end:  # else an earlier target ends above every point here
            lo = src.start
            if tgt.start > lo or (fixed and tgt.start != lo):
                lo += _fix_threshold(src, tgt)
            if top > lo:
                lo = _pred(top)
            if lo < end:
                yield lo, end
        if not fixed and tgt.end > top:
            top = tgt.end
    yield end, None


def _least_limit(x: Ordinal) -> Ordinal:
    """Least limit >= x, for x > 0: x less its finite part, plus w."""
    key = x._key
    return x if key[-1][0] else _make(key[:-1]) + OMEGA


def _common_runs(streams, x: Ordinal):
    """The runs at or above x that lie in a run of every stream of runs,
    in order, as half-open runs (lo, end), the last one unbounded
    (lo, None).  Each pass skips the runs that end at or below x and
    raises x to the highest run start; once none starts above x, x starts
    a common run that ends at the least run end, where the next pass
    starts."""
    runs = [next(s) for s in streams]
    while True:
        for k, s in enumerate(streams):
            while runs[k][1] is not None and runs[k][1] <= x:
                runs[k] = next(s)
        top = max(lo for lo, _ in runs)
        if top <= x:
            end = min((end for _, end in runs if end is not None), default=None)
            yield x, end
            if end is None:
                return
            top = end
        x = top


def invariant_prefix(g: PwHomeo, alpha: Ordinal) -> Ordinal:
    """Least alpha* >= alpha with g([0, alpha*]) contained in
    [0, alpha*]: the first run of g at or above alpha."""
    return next(_common_runs([_runs(g)], alpha))[0]


def invariant_point(g: PwHomeo, alpha: Ordinal) -> Ordinal:
    """Least alpha* >= alpha with g([0, alpha*]) = [0, alpha*]: the
    least point >= alpha in a run of g and in a run of its inverse."""
    return next(_common_runs([_runs(g), _runs(inverse(g))], alpha))[0]


def find_fixed_point_above(gs: Sequence[PwHomeo], alpha: Ordinal) -> Ordinal:
    """A common fixed point strictly above alpha: the limit of the
    closure iteration alpha_0 = alpha, alpha_n+1 = the largest
    sup h([0, alpha_n]) over every g and g^-1, plus 1.  That is the least
    limit lambda > alpha with [0, lambda) preserved by every g and g^-1,
    which for a limit holds exactly when lambda lies in a run of g, in a
    run of g^-1 and in a fixed run of g."""
    if not gs:
        raise DomainError("need at least one map")
    streams = [s for g in gs for s in (_runs(g), _runs(inverse(g)), _runs(g, fixed=True))]
    for lo, end in _common_runs(streams, alpha + ONE):
        lam = _least_limit(lo)
        if end is None or lam < end:
            return lam


def restrict_to_initial(g: PwHomeo, alpha: Ordinal) -> PwHomeo:
    """g on [0, alpha] extended by the identity; alpha must satisfy
    g([0, alpha]) = [0, alpha]."""
    if alpha >= g.support:
        return g
    if invariant_point(g, alpha) != alpha:
        raise DomainError(f"[0, {format_ordinal(alpha)}] is not invariant")
    i = _locate(g, alpha)
    p = g.pieces[i]
    sub = ClopenInterval(p.source.start, alpha + ONE)
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
    hi = format_ordinal(iv.hi, unicode)
    if iv.start.is_zero:
        return f"[0, {hi}]"
    return f"({format_ordinal(iv.lo, unicode)}, {hi}]"


def parse_interval(text: str) -> ClopenInterval:
    s = text.strip()
    if not s or s[0] not in "[(" or not s.endswith("]"):
        raise ParseError(f"malformed interval {text!r}")
    inner = s[1:-1]
    if inner.count(",") != 1:
        raise ParseError(f"malformed interval {text!r}")
    left, right = inner.split(",")
    at = len(text) - len(text.lstrip()) + 1  # the column of inner, less one
    lo = _at(at, parse_ordinal, left)
    hi = _at(at + len(left) + 1, parse_ordinal, right)
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
    return build([Piece(*(ClopenInterval(*(ends.setdefault(x, x) for x in (iv.start, iv.end)))
                          for iv in pair))
                  for pair in _split_lines(text, "->", "'interval -> interval'",
                                           parse_interval, parse_interval)])
