"""The `maps-build` and `maps-query` workloads: block permutations of
w-blocks, w*2-blocks offset by w, and point transpositions, checked
against the integer model in blockmap.py.

Piece counts are drawn log-uniform by stratum: stratum i of K takes the
count at quantile (i + 1/2)/K, so every seed draws the same spread of
sizes and only the maps themselves change with the seed.  K = 5 keeps
every stratum clear of the edges of the per-layer size buckets.
"""

from __future__ import annotations

import random

import ref
from blockmap import SMALL, BlockMap, blockmap_with_pieces, fixed_set, invariant_prefix
from core import Inputs, Op


def _ordinal(L, p, inputs: Inputs):
    inputs.ordinals.append(ref.from_pair(p))
    return L.parse_ordinal(ref.pair_fmt(p))


def _interval(L, iv, inputs: Inputs):
    lo, hi = iv
    if lo is None:
        return L.initial(_ordinal(L, hi, inputs))
    return L.span(_ordinal(L, lo, inputs), _ordinal(L, hi, inputs))


def _piece_list(L, atoms, inputs: Inputs) -> list:
    return [(_interval(L, s, inputs), _interval(L, t, inputs)) for s, t in atoms]


def _nested_pieces(pieces) -> list[tuple]:
    def iv(i):
        lo, hi = i
        return (None if lo is None else ref.from_pair(lo), ref.from_pair(hi))
    return [(iv(s), iv(t)) for s, t in pieces]


def _is_map(model: BlockMap):
    want = _nested_pieces(model.pieces())
    return lambda g: ref.pieces_of(g) == want


def _is_point(p):
    want = ref.from_pair(p)
    return lambda x: ref.from_lib(x) == want


def _is_set(runs_tail):
    runs, tail = runs_tail
    want = ([(ref.from_pair(lo), ref.from_pair(hi)) for lo, hi in runs],
            ref.from_pair(tail))

    def check(s):
        got = [(ref.from_lib(lo), ref.from_lib(hi)) for lo, hi in s.intervals]
        return s.tail_from is not None and (got, ref.from_lib(s.tail_from)) == want
    return check


def _is_common_fixed_point_above(models: list[BlockMap], alpha):
    low = ref.from_pair(alpha)

    def check(x):
        beta = ref.from_lib(x)
        if beta <= low:
            return False
        if beta >= ref.poly(1, 0, 0):
            return True  # above w^2, beyond every support
        p = ref.pair(beta)
        return all(g(p) == p for g in models)
    return check


def log_uniform(lo: int, hi: int, k: int) -> list[int]:
    return [round(lo * (hi / lo) ** ((i + 0.5) / k)) for i in range(k)]


def setup_build(L, seed: int, inputs: Inputs) -> list[Op]:
    """maps-build: compose, inverse and build from a shuffled piece list,
    at piece counts log-uniform over 16-512."""
    rng = random.Random(seed)
    ops = []
    for n in [n for n in log_uniform(16, 512, 5) for _ in range(3)]:
        G = blockmap_with_pieces(rng, n)
        H = blockmap_with_pieces(rng, n)
        g = L.build(_piece_list(L, G.atoms(), inputs))
        h = L.build(_piece_list(L, H.atoms(), inputs))
        shuffled = G.atoms()
        rng.shuffle(shuffled)
        pieces = _piece_list(L, shuffled, inputs)
        inputs.pieces += [len(g.pieces), len(h.pieces)]
        ops += [
            Op("compose", "homeo", lambda L, g=g, h=h: L.compose(g, h), _is_map(G.compose(H))),
            Op("inverse", "homeo", lambda L, g=g: L.inverse(g), _is_map(G.inverse())),
            Op("build", "homeo", lambda L, p=pieces: L.build(p), _is_map(G)),
        ]
    rng.shuffle(ops)
    return ops


def homeo_text(model: BlockMap) -> str:
    """The canonical text `format_homeo` prints for the model's map."""
    def iv(i):
        lo, hi = i
        if lo is None:
            return f"[0, {ref.pair_fmt(hi)}]"
        return f"({ref.pair_fmt(lo)}, {ref.pair_fmt(hi)}]"
    lines = [f"{iv(s)} -> {iv(t)}" for s, t in model.pieces()] or ["# identity"]
    lines.append(f"# support {ref.pair_fmt(model.support())}")
    return "\n".join(lines) + "\n"


def _sample_points(rng: random.Random, m: int, count: int) -> list:
    """Points of the map's segment or just above it, one per stratum of
    count equal block ranges: a small offset, a block remainder, or a
    block's limit top."""
    out = []
    for i in range(count):
        k = int((i + rng.random()) * (m + 3) / count)
        b = rng.choice([1, SMALL, SMALL + 1, SMALL + 5, 0])
        out.append((k + 1, 0) if b == 0 else (k, b))
    rng.shuffle(out)
    return out


def _lookup_points(rng: random.Random, model: BlockMap, count: int) -> list:
    """Points for lookups, one per stratum of count equal ranges of the
    canonical piece list (plus one range past the support): the first or
    the last point of a piece.  Stratifying by piece rather than by block
    makes a linear scan's length independent of how the pieces happen to
    fall along the segment."""
    pieces = model.pieces()
    out = []
    for i in range(count):
        j = int((i + rng.random()) * (len(pieces) + 1) / count)
        if j == len(pieces):
            out.append((model.m + 2, rng.choice([1, SMALL + 5])))
            continue
        lo, hi = pieces[j][0]
        first = (0, 0) if lo is None else (lo[0], lo[1] + 1)
        out.append(rng.choice([first, hi]))
    rng.shuffle(out)
    return out


APPLY, SUP, PREFIX = 600, 150, 1


def setup_query(L, seed: int, inputs: Inputs) -> list[Op]:
    """maps-query: maps of 64-1024 pieces parsed once; mostly `apply` and
    `sup_image`, with fixed-point sets and the fixed-point solvers."""
    rng = random.Random(seed)
    models, maps, ops = [], [], []
    for n in [n for n in log_uniform(64, 1024, 5) for _ in range(2)]:
        G = blockmap_with_pieces(rng, n)
        text = homeo_text(G)
        for iv in (i for piece in G.pieces() for i in piece):
            inputs.ordinals += [ref.from_pair(x) for x in iv if x is not None]
        inputs.ordinals.append(ref.from_pair(G.support()))
        g = L.parse_homeo(text)
        if L.format_homeo(g) != text:
            raise AssertionError(f"parse/format round trip differs at {n} pieces")
        inputs.pieces.append(len(g.pieces))
        models.append(G)
        maps.append(g)
    for G, g in zip(models, maps):
        for p in _lookup_points(rng, G, APPLY):
            x = _ordinal(L, p, inputs)
            ops.append(Op("apply", "homeo", lambda L, g=g, x=x: L.apply(g, x), _is_point(G(p))))
        for p in _lookup_points(rng, G, SUP):
            x = _ordinal(L, p, inputs)
            ops.append(Op("sup_image", "homeo", lambda L, g=g, x=x: L.sup_image(g, x),
                          _is_point(G.sup_image(p))))
        ops.append(Op("fixed_points", "homeo", lambda L, g=g: L.fixed_points(g),
                      _is_set(fixed_set([G]))))
        for p in _sample_points(rng, G.m, PREFIX):
            x = _ordinal(L, p, inputs)
            ops.append(Op("invariant_prefix", "homeo",
                          lambda L, g=g, x=x: L.invariant_prefix(g, x),
                          _is_point(invariant_prefix([G], p))))
        p, = _sample_points(rng, G.m, 1)
        x = _ordinal(L, p, inputs)
        ops.append(Op("invariant_point", "homeo",
                      lambda L, g=g, x=x: L.invariant_point(g, x),
                      _is_point(invariant_prefix([G, G.inverse()], p))))
    for i in range(len(maps) - 1):
        pair, pair_models = maps[i:i + 2], models[i:i + 2]
        ops.append(Op("common_fixed_points", "homeo",
                      lambda L, gs=pair: L.common_fixed_points(gs), _is_set(fixed_set(pair_models))))
        p, = _sample_points(rng, pair_models[0].m, 1)
        x = _ordinal(L, p, inputs)
        ops.append(Op("find_fixed_point_above", "homeo",
                      lambda L, gs=pair, x=x: L.find_fixed_point_above(gs, x),
                      _is_common_fixed_point_above(pair_models, p)))
    rng.shuffle(ops)
    return ops

