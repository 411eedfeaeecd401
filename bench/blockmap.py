"""Integer model of the block permutations the map workloads draw.

A point w*a + b is the pair (a, b).  Block k (1 <= k <= m) is the
interval ]w*k, w*(k+1)]; [0, w] is never moved and everything above
w*(m+1) is fixed.  A `BlockMap` sends block k onto block sigma[k] by
keeping offsets, except that the points w*k + b with 1 <= b <= SMALL
are permuted among themselves by the table `low`.  Block permutations
of w-blocks, of w*2-blocks offset by w and point transpositions all have
this shape, and so do their products and inverses, which the model
computes exactly with integers.
"""

from __future__ import annotations

import random

SMALL = 2


class BlockMap:
    def __init__(self, m: int, sigma: list[int], low: dict):
        self.m = m
        self.sigma = sigma
        self.low = low

    @staticmethod
    def identity(m: int) -> "BlockMap":
        return BlockMap(m, list(range(m + 1)),
                        {(k, b): (k, b) for k in range(1, m + 1)
                         for b in range(1, SMALL + 1)})

    def padded(self, m: int) -> "BlockMap":
        if m <= self.m:
            return self
        g = BlockMap.identity(m)
        g.sigma[:self.m + 1] = self.sigma
        g.low.update(self.low)
        return g

    def __call__(self, p: tuple[int, int]) -> tuple[int, int]:
        a, b = p
        if b == 0:
            return (self.sigma[a - 1] + 1, 0) if 2 <= a <= self.m + 1 else p
        if a == 0 or a > self.m:
            return p
        if b <= SMALL:
            return self.low[p]
        return (self.sigma[a], b)

    def compose(self, other: "BlockMap") -> "BlockMap":
        """x -> self(other(x))."""
        m = max(self.m, other.m)
        f, g = self.padded(m), other.padded(m)
        return BlockMap(m, [f.sigma[s] for s in g.sigma],
                        {p: f(q) for p, q in g.low.items()})

    def inverse(self) -> "BlockMap":
        sigma = [0] * (self.m + 1)
        for k, s in enumerate(self.sigma):
            sigma[s] = k
        return BlockMap(self.m, sigma, {q: p for p, q in self.low.items()})

    def atoms(self) -> list[tuple]:
        """Pieces ((src_lo, src_hi), (tgt_lo, tgt_hi)) that each move one
        small point or one block remainder; lo None marks [0, hi].  They
        tile [0, w*(m+1)] in source order."""
        out = [((None, (1, 0)), (None, (1, 0)))]
        for k in range(1, self.m + 1):
            for b in range(1, SMALL + 1):
                y = self.low[(k, b)]
                out.append((((k, b - 1), (k, b)), ((y[0], y[1] - 1), y)))
            s = self.sigma[k]
            out.append((((k, SMALL), (k + 1, 0)), ((s, SMALL), (s + 1, 0))))
        return out

    def pieces(self) -> list[tuple]:
        """The canonical piece list: neighbouring atoms whose targets are
        contiguous merged, the identity suffix dropped."""
        out = []
        for src, tgt in self.atoms():
            if out and tgt[0] == out[-1][1][1]:
                (slo, _), (tlo, _) = out[-1]
                out[-1] = ((slo, src[1]), (tlo, tgt[1]))
            else:
                out.append((src, tgt))
        while out and out[-1][0] == out[-1][1]:
            out.pop()
        return out

    def support(self) -> tuple[int, int]:
        ps = self.pieces()
        return ps[-1][0][1] if ps else (0, 0)

    def sup_image(self, alpha: tuple[int, int]) -> tuple[int, int]:
        """max of the map over [0, alpha]."""
        a, b = alpha
        if alpha >= (self.m + 1, 0) or alpha <= (1, 0):
            return alpha  # [0, alpha] is a union of whole orbits
        best = (1, 0)
        for k in range(1, a):
            best = max(best, self._block_max(k))
        if b:
            for c in range(1, min(b, SMALL) + 1):
                best = max(best, self.low[(a, c)])
            if b > SMALL:
                best = max(best, (self.sigma[a], b))
        return best

    def _block_max(self, k: int) -> tuple[int, int]:
        return max([(self.sigma[k] + 1, 0)]
                   + [self.low[(k, c)] for c in range(1, SMALL + 1)])


def invariant_prefix(maps: list[BlockMap], alpha):
    """Least alpha* >= alpha that every map sends [0, alpha*] into."""
    while True:
        nxt = max([alpha] + [g.sup_image(alpha) for g in maps])
        if nxt == alpha:
            return alpha
        alpha = nxt


def fixed_set(maps: list[BlockMap]):
    """The common fixed points as the library normalises them:
    (maximal runs [lo, hi] of consecutive fixed points, tail) with the
    tail the largest support, beyond which every map is the identity."""
    m = max(g.m for g in maps)
    maps = [g.padded(m) for g in maps]
    t = max(g.support() for g in maps)
    atoms = [((0, 0), (1, 0), True)]
    for k in range(1, m + 1):
        for b in range(1, SMALL + 1):
            atoms.append(((k, b), (k, b), all(g.low[(k, b)] == (k, b) for g in maps)))
        atoms.append(((k, SMALL + 1), (k + 1, 0), all(g.sigma[k] == k for g in maps)))
    runs = []
    prev_fixed = False
    for first, last, fixed in atoms:
        if fixed and prev_fixed:
            runs[-1] = (runs[-1][0], last)
        elif fixed:
            runs.append((first, last))
        prev_fixed = fixed
    runs = [(lo, min(hi, t)) for lo, hi in runs if lo <= t]
    if runs and runs[-1][1] == t:
        lo = runs[-1][0]
        if lo[1] >= 1:  # a successor: [lo, t] + ]t, oo[ = ]lo - 1, oo[
            runs.pop()
            t = (lo[0], lo[1] - 1)
        else:
            runs[-1] = (lo, lo)
            t = lo
    return runs, t


def random_blockmap(rng: random.Random, m: int) -> BlockMap:
    """A product of a w-block permutation, a w*2-block permutation offset
    by w, and point transpositions, each moving a random share."""
    def partial_perm(n):
        moved = [i for i in range(n) if rng.random() < 0.6]
        image = moved[:]
        rng.shuffle(image)
        perm = list(range(n))
        for i, j in zip(moved, image):
            perm[i] = j
        return perm

    p1 = partial_perm(m)
    blocks = BlockMap(m, [0] + [s + 1 for s in p1],
                      {(k, b): (p1[k - 1] + 1, b) for k in range(1, m + 1)
                       for b in range(1, SMALL + 1)})
    p2 = partial_perm(m // 2)
    sigma = list(range(m + 1))
    for j, s in enumerate(p2):
        sigma[2 * j + 1], sigma[2 * j + 2] = 2 * s + 1, 2 * s + 2
    doubles = BlockMap(m, sigma, {(k, b): (sigma[k], b) for k in range(1, m + 1)
                                  for b in range(1, SMALL + 1)})
    swaps = BlockMap.identity(m)
    points = list(swaps.low)
    for _ in range(max(1, m // 16)):
        x, y = rng.sample(points, 2)
        swaps.low[x], swaps.low[y] = swaps.low[y], swaps.low[x]
    return swaps.compose(doubles.compose(blocks))


def blockmap_with_pieces(rng: random.Random, n: int) -> BlockMap:
    """A random block map whose canonical form has n pieces, or as close
    to n as a few rescalings of the block count get."""
    m = max(4, n)
    best = None
    for _ in range(8):
        m += m % 2
        g = random_blockmap(rng, m)
        count = len(g.pieces())
        if best is None or abs(count - n) < abs(len(best.pieces()) - n):
            best = g
        if abs(count - n) <= max(1, n // 50):
            break
        m = max(4, round(m * n / count))
    return best
