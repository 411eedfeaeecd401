"""Reference models the benchmark checks results against.

Nothing here calls into `ordhomeo`.  Two models:

* CNF ordinals as nested tuples: an ordinal is a tuple of
  (exponent, coefficient) terms with strictly decreasing exponents, each
  exponent itself such a tuple; () is 0.  Python's tuple order on this
  encoding is exactly the ordinal order, so comparison needs no code.
* Ordinals below w^2 as integer pairs (a, b) for w*a + b, with the
  closed-form arithmetic of the test suite's pair oracle.

Library values are read into the nested model through the public
`Ordinal.terms` property only (`from_lib`).
"""

from __future__ import annotations

ZERO = ()
ONE = (((), 1),)
OMEGA = ((ONE, 1),)


def nat(n: int) -> tuple:
    return (((), n),) if n else ()


def add(a: tuple, b: tuple) -> tuple:
    if not b:
        return a
    e, c = b[0]
    keep = tuple(t for t in a if t[0] > e)
    for ea, ca in a:
        if ea == e:
            return keep + ((e, ca + c),) + b[1:]
    return keep + b


def mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    lead, lc = a[0]
    out = []
    for e, c in b:
        if e:
            out.append((add(lead, e), c))
        else:
            out.append((lead, lc * c))
            out.extend(a[1:])
    return tuple(out)


def left_sub(a: tuple, b: tuple) -> tuple:
    """The xi with a + xi = b, for a <= b."""
    if a > b:
        raise ValueError("left_sub needs a <= b")
    i = 0
    while i < len(a) and a[i] == b[i]:
        i += 1
    if i == len(a):
        return b[i:]
    if a[i][0] == b[i][0]:
        return ((b[i][0], b[i][1] - a[i][1]),) + b[i + 1:]
    return b[i:]


def is_finite(x: tuple) -> bool:
    return not x or not x[0][0]


def to_int(x: tuple) -> int:
    return x[0][1] if x else 0


def rank(x: tuple) -> tuple:
    return x[-1][0] if x else ZERO


def depth(x: tuple) -> int:
    return 1 + max(depth(e) for e, _ in x) if x else 0


def fmt(x: tuple) -> str:
    """The library's canonical text for x, e.g. "w^(w)*2 + w^2 + 3"."""
    if not x:
        return "0"
    parts = []
    for e, c in x:
        if not e:
            parts.append(str(c))
            continue
        if e == ONE:
            base = "w"
        elif is_finite(e):
            base = f"w^{to_int(e)}"
        else:
            base = f"w^({fmt(e)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    return " + ".join(parts)


def from_lib(x) -> tuple:
    """A library `Ordinal` read into the nested model."""
    return tuple((from_lib(e), c) for e, c in x.terms)


def poly(*coefs: int) -> tuple:
    """w^(k-1)*c_{k-1} + ... + c_0 from (c_{k-1}, ..., c_0)."""
    k = len(coefs)
    return tuple((nat(k - 1 - i), c) for i, c in enumerate(coefs) if c)


# ---------------------------------------------------------------------------
# pairs (a, b) = w*a + b


def pair(x: tuple) -> tuple[int, int]:
    """A nested-model ordinal below w^2 as a pair."""
    a = b = 0
    for e, c in x:
        if e == ONE:
            a = c
        elif not e:
            b = c
        else:
            raise ValueError(f"{fmt(x)} is not below w^2")
    return a, b


def from_pair(p: tuple[int, int]) -> tuple:
    return poly(*p)


def pair_fmt(p: tuple[int, int]) -> str:
    return fmt(from_pair(p))


def pair_add(x, y):
    a, b = x
    c, d = y
    return (a + c, d) if c else (a, b + d)


def pair_mul(x, y):
    """Product below w^2; None when it leaves that range."""
    a, b = x
    c, d = y
    if x == (0, 0) or y == (0, 0):
        return (0, 0)
    if c == 0:
        return (a * d, b) if a else (0, b * d)
    if a == 0:
        return (c, b * d) if b > 1 else (c, d)
    return None


def pair_sub(x, y):
    """xi with x + xi = y, for x <= y."""
    a, b = x
    c, d = y
    return (0, d - b) if a == c else (c - a, d)


# ---------------------------------------------------------------------------
# piecewise maps read from the library, evaluated in the nested model


def pieces_of(g) -> list[tuple]:
    """A library map's pieces as ((src_lo, src_hi), (tgt_lo, tgt_hi)),
    with lo None for an initial interval [0, hi]."""
    def iv(i):
        return (None if i.lo is None else from_lib(i.lo), from_lib(i.hi))
    return [(iv(p.source), iv(p.target)) for p in g.pieces]


def _contains(iv, x) -> bool:
    lo, hi = iv
    return x <= hi and (lo is None or lo < x)


def _index(iv, x) -> tuple:
    """Position of x in the interval: x itself in [0, hi]; in ]lo, hi]
    the offset s = x - lo, shifted down by one when finite."""
    lo, _ = iv
    if lo is None:
        return x
    s = left_sub(lo, x)
    return nat(to_int(s) - 1) if is_finite(s) else s


def _element(iv, i) -> tuple:
    lo, _ = iv
    return i if lo is None else add(lo, add(ONE, i))


def evaluate(pieces: list[tuple], x: tuple) -> tuple:
    """The value at x of the order isomorphisms the pieces denote; the
    identity outside them."""
    for src, tgt in pieces:
        if _contains(src, x):
            return _element(tgt, _index(src, x))
    return x
