"""Ordinals below epsilon-0 in Cantor normal form.

An ordinal is a finite sum  w^e1*c1 + ... + w^ek*ck  with strictly
decreasing exponents (themselves ordinals) and positive integer
coefficients; the empty sum is 0.  An `Ordinal` stores that sum as one
nested tuple, its key: () for 0, otherwise the pairs
(key of ei, ci) in CNF order.  Python's tuple order on keys is exactly
the ordinal order (the larger leading exponent wins, then the larger
coefficient, then the rest, and a proper prefix is smaller), so
comparison and equality are those of the key (a finite value, equal to
its int, also hashes as it), and the arithmetic below works on keys
directly and keeps them in CNF; `_restore` checks a key from a pickle.
All values are immutable and hashable, and every operation here is pure.

The package's records (`PointClass` here, most value types of `homeo`,
`dynamics` and `sieve`) share the base `_Record`: immutable fields in
`__slots__`, equality (same type only) and hashing by value, and a
dataclass-style repr such as `ClopenInterval(start=0, end=w + 1)`.

Points of an uncountable well-ordered segment are modelled by these
values: every construction in the package, run at desk scale, stays far
below epsilon-0.  "Unbounded" claims are rendered as "holds above every
representable bound".

Conventions used throughout:
  * rank(x) is the exponent of the last CNF term (the Cantor-Bendixson
    rank of x as a point of a large enough segment); rank(0) = 0 since 0
    is isolated.
  * a fixed nesting-depth cap, DEPTH_CAP = 32, guards `omega_pow` towers
    and parenthesis nesting in the parser; blowing it raises
    ResourceError rather than silently truncating.
"""

import operator
import sys

from .errors import DomainError, ParseError, ResourceError

DEPTH_CAP = 32


def _immutable(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} values are immutable")


_set = object.__setattr__  # how __init__ methods assign to immutable slots


def _coerce(other):
    """other as an Ordinal: ints convert, anything else is NotImplemented."""
    if isinstance(other, Ordinal):
        return other
    if isinstance(other, int):
        return Ordinal(other)
    return NotImplemented


def _by_key(op):
    """A comparison dunder applying op to the two keys."""
    def dunder(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else op(self._key, other._key)
    return dunder


class Ordinal:
    """A CNF ordinal.  `Ordinal(n)` builds a finite value; everything
    else comes out of the arithmetic below.  Supports +, *, comparisons,
    and hashing; ints coerce in mixed expressions."""

    __slots__ = ("_key",)

    def __new__(cls, value: int = 0) -> "Ordinal":
        if isinstance(value, Ordinal):
            return value
        if not isinstance(value, int):
            raise TypeError(f"cannot build an ordinal from {type(value).__name__}")
        if value < 0:
            raise DomainError("ordinals are non-negative")
        if value < len(_small):
            return _small[value]
        return _make((((), value),))

    @property
    def terms(self) -> tuple[tuple["Ordinal", int], ...]:
        """The CNF terms as (exponent, coefficient) pairs, largest first."""
        return tuple([(_make(e), c) for e, c in self._key])

    @property
    def is_zero(self) -> bool:
        return not self._key

    @property
    def is_finite(self) -> bool:
        return not self._key or not self._key[0][0]

    @property
    def leading_exponent(self) -> "Ordinal":
        """Exponent of the largest term; 0 for the ordinal 0."""
        return _make(self._key[0][0]) if self._key else ZERO

    def __int__(self) -> int:
        if not self.is_finite:
            raise DomainError(f"{self} is infinite")
        return self._key[0][1] if self._key else 0

    def __bool__(self) -> bool:
        return bool(self._key)

    def __hash__(self) -> int:
        # a finite value equals its int (0 included), so it hashes as it
        key = self._key
        return hash(key[0][1] if key and not key[0][0] else key or 0)

    __setattr__ = __delattr__ = _immutable

    __eq__ = _by_key(operator.eq)
    __lt__ = _by_key(operator.lt)
    __le__ = _by_key(operator.le)
    __gt__ = _by_key(operator.gt)
    __ge__ = _by_key(operator.ge)

    def __add__(self, other) -> "Ordinal":
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else _make(_add(self._key, other._key))

    def __radd__(self, other) -> "Ordinal":
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else _make(_add(other._key, self._key))

    def __mul__(self, other) -> "Ordinal":
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else _make(_mul(self._key, other._key))

    def __rmul__(self, other) -> "Ordinal":
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else _make(_mul(other._key, self._key))

    def __repr__(self) -> str:
        return format_ordinal(self)

    def __reduce__(self):
        return _restore, (self._key,)


def _make(key: tuple) -> Ordinal:
    o = object.__new__(Ordinal)
    _set(o, "_key", key)
    return o


def _add(a: tuple, b: tuple) -> tuple:
    """Key of a + b: the terms of a above b's leading exponent, then b,
    with one merged term where the exponents meet."""
    if not a or not b:
        return a or b
    e, c = b[0]
    i = 0
    while i < len(a) and a[i][0] > e:
        i += 1
    if i < len(a) and a[i][0] == e:
        return a[:i] + ((e, a[i][1] + c),) + b[1:]
    return a[:i] + b


def _mul(a: tuple, b: tuple) -> tuple:
    """Key of a * b, distributing over the terms of b."""
    if not a or not b:
        return ()
    lead, lead_c = a[0]
    out = []
    for e, c in b:
        if e:
            out.append((_add(lead, e), c))
        else:
            # finite factor distributes into a's leading coefficient
            out.append((lead, lead_c * c))
            out.extend(a[1:])
    return tuple(out)


def _common_prefix(a: tuple, b: tuple) -> int:
    """Number of leading terms two keys share."""
    i = 0
    while i < len(a) and i < len(b) and a[i] == b[i]:
        i += 1
    return i


def _pred(x: "Ordinal") -> "Ordinal":
    """A nonzero x minus one copy of its last term: x - 1 for a successor."""
    e, c = x._key[-1]
    return _make(x._key[:-1] + (((e, c - 1),) if c > 1 else ()))


ZERO = _make(())
_small = [ZERO] + [_make((((), n),)) for n in range(1, 65)]
ONE = _small[1]
OMEGA = _make(((ONE._key, 1),))


def compare(a: Ordinal, b: Ordinal) -> str:
    """Total order as a three-way token: "LT", "EQ", or "GT"."""
    return "LT" if a._key < b._key else "GT" if a._key > b._key else "EQ"


def left_subtract(a: Ordinal, b: Ordinal) -> Ordinal:
    """The unique xi with a + xi = b, defined for a <= b."""
    if a._key > b._key:
        raise DomainError(f"left_subtract: {a} > {b}")
    return _make(_left_sub(a._key, b._key))


def _left_sub(a: tuple, b: tuple) -> tuple:
    """Key of -a + b, for keys a <= b: b past the terms it shares with a,
    less a's coefficient where the exponents meet."""
    i = _common_prefix(a, b)
    if i < len(a) and a[i][0] == b[i][0]:
        return ((b[i][0], b[i][1] - a[i][1]),) + b[i + 1:]
    return b[i:]


def _depth(key: tuple) -> int:
    return 1 + max(_depth(e) for e, _ in key) if key else 0


def nesting_depth(x: Ordinal) -> int:
    """Height of the exponent tower: 0 for 0, 1 for finite values,
    1 + max exponent depth otherwise."""
    return _depth(x._key)


def omega_pow(e: Ordinal) -> Ordinal:
    """w raised to the ordinal e, as a single CNF term."""
    e = Ordinal(e)
    if 1 + nesting_depth(e) > DEPTH_CAP:
        raise ResourceError(f"exponent tower deeper than {DEPTH_CAP}")
    return _make(((e._key, 1),))


def _restore(key) -> Ordinal:
    """The ordinal with this key, rebuilt through the arithmetic for copy
    and pickle; DomainError unless the key is in CNF."""
    x = sum((omega_pow(_restore(e)) * c for e, c in key), ZERO)
    if x._key != key:
        raise DomainError("ordinal key not in Cantor normal form")
    return x


def rank(x: Ordinal) -> Ordinal:
    """Exponent of the last CNF term; rank(0) = 0 (0 is isolated)."""
    return _make(x._key[-1][0]) if x._key else ZERO


class _Record:
    """Base of the immutable records: a subclass names its fields in
    `__slots__` and sets them in `__init__`, which takes them
    positionally in that order, through `_set`."""

    __slots__ = ()
    __setattr__ = __delattr__ = _immutable

    def __init_subclass__(cls):
        cls._values = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class PointClass(_Record):
    """kind: "zero", "successor" or "limit"; predecessor: set for successors."""

    __slots__ = ("kind", "predecessor")

    def __init__(self, kind: str, predecessor: Ordinal | None = None):
        _set(self, "kind", kind)
        _set(self, "predecessor", predecessor)


def classify(x: Ordinal) -> PointClass:
    if not x._key:
        return PointClass("zero")
    if x._key[-1][0]:
        return PointClass("limit")
    return PointClass("successor", _pred(x))


def absorb_threshold(a: Ordinal) -> Ordinal:
    """Least s with a + s = s, for a > 0 (every s with a larger leading
    exponent absorbs a).  Returns 1 for a = 0; callers wanting "any s"
    must treat 0 specially."""
    if not a._key:
        return ONE
    return omega_pow(a.leading_exponent + ONE)


def diff_exponent(a: Ordinal, b: Ordinal) -> Ordinal | None:
    """Largest exponent whose coefficient differs between the CNFs of a
    and b; None iff a = b.  Drives the fixed-point solver through
    a + s = b + s  iff  s >= w^(diff_exponent(a, b) + 1)."""
    i = _common_prefix(a._key, b._key)
    heads = [k[i][0] for k in (a._key, b._key) if i < len(k)]
    return _make(max(heads)) if heads else None


def in_derived(x: Ordinal, alpha: Ordinal) -> bool:
    """Whether x survives alpha rounds of removing isolated points."""
    return rank(x) >= alpha


def enumerate_level(alpha: Ordinal, lo: Ordinal, hi: Ordinal,
                    max_count: int) -> list[Ordinal]:
    """The first max_count points of rank exactly alpha in ]lo, hi],
    in increasing order."""
    if lo > hi:
        raise DomainError(f"enumerate_level: empty range ]{lo}, {hi}]")
    step = omega_pow(alpha)._key
    # least rank-alpha point above lo: drop the terms below alpha, then
    # bump by one copy of w^alpha
    t = _add(tuple(s for s in lo._key if s[0] >= alpha._key), step)
    out: list[Ordinal] = []
    while len(out) < max_count and t <= hi._key:
        out.append(_make(t))
        t = _add(t, step)
    return out


def isolating_left_endpoint(y: Ordinal) -> Ordinal:
    """An x' < y such that every point of ]x', y[ has rank below
    rank(y): y minus one copy of its last term."""
    if not y._key:
        raise DomainError("0 has no left neighbourhood")
    return _pred(y)


def cb_rank_segment(beta: Ordinal) -> Ordinal:
    """First alpha at which iterated isolated-point removal empties the
    segment [0, beta]: leading exponent plus one."""
    return beta.leading_exponent + ONE


# ---------------------------------------------------------------------------
# Text format
#
#   expr   := term ( '+' term )*
#   term   := factor ( '*' nat )?
#   factor := 'w' ( '^' factor )? | nat | group
#   group  := '(' expr ')'
#
# Whitespace is insignificant.  Evaluation is left-associative with
# ordinal semantics; the formatter emits canonical CNF in the same
# grammar, e.g.  "w^(w)*2 + w^2 + 3".  The depth cap bounds `w^` and
# group nesting separately, so at this cap no input exhausts the
# Python stack; past CPython's limit on int/str digits, parse and format
# raise ResourceError.


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.towers = 0
        self.groups = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos + 1)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        # isdecimal: exactly the digits int() accepts
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        try:
            return int(self.text[start:self.pos])
        except ValueError:
            raise ResourceError(f"number longer than {sys.get_int_max_str_digits()}"
                                " digits", start + 1) from None

    def expr(self) -> Ordinal:
        value = self.term()
        while self.peek() == "+":
            self.take("+")
            value = value + self.term()
        return value

    def term(self) -> Ordinal:
        value = self.factor()
        if self.peek() == "*":
            self.take("*")
            at = self.pos
            n = self.nat()
            if n == 0:
                raise DomainError("zero coefficient", at + 1)
            value = value * n
        return value

    def factor(self) -> Ordinal:
        c = self.peek()
        if c == "w":
            self.pos += 1
            if self.peek() != "^":
                return OMEGA
            self.take("^")
            self.towers += 1
            if self.towers > DEPTH_CAP:
                # w^ nesting bounds the value's tower height from below
                raise ResourceError(f"exponent tower deeper than {DEPTH_CAP}")
            e = self.factor()
            self.towers -= 1
            return omega_pow(e)
        if c == "(":
            return self.group()
        if c.isdecimal():
            return Ordinal(self.nat())
        raise self.error("expected 'w', a number, or '('")

    def group(self) -> Ordinal:
        self.take("(")
        self.groups += 1
        if self.groups > DEPTH_CAP:
            raise ResourceError(f"parentheses nested deeper than {DEPTH_CAP}")
        value = self.expr()
        self.take(")")
        self.groups -= 1
        return value


def parse_ordinal(text: str) -> Ordinal:
    p = _Parser(text)
    value = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("trailing input")
    return value


def _format(key: tuple) -> str:
    if not key:
        return "0"
    parts = []
    for e, c in key:
        if not e:
            parts.append(str(c))
            continue
        if e == ONE._key:
            base = "w"
        elif not e[0][0]:
            base = f"w^{e[0][1]}"
        else:
            base = f"w^({_format(e)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    return " + ".join(parts)


def format_ordinal(x: Ordinal) -> str:
    try:
        return _format(x._key)
    except ValueError:  # only int-to-str conversion raises it here
        raise ResourceError(f"coefficient longer than {sys.get_int_max_str_digits()}"
                            " digits") from None


def _at(start: int, parse, text: str):
    """parse(text) for a text that starts at column start + 1 of the line
    it was cut from: a ParseError, DomainError or ResourceError counts its
    position in that line."""
    try:
        return parse(text)
    except (ParseError, DomainError, ResourceError) as err:
        if err.position is not None:
            err.position += start
        raise


def _split_lines(text: str, sep: str, shape: str, parse_left, parse_right):
    """(parse_left(left), parse_right(right)) per record line of a
    line-based file format, yielded in order, split at the first sep
    (else "expected <shape>"), skipping blank and "#" lines.  A
    ParseError, DomainError or ResourceError names its line, "line N:
    ...", and its position is the column in the line as written, leading
    whitespace included."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        left, found, right = line.partition(sep)
        lead = len(raw) - len(raw.lstrip())
        try:
            if not found:
                raise ParseError(f"expected {shape}")
            record = (_at(lead, parse_left, left),
                      _at(lead + len(left) + len(sep), parse_right, right))
        except (ParseError, DomainError, ResourceError) as err:
            raise type(err)(f"line {lineno}: {err.args[0]}", err.position) from None
        yield record
