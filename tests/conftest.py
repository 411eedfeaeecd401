"""Run the suite with the library's internal invariants checked.

The library checks values where they enter it (`build`, the parsers,
unpickling through `ordinals._restore`) and trusts its own arithmetic,
so no operation pays for a check.  Here, before `homeo` binds it,
`ordinals._make` is replaced by a version that checks every key it
wraps, and `homeo._canonical` and `homeo.inverse` by ones that check
every map they return, so a test that breaks either invariant fails
where it happens.  The checks raise AssertionError explicitly, so they
also run under -O.
"""

import functools

from ordhomeo import ordinals


def check_key(key) -> None:
    """Raise AssertionError unless key is a CNF key: a tuple of
    (exponent key, positive int) pairs, exponents strictly decreasing."""
    if type(key) is not tuple:
        raise AssertionError(f"key {key!r} is not a tuple")
    for i, term in enumerate(key):
        if type(term) is not tuple or len(term) != 2:
            raise AssertionError(f"term {term!r} of key {key!r} is not a pair")
        e, c = term
        if type(c) is not int or c < 1:
            raise AssertionError(f"coefficient {c!r} of key {key!r} is not positive")
        if i and not key[i - 1][0] > e:
            raise AssertionError(f"exponents of key {key!r} do not strictly decrease")
        check_key(e)


_make = ordinals._make


def _checked_make(key):
    check_key(key)
    return _make(key)


ordinals._make = _checked_make

from ordhomeo import homeo  # noqa: E402  (imported now, so it binds _checked_make)
from helpers import check_canonical  # noqa: E402


def _checked(fn):
    @functools.wraps(fn)
    def checked(arg):
        g = fn(arg)
        check_canonical(g)
        return g
    return checked


homeo._canonical = _checked(homeo._canonical)
homeo.inverse = _checked(homeo.inverse)  # before dynamics binds it
