"""Exact values at the package's boundaries: coercion, entry checks, text
and denominators.

Library calls take integers and `fractions.Fraction` (or anything `Fraction`
converts exactly, such as the string "2/3"); floats are refused so that no
approximation can enter a program. Input files and command-line arguments
write an integer as ASCII digits with an optional sign and a rational as p/q
or as a bare integer, and answers are printed the same way, with "inf" for
+infinity; `parse_integer` and `parse_rational` read every such token.

This module is the one home of the entry checks. Every constructor and
public entry point takes a caller's collection (a support, a list of
generators, a matrix) through `collection` and checks a vector (a support
tuple, an exponent vector, a weight vector, a program row) or a size field
(an order, a degree, a variable count) with one call to `integers` or
`rationals`, so each kind of fault has one wording wherever it is raised, a
file parser included:

    <what>: expected a collection, got <value>
    <what>: expected an integer, got <value>
    <what>: expected <length> entries, got <count>
    <what>: expected a value >= <low>, got <value>   (or: in <low>..<high>)

It is also the one home of denominator clearing: `cleared` scales exact
rationals by the lcm of their denominators, for the LP tableau, the witness
of a slope program, a rank's alpha and a polynomial product alike.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import InputError

_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rational(value, what: str) -> int | Fraction:
    """`value` as an exact rational. An int or a Fraction is returned as it
    is, any other exact value (a bool, a "p/q" string) becomes a Fraction,
    and a float or a non-rational raises InputError."""
    kind = type(value)
    if kind is int or kind is Fraction:
        return value
    if isinstance(value, float):
        raise InputError(f"{what}: floating point is not exact, pass int or Fraction")
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what}: not a rational value: {value!r}") from exc


def collection(values, what: str) -> tuple:
    """`values` as a tuple; InputError when they cannot be iterated. Only
    `iter` is guarded, so an error raised while iterating (inside a caller's
    generator, say) propagates as it is."""
    try:
        iter(values)
    except TypeError:
        raise InputError(f"{what}: expected a collection, got {values!r}") from None
    return tuple(values)


def integers(values, what: str, length: int | None = None, low: int | None = None,
             high: int | None = None) -> tuple[int, ...]:
    """`values` as a tuple of ints: integral Fractions are accepted, bools
    are not. With `length`, the tuple must have that many entries; with
    `low`, every entry must be >= low, and with `high` too, <= high (`high`
    counts only together with `low`)."""
    out = collection(values, what)
    for v in out:
        if type(v) is not int:
            out = tuple([_integer(v, what) for v in out])
            break
    return _bounded(out, what, length, low, high)


def _integer(value, what: str) -> int:
    """`value` as an int, for `integers` once some entry is not an int."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what}: expected an integer, got {value!r}")
    return value


def rationals(values, what: str, length: int | None = None,
              low: int | None = None) -> tuple[int | Fraction, ...]:
    """`values` as a tuple of exact rationals, each coerced by `rational`,
    with the length and lower bound checked as `integers` checks them."""
    return _bounded(tuple([rational(v, what) for v in collection(values, what)]),
                    what, length, low, None)


def _bounded(vec: tuple, what: str, length: int | None, low, high) -> tuple:
    """`vec` itself, once its length and range pass the checks above."""
    if length is not None and len(vec) != length:
        raise InputError(f"{what}: expected {length} entries, got {len(vec)}")
    if low is not None and vec and (min(vec) < low or high is not None and max(vec) > high):
        bad = next(v for v in vec if v < low or high is not None and v > high)
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise InputError(f"{what}: expected a value {span}, got {bad}")
    return vec


def cleared(values) -> tuple[int, tuple[int, ...]]:
    """(L, L * values) for the least positive integer L that clears every
    denominator among the ints and Fractions `values`, a collection."""
    den = math.lcm(*(v.denominator for v in values))
    return den, tuple([v.numerator * (den // v.denominator) for v in values])


def parse_integer(token: str, what: str = "integer") -> int:
    """The integer written by a token of ASCII digits with an optional sign;
    the `type` of the command line's integer flags."""
    if not _INTEGER_RE.fullmatch(token):
        raise InputError(f"{what} must be an integer, got {token!r}")
    return int(token)


def parse_rational(token: str) -> Fraction:
    """The rational written by a p/q or integer token of ASCII digits."""
    if not _RATIONAL_RE.fullmatch(token):
        raise InputError(f"not a rational (write p/q or an integer): {token!r}")
    num, _, den = token.partition("/")
    if den and int(den) == 0:
        raise InputError(f"zero denominator: {token!r}")
    return Fraction(int(num), int(den or 1))


def fmt(value) -> str:
    """Exact text of a value: p/q, a bare integer, or "inf"."""
    kind = type(value)
    if kind is int or kind is Fraction:
        return str(value)
    return "inf" if value == math.inf else str(Fraction(value))
