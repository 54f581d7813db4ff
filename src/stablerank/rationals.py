"""Exact values at the package's boundaries: coercion, entry checks and text.

Library calls take integers and `fractions.Fraction` (or anything `Fraction`
converts exactly, such as the string "2/3"); floats are refused so that no
approximation can enter a program. Input files and command-line arguments
write a rational as p/q or as a bare integer, and answers are printed the
same way, with "inf" for +infinity.

This module is the one home of the entry checks. Every constructor and
public entry point checks a vector (a support tuple, an exponent vector, a
weight vector, a program row) or a size field (an order, a degree, a
variable count) with one call to `integers` or `rationals`, so each kind of
fault has one wording wherever it is raised, a file parser included:

    <what>: expected an integer, got <value>
    <what>: expected <length> entries, got <count>
    <what>: expected a value >= <low>, got <value>   (or: in <low>..<high>)
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import InputError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


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


def integers(values, what: str, length: int | None = None, low: int | None = None,
             high: int | None = None) -> tuple[int, ...]:
    """`values` as a tuple of ints: integral Fractions are accepted, bools
    are not. With `length`, the tuple must have that many entries; with
    `low`, every entry must be >= low, and with `high` too, <= high (`high`
    counts only together with `low`)."""
    out = tuple(values)
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
    return _bounded(tuple(rational(v, what) for v in values), what, length, low, None)


def _bounded(vec: tuple, what: str, length: int | None, low, high) -> tuple:
    """`vec` itself, once its length and range pass the checks above."""
    if length is not None and len(vec) != length:
        raise InputError(f"{what}: expected {length} entries, got {len(vec)}")
    if low is not None and vec and (min(vec) < low or high is not None and max(vec) > high):
        bad = next(v for v in vec if v < low or high is not None and v > high)
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise InputError(f"{what}: expected a value {span}, got {bad}")
    return vec


def parse_rational(token: str) -> Fraction:
    """The rational written by a p/q or integer token."""
    if not _RATIONAL_RE.match(token):
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
