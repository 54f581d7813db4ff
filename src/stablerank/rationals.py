"""Exact values at the package's boundaries: coercion, integer checks and text.

Library calls take integers and `fractions.Fraction` (or anything `Fraction`
converts exactly, such as the string "2/3"); floats are refused so that no
approximation can enter a program. Input files and command-line arguments
write a rational as p/q or as a bare integer, and answers are printed the
same way, with "inf" for +infinity.
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


def integers(values, what: str) -> tuple[int, ...]:
    """`values` as a tuple of ints: integral Fractions are accepted, bools
    are not."""
    out = []
    for v in values:
        if type(v) is not int:
            if isinstance(v, Fraction) and v.denominator == 1:
                v = v.numerator
            if isinstance(v, bool) or not isinstance(v, int):
                raise InputError(f"{what}: expected an integer, got {v!r}")
        out.append(v)
    return tuple(out)


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
