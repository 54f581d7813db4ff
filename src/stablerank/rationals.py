"""Exact values at the package's boundaries: coercion, entry checks, text
and denominators.

Library calls take integers and `fractions.Fraction` (or anything `Fraction`
converts exactly, such as the string "2/3"); floats are refused so that no
approximation can enter a program. Input files and command-line arguments
write an integer as ASCII digits with an optional sign and a rational as p/q
or as a bare integer; `parse_integer` and `parse_rational` read every such
token. Answers are printed the same way, by `str`: an int or a Fraction as
such a token, and +infinity (`math.inf`) as "inf".

This module is the one home of the entry checks. Every constructor and
public entry point takes a caller's collection (a support, a list of
generators, a matrix) through `collection` and checks a vector (a support
tuple, an exponent vector, a weight vector, a program row) or a size field
(an order, a degree, a variable count) with one call to `integers` or
`rationals`, and a library object (a support, a polynomial, a program, a
document) with one call to `expect`, so each kind of fault has one wording
wherever it is raised, a file parser included. A whole collection of
integer vectors (a tensor or symmetric support, a monomial ideal's
generators) goes through `integer_vectors`, which applies the same rule:
it returns what `integers` would return for each vector, and accepts the
caller's tuples as they are, in a few passes over the whole collection,
only when `integers` would return every one of them unchanged. Any other
collection goes through `integers` vector by vector, the one place that
coerces a value or words an error:

    not a <what>: <value>
    <what>: expected a collection, got <value>
    <what>: expected an integer, got <value>
    <what>: expected <length> entries, got <count>
    <what>: expected a value >= <low>, got <value>   (or: in <low>..<high>)

It is also the one home of denominator clearing: `cleared` scales exact
rationals by the lcm of their denominators, for a program entering the LP
solver, the rows of a linear system, the witness of a slope program, a
polynomial product and a linear change's matrix alike.

`Record` is the base of the package's immutable value types (a support, a
polynomial, an ideal, a linear change, a program, an outcome, a slope
result, a document): slotted fields that no assignment changes, compared,
hashed and printed through their values. `_record` builds one from values
its caller has checked, without running its constructor's checks.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain

from .errors import InputError

_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class Record:
    """An immutable value with named fields.

    A subclass names its fields, in order, as both `__slots__` and
    `__match_args__`, and its `__init__` checks its arguments and stores
    them with one call of `_store`. Assigning or deleting a field raises
    AttributeError. Two records are equal when they are of the same class
    with equal fields, the hash is that of the tuple of the fields, and the
    repr is "Name(field=value, ...)", as for a frozen dataclass. `copy` and
    `pickle` rebuild a record from its fields without running `__init__`,
    through `_record`, which also builds the records whose values a caller
    has already checked.
    """

    __slots__ = ()
    __match_args__ = ()

    def _store(self, *values) -> None:
        """Store `values` as the fields, in `__match_args__` order."""
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return _record, (type(self), self._values())


def _record(cls: type, values: tuple) -> Record:
    """The `cls` record with `values` as its fields, unchecked: the caller
    guarantees the values `cls(...)` would store."""
    record = object.__new__(cls)
    record._store(*values)
    return record


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


def expect(value, kind: type | tuple[type, ...], what: str) -> None:
    """InputError "not a <what>: <value>" ("not an" before a vowel) unless
    `value` is a `kind` (or one of a tuple of kinds, as `isinstance` takes
    them)."""
    if not isinstance(value, kind):
        article = "an" if what[0] in "aeiou" else "a"
        raise InputError(f"not {article} {what}: {value!r}")


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


def integer_vectors(values, what: str, vector: str, length: int, low: int,
                    high: int | None = None) -> tuple[tuple[int, ...], ...]:
    """`values`, a collection of vectors, as the tuple of `integers(v, vector,
    length, low, high)` for each vector v in order. When every vector is a
    tuple of `length` entries, every entry's type is exactly int, and every
    entry lies in the bounds, each of those calls would return its vector
    itself, so the caller's tuples are returned as they are; otherwise the
    calls are made, and the first vector that fails raises their error."""
    out = collection(values, what)
    if set(map(type, out)) == {tuple} and set(map(len, out)) == {length}:
        flat = list(chain.from_iterable(out))
        if set(map(type, flat)) == {int}:
            # a set only after the type check: it would merge True or
            # Fraction(2) into an equal int
            entries = set(flat)
            if min(entries) >= low and (high is None or max(entries) <= high):
                return out
    return tuple([integers(v, vector, length, low, high) for v in out])


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

