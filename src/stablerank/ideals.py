"""T-stable ranks of polynomial ideals at the origin and monomial-ideal lct.

The T-stable rank of an ideal is the infimum over nonzero integer weight
vectors lam >= 0 of sum(lam) / ord_lam(ideal), where ord_lam takes the
minimum weighted degree over the support of the generators. That is exactly
the slope program `stablerank.exactlp._slope` solves, with one row per
distinct exponent vector; the ideal's constructor has checked every
exponent, so the rows go to that solve unchecked. A generator with a
nonzero constant term puts the zero row in the program and the rank is
+infinity (the origin is not in the zero locus).

Ranks computed in a fixed coordinate system bound the coordinate-free rank
from above; `apply_linear_change` re-expresses generators in another linear
system of parameters so callers can minimize over several systems. For
monomial ideals the standard coordinates are already optimal and the rank
coincides with the log canonical threshold at the origin; `lct_monomial`
computes it through the rank program while `newton_threshold` gives the
Newton-polyhedron form of the same number (the largest nu with (1,...,1) in
nu times the polyhedron). The threshold program is the LP dual of the rank
program (y = theta / t, see `newton_threshold`), so the verification
suites' agreement check is a strong-duality check of the solver, not an
independent route.

Polynomial arithmetic runs on Python integers. `SparsePolynomial.terms` maps
exponent tuples to nonzero Fractions, but a product clears each factor's
coefficients over the lcm of their denominators (`rationals.cleared`),
multiplies integer terms in the one product routine `_int_product` and
divides once by the product of the two lcms (`_over`), building one Fraction
per output term. Inside a product each exponent vector e is one int key,
sum_j e_j * B^j, for a base B above every exponent the result can reach,
which is at most the sum of the two degrees for `SparsePolynomial.__mul__`
and the degree of f for `apply_linear_change`. No digit then carries into
the next, the key of a product term is the sum of its factors' keys, and a
pair of terms costs one int addition. B is a power of 256 (`_keying`), so a
key's bytes are its digits: keys are encoded once per input term (`_key`)
and decoded once per output term, where `_over` builds its Fraction. Only
the public constructor validates exponents and coefficients; sums, products
and linear changes build their results unchecked, with `rationals._record`.

The support of an ideal (the generators of a monomial ideal, the distinct
exponent vectors of a polynomial ideal's generators) is read for the rank
program in one place, `_support_rows`; `ideal_order` reads the generators
themselves, so that it can check a rank's witness. The ideal operations
take a mixed or polynomial pair through `_poly_ideal`.
Every library object is checked through `rationals.expect`: anything that
is not an ideal raises InputError "not an ideal: ...", and likewise
"not a monomial ideal: ..." and "not a polynomial: ...".
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Collection, Iterable, Mapping, Sequence
from fractions import Fraction
from operator import le, mul

from .errors import InputError
from .exactlp import (
    LinearProgram,
    SlopeResult,
    _singular,
    _slope,
    lp_minimize,
)
from .rationals import (
    Record,
    _record,
    cleared,
    collection,
    expect,
    integer_vectors,
    integers,
    rational,
    rationals,
)

# The most multiply-adds `apply_linear_change` may spend on one polynomial, as
# bounded before any power is built (`_change_work`); a polynomial above it
# raises InputError. Under [[1, 2, 3], [0, 1, 5], [0, 0, 1]], x^e y^e z^e
# needs 2,171,715 at e = 128 (about 1.3 s) and 8,181,303 at e = 200 (about
# 6 s), both exactly their bounds; e = 256 is bounded by 17,073,795.
_CHANGE_WORK = 10 ** 7

__all__ = [
    "SparsePolynomial",
    "PolyIdeal",
    "MonomialIdeal",
    "LinearChange",
    "ideal_order",
    "t_stable_rank",
    "apply_linear_change",
    "lct_monomial",
    "newton_threshold",
    "ideal_power",
    "ideal_product",
    "ideal_sum",
]


def _int_product(a: Mapping[int, int], b: Mapping[int, int]) -> dict:
    """The product of two polynomials with integer coefficients, the one
    polynomial product routine. Each exponent vector e is keyed by the one
    int sum_j e_j * B^j (`_keying`), for a base B above every exponent the
    caller's result can reach, so no digit carries into the next and the
    key of a product term is the sum of its factors' keys. Terms that cancel
    stay in as zeros; `_over` drops them."""
    acc: dict[int, int] = {}
    get = acc.get
    for u, cu in a.items():
        for v, cv in b.items():
            key = u + v
            acc[key] = get(key, 0) + cu * cv
    return acc


def _keying(bound: int, nvars: int) -> tuple[list[int], Callable[[int], tuple[int, ...]]]:
    """(places, decode) for the keys of exponent vectors of `nvars` entries,
    each at most `bound`: the key of e is sum_j e_j * B^j = `_key(e,
    places)`, with places[j] = B^j, and decode(key) is e. B is 2^(8w), for
    the fewest bytes w that hold `bound`, so no digit carries into the next
    and the key's little-endian bytes are its digits, w to a digit. With
    w = 1, every exponent below 256, one `int.to_bytes` decodes a key."""
    width = max(1, (bound.bit_length() + 7) // 8)
    places = [1 << 8 * width * j for j in range(nvars)]
    if width == 1:
        return places, lambda key: tuple(key.to_bytes(nvars, "little"))
    mask = (1 << 8 * width) - 1
    shifts = [8 * width * j for j in range(nvars)]
    return places, lambda key: tuple([key >> s & mask for s in shifts])


def _key(exps: Sequence[int], places: Sequence[int]) -> int:
    """The key sum_j e_j * B^j of an exponent vector, with places[j] = B^j."""
    return sum(map(mul, exps, places))


def _over(ints: Mapping[int, int], den: int, decode: Callable[[int], tuple[int, ...]]) -> dict:
    """Keyed integer terms divided by `den`: one Fraction per nonzero term,
    under the exponent tuple `decode` reads from its key."""
    return {decode(key): Fraction(c, den) for key, c in ints.items() if c}


class SparsePolynomial(Record):
    """Polynomial stored as {exponent tuple: nonzero rational coefficient}.
    Hashed through its terms as a frozenset, since `terms` is a dict."""

    __slots__ = __match_args__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Sequence[int], object]):
        (nvars,) = integers((nvars,), "polynomial nvars", low=1)
        if not isinstance(terms, Mapping):
            raise InputError(f"polynomial terms: expected a mapping, got {terms!r}")
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            key = integers(exps, "exponent vector", nvars, low=0)
            value = rational(coeff, "coefficient")
            if value:
                clean[key] = clean.get(key, Fraction(0)) + value
                if not clean[key]:
                    del clean[key]
        self._store(nvars, clean)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items())

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        expect(other, SparsePolynomial, "polynomial")
        if self.nvars != other.nvars:
            raise InputError("cannot add polynomials in different variable counts")
        acc = dict(self.terms)
        for exps, coeff in other.terms.items():
            total = acc.get(exps, 0) + coeff
            if total:
                acc[exps] = total
            else:
                del acc[exps]
        return _record(SparsePolynomial, (self.nvars, acc))

    def __mul__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        expect(other, SparsePolynomial, "polynomial")
        if self.nvars != other.nvars:
            raise InputError("cannot multiply polynomials in different variable counts")
        # every exponent of the product is at most the sum of the two degrees
        places, decode = _keying(
            max(map(sum, self.terms), default=0) + max(map(sum, other.terms), default=0),
            self.nvars)
        da, a = cleared(self.terms.values())
        db, b = cleared(other.terms.values())
        product = _int_product({_key(e, places): c for e, c in zip(self.terms, a)},
                               {_key(e, places): c for e, c in zip(other.terms, b)})
        return _record(SparsePolynomial, (self.nvars, _over(product, da * db, decode)))

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if self.is_zero:
            return f"SparsePolynomial({self.nvars}, 0)"
        body = " + ".join(f"{c}*x^{e}" for e, c in self.sorted_terms())
        return f"SparsePolynomial({self.nvars}, {body})"


class PolyIdeal(Record):
    """Ideal given by polynomial generators; at least one must be nonzero."""

    __slots__ = __match_args__ = ("nvars", "generators")

    def __init__(self, nvars: int, generators: Iterable[SparsePolynomial]):
        (nvars,) = integers((nvars,), "ideal nvars", low=1)
        gens = collection(generators, "ideal generators")
        if not gens:
            raise InputError("an ideal needs at least one generator")
        for g in gens:
            expect(g, SparsePolynomial, "polynomial")
            if g.nvars != nvars:
                raise InputError("generators live in different variable counts")
        if all(g.is_zero for g in gens):
            raise InputError("the zero ideal has no stable rank")
        self._store(nvars, gens)

    def __repr__(self) -> str:
        return f"PolyIdeal({self.nvars}, {list(self.generators)!r})"


class MonomialIdeal(Record):
    """Monomial ideal, generators kept minimal under divisibility."""

    __slots__ = __match_args__ = ("nvars", "generators")

    def __init__(self, nvars: int, generators: Iterable[Sequence[int]]):
        (nvars,) = integers((nvars,), "ideal nvars", low=1)
        raw = sorted(set(integer_vectors(generators, "ideal generators",
                                         "exponent vector", nvars, 0)))
        if not raw:
            raise InputError("a monomial ideal needs at least one generator")
        # a proper divisor sorts before its multiple, so testing each vector
        # against the generators kept so far keeps exactly the minimal ones
        minimal: list[tuple[int, ...]] = []
        for g in raw:
            for h in minimal:
                if all(map(le, h, g)):
                    break
            else:
                minimal.append(g)
        self._store(nvars, tuple(minimal))

    @property
    def is_unit(self) -> bool:
        return self.generators == ((0,) * self.nvars,)

    def to_poly_ideal(self) -> PolyIdeal:
        return PolyIdeal(
            self.nvars,
            [SparsePolynomial(self.nvars, {g: Fraction(1)}) for g in self.generators],
        )

    def __repr__(self) -> str:
        return f"MonomialIdeal({self.nvars}, {list(self.generators)!r})"


_IDEALS = (MonomialIdeal, PolyIdeal)


class LinearChange(Record):
    """Invertible rational matrix M encoding x_i -> sum_j M[j][i] * y_j; the
    constructor rejects a singular M, which `_singular` decides."""

    __slots__ = __match_args__ = ("matrix",)

    def __init__(self, matrix: Iterable[Iterable]):
        rows = [rationals(row, "matrix entry") for row in collection(matrix, "matrix")]
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise InputError("a linear change needs a square matrix")
        if _singular(rows):
            raise InputError("linear change matrix is singular")
        self._store(tuple(rows))

    @property
    def nvars(self) -> int:
        return len(self.matrix)

    def __repr__(self) -> str:
        return f"LinearChange({[list(r) for r in self.matrix]!r})"


def ideal_order(ideal, lam) -> object:
    """Minimum weighted order over the generators, every generator's order
    being the least over its terms. It reads the generators themselves, not
    the rows of the rank program, so that it can check a rank's witness."""
    expect(ideal, _IDEALS, "ideal")
    weights = rationals(lam, "weight vector", ideal.nvars, low=0)
    if isinstance(ideal, MonomialIdeal):
        exponents = ideal.generators
    else:
        exponents = [e for g in ideal.generators for e in g.terms]
    return min(sum(e * w for e, w in zip(row, weights)) for row in exponents)


def _support_rows(ideal) -> tuple[tuple[int, ...], ...]:
    """The distinct exponent vectors of the generators' terms, sorted."""
    expect(ideal, _IDEALS, "ideal")
    if isinstance(ideal, MonomialIdeal):
        return ideal.generators
    return tuple(sorted({exps for g in ideal.generators for exps in g.terms}))


def t_stable_rank(ideal) -> SlopeResult:
    """Stable rank of the ideal at the origin for the standard coordinates.

    Upper bound on the rank over all linear systems of parameters (exact for
    monomial ideals, where it equals the log canonical threshold). The value
    is +infinity exactly when some generator has a nonzero constant term.
    """
    rows = _support_rows(ideal)
    return _slope((1,) * len(rows[0]), rows)


def _change_work(exponents: Collection[Sequence[int]], sizes: Sequence[int]) -> int:
    """A bound on the multiply-adds of `apply_linear_change` on a polynomial
    with these exponent vectors, when q * x_i is a linear form of sizes[i]
    terms. With m = sizes[i], (q * x_i)^k has C(k + m - 1, m - 1) terms, and
    building it from the power below costs m times the terms of that one:
    m * C(E + m - 1, m) up to the largest exponent E of x_i. Each term of f
    then multiplies its running product by one power per variable it holds,
    and that product has at most as many terms as there are monomials of
    its degree in n variables."""
    n = len(sizes)
    work = sum(m * math.comb(top + m - 1, m) for m, top in zip(sizes, map(max, zip(*exponents))))
    for exps in exponents:
        part, degree = 1, 0
        for e, m in zip(exps, sizes):
            if e:
                power = math.comb(e + m - 1, m - 1)
                work += part * power
                degree += e
                part = min(part * power, math.comb(degree + n - 1, n - 1))
    return work


def apply_linear_change(f: SparsePolynomial, change: LinearChange) -> SparsePolynomial:
    """Exact substitution x_i -> sum_j M[j][i] * y_j, fully expanded.

    Satisfies the composition law apply(f, M @ N) = apply(apply(f, N), M).

    The expansion is done in integers over one denominator: M is cleared by
    `rationals.cleared`, so with q the lcm of its denominators each q * x_i
    is an integer linear form in y, whose powers are memoised. A term
    c * x^e is scaled to the common denominator L = lcm(den(c) * q^|e|) over
    the terms of f, everything is summed in one integer dictionary, and a
    Fraction is built once per output term. L is written out here, not taken
    through `cleared`, which would build one Fraction c / q^|e| per term only
    to read its denominator. Every dictionary is keyed by `_keying` for
    exponents up to deg f: every product below is homogeneous of degree at
    most deg f, so y_j is keyed by B^j and the key of each output term is
    decoded once, by `_over`. The result is not validated again. Before any
    power is built, `_change_work` bounds the multiply-adds, and a
    polynomial whose bound exceeds `_CHANGE_WORK` raises InputError.
    """
    expect(f, SparsePolynomial, "polynomial")
    expect(change, LinearChange, "linear change")
    n = f.nvars
    if change.nvars != n:
        raise InputError(
            f"linear change acts on {change.nvars} variables, polynomial has {n}"
        )
    # every exponent of every product below is at most the degree of f
    places, decode = _keying(max(map(sum, f.terms), default=0), n)
    # forms[i] is q * x_i = sum_j q * M[j][i] * y_j, an integer linear form,
    # y_j keyed by B^j: column i of q * M, its entries cleared in column order
    q, flat = cleared([v for column in zip(*change.matrix) for v in column])
    forms = [{y: v for y, v in zip(places, flat[i:i + n]) if v} for i in range(0, n * n, n)]
    work = _change_work(f.terms, [len(form) for form in forms])
    if work > _CHANGE_WORK:
        raise InputError(f"linear change: expansion bound of {work} multiply-adds "
                         f"exceeds {_CHANGE_WORK}")
    one = {0: 1}
    powers: dict[tuple[int, int], dict] = {}

    def form_power(i: int, e: int) -> dict:
        """(q * x_i)^e, memoised."""
        if e == 0:
            return one
        key = (i, e)
        if key not in powers:
            powers[key] = _int_product(form_power(i, e - 1), forms[i])
        return powers[key]

    # c * x^e is c * q^-|e| * prod_i form_power(i, e_i); every term is
    # scaled to the common denominator L and summed in integers
    den = math.lcm(*(c.denominator * q ** sum(e) for e, c in f.terms.items()))
    acc: dict[int, int] = {}
    get = acc.get
    for exps, coeff in f.terms.items():
        part = {0: coeff.numerator * (den // (coeff.denominator * q ** sum(exps)))}
        for i, e in enumerate(exps):
            if e:
                part = _int_product(part, form_power(i, e))
        for key, c in part.items():
            acc[key] = get(key, 0) + c
    return _record(SparsePolynomial, (n, _over(acc, den, decode)))


def lct_monomial(ideal: MonomialIdeal) -> Fraction:
    """Log canonical threshold of a monomial ideal at the origin.

    Equals the T-stable rank in the standard coordinates; `newton_threshold`
    computes the same number from the LP dual of that program.
    """
    return _lct_rank(ideal).value


def _lct_rank(ideal: MonomialIdeal) -> SlopeResult:
    """The rank program behind `lct_monomial`, with its witness."""
    expect(ideal, MonomialIdeal, "monomial ideal")
    if ideal.is_unit:
        raise InputError("lct undefined: the origin is not in the zero locus (unit ideal)")
    return t_stable_rank(ideal)


def newton_threshold(ideal: MonomialIdeal) -> Fraction:
    """Largest nu with (1,...,1) in nu times the Newton polyhedron.

    Minimizes t = 1/nu subject to sum theta_i * l_i <= t * (1,...,1) over
    convex multipliers theta; a single exact LP solve. With y = theta / t
    this is the LP dual of the rank program of `lct_monomial` (maximize
    sum(y) subject to sum_i y_i * l_i <= (1,...,1), y >= 0), so 1/t equals
    that rank by strong duality.
    """
    expect(ideal, MonomialIdeal, "monomial ideal")
    if ideal.is_unit:
        raise InputError("threshold undefined for the unit ideal")
    gens = ideal.generators
    r, n = len(gens), ideal.nvars
    rows = tuple(tuple(-g[j] for g in gens) + (1,) for j in range(n))
    program = _record(LinearProgram, ((0,) * r + (1,), rows, (0,) * n, ((1,) * r + (0,),), (1,)))
    out = lp_minimize(program)
    if out.status != "optimal" or out.value <= 0:
        raise RuntimeError(f"threshold program should be solvable, got {out}")
    return 1 / out.value


def ideal_power(ideal, exponent: int):
    """All products of `exponent` generators (with repetition)."""
    (r,) = integers((exponent,), "ideal power exponent", low=1)
    expect(ideal, _IDEALS, "ideal")
    if isinstance(ideal, MonomialIdeal):
        gens = [
            tuple(sum(es) for es in zip(*combo))
            for combo in itertools.combinations_with_replacement(ideal.generators, r)
        ]
        return MonomialIdeal(ideal.nvars, gens)
    gens = [
        functools.reduce(mul, combo)
        for combo in itertools.combinations_with_replacement(ideal.generators, r)
    ]
    return PolyIdeal(ideal.nvars, gens)


def _poly_ideal(ideal) -> PolyIdeal:
    """`ideal` as a polynomial ideal; InputError when it is not an ideal."""
    expect(ideal, _IDEALS, "ideal")
    return ideal.to_poly_ideal() if isinstance(ideal, MonomialIdeal) else ideal


def ideal_product(a, b):
    """Ideal generated by pairwise products of the generators."""
    if isinstance(a, MonomialIdeal) and isinstance(b, MonomialIdeal) and a.nvars == b.nvars:
        gens = [
            tuple(x + y for x, y in zip(g, h))
            for g in a.generators
            for h in b.generators
        ]
        return MonomialIdeal(a.nvars, gens)
    pa, pb = _poly_ideal(a), _poly_ideal(b)
    if pa.nvars != pb.nvars:
        raise InputError("ideal product needs matching variable counts")
    gens = [g * h for g in pa.generators for h in pb.generators]
    return PolyIdeal(pa.nvars, gens)


def ideal_sum(a, b):
    """Ideal generated by the union of the generators."""
    if isinstance(a, MonomialIdeal) and isinstance(b, MonomialIdeal) and a.nvars == b.nvars:
        return MonomialIdeal(a.nvars, a.generators + b.generators)
    pa, pb = _poly_ideal(a), _poly_ideal(b)
    if pa.nvars != pb.nvars:
        raise InputError("ideal sum needs matching variable counts")
    return PolyIdeal(pa.nvars, pa.generators + pb.generators)
