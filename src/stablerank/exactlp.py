"""Exact linear programming over the rationals.

Programs are given in integers and `fractions.Fraction`s, and answers come
back as Fractions, but the simplex tableau holds Python integers only: every
entry is stored as D * t over one positive integer D shared by the tableau.
A pivot on p keeps the pivot row P, replaces every other row R (the
objective row included) by (p * R - f * P) // D, where f is R's entry in the
pivot column, and makes |p| the new D (Edmonds' fraction-free pivoting, the
simplex form of Bareiss elimination). The division is always exact, and
every entry and D of every tableau is a minor of the initial integer
tableau. No floating point value ever enters a tableau, so results are
exact and bit-for-bit reproducible. Variables are implicitly constrained to
x >= 0. Inequality rows have sense a_k . x >= b_k; equality rows hold
exactly.

Each tableau row is a single Python integer, R = sum_j v_j * 2^(k*j): its
entries are signed values in k-bit fields. The width k is fixed before the
first pivot by Hadamard's inequality on the initial tableau, which bounds
every minor, and so every entry and D a solve can reach, by sqrt(P), with P
the exact product of the squared norms of the tableau's rows (both objective
rows of the two-phase route included). k is ceil(log2 sqrt(P)) plus 2,
rounded up to whole bytes, so |v_j| <= 2^(k-2) and every field decodes
uniquely; the logarithm of the exact product is up to one bit per row below
a sum of per-row ceilings. The inequality holds for columns as well: a minor
of the dual route's tableau, which has n + 1 rows, meets at most n + 1 of
its columns, so the product of the n + 1 largest squared column norms bounds
it too, and that route takes the smaller of the two bounds. The two-phase
route uses its rows alone: its phase-one objective row is built from the
packed constraint rows, never column by column, so only a bound on that
row's norm (the triangle inequality) is known. A pivot then
updates a whole row with one multiply, one subtract and one division, all
inside the big-integer arithmetic: field j of p * R - f * P is p*a_j -
f*b_j, a multiple of D, so p * R - f * P is D times the packed row of the
quotients, and dividing the whole integer by D gives that row exactly.
When D divides p, with q = p / D, the row is q * R - (f * P) // D, and when
D divides f as well it is q * R - (f / D) * P, with no big-integer division:
D divides p * R - f * P and p * R, so it divides f * P, and every entry comes
out the same integer.
Adding O = the sum of 2^(k-1) * 2^(k*j) over the fields makes every field
nonnegative: field j reads ((R + O) >> k*j & (2^k - 1)) - 2^(k-1), and the
top bit of field j of R + O is set exactly when v_j >= 0, so Bland's
entering column is the lowest set bit of ~(obj + O) & T, with T the top bits
of the column fields. Rows are packed and unpacked through bytes, k/8 to a
field, in linear time.

Every solve enters through `lp_minimize`, the one door to both routes
below, and denominators are cleared once, there: it passes the program
through `_integral`, which multiplies the objective by the lcm L of its
denominators and every row and right side, inequality and equality rows
alike, by one common R, both through `rationals.cleared`. Each part is cleared only when it holds a
Fraction: a program of ints alone passes unchanged, and fractional costs
alone (`torus_rank`'s alpha) clear the objective and leave every row and
right side as it is. `_integral` reads each program once. It takes every
row's squared norm, which both routes need for their field width and so
receive from it, and a norm is an int exactly when its row holds ints
alone, so the norms stand for a scan of the rows' types; when a row or
right side is cleared, the norms are taken again on the cleared rows. Both
routes take that all-integer program and divide only the value by L. Each
row's slack or artificial column keeps its unit entry and so stands for R
times that variable. Positive scalings of rows and variables change no
reduced-cost sign and no order among ratios, and the common R changes the
phase-one objective, the sum of the artificials, only by that factor, so
the integer tableau takes exactly the pivots the rational one would.

Pivoting uses the least-index (Bland) rule for both the entering and the
leaving variable, which makes every solve deterministic and cycle-free.
Ratios are compared by cross-multiplication.

Programs with no equality rows and a componentwise-nonnegative objective are
solved through the LP dual: the slack basis of the dual is immediately
feasible, so no phase-one pass is needed, and the primal vertex is read off
the optimal tableau's reduced costs (the complementary basic solution).
Everything else goes through the textbook primal two-phase simplex. A
feasibility question, {A x >= b, E x = e, x >= 0}, is the program with a
zero objective: without equality rows it takes the dual route, and with
them the two-phase route returns the phase-one vertex, because phase two
would not pivot and driving basic artificials out pivots on rows at level
0, which moves no variable. Such a phase one also stops at the first
tableau whose value, the sum of the artificials, is 0. That value cannot go
below 0, so every pivot Bland's rule would still take has a zero ratio: it
changes the basis but no variable's value, and the vertex returned is the
one the full phase one reaches. With a nonzero cost, phase one runs to the
end, since a different final basis could start phase two elsewhere and so
move its vertex.

`minimize_slope` is the bridge used by the rank computations: the infimum of
(cost . lam) / min_k (a_k . lam) over nonzero integer vectors lam >= 0 with
positive denominator equals the minimum of the linear program
min{cost . x : a_k . x >= 1, x >= 0}, because the slope is invariant under
scaling lam and clearing denominators of an optimal rational vertex produces
an integer witness with the same slope. The infimum is +infinity exactly
when some row is the zero vector (that row's pairing vanishes for every
lam), encoded as `math.inf`.

Inputs are checked once, at the public entry points: `LinearProgram(...)`
and `minimize_slope` check and coerce every entry. `_slope` is the solve of
`minimize_slope` without its checks, and `_feasible` the verdict of a
zero-objective equality system built without the `LinearProgram` checks.
They serve callers that build their rows from objects whose constructors
have checked them: `torus_rank`, `symm_torus_rank` and `t_stable_rank`
(and through it `lct_monomial`) call `_slope`, and the two semistability
checks call `_feasible`. Both go
through `lp_minimize` with a `LinearProgram._trusted` program, which is
built unchecked, as `newton_threshold` builds its own. Every such caller
passes rows and right sides of ints alone, so `_integral` scales no row: a
fractional right side is cleared by the caller, as a positive scaling of
the variables (the semistability checks solve for a multiple of theta),
which keeps every pivot, vertex and verdict. Only `torus_rank` passes
Fraction costs, its alpha, which `_integral` clears by L.

`_solve_square` runs the same pivot kernel as fraction-free Gauss-Jordan
elimination; `LinearChange` uses it to invert its matrix.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul, neg

from .errors import InputError
from .rationals import cleared, collection, expect, integers, rationals

__all__ = [
    "LinearProgram",
    "LpOutcome",
    "SlopeResult",
    "lp_minimize",
    "minimize_slope",
]


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  s.t.  constraint_rows . x >= rhs, equality_rows . x = equality_rhs, x >= 0.

    Entries are kept as given when they are ints or Fractions; other exact
    values (bools, "p/q" strings) are stored as Fractions.
    """

    objective: tuple[int | Fraction, ...]
    constraint_rows: tuple[tuple[int | Fraction, ...], ...]
    rhs: tuple[int | Fraction, ...]
    equality_rows: tuple[tuple[int | Fraction, ...], ...] = ()
    equality_rhs: tuple[int | Fraction, ...] = ()

    def __post_init__(self):
        obj = rationals(self.objective, "objective")
        if not obj:
            raise InputError("objective: at least one variable is required")
        n = len(obj)
        rows = tuple(rationals(row, "constraint row", n)
                     for row in collection(self.constraint_rows, "constraint rows"))
        rhs = rationals(self.rhs, "rhs", len(rows))
        eq_rows = tuple(rationals(row, "equality row", n)
                        for row in collection(self.equality_rows, "equality rows"))
        eq_rhs = rationals(self.equality_rhs, "equality rhs", len(eq_rows))
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraint_rows", rows)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "equality_rows", eq_rows)
        object.__setattr__(self, "equality_rhs", eq_rhs)

    @classmethod
    def _trusted(cls, objective, constraint_rows, rhs, equality_rows=(), equality_rhs=()) -> "LinearProgram":
        """The program with its fields kept as they are, unchecked: the caller
        guarantees nonempty tuples of ints and Fractions of matching lengths,
        as `__post_init__` would leave them."""
        program = object.__new__(cls)
        object.__setattr__(program, "objective", objective)
        object.__setattr__(program, "constraint_rows", constraint_rows)
        object.__setattr__(program, "rhs", rhs)
        object.__setattr__(program, "equality_rows", equality_rows)
        object.__setattr__(program, "equality_rhs", equality_rhs)
        return program

    @property
    def num_variables(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpOutcome:
    """Solver verdict: status is "optimal", "infeasible" or "unbounded".

    For an optimal outcome, `vertex` is a basic feasible solution satisfying
    every constraint exactly and `value` equals objective . vertex.
    """

    status: str
    value: Fraction | None = None
    vertex: tuple[Fraction, ...] | None = None


@dataclass(frozen=True)
class SlopeResult:
    """Result of a fractional slope minimization.

    `value` is the exact infimum (`math.inf` when no integer vector has a
    positive denominator). A finite result carries an integer witness
    attaining the value exactly.
    """

    value: Fraction | float
    witness: tuple[int, ...] | None

    @property
    def is_finite(self) -> bool:
        return self.value != math.inf


def _integral(program: LinearProgram) -> tuple:
    """(L * objective, R * rows, R * rhs, R * equality rows, R * equality rhs,
    L, norms): the program's all-integer twin, for the least positive
    integers L and R that clear the denominators of its objective and of all
    its rows and right sides together (the module docstring says why one
    R), with `norms` the squared norms of the twin's rows, inequality rows
    first, for both routes' field widths. The norms of the given rows also
    stand for a scan of their types: a single Fraction entry makes a norm a
    Fraction. Only the parts that hold a Fraction are cleared, so
    fractional costs alone leave every row as it is (R = 1)."""
    objective, rows, rhs = program.objective, program.constraint_rows, program.rhs
    eq_rows, eq_rhs = program.equality_rows, program.equality_rhs
    norms = [sum(map(mul, row, row)) for row in chain(rows, eq_rows)]
    scale = 1
    if not set(map(type, objective)) <= {int}:
        scale, objective = cleared(objective)
    if set(map(type, chain(rhs, eq_rhs, norms))) <= {int}:
        return objective, rows, rhs, eq_rows, eq_rhs, scale, norms
    n, m, sides = len(objective), len(rows), len(rhs) + len(eq_rhs)
    _, flat = cleared((*rhs, *eq_rhs, *chain(*rows, *eq_rows)))
    lines = [flat[i:i + n] for i in range(sides, len(flat), n)]
    norms = [sum(map(mul, line, line)) for line in lines]
    return objective, tuple(lines[:m]), flat[:m], tuple(lines[m:]), flat[m:sides], scale, norms


def _hadamard_bits(squares: Iterable[int], count: int | None = None) -> int:
    """ceil(log2 sqrt(P)), with P the product of the `count` largest nonzero
    `squares` (of all of them when count is None).

    For the squared norms of the rows of an integer matrix, or of its columns
    with `count` at least its number of rows, every minor is at most sqrt(P)
    in magnitude: by Hadamard's inequality a minor is at most the product of
    the norms of the lines it meets, at most `count` of them, and a nonzero
    integer line has norm at least 1. Taking the logarithm of the exact
    product, not a sum of per-line ceilings, saves up to one bit per line."""
    product = math.prod(sorted(filter(None, squares), reverse=True)[:count])
    return (product - 1).bit_length() + 1 >> 1


class _Fields(dict):
    """The packed-row format of one tableau.

    A row v_0, v_1, ... is the one integer R = sum_j v_j * 2^(k*j), whose k-bit
    fields hold signed values. k is 2 bits above a bound on every value of
    the tableau, in whole bytes: `_hadamard_bits` of the initial tableau's
    squared row norms (all of them, exactly multiplied) or, on the dual
    route, of its squared column norms, whichever is smaller. The two-phase
    route has no column bound, because it builds its phase-one row from the
    packed rows and so never sees that row's entries by column. Adding O,
    the sum of 2^(k-1) * 2^(k*j) over the fields, turns field j into
    v_j + 2^(k-1), in [0, 2^k): it reads
    ((R + O) >> k*j & (2^k - 1)) - 2^(k-1), and its top bit is set exactly
    when v_j >= 0. Rows are packed and unpacked through bytes in linear time,
    each field being k/8 little-endian bytes holding v_j + 2^(k-1); as a
    dict, the format maps each value met so far to those bytes, so packing a
    row costs one lookup per field.
    """

    def __init__(self, bits: int):
        """Fields for a tableau every entry and D of which is at most 2^bits
        in magnitude: k is bits plus 2, rounded up to whole bytes, so every
        value lies within 2^(k-2) and every field decodes uniquely. `bits`
        comes from `_hadamard_bits` of the initial integer tableau, whose
        minors are all the values a later tableau holds (Edmonds), and so
        never from the entries a solve happens to reach."""
        super().__init__()
        self.k = k = (bits + 9) // 8 * 8
        self.half = 1 << k - 1
        self.mask = (1 << k) - 1

    def __missing__(self, value: int) -> bytes:
        raw = self[value] = (self.half + value).to_bytes(self.k >> 3, "little")
        return raw

    def offset(self, count: int) -> int:
        """O for `count` fields; its bits are the top bits of the fields."""
        return int.from_bytes(self[0] * count, "little")

    def pack(self, values: Iterable[int], offset: int, tail: bytes = b"") -> int:
        """The packed row of `values` followed by the encoded fields `tail`
        (self[v] encodes v, and self[0] * n a run of n zeros), with `offset`
        the O of all those fields."""
        return int.from_bytes(b"".join(map(self.__getitem__, values)) + tail, "little") - offset

    def unpack(self, row: int, count: int, start: int = 0) -> list[int]:
        """Fields `start` to `count` - 1 of a packed row of `count` fields."""
        size, half = self.k >> 3, self.half
        raw = (row + self.offset(count)).to_bytes(size * count, "little")
        return [
            int.from_bytes(raw[i:i + size], "little") - half
            for i in range(size * start, len(raw), size)
        ]

    def column(self, rows: Iterable[int], c: int, offset: int) -> list[int]:
        """Field c of every packed row, with `offset` the O of the rows."""
        shift, mask, half = self.k * c, self.mask, self.half
        return [((row + offset) >> shift & mask) - half for row in rows]


def _pivot(rows: list[int], d: int, r: int, factors: Sequence[int]) -> int:
    """Pivot on packed row r in place and return the new common denominator.
    factors[i] is row i's entry in the pivot column, read once by the caller,
    so factors[r] is the pivot p.

    Every row stands for row / d with one positive integer d (Edmonds 1967,
    the simplex form of Bareiss 1968). A negative pivot negates the pivot row
    P first. The pivot row keeps its entries, and every other row R becomes
    (p * R - f * P) // d, with f its factor: one multiply, one subtract and
    one exact division on the whole row. Field j of p * R - f * P is
    p * a_j - f * b_j = d * y_j, so the row is d * sum_j y_j * 2^(k*j) and
    dividing it by d leaves the packed row of the y_j, which are minors of
    the initial tableau and fit their fields. |p| becomes the common
    denominator.

    When d divides p, with q = p / d, the same row is q * R - (f * P) // d:
    d divides p * R - f * P and p * R, so it divides f * P, and the division
    is exact. When d divides f as well, the row is q * R - (f / d) * P, with
    no big-integer division at all, and when q = 1 the row is R less that
    multiple of P, left as it is for f = 0. Only d not dividing p takes the
    general formula."""
    p = factors[r]
    prow = rows[r]
    if p < 0:
        p = -p
        prow = rows[r] = -prow
    q, rem = divmod(p, d)
    if rem:
        for i, f in enumerate(factors):
            if i != r:
                rows[i] = (p * rows[i] - f * prow) // d
    elif q == 1:
        for i, f in enumerate(factors):
            if f and i != r:
                rows[i] -= f * prow // d if f % d else f // d * prow
    else:
        for i, f in enumerate(factors):
            if i != r:
                rows[i] = q * rows[i] - (f * prow // d if f % d else f // d * prow)
    return p


def _simplex(rows: list[int], basis: list[int], d: int, fields: _Fields, ncols: int,
             stop_at_zero: bool = False) -> tuple[bool, int]:
    """Minimize over the packed tableau `rows`, whose last row is the
    objective and whose rows hold `ncols` columns and then the right side, by
    Bland's rule: enter at the least column with a negative reduced cost,
    leave at the least ratio (compared by cross-multiplication), ties going
    to the least basic index. Returns (bounded, common denominator).

    With `stop_at_zero`, the pass also ends at the first tableau whose
    objective value is 0. The two-phase route asks for it in phase one when
    every cost is 0: the phase-one value never goes below 0, so every later
    pivot would have a zero ratio and move no variable.

    The entering column is the lowest set bit of ~(obj + O) & T, with T the
    top bits of the first `ncols` fields: the top bit of field j of obj + O
    is clear exactly when v_j < 0. The ratio test reads column `enter` of
    every row once and hands those factors to `_pivot`."""
    m = len(rows) - 1
    k, half, mask = fields.k, fields.half, fields.mask
    last = k * ncols
    top = fields.offset(ncols)
    offset = top + (half << last)
    while True:
        u = rows[m] + offset
        negative = ~u & top
        if not negative or stop_at_zero and u >> last == half:
            return True, d
        shift = (negative & -negative).bit_length() - k
        factors = []
        best = -1
        for i in range(m):
            w = rows[i] + offset
            coeff = (w >> shift & mask) - half
            factors.append(coeff)
            if coeff > 0:
                level = (w >> last) - half
                if best < 0:
                    best, best_level, best_coeff = i, level, coeff
                    continue
                lhs, rhs = level * best_coeff, best_level * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best, best_level, best_coeff = i, level, coeff
        if best < 0:
            return False, d
        factors.append((u >> shift & mask) - half)
        d = _pivot(rows, d, best, factors)
        basis[best] = shift // k


def _primal_two_phase(
    objective: Sequence[int],
    rows: Sequence[Sequence[int]],
    rhs: Sequence[int],
    eq_rows: Sequence[Sequence[int]],
    eq_rhs: Sequence[int],
    scale: int,
    norms: Sequence[int],
) -> LpOutcome:
    """The two-phase primal simplex on an all-integer program, whose value
    comes back divided by `scale`; `norms` holds the squared norms of `rows`
    and then of `eq_rows`."""
    n = len(objective)
    nsurplus = len(rows)
    width = n + nsurplus
    m = nsurplus + len(eq_rows)
    ncols = width + m

    # Row i is multiplied by -1 when its right side is negative. Its surplus
    # and artificial columns keep the entries -1 (sign-adjusted) and 1.
    lines, levels, signs, squares = [], [], [], []
    for i, (line, level, norm) in enumerate(zip(chain(rows, eq_rows), chain(rhs, eq_rhs), norms)):
        if level < 0:
            line, level = list(map(neg, line)), -level
            signs.append(-1)
        else:
            signs.append(1)
        lines.append(line)
        levels.append(level)
        squares.append(norm + level * level + (i < nsurplus) + 1)

    # phase one: minimize the sum of the artificials, priced out against the
    # artificial basis: the row minus the sum of the rows, artificials left
    # out, built from the packed rows. Its norm is at most the sum of theirs
    # (the triangle inequality), which stands in for it in the field width.
    squares.append(sum(math.isqrt(sq - 1) + 1 for sq in squares) ** 2)
    # The phase-two row, d times the cost row less multiples of basic rows,
    # is the cost row carried through every pivot, so it belongs to the
    # initial tableau as well.
    squares.append(sum(map(mul, objective, objective)))

    fields = _Fields(_hadamard_bits(squares))
    k = fields.k
    offset = fields.offset(ncols + 1)
    zeros = fields[0] * (ncols - n)
    unit = 1 << k * width
    tableau = []
    phase_one = 0
    for i, (line, level) in enumerate(zip(lines, levels)):
        packed = fields.pack(line, offset, zeros + fields[level])
        if i < nsurplus:
            packed -= signs[i] << k * (n + i)
        phase_one -= packed
        tableau.append(packed + unit)
        unit <<= k
    tableau.append(phase_one)
    basis = list(range(width, ncols))
    # With every cost 0, phase one ends as soon as its value is 0: the pivots
    # Bland's rule would take after that are degenerate. With a cost, it runs
    # to the end, because another final basis could move phase two's vertex.
    zero_cost = not any(objective)
    bounded, d = _simplex(tableau, basis, 1, fields, ncols, zero_cost)
    if not bounded:
        raise RuntimeError("phase one cannot be unbounded")
    if (tableau[m] + offset) >> k * ncols != fields.half:
        return LpOutcome(status="infeasible")
    if zero_cost:
        # Every cost is 0, so phase two would not pivot, and the drive-out
        # below pivots on rows at level 0, which moves no variable: the
        # phase-one vertex is the answer.
        return LpOutcome(status="optimal", value=Fraction(0),
                         vertex=_basic_values(tableau, basis, n, d, fields, k * ncols, offset))

    # pivot leftover artificials out of the basis, at the least column below
    # `width` whose field is nonzero, that is, nonzero in (row + O) ^ O; rows
    # that resist are redundant (identically zero) and get dropped
    low = (1 << k * width) - 1
    for i in range(m):
        if basis[i] >= width:
            nonzero = (tableau[i] + offset ^ offset) & low
            if nonzero:
                j = ((nonzero & -nonzero).bit_length() - 1) // k
                d = _pivot(tableau, d, i, fields.column(tableau, j, offset))
                basis[i] = j
    keep = [i for i in range(m) if basis[i] < width]
    basis = [basis[i] for i in keep]
    # keep the first `width` fields and move the right side next to them
    narrow = fields.offset(width + 1)
    tableau = [
        ((u & low) | (u >> k * ncols << k * width)) - narrow
        for u in (tableau[i] + offset for i in keep)
    ]

    # phase two with the real objective
    obj = d * fields.pack(objective, narrow, fields[0] * (nsurplus + 1))
    for b, line in zip(basis, tableau):
        if b < n and objective[b]:
            obj -= objective[b] * line
    tableau.append(obj)
    bounded, d = _simplex(tableau, basis, d, fields, width)
    if not bounded:
        return LpOutcome(status="unbounded")

    value = Fraction(fields.half - ((tableau[-1] + narrow) >> k * width), d * scale)
    return LpOutcome(status="optimal", value=value,
                     vertex=_basic_values(tableau, basis, n, d, fields, k * width, narrow))


def _basic_values(rows: Sequence[int], basis: Sequence[int], n: int, d: int, fields: _Fields,
                  shift: int, offset: int) -> tuple[Fraction, ...]:
    """The vertex of the first n variables: basic variable basis[i] < n is the
    right side of packed row i, the field at bit `shift`, over d; `offset` is
    the O of the rows."""
    half = fields.half
    x = [Fraction(0)] * n
    for b, line in zip(basis, rows):
        if b < n:
            x[b] = Fraction(((line + offset) >> shift) - half, d)
    return tuple(x)


def _via_dual(
    objective: Sequence[int],
    rows: Sequence[Sequence[int]],
    rhs: Sequence[int],
    scale: int,
    norms: Sequence[int],
) -> LpOutcome:
    """Solve min{c.x : A x >= b, x >= 0}, an all-integer program with c >= 0,
    through its dual max{b.y : A^T y <= c, y >= 0}, and divide the value by
    `scale`; `norms` holds the squared norms of the rows. The dual slack
    basis is feasible at once, and the optimal tableau's reduced costs under
    the slack columns are the complementary primal vertex: the reduced cost
    of slack j reads D * x_j."""
    m = len(rows)
    n = len(objective)
    lines = list(zip(*rows)) if rows else [()] * n
    squares = [sum(map(mul, line, line)) + c * c + 1 for line, c in zip(lines, objective)]
    squares.append(sum(map(mul, rhs, rhs)))
    # Every minor meets at most n + 1 columns: one column per primal row (its
    # entries and right side), the cost column and the unit slack columns,
    # which change no product.
    columns = [norm + b * b for norm, b in zip(norms, rhs)]
    columns.append(sum(map(mul, objective, objective)))
    fields = _Fields(min(_hadamard_bits(squares), _hadamard_bits(columns, n + 1)))
    offset = fields.offset(m + n + 1)
    zeros = fields[0] * n
    unit = 1 << fields.k * m
    tableau = []
    for line, c in zip(lines, objective):
        tableau.append(fields.pack(line, offset, zeros + fields[c]) + unit)
        unit <<= fields.k
    tableau.append(fields.pack(map(neg, rhs), offset, fields[0] * (n + 1)))
    basis = [m + j for j in range(n)]
    bounded, d = _simplex(tableau, basis, 1, fields, m + n)
    if not bounded:
        return LpOutcome(status="infeasible")
    reduced = fields.unpack(tableau[-1], m + n + 1, m)
    value = Fraction(reduced[-1], d * scale)
    vertex = tuple(Fraction(r, d) for r in reduced[:-1])
    return LpOutcome(status="optimal", value=value, vertex=vertex)


def lp_minimize(program: LinearProgram) -> LpOutcome:
    """Exact minimum of a linear program; deterministic for identical input."""
    expect(program, LinearProgram, "linear program")
    objective, rows, rhs, eq_rows, eq_rhs, scale, norms = _integral(program)
    if not eq_rows and all(c >= 0 for c in objective):
        return _via_dual(objective, rows, rhs, scale, norms)
    return _primal_two_phase(objective, rows, rhs, eq_rows, eq_rhs, scale, norms)


def _feasible(equality_rows: tuple[tuple[int, ...], ...], equality_rhs: tuple[int, ...]) -> bool:
    """Is {E x = e, x >= 0} feasible? The verdict of `lp_minimize` on the
    program with a zero objective and these equality rows, which the
    caller has built from checked objects and so passes unchecked: a
    nonempty tuple of equally long, nonempty tuples of ints, with one int
    right side each. The two semistability checks call it. The program has
    equality rows, so `lp_minimize` takes the two-phase route and returns
    the phase-one verdict."""
    program = LinearProgram._trusted(
        (0,) * len(equality_rows[0]), (), (), equality_rows, equality_rhs)
    return lp_minimize(program).status == "optimal"


def minimize_slope(cost: Iterable, rows: Iterable[Iterable]) -> SlopeResult:
    """Infimum of (cost . lam) / min_k (row_k . lam) over integer lam >= 0
    with positive denominator, as a single exact LP solve.

    Rows must be nonnegative integer vectors; cost entries must be positive
    rationals. The infimum is +infinity exactly when some row is the zero
    vector; an empty row collection is rejected (the rank of the zero object
    is undefined).
    """
    cvec = rationals(cost, "cost")
    if not cvec:
        raise InputError("cost vector is empty")
    if any(c <= 0 for c in cvec):
        raise InputError("cost entries must be positive")
    rmat = [integers(row, "support row", len(cvec), low=0)
            for row in collection(rows, "support rows")]
    if not rmat:
        raise InputError("rank of the zero object is undefined: no support rows")
    return _slope(cvec, tuple(rmat))


def _slope(cost: tuple[int | Fraction, ...], rows: tuple[tuple[int, ...], ...]) -> SlopeResult:
    """`minimize_slope` of a program the caller has built from checked
    objects and so passes unchecked: `cost` a nonempty tuple of positive ints
    and Fractions, `rows` a nonempty tuple of tuples of nonnegative ints, each
    as long as `cost`. `torus_rank`, `symm_torus_rank` and `t_stable_rank`
    call it, with int costs alone but for `torus_rank`'s alpha."""
    if not all(map(any, rows)):
        return SlopeResult(value=math.inf, witness=None)
    out = lp_minimize(LinearProgram._trusted(cost, rows, (1,) * len(rows)))
    if out.status != "optimal":
        raise RuntimeError(f"slope program should be solvable, got {out.status}")
    return SlopeResult(value=out.value, witness=cleared(out.vertex)[1])


def _solve_square(matrix: Sequence[Sequence], rhs: Sequence[Sequence]) -> list[list[Fraction]] | None:
    """Unique solution X of M X = R for a square rational M, or None when M is
    singular. R holds one row per row of M. Fraction-free Gauss-Jordan
    elimination: each row of [M | R] is cleared of denominators and packed,
    then pivoted with `_pivot` down the diagonal, so X = R' / d at the end."""
    n = len(matrix)
    lines = [cleared((*row, *extra))[1] for row, extra in zip(matrix, rhs)]
    if not lines:
        return []
    fields = _Fields(_hadamard_bits(sum(map(mul, line, line)) for line in lines))
    count = len(lines[0])
    offset = fields.offset(count)
    rows = [fields.pack(line, offset) for line in lines]
    d = 1
    for col in range(n):
        factors = fields.column(rows, col, offset)
        pivot_row = next((i for i in range(col, n) if factors[i]), -1)
        if pivot_row < 0:
            return None
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        factors[col], factors[pivot_row] = factors[pivot_row], factors[col]
        d = _pivot(rows, d, col, factors)
    return [[Fraction(v, d) for v in fields.unpack(row, count, n)] for row in rows]
