"""Exact linear programming over the rationals.

Programs are given in integers and `fractions.Fraction`s, and the simplex
tableau holds Python integers only: every entry is stored as D * t over one
positive integer D shared by the tableau (Edmonds' fraction-free pivoting,
`_pivot`). No floating point value enters a tableau, so results are exact
and bit-for-bit reproducible. Variables are implicitly constrained to
x >= 0, inequality rows have sense a_k . x >= b_k, and equality rows hold.

Each tableau row is one Python integer of signed fields (`_Fields`), as wide
as Hadamard's bound on the initial tableau (`_hadamard_bits`) needs, pivoted
whole (`_pivot`) by Bland's rule (`_simplex`).

Every solve enters through `lp_minimize`, the one door to both routes
below, and leaves as its one `LpOutcome`. It clears denominators once, by
`_integral`, and hands every caller the route's answer, a status or
(value, x, D) in integers, as it is, with the value over D * L as one
Fraction, L being `_integral`'s cost scale.

Programs with no equality rows and a componentwise-nonnegative objective are
solved through the LP dual: the slack basis of the dual is immediately
feasible, so no phase-one pass is needed, and the primal vertex is read off
the optimal tableau's reduced costs (the complementary basic solution).
Everything else goes through the textbook primal two-phase simplex. A
feasibility question, {A x >= b, E x = e, x >= 0}, is the program with a
zero objective: without equality rows it takes the dual route, and with
them the two-phase route returns the phase-one vertex, because phase two
would not pivot and driving basic artificials out pivots on rows at level
0, which moves no variable. Such a phase one packs no artificial column,
and its field width counts none.
None could enter while the value, the sum of the artificials, is above 0:
were every real column priced >= 0 there, the tableau would be optimal for
the program of the real columns and the basic artificials, which a
feasible x puts at 0. So Bland's rule, trying real columns first, takes
the same pivots, and an infeasible system stops at that restricted
optimum, above 0. The pass also stops at the first tableau of value 0,
which cannot go below 0, so every pivot Bland's rule would still take has
a zero ratio and moves no variable. With a nonzero cost, phase one packs
the artificials and runs to the end, since a different final basis could
start phase two elsewhere and so move its vertex.

`_slope` is the bridge used by the rank computations, the slope infimum as
one solve. Its witness is x // gcd(D, *x), `rationals.cleared` of the
vertex x / D; `_feasible` reads the status and `ideals.newton_threshold`
the value. A caller with a slope program of its own gets the same from
`lp_minimize(LinearProgram(cost, rows, (1,) * len(rows)))`.

Inputs are checked once, at the public entry points: `LinearProgram(...)`
checks and coerces every entry. `_slope`, `_feasible` and
`newton_threshold` build their programs with `rationals._record`, unchecked,
from objects whose constructors have checked them. Every such program has
rows and right sides of ints alone, so `_integral` scales no row: a
fractional right side is cleared by the caller, as a positive scaling of the
variables (the semistability checks solve for a multiple of theta), which
keeps every pivot, vertex and verdict.

`_singular` runs the same pivot kernel as fraction-free Gauss-Jordan
elimination; `LinearChange` uses it to check that its matrix is invertible.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain
from operator import mul, neg

from .errors import InputError
from .rationals import Record, _record, cleared, collection, expect, rationals

__all__ = [
    "LinearProgram",
    "LpOutcome",
    "SlopeResult",
    "lp_minimize",
]


class LinearProgram(Record):
    """min objective . x  s.t.  constraint_rows . x >= rhs, equality_rows . x = equality_rhs, x >= 0.

    Entries are kept as given when they are ints or Fractions; other exact
    values (bools, "p/q" strings) are stored as Fractions.
    """

    __slots__ = __match_args__ = ("objective", "constraint_rows", "rhs", "equality_rows",
                                  "equality_rhs")

    def __init__(self, objective, constraint_rows, rhs, equality_rows=(), equality_rhs=()):
        obj = rationals(objective, "objective")
        if not obj:
            raise InputError("objective: at least one variable is required")
        n = len(obj)
        rows = tuple(rationals(row, "constraint row", n)
                     for row in collection(constraint_rows, "constraint rows"))
        rhs = rationals(rhs, "rhs", len(rows))
        eq_rows = tuple(rationals(row, "equality row", n)
                        for row in collection(equality_rows, "equality rows"))
        eq_rhs = rationals(equality_rhs, "equality rhs", len(eq_rows))
        self._store(obj, rows, rhs, eq_rows, eq_rhs)

    @property
    def num_variables(self) -> int:
        return len(self.objective)


class LpOutcome(Record):
    """Solver verdict: status is "optimal", "infeasible" or "unbounded".

    For an optimal outcome, `value` is the Fraction objective . x at the
    basic feasible solution x = numerators / denominator, ints over one
    positive int, that satisfies every constraint exactly; else all None.
    """

    __slots__ = __match_args__ = ("status", "value", "numerators", "denominator")

    def __init__(self, status: str, value: Fraction | None = None,
                 numerators: tuple[int, ...] | None = None, denominator: int | None = None):
        self._store(status, value, numerators, denominator)


class SlopeResult(Record):
    """Result of a fractional slope minimization.

    `value` is the exact infimum (`math.inf` when no integer vector has a
    positive denominator). A finite result carries an integer witness
    attaining the value exactly.
    """

    __slots__ = __match_args__ = ("value", "witness")

    def __init__(self, value: Fraction | float, witness: tuple[int, ...] | None):
        self._store(value, witness)


def _integral(program: LinearProgram) -> tuple:
    """(L * objective, R * rows, R * rhs, R * equality rows, R * equality rhs,
    L, norms): the program's all-integer twin, for the least positive
    integers L and R that clear the denominators of its objective and of all
    its rows and right sides together, with `norms` the squared norms of the
    twin's rows, inequality rows first, for both routes' field widths. The
    norms of the given rows also stand for a scan of their types: a single
    Fraction entry makes a norm a Fraction. Only the parts that hold a
    Fraction are cleared, so fractional costs alone leave every row as it is
    (R = 1), and a program of ints alone passes unchanged.

    One R serves every row, inequality and equality rows alike: each row's
    slack or artificial column keeps its unit entry and so stands for R
    times that variable. Positive scalings of rows and variables change no
    reduced-cost sign and no order among ratios, and the common R changes
    the phase-one objective, the sum of the artificials, only by that
    factor, so the integer tableau takes exactly the pivots the rational one
    would. `lp_minimize` divides only the value by L."""
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
    to the least basic index, so every solve is deterministic and
    cycle-free. Returns (bounded, common denominator).

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
    norms: Sequence[int],
) -> str | tuple[int, list[int], int]:
    """The two-phase primal simplex on an all-integer program: "infeasible",
    "unbounded" or (value, x, D), value and vertex x over the denominator D;
    `norms` holds the squared norms of `rows` and then of `eq_rows`."""
    n = len(objective)
    nsurplus = len(rows)
    width = n + nsurplus
    m = nsurplus + len(eq_rows)
    # With every cost 0, no artificial column is packed (module docstring):
    # the basis still names them, width to width + m - 1, but none can enter.
    zero_cost = not any(objective)
    ncols = width if zero_cost else width + m

    # Row i is multiplied by -1 when its right side is negative. Its surplus
    # and artificial columns keep the entries -1 (sign-adjusted) and 1; the
    # field width counts the artificial column only when it is packed.
    lines, levels, signs, squares = [], [], [], []
    for i, (line, level, norm) in enumerate(zip(chain(rows, eq_rows), chain(rhs, eq_rhs), norms)):
        if level < 0:
            line, level = list(map(neg, line)), -level
            signs.append(-1)
        else:
            signs.append(1)
        lines.append(line)
        levels.append(level)
        squares.append(norm + level * level + (i < nsurplus) + (not zero_cost))

    # phase one: minimize the sum of the artificials, priced out against the
    # artificial basis: the row minus the sum of the rows, artificials left
    # out, since their priced-out entries are 0, built from the packed rows.
    # Its norm is at most the sum of theirs (the triangle inequality), which
    # stands in for it in the field width; a zero row, which a zero-cost
    # tableau may hold, adds 0.
    squares.append(sum(math.isqrt(sq - 1) + 1 for sq in squares if sq) ** 2)
    # The phase-two row, d times the cost row less multiples of basic rows,
    # is the cost row carried through every pivot, so it belongs to the
    # initial tableau as well.
    squares.append(sum(map(mul, objective, objective)))

    fields = _Fields(_hadamard_bits(squares))
    k = fields.k
    offset = fields.offset(ncols + 1)
    zeros = fields[0] * (ncols - n)
    unit = 0 if zero_cost else 1 << k * width
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
    basis = list(range(width, width + m))
    # With every cost 0, phase one ends as soon as its value is 0: the pivots
    # Bland's rule would take after that are degenerate. With a cost, it runs
    # to the end, because another final basis could move phase two's vertex.
    bounded, d = _simplex(tableau, basis, 1, fields, ncols, zero_cost)
    if not bounded:
        raise RuntimeError("phase one cannot be unbounded")
    if (tableau[m] + offset) >> k * ncols != fields.half:
        return "infeasible"
    if zero_cost:
        # Every cost is 0, so phase two would not pivot, and the drive-out
        # below pivots on rows at level 0, which moves no variable: the
        # phase-one vertex is the answer.
        return 0, _basic_values(tableau, basis, n, fields, k * ncols, offset), d

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
        return "unbounded"
    value = fields.half - ((tableau[-1] + narrow) >> k * width)
    return value, _basic_values(tableau, basis, n, fields, k * width, narrow), d


def _basic_values(rows: Sequence[int], basis: Sequence[int], n: int, fields: _Fields,
                  shift: int, offset: int) -> list[int]:
    """D times the vertex of the first n variables: basic variable basis[i] < n
    reads the right side of packed row i, its field at bit `shift` under O = `offset`."""
    half = fields.half
    x = [0] * n
    for b, line in zip(basis, rows):
        if b < n:
            x[b] = ((line + offset) >> shift) - half
    return x


def _via_dual(
    objective: Sequence[int],
    rows: Sequence[Sequence[int]],
    rhs: Sequence[int],
    norms: Sequence[int],
) -> str | tuple[int, list[int], int]:
    """Solve min{c.x : A x >= b, x >= 0}, an all-integer program with c >= 0,
    through its dual max{b.y : A^T y <= c, y >= 0}, to "infeasible" or
    (value, x, D) as `_primal_two_phase` does; `norms` holds the squared
    norms of the rows. The dual slack basis is feasible at once, and the
    optimal tableau's reduced costs under the slack columns are the
    complementary primal vertex: the reduced cost of slack j reads D * x_j."""
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
        return "infeasible"
    reduced = fields.unpack(tableau[-1], m + n + 1, m)
    return reduced.pop(), reduced, d


def lp_minimize(program: LinearProgram) -> LpOutcome:
    """Exact minimum of a linear program; deterministic for identical input.
    The outcome holds the route's ints as they are, the value over D * L."""
    expect(program, LinearProgram, "linear program")
    objective, rows, rhs, eq_rows, eq_rhs, scale, norms = _integral(program)
    if not eq_rows and all(c >= 0 for c in objective):
        answer = _via_dual(objective, rows, rhs, norms)
    else:
        answer = _primal_two_phase(objective, rows, rhs, eq_rows, eq_rhs, norms)
    if isinstance(answer, str):
        return LpOutcome(answer)
    value, x, d = answer
    return LpOutcome("optimal", Fraction(value, d * scale), tuple(x), d)


def _feasible(equality_rows: tuple[tuple[int, ...], ...], equality_rhs: tuple[int, ...]) -> bool:
    """Is {E x = e, x >= 0} feasible? The verdict of `lp_minimize` on the
    program with a zero objective and these equality rows, which the
    caller has built from checked objects and so passes unchecked: a
    nonempty tuple of equally long, nonempty tuples of ints, with one int
    right side each. The two semistability checks call it. The program has
    equality rows, so `lp_minimize` takes the two-phase route and returns
    the phase-one verdict."""
    program = _record(LinearProgram,
                      ((0,) * len(equality_rows[0]), (), (), equality_rows, equality_rhs))
    return lp_minimize(program).status == "optimal"


def _slope(cost: tuple[int | Fraction, ...], rows: tuple[tuple[int, ...], ...]) -> SlopeResult:
    """Infimum of (cost . lam) / min_k (row_k . lam) over integer lam >= 0
    with positive denominator, as one exact solve of
    min{cost . x : row_k . x >= 1, x >= 0}: the slope is invariant under
    scaling lam, and clearing the denominators of an optimal rational vertex
    gives an integer witness with the same slope. The infimum is +infinity,
    with no witness, exactly when some row is the zero vector, whose pairing
    vanishes for every lam. The caller has built the program from
    checked objects and so passes it unchecked: `cost` a nonempty tuple of
    positive ints and Fractions, `rows` a nonempty tuple of tuples of
    nonnegative ints, each as long as `cost`. `torus_rank`, `symm_torus_rank`
    and `t_stable_rank` call it, with int costs alone but for `torus_rank`'s
    alpha."""
    if not all(map(any, rows)):
        return SlopeResult(value=math.inf, witness=None)
    program = _record(LinearProgram, (cost, rows, (1,) * len(rows), (), ()))
    out = lp_minimize(program)
    if out.status != "optimal":
        raise RuntimeError(f"slope program should be solvable, got {out.status}")
    g = math.gcd(out.denominator, *out.numerators)
    return SlopeResult(value=out.value, witness=tuple(v // g for v in out.numerators))


def _singular(matrix: Sequence[Sequence]) -> bool:
    """Is the square rational matrix M, of at least one row, singular?
    Fraction-free elimination: each row of M is cleared of denominators and
    packed, then pivoted with `_pivot` down the diagonal, until a column has
    no nonzero entry on or below the diagonal. No Fraction is built."""
    lines = [cleared(row)[1] for row in matrix]
    fields = _Fields(_hadamard_bits(sum(map(mul, line, line)) for line in lines))
    n = len(lines)
    offset = fields.offset(n)
    rows = [fields.pack(line, offset) for line in lines]
    d = 1
    for col in range(n):
        factors = fields.column(rows, col, offset)
        pivot_row = next((i for i in range(col, n) if factors[i]), -1)
        if pivot_row < 0:
            return True
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        factors[col], factors[pivot_row] = factors[pivot_row], factors[col]
        d = _pivot(rows, d, col, factors)
    return False
