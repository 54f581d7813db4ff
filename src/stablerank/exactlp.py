"""Exact linear programming over the rationals.

Programs are given in integers and `fractions.Fraction`s, and answers come
back as Fractions, but the simplex tableau holds Python integers only: every
entry is stored as D * t over one positive integer D shared by the tableau.
A pivot on p keeps the pivot row, replaces every other row (the objective
row included) by (p * row - row[c] * pivot_row) // D, a division that is
always exact, and makes |p| the new D (Edmonds' fraction-free pivoting, the
simplex form of Bareiss elimination). When |p| = D the new row is
row - (row[c] * pivot_row) // D: D divides D * row - row[c] * pivot_row, so
it divides row[c] * pivot_row as well. Such a pivot touches only the pivot
row's nonzero columns, in the rows with row[c] != 0; on the 0/1 rank
programs it is common. No floating point value ever enters a
tableau, so results are exact and bit-for-bit reproducible. Variables are
implicitly constrained to x >= 0. Inequality rows have sense a_k . x >= b_k;
equality rows hold exactly.

Denominators are cleared once, when the tableau is built, by multiplying
each row by a positive integer s_k; the row's slack or artificial column
keeps its unit entry and so stands for s_k times that variable. The
objective is scaled by a positive integer too. Positive scalings of rows and
variables change no reduced-cost sign and no order among ratios, so the
integer tableau takes exactly the pivots the rational one would.

Pivoting uses the least-index (Bland) rule for both the entering and the
leaving variable, which makes every solve deterministic and cycle-free.
Ratios are compared by cross-multiplication.

Programs with no equality rows and a componentwise-nonnegative objective are
solved through the LP dual: the slack basis of the dual is immediately
feasible, so no phase-one pass is needed, and the primal vertex is read off
the optimal tableau's reduced costs (the complementary basic solution).
Everything else goes through the textbook primal two-phase simplex.

`minimize_slope` is the bridge used by the rank computations: the infimum of
(cost . lam) / min_k (a_k . lam) over nonzero integer vectors lam >= 0 with
positive denominator equals the minimum of the linear program
min{cost . x : a_k . x >= 1, x >= 0}, because the slope is invariant under
scaling lam and clearing denominators of an optimal rational vertex produces
an integer witness with the same slope. The infimum is +infinity exactly
when some row is the zero vector (that row's pairing vanishes for every
lam), encoded as `math.inf`.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .rationals import integers, rational

__all__ = [
    "LinearProgram",
    "LpOutcome",
    "SlopeResult",
    "lp_minimize",
    "lp_feasible",
    "minimize_slope",
    "oracle_minimum_over_vertices",
]

def _rational_vector(values, length: int | None, what: str) -> tuple[int | Fraction, ...]:
    vec = tuple(rational(v, what) for v in values)
    if length is not None and len(vec) != length:
        raise InputError(f"{what}: expected length {length}, got {len(vec)}")
    return vec


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum(a * b for a, b in zip(u, v))


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
        obj = _rational_vector(self.objective, None, "objective")
        if not obj:
            raise InputError("objective: at least one variable is required")
        n = len(obj)
        rows = tuple(
            _rational_vector(row, n, "constraint row") for row in self.constraint_rows
        )
        rhs = _rational_vector(self.rhs, len(rows), "rhs")
        eq_rows = tuple(
            _rational_vector(row, n, "equality row") for row in self.equality_rows
        )
        eq_rhs = _rational_vector(self.equality_rhs, len(eq_rows), "equality rhs")
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


def _common_denominator(values) -> int:
    return math.lcm(*(v.denominator for v in values))


def _integers(values, scale: int) -> list[int]:
    """The rationals `values` times `scale`, a multiple of every denominator."""
    return [v.numerator * (scale // v.denominator) for v in values]


def _pivot(rows: list[list[int]], d: int, r: int, c: int) -> int:
    """Pivot on rows[r][c] in place and return the new common denominator.

    Every row stands for row / d with one positive integer d (Edmonds 1967,
    the simplex form of Bareiss 1968). The pivot row keeps its entries, every
    other row becomes (p * row - row[c] * pivot_row) / d, a division that is
    always exact, and |p| becomes the common denominator; a negative pivot
    negates the pivot row first, which negates every row of the result.

    When |p| = d the update is (d * a - f * b) / d = a - f * b / d, and f * b
    is a multiple of d because d * a - f * b is; so only the columns where
    the pivot row is nonzero change, and only in rows with f = row[c] != 0.
    """
    prow = rows[r]
    p = prow[c]
    if p < 0:
        p = -p
        prow[:] = [-v for v in prow]
    if p == d:
        nonzero = [(j, b) for j, b in enumerate(prow) if b]
        for i, line in enumerate(rows):
            f = line[c]
            if f and i != r:
                for j, b in nonzero:
                    line[j] -= f * b // d
        return p
    for i, line in enumerate(rows):
        if i == r:
            continue
        f = line[c]
        if f:
            line[:] = [(p * a - f * b) // d for a, b in zip(line, prow)]
        else:
            line[:] = [p * a // d for a in line]
    return p


def _simplex(rows: list[list[int]], basis: list[int], d: int, ncols: int) -> tuple[bool, int]:
    """Minimize over the tableau `rows`, whose last row is the objective, by
    Bland's rule: enter at the least column with a negative reduced cost, leave
    at the least ratio (compared by cross-multiplication), ties going to the
    least basic index. Returns (bounded, common denominator)."""
    obj = rows[-1]
    m = len(rows) - 1
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), -1)
        if enter < 0:
            return True, d
        best = -1
        for i in range(m):
            coeff = rows[i][enter]
            if coeff > 0:
                level = rows[i][-1]
                if best < 0:
                    best, best_level, best_coeff = i, level, coeff
                    continue
                lhs, rhs = level * best_coeff, best_level * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best, best_level, best_coeff = i, level, coeff
        if best < 0:
            return False, d
        d = _pivot(rows, d, best, enter)
        basis[best] = enter


def _primal_two_phase(
    objective: Sequence[Fraction],
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    eq_rows: Sequence[Sequence[Fraction]],
    eq_rhs: Sequence[Fraction],
) -> LpOutcome:
    n = len(objective)
    nsurplus = len(rows)
    width = n + nsurplus
    m = nsurplus + len(eq_rows)
    ncols = width + m

    # Row k is multiplied by s_k > 0, which clears its denominators, and by -1
    # when its right side is negative. Its surplus and artificial columns keep
    # the entries -1 (sign-adjusted) and 1: they stand for s_k times the
    # original surplus and artificial variables.
    tableau: list[list[int]] = []
    scales = []
    for k, (row, b) in enumerate(itertools.chain(zip(rows, rhs), zip(eq_rows, eq_rhs))):
        s = _common_denominator((*row, b))
        sign = -1 if b < 0 else 1
        line = _integers((*row, b), sign * s)
        line[n:n] = [0] * (nsurplus + m)
        if k < nsurplus:
            line[n + k] = -sign
        line[width + k] = 1
        tableau.append(line)
        scales.append(s)
    basis = list(range(width, ncols))

    # phase one: minimize the sum of the original artificials, that is
    # sum_k (L / s_k) times the rescaled ones, priced out against the
    # artificial basis
    weight = math.lcm(*scales)
    obj = [0] * (ncols + 1)
    for s, line in zip(scales, tableau):
        w = weight // s
        for j in range(width):
            if line[j]:
                obj[j] -= w * line[j]
        obj[-1] -= w * line[-1]
    tableau.append(obj)
    bounded, d = _simplex(tableau, basis, 1, ncols)
    if not bounded:
        raise RuntimeError("phase one cannot be unbounded")
    if obj[-1] != 0:
        return LpOutcome(status="infeasible")

    # pivot leftover artificials out of the basis; rows that resist are
    # redundant (identically zero) and get dropped
    for i in range(m):
        if basis[i] >= width:
            for j in range(width):
                if tableau[i][j] != 0:
                    d = _pivot(tableau, d, i, j)
                    basis[i] = j
                    break
    keep = [i for i in range(m) if basis[i] < width]
    tableau = [tableau[i][:width] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # phase two with the real objective, scaled to integers
    scale = _common_denominator(objective)
    cost = _integers(objective, scale) + [0] * nsurplus
    obj = [d * c for c in cost] + [0]
    for i, line in enumerate(tableau):
        cb = cost[basis[i]]
        if cb:
            for j in range(width):
                if line[j]:
                    obj[j] -= cb * line[j]
            obj[-1] -= cb * line[-1]
    tableau.append(obj)
    bounded, d = _simplex(tableau, basis, d, width)
    if not bounded:
        return LpOutcome(status="unbounded")

    x = [Fraction(0)] * n
    for b, line in zip(basis, tableau):
        if b < n:
            x[b] = Fraction(line[-1], d)
    return LpOutcome(status="optimal", value=Fraction(-obj[-1], d * scale), vertex=tuple(x))


def _via_dual(
    objective: Sequence[Fraction],
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> LpOutcome:
    """Solve min{c.x : A x >= b, x >= 0} with c >= 0 through its dual
    max{b.y : A^T y <= c, y >= 0}. The dual slack basis is feasible at once,
    and the optimal tableau's reduced costs under the slack columns are the
    complementary primal vertex.

    Dual row j is multiplied by s_j > 0 to clear its denominators (its slack
    column, kept at 1, stands for s_j times the slack) and the objective by L,
    so the reduced cost of slack j reads D * L * x_j / s_j."""
    m = len(rows)
    n = len(objective)
    tableau: list[list[int]] = []
    scales = []
    for j in range(n):
        column = [rows[k][j] for k in range(m)] + [objective[j]]
        s = _common_denominator(column)
        line = _integers(column, s)
        line[m:m] = [0] * n
        line[m + j] = 1
        tableau.append(line)
        scales.append(s)
    scale = _common_denominator(rhs)
    obj = [-b for b in _integers(rhs, scale)] + [0] * (n + 1)
    tableau.append(obj)
    basis = [m + j for j in range(n)]
    bounded, d = _simplex(tableau, basis, 1, m + n)
    if not bounded:
        return LpOutcome(status="infeasible")
    value = Fraction(obj[-1], d * scale)
    vertex = tuple(Fraction(s * obj[m + j], d * scale) for j, s in enumerate(scales))
    return LpOutcome(status="optimal", value=value, vertex=vertex)


def lp_minimize(program: LinearProgram) -> LpOutcome:
    """Exact minimum of a linear program; deterministic for identical input."""
    if not program.equality_rows and all(c >= 0 for c in program.objective):
        return _via_dual(program.objective, program.constraint_rows, program.rhs)
    return _primal_two_phase(
        program.objective,
        program.constraint_rows,
        program.rhs,
        program.equality_rows,
        program.equality_rhs,
    )


def lp_feasible(
    constraint_rows: Iterable[Iterable],
    rhs: Iterable,
    equality_rows: Iterable[Iterable] = (),
    equality_rhs: Iterable = (),
) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Phase-one feasibility of {A x >= b, E x = e, x >= 0}.

    Returns (True, witness) with an exact rational witness, or (False, None)
    when the phase-one optimum is strictly positive (certified infeasibility).
    """
    rows = [tuple(rational(v, "constraint row") for v in row) for row in constraint_rows]
    rvec = [rational(v, "rhs") for v in rhs]
    eq_rows = [tuple(rational(v, "equality row") for v in row) for row in equality_rows]
    evec = [rational(v, "equality rhs") for v in equality_rhs]
    if len(rows) != len(rvec) or len(eq_rows) != len(evec):
        raise InputError("feasibility system: row/rhs length mismatch")
    widths = {len(r) for r in rows} | {len(r) for r in eq_rows}
    if len(widths) > 1:
        raise InputError("feasibility system: rows have inconsistent arity")
    if not widths:
        return True, ()
    n = widths.pop()
    if n == 0:
        raise InputError("feasibility system: zero-width rows")
    outcome = _primal_two_phase([0] * n, rows, rvec, eq_rows, evec)
    if outcome.status == "optimal":
        return True, outcome.vertex
    return False, None


def minimize_slope(cost: Iterable, rows: Iterable[Iterable]) -> SlopeResult:
    """Infimum of (cost . lam) / min_k (row_k . lam) over integer lam >= 0
    with positive denominator, as a single exact LP solve.

    Rows must be nonnegative integer vectors; cost entries must be positive
    rationals. The infimum is +infinity exactly when some row is the zero
    vector; an empty row collection is rejected (the rank of the zero object
    is undefined).
    """
    cvec = tuple(rational(c, "cost") for c in cost)
    if not cvec:
        raise InputError("cost vector is empty")
    if any(c <= 0 for c in cvec):
        raise InputError("cost entries must be positive")
    rmat = []
    for row in rows:
        entries = integers(row, "support row")
        for e in entries:
            if e < 0:
                raise InputError(f"support rows must be nonnegative, got {e}")
        if len(entries) != len(cvec):
            raise InputError(
                f"support row arity {len(entries)} does not match cost arity {len(cvec)}"
            )
        rmat.append(entries)
    if not rmat:
        raise InputError("rank of the zero object is undefined: no support rows")
    if any(not any(row) for row in rmat):
        return SlopeResult(value=math.inf, witness=None)

    program = LinearProgram._trusted(cvec, tuple(rmat), (1,) * len(rmat))
    out = lp_minimize(program)
    if out.status != "optimal":
        raise RuntimeError(f"slope program should be solvable, got {out.status}")
    scale = math.lcm(*(x.denominator for x in out.vertex))
    witness = tuple(int(x * scale) for x in out.vertex)
    return SlopeResult(value=out.value, witness=witness)


def _solve_square(matrix: Sequence[Sequence], rhs: Sequence[Sequence]) -> list[list[Fraction]] | None:
    """Unique solution X of M X = R for a square rational M, or None when M is
    singular. R holds one row per row of M. Fraction-free Gauss-Jordan
    elimination: each row of [M | R] is cleared of denominators, then pivoted
    with `_pivot` down the diagonal, so X = R' / d at the end."""
    n = len(matrix)
    aug = []
    for row, extra in zip(matrix, rhs):
        values = (*row, *extra)
        aug.append(_integers(values, _common_denominator(values)))
    d = 1
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if aug[i][col]), -1)
        if pivot_row < 0:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        d = _pivot(aug, d, col, col)
    return [[Fraction(v, d) for v in line[n:]] for line in aug]


def oracle_minimum_over_vertices(
    program: LinearProgram, max_candidates: int = 100_000
) -> LpOutcome:
    """Brute-force reference solver: enumerate every candidate basis.

    Tries each size-n subset of the constraint rows (equalities,
    inequalities, and the nonnegativity bounds all together), solves the
    square system exactly, keeps the feasible solutions and returns the
    least objective value. Equality rows are not forced into the subsets:
    a redundant equality (say, a zero row with zero right side) would make
    every forced system singular, while the feasibility filter below
    enforces equalities correctly either way. Intended as an independent
    check on `lp_minimize`; it assumes the objective is bounded below on
    the feasible region (x >= 0 keeps the region pointed, so a feasible
    bounded program attains its minimum at some enumerated vertex).
    Refuses instances whose candidate count exceeds `max_candidates`.
    """
    n = program.num_variables
    m = len(program.constraint_rows)
    p = len(program.equality_rows)
    total = math.comb(p + m + n, n)
    if total > max_candidates:
        raise InputError(
            f"vertex oracle: {total} basis candidates exceed the bound {max_candidates}"
        )

    all_rows = list(program.equality_rows) + list(program.constraint_rows)
    all_rhs = list(program.equality_rhs) + list(program.rhs)
    for j in range(n):
        row = [Fraction(0)] * n
        row[j] = Fraction(1)
        all_rows.append(tuple(row))
        all_rhs.append(Fraction(0))

    best_value: Fraction | None = None
    best_vertex: tuple[Fraction, ...] | None = None
    for combo in itertools.combinations(range(p + m + n), n):
        mat = [all_rows[idx] for idx in combo]
        rhs = [all_rhs[idx] for idx in combo]
        solution = _solve_square(mat, [[b] for b in rhs])
        if solution is None:
            continue
        x = [row[0] for row in solution]
        if any(xj < 0 for xj in x):
            continue
        if any(_dot(row, x) < b for row, b in zip(program.constraint_rows, program.rhs)):
            continue
        if any(_dot(row, x) != b for row, b in zip(program.equality_rows, program.equality_rhs)):
            continue
        value = _dot(program.objective, x)
        if best_value is None or value < best_value:
            best_value = value
            best_vertex = tuple(x)
    if best_value is None:
        return LpOutcome(status="infeasible")
    return LpOutcome(status="optimal", value=best_value, vertex=best_vertex)
