"""Brute-force reference solver for the exact LP tests.

It enumerates candidate bases and solves each square system with `solve`,
its own Gauss-Jordan elimination in plain Fractions. It shares no code with
`lp_minimize`: no packed rows, no pivot kernel, no ratio test, no pivot rule
and no route choice. `inverse` is the exact inverse of a matrix, which the
tests of linear changes take from here, since the library only checks that
a matrix is invertible. `minimal_generators` is the quadratic divisibility
filter that `MonomialIdeal`'s one-pass minimalisation is checked against.
The tests import it as `oracle`, from this directory.
"""

import math
from fractions import Fraction
from itertools import combinations

from stablerank.errors import InputError
from stablerank.exactlp import LinearProgram, LpOutcome


def _dot(u, v) -> Fraction:
    return sum(a * b for a, b in zip(u, v))


def solve(matrix, rhs) -> list[list[Fraction]] | None:
    """The unique X of M X = R for a square rational M of at least one row,
    with R one row per row of M, or None when M is singular. Gauss-Jordan
    elimination on the rows of [M | R], pivoting on the first nonzero entry
    on or below the diagonal."""
    n = len(matrix)
    rows = [[Fraction(v) for v in (*row, *extra)] for row, extra in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot is None:
            return None
        lead = rows[pivot]
        lead = [v / lead[col] for v in lead]
        rows[pivot] = rows[col]
        rows[col] = lead
        for i, row in enumerate(rows):
            if i != col and row[col]:
                rows[i] = [a - row[col] * b for a, b in zip(row, lead)]
    return [row[n:] for row in rows]


def inverse(matrix) -> list[list[Fraction]] | None:
    """M^-1 for a square rational M, the solve of M X = I, or None when M is
    singular."""
    n = len(matrix)
    return solve(matrix, [[int(i == j) for j in range(n)] for i in range(n)])


def minimal_generators(vectors) -> list[tuple[int, ...]]:
    """The sorted distinct exponent vectors that no other one divides: each
    is compared with every other, entry by entry."""
    raw = sorted(set(vectors))
    return [
        g
        for g in raw
        if not any(h != g and all(a <= b for a, b in zip(h, g)) for h in raw)
    ]


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
    for combo in combinations(range(p + m + n), n):
        mat = [all_rows[idx] for idx in combo]
        rhs = [all_rhs[idx] for idx in combo]
        solution = solve(mat, [[b] for b in rhs])
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
