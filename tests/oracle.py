"""The references, inputs and golden-file harness the tests share, each
written once.

`oracle_minimum_over_vertices` is the brute-force reference solver: it
enumerates candidate bases and solves each square system with `solve`, its
own Gauss-Jordan elimination in plain Fractions, and writes its best vertex
as the least common denominator and the numerators over it. It shares no
code with `lp_minimize`, which other helpers here call: no packed rows, no
pivot kernel, no ratio test, no pivot rule and no route choice. `minimize`
is the rational front end to `lp_minimize`, which takes integers alone: it
clears the objective by the lcm L of its denominators and the rows and
right sides by one R, solves, and divides the value by L. Both take a
program as its five parts: objective, rows, right sides, equality rows and
equality right sides, ints or Fractions. `vertex` rebuilds the Fraction
vertex of either solver's outcome, for the tests that read one. `inverse`
is the exact inverse of a matrix, which the tests of linear changes take
from here, since the library only checks that a matrix is invertible.
`minimal_generators` is the quadratic divisibility filter that
`MonomialIdeal`'s one-pass minimalisation is checked against.

The tensor programs are built from the supports alone, not from the
library's builders: `full_tensor_program` is the slope program of
`torus_rank` over every index, `marginal_rows` the rows of the tensor
semistability program over tuples in a given order, and
`difference_class_order` the order `is_torus_semistable` gives its
columns. The right sides stay with the callers. `feasible` and `slope`
ask the public route, through `minimize`, for a feasibility verdict and a
slope; `slope` clears the Fraction vertex with `rationals.cleared`, not by
the gcd `exactlp._slope` takes. `compositions` lists the exponent vectors
of a form.

`simplex_passes` records the path of every simplex pass a call runs. It
reads `exactlp._simplex` through the module global, so every route and
every caller is seen, and `used_index_passes` renumbers the passes of the
full tensor program onto the indices a support uses, as `torus_rank`
takes them. `calls` records every call of the bindings it replaces, with
its arguments and result.

The inputs: `W`, `W_FORM` and `CYCLIC` are the paper's examples, the W
state, its cubic form and the cyclic monomial ideal. `random_tensor` and
`random_form` draw a support or a form from a seeded `random.Random`; the
tests pin counts over their draws, so a change to the calls they make on
the generator changes those tests' inputs. `forced_zeros` reads which
tensor supports `tensors._forced_zeros` decides with no program, and
`dot` is the plain Fraction dot product.

The golden-file harness: `golden` reads a golden file of this directory,
`golden_text` renders entries as one compact JSON entry per line,
`write_golden` writes that text, and `assert_golden` compares it with the
committed file byte for byte. `q` writes a rational as the p/q text the
files hold, and `golden_call` decodes an input of `golden_lp.json` into its
call, `torus_rank` or `minimize`, and arguments. The tests import this
module as `oracle`, from this directory.
"""

import json
import math
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

from stablerank import exactlp, tensors
from stablerank.errors import InputError
from stablerank.exactlp import LinearProgram, LpOutcome, SlopeResult, lp_minimize
from stablerank.ideals import MonomialIdeal
from stablerank.rationals import cleared
from stablerank.tensors import SymmetricSupport, TensorSupport, torus_rank

HERE = Path(__file__).parent

W = TensorSupport(3, 2, [(2, 1, 1), (1, 2, 1), (1, 1, 2)])  # the W state, rank 3/2
W_FORM = SymmetricSupport(3, 2, [(2, 1)])  # x^2 y, whose expansion is W
CYCLIC = MonomialIdeal(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])  # (x^2 y, y^2 z, z^2 x)


def dot(u, v) -> Fraction:
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
    objective, rows, rhs, eq_rows=(), eq_rhs=(), max_candidates: int = 100_000
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
    n, m, p = len(objective), len(rows), len(eq_rows)
    total = math.comb(p + m + n, n)
    if total > max_candidates:
        raise InputError(
            f"vertex oracle: {total} basis candidates exceed the bound {max_candidates}"
        )

    all_rows = [*eq_rows, *rows]
    all_rhs = [*eq_rhs, *rhs]
    for j in range(n):
        row = [Fraction(0)] * n
        row[j] = Fraction(1)
        all_rows.append(tuple(row))
        all_rhs.append(Fraction(0))

    best_value: Fraction | None = None
    best_vertex: tuple[Fraction, ...] | None = None
    for combo in combinations(range(p + m + n), n):
        solution = solve([all_rows[idx] for idx in combo], [[all_rhs[idx]] for idx in combo])
        if solution is None:
            continue
        x = [row[0] for row in solution]
        if any(xj < 0 for xj in x):
            continue
        if any(dot(row, x) < b for row, b in zip(rows, rhs)):
            continue
        if any(dot(row, x) != b for row, b in zip(eq_rows, eq_rhs)):
            continue
        value = dot(objective, x)
        if best_value is None or value < best_value:
            best_value = value
            best_vertex = tuple(x)
    if best_value is None:
        return LpOutcome(status="infeasible")
    denominator, numerators = cleared(best_vertex)
    return LpOutcome("optimal", best_value, numerators, denominator)


def minimize(objective, rows, rhs, eq_rows=(), eq_rhs=()) -> LpOutcome:
    """`lp_minimize` of a program of ints and Fractions: the objective
    cleared by the least L, and the rows and right sides, equality rows
    included, by one least R, the lcm of all their denominators. Scaling
    every row by R leaves each slack or artificial column its unit entry,
    so it stands for R times that variable: positive scalings of rows and
    variables change no reduced-cost sign and no order among ratios, and
    the phase-one objective, the sum of the artificials, only by the
    factor R. So the integer tableau takes the pivots the rational one
    would, to the same vertex, and the value is the integer program's over
    L."""
    scale, objective = cleared(objective)
    n, m, sides = len(objective), len(rows), len(rhs) + len(eq_rhs)
    _, flat = cleared((*rhs, *eq_rhs, *(v for row in (*rows, *eq_rows) for v in row)))
    lines = [flat[i:i + n] for i in range(sides, len(flat), n)]
    out = lp_minimize(LinearProgram(objective, lines[:m], flat[:m], lines[m:], flat[m:sides]))
    if out.value is None:
        return out
    return LpOutcome(out.status, out.value / scale, out.numerators, out.denominator)


def vertex(out: LpOutcome) -> tuple[Fraction, ...] | None:
    """The vertex of an outcome as Fractions, numerators[j] / denominator,
    or None when it has none."""
    if out.numerators is None:
        return None
    return tuple(Fraction(v, out.denominator) for v in out.numerators)


def feasible(rows, rhs, eq_rows=(), eq_rhs=()) -> bool:
    """Is {rows . x >= rhs, eq_rows . x = eq_rhs, x >= 0} feasible? The
    checked public route: `minimize` of the program with a zero objective."""
    zero = (0,) * len([*rows, *eq_rows][0])
    return minimize(zero, rows, rhs, eq_rows, eq_rhs).status == "optimal"


def slope(cost, rows):
    """The checked public route to the slope program: `minimize` of
    min{cost . x : row . x >= 1, x >= 0}, its vertex cleared to an integer
    witness. A zero row makes the program infeasible and the slope
    +infinity."""
    out = minimize(cost, rows, (1,) * len(rows))
    if out.status == "infeasible":
        return SlopeResult(value=math.inf, witness=None)
    return SlopeResult(value=out.value, witness=cleared(vertex(out))[1])


def compositions(total, parts) -> list:
    """Every tuple of `parts` nonnegative ints summing to `total`, in
    lexicographic order: the exponent vectors of a form."""
    if parts == 1:
        return [(total,)]
    return [(head, *tail) for head in range(total + 1)
            for tail in compositions(total - head, parts - 1)]


def random_tensor(rng, max_n, max_d, max_support) -> TensorSupport:
    """A support over dims n <= max_n and order d <= max_d: 1 to
    max_support of its n^d tuples, drawn by `rng.sample` from all of them
    in lexicographic order."""
    n, d = rng.randint(1, max_n), rng.randint(1, max_d)
    pool = list(product(range(1, n + 1), repeat=d))
    return TensorSupport(d, n, rng.sample(pool, rng.randint(1, min(max_support, len(pool)))))


def random_form(rng, max_n, max_d, max_support) -> SymmetricSupport:
    """A form support in n <= max_n variables of degree d <= max_d: 1 to
    max_support of its exponent vectors, drawn as `random_tensor` draws."""
    n, d = rng.randint(1, max_n), rng.randint(1, max_d)
    pool = compositions(d, n)
    return SymmetricSupport(d, n, rng.sample(pool, rng.randint(1, min(max_support, len(pool)))))


def forced_zeros(support) -> tuple:
    """(verdict, None) when `tensors._forced_zeros` decides the tensor
    support with no program, or (None, the live tuples) when it leaves them
    to the program; it reads the tuples in the order `is_torus_semistable`
    hands them over."""
    out = tensors._forced_zeros(tuple(support.tuples), support.dims)
    return (out, None) if isinstance(out, bool) else (None, out)


def full_tensor_program(support, alpha) -> tuple:
    """(cost, rows) of the slope program of `torus_rank` over every index,
    used or not: cost alpha_i and one 0/1 row per sorted tuple, variable
    lam_i[j] at column i * n + j - 1. Its witness is 0 at every unused
    index."""
    n, d = support.dims, support.order
    rows = tuple(tuple(int(t[c // n] == c % n + 1) for c in range(n * d))
                 for t in support.sorted_tuples)
    return tuple(a for a in alpha for _ in range(n)), rows


def marginal_rows(tuples, n) -> tuple:
    """The rows of the tensor semistability program over dims n, one column
    per tuple in the order given: the all-ones row of sum(theta) and then,
    factor by factor, the 0/1 marginal row of each index j < n."""
    rows = [(1,) * len(tuples)]
    rows += [tuple(int(t[i] == j) for t in tuples)
             for i in range(len(tuples[0])) for j in range(1, n)]
    return tuple(rows)


def difference_class_order(tuples, n) -> list:
    """The tuples grouped by difference class, the tuple of (t_i - t_1) mod
    n, classes in order and each class by t_1."""
    return sorted(tuples, key=lambda t: (tuple((x - t[0]) % n for x in t), t))


class _Basis(list):
    """A basis that records every assignment basis[row] = column as the pair
    [row, column]: in a simplex pass, the leaving row and entering column."""

    def __init__(self, basis):
        super().__init__(basis)
        self.pivots = []

    def __setitem__(self, row, column):
        self.pivots.append([row, column])
        super().__setitem__(row, column)


def simplex_passes(call, *args, full=False) -> tuple:
    """(call(*args), every `exactlp._simplex` pass it ran, in order).

    A pass is a dict of its field width "k" (`fields.k`), "ncols", the
    zero-stop flag "stop" its route asked for, the "start" basis, the
    (leaving row, entering column) "pivots" and the final "basis". The
    pairs are read off the basis, since `_simplex` assigns basis[row] =
    column once per pivot and nowhere else; the drive-out pivots after a
    phase one are no part of a pass. With `full`, no pass stops at a zero
    value: every phase one runs to the end."""
    passes = []
    simplex = exactlp._simplex

    def traced(rows, basis, d, fields, ncols, stop_at_zero=False):
        entering = _Basis(basis)
        out = simplex(rows, entering, d, fields, ncols, stop_at_zero and not full)
        passes.append({"k": fields.k, "ncols": ncols, "stop": stop_at_zero,
                       "start": list(basis), "pivots": entering.pivots,
                       "basis": list(entering)})
        basis[:] = entering
        return out

    exactlp._simplex = traced
    try:
        return call(*args), passes
    finally:
        exactlp._simplex = simplex


def path(passes) -> list:
    """The path of every pass: its start basis, pivots and final basis."""
    return [(p["start"], p["pivots"], p["basis"]) for p in passes]


def used_index_passes(support, passes) -> list:
    """The passes of `full_tensor_program` as `torus_rank` takes them over
    the indices the support uses: dual tableau row r and slack column m + r
    belong to variable r, so the rows and slack columns of unused indices
    drop out and the rest are renumbered in order. "k" and "ncols" stay the
    full program's."""
    n, m = support.dims, len(support.tuples)
    used = sorted({i * n + j - 1 for t in support.tuples for i, j in enumerate(t)})
    row = {r: k for k, r in enumerate(used)}
    column = {c: c for c in range(m)}
    column.update({m + c: m + k for k, c in enumerate(used)})
    return [dict(p, start=[column[p["start"][r]] for r in used],
                 pivots=[[row[r], column[c]] for r, c in p["pivots"]],
                 basis=[column[p["basis"][r]] for r in used])
            for p in passes]


def calls(monkeypatch, *bindings) -> list:
    """Every call of each (module, name) binding for the rest of the test,
    as (name, args, kwargs, result) in the order the calls return, which is
    call order for calls that do not nest. `monkeypatch` replaces each
    binding and puts it back."""
    seen = []

    def recorder(name, call):
        def recorded(*args, **kwargs):
            result = call(*args, **kwargs)
            seen.append((name, args, kwargs, result))
            return result
        return recorded

    for module, name in bindings:
        monkeypatch.setattr(module, name, recorder(name, getattr(module, name)))
    return seen


def q(value) -> str:
    """A rational as the p/q text the golden files hold."""
    return str(Fraction(value))


def golden(name) -> list:
    """The entries of the golden file `name` of this directory."""
    return json.loads((HERE / name).read_text(encoding="utf-8"))


def golden_text(entries) -> str:
    """The text of a golden file: a JSON list, one compact entry per line."""
    lines = ",\n".join(json.dumps(entry, separators=(",", ":")) for entry in entries)
    return f"[\n{lines}\n]\n"


def write_golden(name, entries) -> None:
    """Writes the golden file `name` of this directory as `golden_text`
    renders `entries`."""
    path = HERE / name
    path.write_text(golden_text(entries), encoding="utf-8")
    print(f"wrote {len(entries)} entries to {path}", file=sys.stderr)


def assert_golden(name, entries) -> None:
    """The golden file `name` holds the text `golden_text` renders of
    `entries`, byte for byte; a failure names the entries that differ, by
    index (line i + 1 holds entry i)."""
    pinned = (HERE / name).read_bytes().decode("utf-8").split("\n")
    rendered = golden_text(entries).split("\n")
    differing = [i - 1 for i, (a, b) in enumerate(zip(rendered, pinned)) if a != b]
    assert (len(rendered), differing) == (len(pinned), []), (
        f"{name}: {len(rendered)} lines rendered, {len(pinned)} pinned; "
        f"entries that differ: {differing[:20]}")


def golden_call(given) -> tuple:
    """(torus_rank or minimize, its arguments) for one input of
    `golden_lp.json`, every p/q text read as a Fraction."""
    def fractions(values):
        return [Fraction(v) for v in values]

    if given["call"] == "torus_rank":
        support = TensorSupport(given["order"], given["dims"], [tuple(t) for t in given["tuples"]])
        return torus_rank, (support, fractions(given["alpha"]))
    return minimize, (fractions(given["objective"]), [fractions(row) for row in given["rows"]],
                      fractions(given["rhs"]), [fractions(row) for row in given["eq_rows"]],
                      fractions(given["eq_rhs"]))
