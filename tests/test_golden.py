"""Golden answers of the exact LP layer: status, value and vertex, bit for bit.

The oracle tests elsewhere compare optimal values only, and a program can
have several optimal vertices, so they would not notice a solver change that
moved a witness. `golden_lp.json` pins the full answer of every case in a
seeded family built by `golden_family` below:

- the dual route with rational costs and rows (`lp_minimize` with a
  nonnegative objective, and `torus_rank` with a non-unit `alpha`);
- the two-phase route with equality rows and mixed-sign objectives;
- degenerate programs whose ratio tests tie;
- redundant equality rows, which leave artificials basic at level zero after
  phase one and force the drive-out pivots (some on negative entries);
- infeasible and unbounded programs;
- feasibility systems, asked as programs with a zero objective, whose
  vertex is the witness (the two-phase route's phase-one vertex when there
  are equality rows, the dual route's vertex otherwise).

The file was written from the solver's answers before its pivot kernel was
replaced. `golden_pivots.json` pins, for the same cases in the same order,
the path each solve takes: for every simplex pass, its (leaving row,
entering column) pairs and its final basis. Two solvers can reach the same
vertex by different pivots, so an answer can survive a change in how the
tableau is scaled that the pivots do not. The field width is not pinned: it
may change without moving a pivot. Regenerating either file is only right
when an answer or a pivot is meant to change; this writes both:

    PYTHONPATH=src python tests/test_golden.py
"""

import random
from fractions import Fraction

import oracle
from oracle import q
from stablerank import exactlp
from stablerank.tensors import TensorSupport, torus_rank

GOLDEN = "golden_lp.json"
PIVOTS = "golden_pivots.json"
SEED = 20260318


def _rational(rng, lo, hi, dens=(1, 1, 2, 3, 4)):
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def _matrix(rng, rows, cols, lo, hi, zero_share=0.3):
    return [
        [Fraction(0) if rng.random() < zero_share else _rational(rng, lo, hi) for _ in range(cols)]
        for _ in range(rows)
    ]


def _program_case(family, objective, rows, rhs, eq_rows=(), eq_rhs=()):
    return {
        "family": family,
        "call": "lp_minimize",
        "objective": [q(v) for v in objective],
        "rows": [[q(v) for v in row] for row in rows],
        "rhs": [q(v) for v in rhs],
        "eq_rows": [[q(v) for v in row] for row in eq_rows],
        "eq_rhs": [q(v) for v in eq_rhs],
    }


def golden_family() -> list[dict]:
    """The pinned inputs, in a fixed order; answers are filled in by `solve`."""
    rng = random.Random(SEED)
    cases = []
    for _ in range(60):  # dual route: no equality rows, objective >= 0
        n, m = rng.randint(2, 8), rng.randint(2, 10)
        objective = [_rational(rng, 0, 5) for _ in range(n)]
        rows = _matrix(rng, m, n, -2, 4)
        rhs = [_rational(rng, -1, 4) for _ in range(m)]
        cases.append(_program_case("dual", objective, rows, rhs))
    for _ in range(25):  # torus rank with rational factor weights
        order, dims = rng.randint(3, 4), rng.randint(2, 4)
        tuples = {tuple(rng.randint(1, dims) for _ in range(order)) for _ in range(rng.randint(4, 14))}
        cases.append({
            "family": "torus-alpha",
            "call": "torus_rank",
            "order": order,
            "dims": dims,
            "tuples": [list(t) for t in sorted(tuples)],
            "alpha": [q(_rational(rng, 1, 7, dens=(1, 2, 3, 5, 7))) for _ in range(order)],
        })
    for _ in range(60):  # two-phase: equality rows and mixed-sign costs
        n, m, p = rng.randint(2, 7), rng.randint(0, 6), rng.randint(1, 3)
        point = [_rational(rng, 0, 3) for _ in range(n)]
        objective = [_rational(rng, -2, 4) for _ in range(n)]
        rows = _matrix(rng, m, n, -2, 3)
        rhs = [sum(a * x for a, x in zip(row, point)) - rng.randint(0, 2) for row in rows]
        eq_rows = _matrix(rng, p, n, -1, 3)
        eq_rhs = [sum(a * x for a, x in zip(row, point)) for row in eq_rows]
        if rng.random() < 0.25:  # some right sides off the point, often infeasible
            eq_rhs = [_rational(rng, -1, 4) for _ in range(p)]
        cases.append(_program_case("two-phase", objective, rows, rhs, eq_rows, eq_rhs))
    for _ in range(50):  # degenerate: 0/1 rows and equal right sides tie ratios
        n, m = rng.randint(2, 6), rng.randint(3, 9)
        rows = [[Fraction(rng.randint(0, 1)) for _ in range(n)] for _ in range(m)]
        level = Fraction(rng.choice((0, 1, 1, 2)))
        rhs = [level] * m
        if rng.random() < 0.5:
            objective = [Fraction(rng.randint(0, 2)) for _ in range(n)]
            cases.append(_program_case("degenerate", objective, rows, rhs))
        else:
            objective = [Fraction(rng.randint(-1, 2)) for _ in range(n)]
            eq_rows = [[Fraction(rng.randint(0, 1)) for _ in range(n)]]
            cases.append(_program_case("degenerate", objective, rows, rhs, eq_rows, [level]))
    for _ in range(50):  # redundant equalities: copies and combinations of rows
        n, p = rng.randint(2, 6), rng.randint(1, 3)
        base = _matrix(rng, p, n, -3, 3, zero_share=0.2)
        point = [_rational(rng, 0, 3) for _ in range(n)]
        eq_rows = [list(row) for row in base]
        for _ in range(rng.randint(1, 3)):
            a, b = rng.randrange(p), rng.randrange(p)
            ca, cb = _rational(rng, -2, 2), _rational(rng, -2, 2)
            eq_rows.append([ca * x + cb * y for x, y in zip(base[a], base[b])])
        rng.shuffle(eq_rows)
        eq_rhs = [sum(a * x for a, x in zip(row, point)) for row in eq_rows]
        m = rng.randint(0, 3)
        rows = _matrix(rng, m, n, -2, 3)
        rhs = [sum(a * x for a, x in zip(row, point)) - rng.randint(0, 2) for row in rows]
        objective = [_rational(rng, -2, 4) for _ in range(n)]
        cases.append(_program_case("redundant-eq", objective, rows, rhs, eq_rows, eq_rhs))
    for _ in range(20):  # unbounded: a free direction with negative cost
        n = rng.randint(2, 5)
        rows = _matrix(rng, rng.randint(1, 4), n, 0, 3)
        rhs = [_rational(rng, 0, 3) for _ in rows]
        objective = [_rational(rng, -3, 2) for _ in range(n)]
        objective[rng.randrange(n)] = Fraction(-1)
        cases.append(_program_case("unbounded", objective, rows, rhs))
    for _ in range(20):  # infeasible: x_0 both >= b and <= b - 1
        n = rng.randint(1, 5)
        bound = _rational(rng, 1, 4)
        rows = _matrix(rng, rng.randint(0, 3), n, -1, 3)
        rhs = [_rational(rng, -1, 2) for _ in rows]
        unit = [Fraction(int(j == 0)) for j in range(n)]
        rows += [unit, [-v for v in unit]]
        rhs += [bound, 1 - bound]
        objective = [_rational(rng, 0, 3) for _ in range(n)]
        if rng.random() < 0.5:
            cases.append(_program_case("infeasible", objective, rows, rhs))
        else:
            cases.append(_program_case("infeasible", objective, rows, rhs, [unit], [bound]))
    for _ in range(60):  # feasibility witnesses: a zero objective
        n, m, p = rng.randint(1, 6), rng.randint(0, 5), rng.randint(0, 3)
        cases.append(_program_case(
            "feasible",
            [0] * n,
            _matrix(rng, m, n, -2, 3),
            [_rational(rng, -2, 2) for _ in range(m)],
            _matrix(rng, p, n, -1, 3),
            [_rational(rng, 0, 3) for _ in range(p)],
        ))
    return cases


def solve(case: dict) -> dict:
    """The answer recorded for one case, with every rational written as p/q."""
    call, args = oracle.golden_call(case)
    out = call(*args)
    if case["call"] == "torus_rank":
        return {"value": q(out.value), "witness": list(out.witness)}
    return {
        "status": out.status,
        "value": None if out.value is None else q(out.value),
        "vertex": None if out.numerators is None else [q(v) for v in oracle.vertex(out)],
    }


def pivots(case: dict) -> list[dict]:
    """Every simplex pass of the solve of one case, in order: its (leaving
    row, entering column) pairs and its final basis."""
    return [{"pivots": p["pivots"], "basis": p["basis"]}
            for p in oracle.simplex_passes(solve, case)[1]]


def test_golden_family_is_unchanged():
    # the file's inputs are the family the docstring describes
    assert [case["input"] for case in oracle.golden(GOLDEN)] == golden_family()


def test_golden_covers_every_outcome():
    cases = oracle.golden(GOLDEN)
    statuses = {case["answer"].get("status") for case in cases}
    assert {"optimal", "infeasible", "unbounded"} <= statuses
    feasible = {case["answer"]["status"] for case in cases if case["input"]["family"] == "feasible"}
    assert feasible == {"optimal", "infeasible"}


def test_golden_answers():
    oracle.assert_golden(GOLDEN, [{"input": case["input"], "answer": solve(case["input"])}
                                  for case in oracle.golden(GOLDEN)])


def test_golden_pivots():
    recorded = [pivots(case["input"]) for case in oracle.golden(GOLDEN)]
    oracle.assert_golden(PIVOTS, recorded)
    # every simplex pass of the kernel is exercised, pivots included
    assert sum(len(p["pivots"]) for passes in recorded for p in passes) > 1000


def _random_support(rng) -> TensorSupport:
    """A support over dims n and order d with at least one unused index."""
    n, d = rng.randint(2, 5), rng.randint(1, 4)
    k = rng.randint(1, 2 * n)
    return TensorSupport(d, n, [tuple(rng.randint(1, n - 1) if i == 0 else rng.randint(1, n)
                                      for i in range(d)) for _ in range(k)])


def test_unused_indices_leave_the_full_programs_pivots():
    # `torus_rank` builds its program over the indices the support uses. An
    # unused index is a zero row of the dual tableau whose slack column never
    # enters, so the full program over every index takes the same pivots
    # once its unused rows and slack columns are dropped and the rest are
    # renumbered in order, and it ends at the same value and witness, with 0
    # at every unused index. Every golden `torus_rank` case, and seeded
    # supports whose first factor leaves index n unused.
    rng = random.Random(SEED)
    supports = [oracle.golden_call(case["input"])[1] for case in oracle.golden(GOLDEN)
                if case["input"]["call"] == "torus_rank"]
    supports += [(_random_support(rng), [_rational(rng, 1, 4) for _ in range(4)])
                 for _ in range(200)]
    unused = 0
    for support, alpha in supports:
        n, d = support.dims, support.order
        alpha = alpha[:d]
        reference, full = oracle.simplex_passes(
            exactlp._slope, *oracle.full_tensor_program(support, alpha))
        result, passes = oracle.simplex_passes(torus_rank, support, alpha)
        assert oracle.path(passes) == oracle.path(oracle.used_index_passes(support, full))
        assert (result.value, result.witness) == (reference.value, reference.witness)
        used = {i * n + j - 1 for t in support.tuples for i, j in enumerate(t)}
        unused += len(used) < n * d
        assert all(reference.witness[c] == 0 for c in set(range(n * d)) - used)
    assert unused > 200


if __name__ == "__main__":
    family = golden_family()
    oracle.write_golden(GOLDEN, [{"input": case, "answer": solve(case)} for case in family])
    oracle.write_golden(PIVOTS, [pivots(case) for case in family])
