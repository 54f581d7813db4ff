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

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from stablerank import exactlp
from stablerank.exactlp import LinearProgram, lp_minimize
from stablerank.tensors import TensorSupport, torus_rank

GOLDEN = Path(__file__).with_name("golden_lp.json")
PIVOTS = Path(__file__).with_name("golden_pivots.json")
SEED = 20260318


def _q(value) -> str:
    return str(Fraction(value))


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
        "objective": [_q(v) for v in objective],
        "rows": [[_q(v) for v in row] for row in rows],
        "rhs": [_q(v) for v in rhs],
        "eq_rows": [[_q(v) for v in row] for row in eq_rows],
        "eq_rhs": [_q(v) for v in eq_rhs],
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
            "alpha": [_q(_rational(rng, 1, 7, dens=(1, 2, 3, 5, 7))) for _ in range(order)],
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


def _fractions(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def solve(case: dict) -> dict:
    """The answer recorded for one case, with every rational written as p/q."""
    if case["call"] == "torus_rank":
        support = TensorSupport(case["order"], case["dims"], [tuple(t) for t in case["tuples"]])
        result = torus_rank(support, _fractions(case["alpha"]))
        return {"value": _q(result.value), "witness": list(result.witness)}
    rows = [_fractions(row) for row in case["rows"]]
    eq_rows = [_fractions(row) for row in case["eq_rows"]]
    out = lp_minimize(LinearProgram(_fractions(case["objective"]), rows, _fractions(case["rhs"]), eq_rows, _fractions(case["eq_rhs"])))
    return {
        "status": out.status,
        "value": None if out.value is None else _q(out.value),
        "vertex": None if out.vertex is None else [_q(v) for v in out.vertex],
    }


class _Entering(list):
    """A basis that records every assignment basis[row] = column as the pair
    (row, column): in a simplex pass, the leaving row and entering column."""

    def __init__(self, basis):
        super().__init__(basis)
        self.pivots = []

    def __setitem__(self, row, column):
        self.pivots.append([row, column])
        super().__setitem__(row, column)


def pivots(case: dict) -> list[dict]:
    """Every simplex pass of the solve of one case, in order: its (leaving
    row, entering column) pairs and its final basis."""
    passes = []
    simplex = exactlp._simplex

    def traced(rows, basis, *args):
        entering = _Entering(basis)
        out = simplex(rows, entering, *args)
        basis[:] = entering
        passes.append({"pivots": entering.pivots, "basis": list(entering)})
        return out

    exactlp._simplex = traced
    try:
        solve(case)
    finally:
        exactlp._simplex = simplex
    return passes


def _load():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _write(path: Path, entries: list) -> None:
    lines = ",\n".join(json.dumps(entry, separators=(",", ":")) for entry in entries)
    path.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


def test_golden_family_is_unchanged():
    # the file's inputs are the family the docstring describes
    assert [case["input"] for case in _load()] == golden_family()


def test_golden_covers_every_outcome():
    cases = _load()
    statuses = {case["answer"].get("status") for case in cases}
    assert {"optimal", "infeasible", "unbounded"} <= statuses
    feasible = {case["answer"]["status"] for case in cases if case["input"]["family"] == "feasible"}
    assert feasible == {"optimal", "infeasible"}


def test_golden_answers():
    differing = [i for i, case in enumerate(_load()) if solve(case["input"]) != case["answer"]]
    assert differing == []


def test_golden_pivots():
    cases = _load()
    pinned = json.loads(PIVOTS.read_text(encoding="utf-8"))
    assert len(pinned) == len(cases)
    differing = [i for i, (case, passes) in enumerate(zip(cases, pinned))
                 if pivots(case["input"]) != passes]
    assert differing == []
    # every simplex pass of the kernel is exercised, pivots included
    assert sum(len(p["pivots"]) for passes in pinned for p in passes) > 1000


if __name__ == "__main__":
    family = golden_family()
    _write(GOLDEN, [{"input": case, "answer": solve(case)} for case in family])
    _write(PIVOTS, [pivots(case) for case in family])
    print(f"wrote {len(family)} cases to {GOLDEN} and {PIVOTS}", file=sys.stderr)
