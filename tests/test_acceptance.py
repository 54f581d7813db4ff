"""Acceptance gate: every pinned value checked exactly, one line per criterion.

Run with `python3 -m pytest tests/test_acceptance.py -v` to get a pass/fail
line for each criterion (the printed summaries also show with -s). All
comparisons are exact rational equalities; there are no tolerances.
"""

import json
import random
from fractions import Fraction as F

from oracle import CYCLIC, oracle_minimum_over_vertices
from stablerank.cli import run
from stablerank.exactlp import LinearProgram, lp_minimize
from stablerank.ideals import (
    LinearChange,
    MonomialIdeal,
    PolyIdeal,
    SparsePolynomial,
    apply_linear_change,
    lct_monomial,
    t_stable_rank,
)
from stablerank.tensors import SymmetricSupport, symm_torus_rank
from stablerank.verify import run_suite


def _report(number: int, description: str, problems: list[str]) -> None:
    status = "FAIL" if problems else "PASS"
    print(f"acceptance criterion {number}: {status} - {description}")
    assert not problems, f"criterion {number}: " + "; ".join(problems)


def _json_value(capsys, argv) -> str:
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, f"{argv} exited {code}"
    return json.loads(out)["value"]


def test_criterion_1_w_state_ranks(tmp_path, capsys):
    tensor = tmp_path / "w.txt"
    tensor.write_text("tensor 3 2\n2 1 1\n1 2 1\n1 1 2\n")
    form = tmp_path / "wform.txt"
    form.write_text("symm 3 2\n2 1\n")
    problems = []
    got = _json_value(capsys, ["rank", "tensor", str(tensor), "--json"])
    if got != "3/2":
        problems.append(f"rank tensor gave {got}, expected 3/2")
    got = _json_value(capsys, ["rank", "symm", str(form), "--json"])
    if got != "3/2":
        problems.append(f"rank symm gave {got}, expected 3/2")
    _report(1, "W-state tensor and cubic form both have rank 3/2", problems)


def test_criterion_2_cyclic_monomial_ideal(tmp_path, capsys):
    path = tmp_path / "cyclic.txt"
    path.write_text("mideal 3\n2 1 0\n0 2 1\n1 0 2\n")
    problems = []
    got = _json_value(capsys, ["lct", str(path), "--json"])
    if got != "1":
        problems.append(f"lct gave {got}, expected 1")
    got = _json_value(capsys, ["rank", "ideal", str(path), "--json"])
    if got != "1":
        problems.append(f"rank ideal gave {got}, expected 1")
    if lct_monomial(CYCLIC) != F(1):
        problems.append("library lct disagrees")
    _report(2, "lct and rank of (x^2 y, y^2 z, z^2 x) equal 1", problems)


def test_criterion_3_random_diagonal_ideals():
    rng = random.Random(20250819)
    problems = []
    for case in range(25):
        n = rng.randint(1, 4)
        exps = [rng.randint(1, 9) for _ in range(n)]
        diag = MonomialIdeal(
            n, [tuple(e if i == j else 0 for j in range(n)) for i, e in enumerate(exps)]
        )
        expected = sum(F(1, e) for e in exps)
        got = lct_monomial(diag)
        if got != expected:
            problems.append(f"case {case} exponents {exps}: {got} != {expected}")
    _report(3, "25 random diagonal ideals: lct equals the reciprocal sum", problems)


def test_criterion_4_linear_change_of_coordinates(tmp_path, capsys):
    square = SparsePolynomial(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    cusp = SparsePolynomial(2, {(1, 0): 1, (0, 2): 1})
    half = LinearChange([[F(1, 2), F(1, 2)], [F(1, 2), F(-1, 2)]])
    problems = []
    standard = t_stable_rank(PolyIdeal(2, [square])).value
    if standard != F(1):
        problems.append(f"(x+y)^2 standard rank {standard}, expected 1")
    moved = t_stable_rank(PolyIdeal(2, [apply_linear_change(square, half)])).value
    if moved != F(1, 2):
        problems.append(f"(x+y)^2 rank after change {moved}, expected 1/2")
    cusp_rank = t_stable_rank(PolyIdeal(2, [cusp])).value
    if cusp_rank != F(3, 2):
        problems.append(f"(x + y^2) rank {cusp_rank}, expected 3/2")
    ideal_file = tmp_path / "square.txt"
    ideal_file.write_text("pideal 2\n1 : 2 0\n2 : 1 1\n1 : 0 2\n")
    matrix_file = tmp_path / "half.txt"
    matrix_file.write_text("matrix 2\n1/2 1/2\n1/2 -1/2\n")
    got = _json_value(
        capsys, ["rank", "ideal", str(ideal_file), "--change", str(matrix_file), "--json"]
    )
    if got != "1/2":
        problems.append(f"cli rank ideal --change gave {got}, expected 1/2")
    _report(4, "rank drops from 1 to 1/2 under u=x+y, v=x-y; (x+y^2) has rank 3/2", problems)


def test_criterion_5_power_sum_family():
    problems = []
    for n in range(2, 5):
        for d in range(2, 6):
            fermat = SparsePolynomial(
                n, {tuple(d if i == j else 0 for j in range(n)): 1 for i in range(n)}
            )
            ideal_rank = t_stable_rank(PolyIdeal(n, [fermat])).value
            if ideal_rank != F(n, d):
                problems.append(f"ideal rank n={n} d={d}: {ideal_rank} != {n}/{d}")
            support = SymmetricSupport(
                d, n, [tuple(d if i == j else 0 for j in range(n)) for i in range(n)]
            )
            symm_rank = symm_torus_rank(support).value
            if symm_rank != F(n):
                problems.append(f"symm rank n={n} d={d}: {symm_rank} != {n}")
    _report(
        5,
        "sum of d-th powers, 2<=n<=4, 2<=d<=5: ideal rank n/d and symmetric rank n",
        problems,
    )


def test_criterion_6_check_suites_two_seeds():
    problems = []
    expected_counts = {
        "symm-multi": 200,
        "semistable": 600,
        "monomial-lct": 205,
        "ideal-props": 800,
    }
    for seed in (7, 42):
        for name, expected in expected_counts.items():
            reports = run_suite(name, seed)
            if len(reports) != expected:
                problems.append(f"{name} seed {seed}: {len(reports)} checks, expected {expected}")
            failed = [r for r in reports if not r.passed]
            if failed:
                problems.append(
                    f"{name} seed {seed}: {len(failed)} failures, first: "
                    f"{failed[0].check_name} {failed[0].lhs} vs {failed[0].rhs}"
                )
    _report(6, "all four check suites pass 200/200 cases at seeds 7 and 42", problems)


def test_criterion_7_lp_oracle_agreement():
    rng = random.Random(977)
    problems = []
    for case in range(500):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        rows = [[F(rng.randint(-3, 4)) for _ in range(n)] for _ in range(m)]
        rhs = [F(rng.randint(-2, 3)) for _ in range(m)]
        objective = [F(rng.randint(0, 4)) for _ in range(n)]
        eq_rows, eq_rhs = (), ()
        if case % 3 == 0:
            eq_rows = ([F(rng.randint(-2, 2)) for _ in range(n)],)
            eq_rhs = (F(rng.randint(0, 2)),)
        fast = lp_minimize(LinearProgram(objective, rows, rhs, eq_rows, eq_rhs))
        slow = oracle_minimum_over_vertices(objective, rows, rhs, eq_rows, eq_rhs)
        if fast.status != slow.status or fast.value != slow.value:
            problems.append(
                f"case {case}: simplex {fast.status}/{fast.value} "
                f"vs oracle {slow.status}/{slow.value}"
            )
    _report(7, "500 random programs: simplex agrees exactly with the vertex oracle", problems)


def test_criterion_8_lct_bounded_by_rank():
    problems = []
    squares = SparsePolynomial(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    rank = t_stable_rank(PolyIdeal(3, [squares])).value
    if rank != F(3, 2):
        problems.append(f"rank of (x1^2+x2^2+x3^2) is {rank}, expected 3/2")
    recorded_lct = F(1)
    if not recorded_lct < rank:
        problems.append(f"recorded lct {recorded_lct} is not below the rank {rank}")
    (report,) = run_suite("lct-bound", 0)
    if not report.passed:
        problems.append("anchor check reports failure")
    _report(8, "recorded lct 1 of the sum of three squares lies below its rank 3/2", problems)
