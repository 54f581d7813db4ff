"""Exact LP layer: frozen examples, the vertex oracle, and agreement properties.

Expected optima below were derived by hand (manual vertex enumeration) before
the solver existed; they are frozen and must never be relaxed.
"""

import itertools
import json
import math
import random
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import oracle
from oracle import oracle_minimum_over_vertices
from stablerank import exactlp, ideals, tensors, verify
from stablerank.errors import InputError
from stablerank.exactlp import (
    LinearProgram,
    _Fields,
    _hadamard_bits,
    _pivot,
    _singular,
    _slope,
    lp_minimize,
)
from stablerank.ideals import (
    MonomialIdeal,
    PolyIdeal,
    SparsePolynomial,
    lct_monomial,
    newton_threshold,
    t_stable_rank,
)
from stablerank.rationals import cleared, integers
from stablerank.tensors import (
    SymmetricSupport,
    TensorSupport,
    is_symm_torus_semistable,
    is_torus_semistable,
    symm_torus_rank,
    torus_rank,
)
from stablerank.verify import run_suite


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def program(objective, rows, rhs, eq_rows=(), eq_rhs=()):
    return LinearProgram(
        objective=objective,
        constraint_rows=rows,
        rhs=rhs,
        equality_rows=eq_rows,
        equality_rhs=eq_rhs,
    )


def feasibility(rows, rhs, eq_rows=(), eq_rhs=()):
    """The program that asks whether {rows . x >= rhs, eq_rows . x = eq_rhs,
    x >= 0} is feasible: a zero objective, one variable per column of the
    first row (one when there is no row, so the right sides still meet the
    rows they are checked against)."""
    width = len(next(iter([*rows, *eq_rows]), [0]))
    return program((0,) * width, rows, rhs, eq_rows, eq_rhs)


class TestLpMinimize:
    def test_three_row_program(self):
        # min x1+x2  s.t.  2x1 >= 1, x1+x2 >= 1, 2x2 >= 1
        out = lp_minimize(program([1, 1], [[2, 0], [1, 1], [0, 2]], [1, 1, 1]))
        assert out.status == "optimal"
        assert out.value == F(1)
        assert out.vertex == (F(1, 2), F(1, 2))

    def test_two_row_program(self):
        # min x1+x2  s.t.  x1 >= 1, 2x2 >= 1
        out = lp_minimize(program([1, 1], [[1, 0], [0, 2]], [1, 1]))
        assert out.status == "optimal"
        assert out.value == F(3, 2)
        assert out.vertex == (F(1), F(1, 2))

    def test_trivial_zero(self):
        out = lp_minimize(program([1], [[1]], [0]))
        assert out.status == "optimal"
        assert out.value == 0

    def test_infeasible_with_equality(self):
        out = lp_minimize(program([1], [[1]], [1], eq_rows=[[1]], eq_rhs=[0]))
        assert out.status == "infeasible"
        assert out.value is None and out.vertex is None

    def test_infeasible_zero_row(self):
        # 0*x >= 1 can never hold
        out = lp_minimize(program([1, 1], [[0, 0]], [1]))
        assert out.status == "infeasible"

    def test_unbounded(self):
        out = lp_minimize(program([-1], [[1]], [0]))
        assert out.status == "unbounded"

    def test_unbounded_two_vars(self):
        out = lp_minimize(program([-1, -1], [[1, 1]], [1]))
        assert out.status == "unbounded"

    def test_bounded_negative_objective(self):
        # min -x  s.t.  -x >= -2  (i.e. x <= 2)
        out = lp_minimize(program([-1], [[-1]], [-2]))
        assert out.status == "optimal"
        assert out.value == F(-2)
        assert out.vertex == (F(2),)

    def test_equality_program(self):
        # min x2  s.t.  x1 + x2 = 1
        out = lp_minimize(program([0, 1], [], [], eq_rows=[[1, 1]], eq_rhs=[1]))
        assert out.status == "optimal"
        assert out.value == 0
        assert out.vertex == (F(1), F(0))

    def test_vertex_satisfies_constraints_exactly(self):
        rows = [[2, 0], [1, 1], [0, 2]]
        out = lp_minimize(program([1, 1], rows, [1, 1, 1]))
        for row in rows:
            assert dot(row, out.vertex) >= 1
        assert dot([1, 1], out.vertex) == out.value

    def test_deterministic(self):
        p = program([1, 2, 0], [[1, 1, 0], [0, 1, 3], [2, 0, 1]], [1, 2, 1])
        assert lp_minimize(p) == lp_minimize(p)

    def test_rejects_ragged_rows(self):
        with pytest.raises(InputError):
            program([1, 1], [[1]], [1])

    def test_rejects_rhs_mismatch(self):
        with pytest.raises(InputError):
            program([1], [[1]], [1, 2])

    def test_rejects_floats(self):
        with pytest.raises(InputError):
            program([0.5], [[1]], [1])

    def test_entries_kept_as_given_answers_in_fractions(self):
        p = program([1, F(1, 2)], [[True, "2"]], [1])
        assert [type(c) for c in p.objective] == [int, F]
        assert [type(a) for a in p.constraint_rows[0]] == [F, F]
        out = lp_minimize(p)
        assert (out.value, out.vertex) == (F(1, 4), (F(0), F(1, 2)))
        assert type(out.value) is F and all(type(x) is F for x in out.vertex)
        out = lp_minimize(feasibility([[1, 2]], [3]))
        assert out.status == "optimal" and all(type(x) is F for x in out.vertex)


class TestLpFeasible:
    """Feasibility of {A x >= b, E x = e, x >= 0} is `lp_minimize` of the
    program with a zero objective: "optimal" with a vertex, or "infeasible"."""

    def test_simple_feasible_with_witness(self):
        out = lp_minimize(feasibility([[1, 1]], [1]))
        assert (out.status, out.value) == ("optimal", 0)
        assert dot([1, 1], out.vertex) >= 1
        assert all(w >= 0 for w in out.vertex)

    def test_infeasible_equality_clash(self):
        out = lp_minimize(feasibility([[1]], [1], [[1]], [0]))
        assert out.status == "infeasible"
        assert out.vertex is None

    def test_opposing_rows_infeasible(self):
        # lam1 + lam2 >= 1 and -(lam1 + lam2) >= 1 after a sign split
        rows = [[1, 1, -1, -1], [-1, -1, 1, 1]]
        assert lp_minimize(feasibility(rows, [1, 1])).status == "infeasible"

    def test_equalities_only(self):
        out = lp_minimize(feasibility([], [], [[1, 1], [1, -1]], [2, 0]))
        assert out.status == "optimal"
        assert out.vertex == (F(1), F(1))

    @pytest.mark.parametrize("rows, rhs, eq_rows, eq_rhs", [
        ([[1, 2]], [1, 2], [], []),  # more right sides than rows
        ([[1, 2]], [1], [[1, 1]], []),  # an equality row without its right side
        ([[1, 2], [1]], [1, 1], [], []),  # rows of two widths
        ([[1]], [1], [[1, 1]], [1]),  # an equality row of another width
        ([[0.5]], [1], [], []),  # floating point
        ([[1]], ["x"], [], []),  # not a rational
        ([[]], [1], [], []),  # zero-width rows
        ([], [1], [], []),  # a right side with no rows
    ])
    def test_rejects_malformed_systems(self, rows, rhs, eq_rows, eq_rhs):
        with pytest.raises(InputError):
            feasibility(rows, rhs, eq_rows, eq_rhs)


def pass_pivots(monkeypatch, solve, full=False):
    """(solve(), the pivot count of every `_simplex` pass it ran). With
    `full`, no pass stops at a zero value: every phase one runs to the end."""
    pivots, passes = [], []
    simplex, pivot = exactlp._simplex, exactlp._pivot

    def traced_simplex(rows, basis, d, fields, ncols, stop_at_zero=False):
        before = len(pivots)
        out = simplex(rows, basis, d, fields, ncols, stop_at_zero and not full)
        passes.append(len(pivots) - before)
        return out

    def traced_pivot(*args):
        pivots.append(args[2])
        return pivot(*args)

    with monkeypatch.context() as patch:
        patch.setattr(exactlp, "_simplex", traced_simplex)
        patch.setattr(exactlp, "_pivot", traced_pivot)
        return solve(), passes


class TestPhaseOneStop:
    """Phase one stops at value 0 when every cost is 0, and only then."""

    # x = 2 and x + y = 2: phase one is at 0 once x enters, and Bland's rule
    # would then enter y on a row at level 0, which moves nothing
    EQ_ROWS, EQ_RHS = [[1, 0], [1, 1]], [2, 2]

    def test_zero_cost_skips_the_degenerate_tail(self, monkeypatch):
        zero_cost = feasibility([], [], self.EQ_ROWS, self.EQ_RHS)
        for full, passes in ((False, [1]), (True, [2])):
            outcome, ran = pass_pivots(monkeypatch, lambda: lp_minimize(zero_cost), full)
            assert (outcome.status, outcome.value, outcome.vertex, ran) == (
                "optimal", 0, (F(2), F(0)), passes)

    def test_nonzero_cost_runs_phase_one_to_the_end(self, monkeypatch):
        for cost in ([1, 1], [0, -1], [F(1, 2), 0]):
            costly = program(cost, [], [], self.EQ_ROWS, self.EQ_RHS)
            outcome, passes = pass_pivots(monkeypatch, lambda: lp_minimize(costly))
            # the first pass is the zero-cost system's full phase one
            assert passes[0] == 2
            assert outcome.vertex == (F(2), F(0))

    def test_random_systems_keep_every_witness(self, monkeypatch):
        rng = random.Random(20261107)
        fewer = 0
        for _ in range(300):
            n, m, p = rng.randint(1, 5), rng.randint(0, 3), rng.randint(1, 3)
            rows = [[rng.randint(-1, 2) for _ in range(n)] for _ in range(m)]
            rhs = [rng.randint(-1, 2) for _ in range(m)]
            eq_rows = [[rng.randint(0, 2) for _ in range(n)] for _ in range(p)]
            eq_rhs = [rng.randint(0, 3) for _ in range(p)]

            def feasible():
                return lp_minimize(feasibility(rows, rhs, eq_rows, eq_rhs))

            stopped, short = pass_pivots(monkeypatch, feasible)
            answer, full = pass_pivots(monkeypatch, feasible, full=True)
            assert stopped == answer
            assert sum(short) <= sum(full)
            fewer += sum(short) < sum(full)
        assert fewer >= 20

    def test_golden_feasibility_cases(self, monkeypatch):
        # the feasible family's systems with equality rows, which take the
        # two-phase route; the others take the dual route, with no phase one
        golden = json.loads(Path(__file__).with_name("golden_lp.json").read_text(encoding="utf-8"))
        cases = [case["input"] for case in golden
                 if case["input"]["family"] == "feasible" and case["input"]["eq_rows"]]
        fewer = 0
        for given in cases:
            system = feasibility(
                [[F(v) for v in row] for row in given["rows"]], [F(v) for v in given["rhs"]],
                [[F(v) for v in row] for row in given["eq_rows"]], [F(v) for v in given["eq_rhs"]])
            stopped, short = pass_pivots(monkeypatch, lambda: lp_minimize(system))
            answer, full = pass_pivots(monkeypatch, lambda: lp_minimize(system), full=True)
            assert stopped == answer
            assert sum(short) <= sum(full)
            fewer += sum(short) < sum(full)
        assert (len(cases), fewer) == (49, 5)


W_ROWS = ((0, 1, 1, 0, 1, 0), (1, 0, 0, 1, 1, 0), (1, 0, 1, 0, 0, 1))
W = TensorSupport(3, 2, [(2, 1, 1), (1, 2, 1), (1, 1, 2)])


class TestMinimizeSlope:
    """The slope program through its one solve, `_slope`, which takes a
    nonempty tuple of positive costs and a nonempty tuple of nonnegative int
    rows unchecked; the rank functions' checked objects see to that."""

    def test_w_tensor_rows(self):
        res = _slope((1,) * 6, W_ROWS)
        assert res.value == F(3, 2)
        lam = res.witness
        assert all(isinstance(e, int) and e >= 0 for e in lam)
        val = min(dot(row, lam) for row in W_ROWS)
        assert val > 0
        assert F(sum(lam), val) == F(3, 2)

    def test_cyclic_rows(self):
        res = _slope((1, 1, 1), ((2, 1, 0), (0, 2, 1), (1, 0, 2)))
        assert res.value == F(1)

    def test_single_row(self):
        res = _slope((1,), ((1,),))
        assert res.value == F(1)
        assert res.witness == (1,)

    def test_zero_row_gives_infinity(self):
        res = _slope((1, 1), ((0, 0), (1, 1)))
        assert res.value == math.inf
        assert res.witness is None

    def test_no_zero_row_gives_finite(self):
        res = _slope((1, 1), ((0, 1), (1, 0)))
        assert res.value != math.inf

    def test_empty_rows_rejected(self):
        # no rank function can hand `_slope` an empty row collection
        for make, message in [
            (lambda: TensorSupport(2, 2, []), "tensor support must be nonempty"),
            (lambda: SymmetricSupport(2, 2, []), "symmetric support must be nonempty"),
            (lambda: MonomialIdeal(2, []), "a monomial ideal needs at least one generator"),
            (lambda: PolyIdeal(2, []), "an ideal needs at least one generator"),
        ]:
            with pytest.raises(InputError, match=f"^{message}$"):
                make()

    def test_negative_row_entry_rejected(self):
        # nor a negative row entry
        message = "^exponent vector: expected a value >= 0, got -1$"
        for make in (lambda: SymmetricSupport(2, 2, [(-1, 3)]),
                     lambda: MonomialIdeal(2, [(1, -1)]),
                     lambda: SparsePolynomial(2, {(1, -1): 1})):
            with pytest.raises(InputError, match=message):
                make()

    def test_nonpositive_cost_rejected(self):
        # `torus_rank`'s alpha is the only cost a caller chooses
        for alpha in ([1, 0, 1], [1, 1, F(-1, 2)]):
            with pytest.raises(InputError, match="^alpha entries must be positive$"):
                torus_rank(W, alpha)

    def test_fractional_cost(self):
        # alpha = (1/2, 1/2): min (x1+x2)/2 s.t. both coordinates appear
        res = _slope((F(1, 2), F(1, 2)), ((1, 0), (0, 1)))
        assert res.value == F(1)

    def test_witness_scale_invariance(self):
        res = _slope((1,) * 6, W_ROWS)
        lam = res.witness
        for k in (2, 3, 7):
            scaled = tuple(k * e for e in lam)
            val = min(dot(row, scaled) for row in W_ROWS)
            assert F(dot([1] * 6, scaled), val) == res.value

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_integer_grid_never_beats_value(self, data):
        n = data.draw(st.integers(1, 3))
        nrows = data.draw(st.integers(1, 4))
        rows = data.draw(
            st.lists(
                st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any),
                min_size=nrows,
                max_size=nrows,
            )
        )
        res = _slope((1,) * n, tuple(map(tuple, rows)))
        assert res.value != math.inf
        # brute force over a small integer grid: nothing beats the LP value,
        # and the returned witness attains it exactly
        grid = range(0, 5)

        for lam in itertools.product(grid, repeat=n):
            val = min(dot(row, lam) for row in rows)
            if val > 0:
                assert F(dot([1] * n, lam), val) >= res.value
        wval = min(dot(row, res.witness) for row in rows)
        assert F(dot([1] * n, res.witness), wval) == res.value


class TestTrustedPath:
    """`_slope` builds its program unchecked, so every rejection a caller
    needs happens in the caller's own checks, with the wording of the one
    helper that made it."""

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: torus_rank(W, [1, 0.5, 1]), "alpha: floating point is not exact, pass int or Fraction"),
            (lambda: LinearProgram((), [], []), "objective: at least one variable is required"),
            (lambda: MonomialIdeal(2, [(1, True)]), "exponent vector: expected an integer, got True"),
            (lambda: MonomialIdeal(2, [(1, F(1, 2))]), "exponent vector: expected an integer, got Fraction(1, 2)"),
            (lambda: SymmetricSupport(2, 2, [(1, 1.0)]), "exponent vector: expected an integer, got 1.0"),
            (lambda: MonomialIdeal(2, [(1, 1), (1,)]), "exponent vector: expected 2 entries, got 1"),
        ],
    )
    def test_caller_rejections(self, make, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            make()

    def test_program_equals_validated_program(self, monkeypatch):
        seen = []
        solve = exactlp.lp_minimize
        monkeypatch.setattr(exactlp, "lp_minimize",
                            lambda program, **kw: seen.append(program) or solve(program, **kw))
        cost = (1, F(3, 2), 2)
        rows = ((1, 0, 2), (0, 4, 1), (3, 1, 0))
        assert _slope(cost, rows).value == F(31, 25)
        assert seen == [LinearProgram(cost, rows, [1] * len(rows))]

    def test_integers_rejects_bools(self):
        assert integers([3, F(4), -1], "x") == (3, 4, -1)
        for value in (True, False):
            with pytest.raises(InputError, match="^x: expected an integer, got"):
                integers([1, value], "x")


def dense_pivot(rows, d, r, c):
    """Reference pivot: every other row becomes (p * a - f * b) // d, with the
    division asserted exact, after negating the pivot row when p < 0."""
    prow = rows[r]
    p = prow[c]
    if p < 0:
        p, prow = -p, [-v for v in prow]
    out = []
    for i, line in enumerate(rows):
        if i == r:
            out.append(list(prow))
            continue
        f = line[c]
        assert all((p * a - f * b) % d == 0 for a, b in zip(line, prow))
        out.append([(p * a - f * b) // d for a, b in zip(line, prow)])
    return out, p


def test_pivot_matches_dense_formula():
    # Tableaux over a common D come from random integer matrices after a few
    # reference pivots; then every nonzero entry is tried as the pivot on the
    # packed rows, whose fields are sized from the initial matrix.
    rng = random.Random(20261018)
    cases = {"p == d": 0, "p == -d": 0, "|p| != d": 0, "f == 0": 0}
    for _ in range(300):
        m, n = rng.randint(2, 5), rng.randint(2, 6)
        rows = [[rng.choice((-2, -1, 0, 0, 1, 1, 2, 3)) for _ in range(n)] for _ in range(m)]
        fields = _Fields(_hadamard_bits(sum(v * v for v in line) for line in rows))
        offset = fields.offset(n)
        d = 1
        for _ in range(rng.randint(0, 3)):
            spots = [(i, j) for i in range(m) for j in range(n) if rows[i][j]]
            if spots:
                rows, d = dense_pivot(rows, d, *rng.choice(spots))
        for r in range(m):
            for c in range(n):
                p = rows[r][c]
                if not p:
                    continue
                expected, new_d = dense_pivot(rows, d, r, c)
                packed = [fields.pack(line, offset) for line in rows]
                assert [fields.unpack(line, n) for line in packed] == rows
                factors = fields.column(packed, c, offset)
                assert factors == [line[c] for line in rows]
                assert _pivot(packed, d, r, factors) == new_d
                assert [fields.unpack(line, n) for line in packed] == expected
                cases["p == d" if p == d else "p == -d" if p == -d else "|p| != d"] += 1
                cases["f == 0"] += sum(1 for i in range(m) if i != r and rows[i][c] == 0)
    assert all(cases.values()), cases


def pivot_cases(d, factors, r):
    """The branches of `_pivot` a pivot with these factors takes, by the
    divisibility of p and of each other row's factor f by d."""
    p = factors[r]
    cases = {"d == 1"} if d == 1 else set()
    if p < 0:
        cases.add("p < 0")
    if p % d:
        return cases | {"d does not divide p"}
    for i, f in enumerate(factors):
        if i != r and f:
            cases.add("d divides p, not f" if f % d else "d divides p and f")
        elif i != r:
            cases.add("f == 0, p == d" if abs(p) == d else "f == 0, p != d")
    return cases


def bareiss_steps(matrix, picks):
    """Bareiss steps by `_pivot` on the packed rows of an integer matrix, each
    at the nonzero entry a pick selects (modulo their count, row by row).
    Yields (rows before, D, pivot row, factors, rows after, new D) per step."""
    n = len(matrix[0])
    fields = _Fields(_hadamard_bits(sum(v * v for v in line) for line in matrix))
    offset = fields.offset(n)
    rows = [fields.pack(line, offset) for line in matrix]
    d = 1
    for pick in picks:
        columns = [fields.column(rows, j, offset) for j in range(n)]
        spots = [(i, j) for i in range(len(rows)) for j in range(n) if columns[j][i]]
        if not spots:
            return
        r, c = spots[pick % len(spots)]
        before = list(rows)
        new_d = _pivot(rows, d, r, columns[c])
        yield before, d, r, columns[c], list(rows), new_d
        d = new_d


# every branch of `_pivot`: D = 1, D not dividing p, D dividing p and f, D
# dividing p but not f, p = D with f = 0, and a negative p
EVERY_BRANCH = ([[1, 2, -1, 2], [0, -2, -2, -2], [3, 1, 0, -1], [0, 0, -2, 0]], [14, 11, 5, 15])


@settings(deadline=None, max_examples=200)
@given(
    matrix=st.integers(2, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=2, max_size=5)),
    picks=st.lists(st.integers(0, 63), min_size=1, max_size=5),
)
@example(*EVERY_BRANCH)
def test_pivot_is_the_packed_formula(matrix, picks):
    # after every Bareiss step, each packed row other than the pivot row is
    # (p*R - f*P) // D of the packed rows before it, whichever branch took it
    # there, and |p| is the new D
    for rows, d, r, factors, after, new_d in bareiss_steps(matrix, picks):
        event(", ".join(sorted(pivot_cases(d, factors, r))))
        p, prow = factors[r], rows[r]
        if p < 0:
            p, prow = -p, -prow
        assert all((p * row - f * prow) % d == 0 for row, f in zip(rows, factors))
        assert new_d == p and after == [prow if i == r else (p * row - f * prow) // d
                                      for i, (row, f) in enumerate(zip(rows, factors))]


def test_pivot_example_takes_every_branch():
    cases = set()
    for _, d, r, factors, _, _ in bareiss_steps(*EVERY_BRANCH):
        cases |= pivot_cases(d, factors, r)
    assert cases >= {"d == 1", "p < 0", "d does not divide p", "d divides p and f",
                     "d divides p, not f", "f == 0, p == d"}


def test_division_free_branch_on_both_routes(monkeypatch):
    # Pivots over D > 1 at which D divides p and a nonzero factor f, so that
    # row's update has no big-integer division, occur on the dual route (the
    # torus rank of a tensor support) and on the two-phase route (its
    # semistability check). The four supports are the first draws that
    # forced zeros and the matching search leave to the program.
    seen = []
    pivot = exactlp._pivot

    def spy(rows, d, r, factors):
        seen.append(pivot_cases(d, factors, r))
        return pivot(rows, d, r, factors)

    monkeypatch.setattr(exactlp, "_pivot", spy)
    rng = random.Random(20261105)
    tuples = sorted(itertools.product((1, 2, 3, 4), repeat=4))
    supports = []
    for _ in range(200):  # bounded, so a fault that decides every draw fails
        support = TensorSupport(4, 4, rng.sample(tuples, 20))
        if not isinstance(tensors._forced_zeros(tuple(support.tuples), 4), bool):
            supports.append(support)
            if len(supports) == 4:
                break
    assert len(supports) == 4
    for solve in (torus_rank, is_torus_semistable):
        seen.clear()
        for support in supports:
            solve(support)
        assert any("d divides p and f" in cases and "d == 1" not in cases for cases in seen)


def sylvester(order):
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-v for v in row] for row in h]
    return h


@pytest.mark.parametrize("order", [4, 8, 16])
def test_field_width_reaches_hadamard_bound(order, monkeypatch):
    # |det H| = n^(n/2) is the Hadamard bound of the +-1 matrix H, so the
    # elimination of H alone ends with D and the diagonal at 2^32 for n = 16:
    # fields sized from the entries (1) rather than the bound overflow.
    denominators = []
    pivot = exactlp._pivot
    monkeypatch.setattr(exactlp, "_pivot",
                        lambda *args: denominators.append(pivot(*args)) or denominators[-1])
    assert not _singular(sylvester(order))
    assert len(denominators) == order
    assert denominators[-1] == order ** (order // 2)


def test_singularity_verdict_is_the_inverses():
    # `LinearChange` asks only whether M is singular: the verdict must be the
    # one the oracle's own Fraction elimination gives when it inverts M.
    # Small entries, and every third matrix with a row forced to a
    # combination of the others, make both kinds common.
    rng = random.Random(20261019)
    singular = 0
    for case in range(400):
        n = rng.randint(1, 4)
        m = [[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        if case % 3 == 0 and n > 1:
            a, b = F(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-2, 2)
            m[-1] = [a * u + b * v for u, v in zip(m[0], m[1])]
        verdict = _singular(m)
        assert verdict == (oracle.inverse(m) is None)
        singular += verdict
    assert 50 < singular < 350


def row_ceiling_width(squares):
    """k by the older rule: the sum of ceil(log2 ||row||) over the nonzero
    rows, plus 2, in whole bytes; the exact product never gives more."""
    bits = sum((sq - 1).bit_length() + 1 >> 1 for sq in squares if sq)
    return (bits + 9) // 8 * 8


class CheckedPivots:
    """Watches every solve through exactlp's module globals: each `_Fields`
    is compared with the row-ceiling width of the squared row norms handed
    to `_hadamard_bits` just before it, and each `_pivot` is checked against
    `dense_pivot` by decoding every row before and after it."""

    def __init__(self, monkeypatch):
        self.fields = None
        self.row_squares = None
        self.widths = []
        self.pivots = 0
        self.largest = 0
        bits, pivot, checker = exactlp._hadamard_bits, exactlp._pivot, self

        def hadamard_bits(squares, count=None):
            squares = list(squares)
            if count is None:
                checker.row_squares = squares
            return bits(squares, count)

        class Fields(exactlp._Fields):
            def __init__(self, width):
                super().__init__(width)
                checker.fields = self
                checker.widths.append((self.k, row_ceiling_width(checker.row_squares)))

        def checked_pivot(rows, d, r, factors):
            fields = checker.fields
            # enough fields for every row: a nonzero field j makes |row| >= 2^(k*j - 1)
            count = max(row.bit_length() for row in rows) // fields.k + 2
            before = [fields.unpack(row, count) for row in rows]
            c = next(j for j in range(count) if [line[j] for line in before] == list(factors))
            expected, new_d = dense_pivot(before, d, r, c)
            assert pivot(rows, d, r, factors) == new_d
            assert [fields.unpack(row, count) for row in rows] == expected
            checker.pivots += 1
            checker.largest = max(checker.largest, new_d, *(abs(v) for line in expected for v in line))
            return new_d

        monkeypatch.setattr(exactlp, "_hadamard_bits", hadamard_bits)
        monkeypatch.setattr(exactlp, "_Fields", Fields)
        monkeypatch.setattr(exactlp, "_pivot", checked_pivot)


def test_fields_no_wider_and_every_pivot_decodes(monkeypatch):
    # seeded programs of every route, with ints, small fractions and
    # denominators near 2^40; the width never exceeds the row-ceiling rule's,
    # and every pivot leaves exactly the rows of the dense reference
    checker = CheckedPivots(monkeypatch)
    rng = random.Random(20261019)

    def value(kind, low, high):
        if kind == 0:
            return rng.randint(low, high)
        den = rng.randint(1, 6) if kind == 1 else rng.randint(2**39, 2**40)
        return F(rng.randint(low * den, high * den), den)

    pivots = {}
    for case in range(240):
        kind, route = rng.choice((0, 0, 1, 2)), case % 4
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        start = checker.pivots
        if route == 0:
            obj = [value(kind, 0, 4) for _ in range(n)]
            rows = [[value(kind, -3, 4) for _ in range(n)] for _ in range(m)]
            lp_minimize(program(obj, rows, [value(kind, -2, 3) for _ in range(m)]))
        elif route == 1:
            obj = [value(kind, -3, 4) for _ in range(n)]
            rows = [[value(kind, -3, 4) for _ in range(n)] for _ in range(m)]
            eq_rows = [[value(kind, -2, 3) for _ in range(n)] for _ in range(rng.randint(0, 2))]
            lp_minimize(program(obj, rows, [value(kind, -2, 3) for _ in range(m)],
                                eq_rows, [value(kind, 0, 3) for _ in eq_rows]))
        elif route == 2:
            eq_rows = [[value(kind, -2, 3) for _ in range(n)] for _ in range(m)]
            lp_minimize(feasibility([], [], eq_rows, [value(kind, 0, 3) for _ in eq_rows]))
        else:
            _singular([[value(kind, -3, 3) for _ in range(n)] for _ in range(n)])
        pivots[route] = pivots.get(route, 0) + checker.pivots - start
    assert all(k <= old for k, old in checker.widths)
    assert any(k < old for k, old in checker.widths)
    assert len(pivots) == 4 and all(pivots.values()), pivots


def test_dual_route_reaches_column_bound(monkeypatch):
    # min c.x s.t. H x >= b, x >= 0 with H the Sylvester-Hadamard matrix of
    # order 16, b = H x* and c = H^T x* for x* = (3, 2, ..., 2): the optimum
    # x* is unique and nondegenerate, so the dual ends in the basis of all 16
    # tuple columns, with D = |det H| = 2^32 and the objective's right side
    # D * c.x* = 2^32 * 129. The column product bounds k here, and that entry
    # does not fit a field one byte narrower.
    checker = CheckedPivots(monkeypatch)
    h = sylvester(16)
    x = [3] + [2] * 15
    b = [dot(row, x) for row in h]
    c = [dot(column, x) for column in zip(*h)]
    out = lp_minimize(program(c, h, b))
    assert out.vertex == tuple(map(F, x)) and out.value == dot(c, x) == 129
    columns = [dot(row, row) + v * v for row, v in zip(h, b)] + [dot(c, c)]
    rows = [dot(column, column) + 1 + v * v for column, v in zip(zip(*h), c)] + [dot(b, b)]
    assert _hadamard_bits(columns, 17) < _hadamard_bits(rows)
    k = checker.fields.k
    assert k == (_hadamard_bits(columns, 17) + 9) // 8 * 8
    assert checker.largest == 2**32 * 129 >= 1 << k - 9


def test_large_denominators_against_oracle():
    # cleared rows of entries with denominators near 2^40 are wide, and so are
    # their minors; both routes must still agree with the vertex oracle
    rng = random.Random(40)

    def value(low, high):
        den = rng.randint(2**39, 2**40)
        return F(rng.randint(low * den, high * den), den)

    routes = set()
    for _ in range(60):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[value(-3, 3) for _ in range(n)] for _ in range(m)]
        rhs = [value(-2, 2) for _ in range(m)]
        obj = [value(0, 3) for _ in range(n)]
        eq_rows, eq_rhs = (), ()
        if rng.random() < 0.5:
            eq_rows, eq_rhs = ([value(-2, 2) for _ in range(n)],), (value(0, 2),)
        p = program(obj, rows, rhs, eq_rows, eq_rhs)
        fast = lp_minimize(p)
        slow = oracle_minimum_over_vertices(p)
        assert fast.status == slow.status
        assert fast.value == slow.value
        if fast.status == "optimal":
            routes.add(bool(eq_rows))
            assert dot(obj, fast.vertex) == fast.value
            assert all(dot(row, fast.vertex) >= b for row, b in zip(rows, rhs))
            assert all(dot(row, fast.vertex) == b for row, b in zip(eq_rows, eq_rhs))
    assert routes == {False, True}


def test_oracle_elimination_against_the_matrix_product():
    # the reference's own elimination, checked by routes that are not itself:
    # M X = R and M M^-1 = I by a plain Fraction product, and singularity by
    # the Leibniz determinant, over small denominators, denominators near
    # 2^40 and n = 1; a matrix with a row forced to a combination of the
    # others (for n = 1, the zero row) has neither solution nor inverse
    rng = random.Random(20261020)

    def value(big):
        den = rng.randint(2**39, 2**40) if big else rng.randint(1, 6)
        return F(rng.randint(-3 * den, 3 * den), den)

    def product(a, b):
        return [[dot(row, column) for column in zip(*b)] for row in a]

    def determinant(m):
        total = F(0)
        for perm in itertools.permutations(range(len(m))):
            inversions = sum(p > q for p, q in itertools.combinations(perm, 2))
            total += (-1) ** inversions * math.prod(m[i][j] for i, j in enumerate(perm))
        return total

    seen = set()
    for case in range(320):
        n, big = 1 + case % 4, case % 8 >= 4
        m = [[value(big) for _ in range(n)] for _ in range(n)]
        forced = case % 5 == 0
        if forced:
            a, b = value(big), value(big)
            m[-1] = [a * u + b * v for u, v in zip(m[0], m[-2])] if n > 1 else [F(0)]
        width = rng.randint(1, 3)
        r = [[value(big) for _ in range(width)] for _ in range(n)]
        x, inverse = oracle.solve(m, r), oracle.inverse(m)
        if determinant(m) == 0:
            assert x is None and inverse is None
            seen.add((big, n == 1, "singular"))
            continue
        assert not forced
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert product(m, x) == r
        assert product(m, inverse) == identity == product(inverse, m)
        seen.add((big, n == 1, "regular"))
    assert len(seen) == 8, seen


class TestOracle:
    def test_oracle_three_row_program(self):
        out = oracle_minimum_over_vertices(
            program([1, 1], [[2, 0], [1, 1], [0, 2]], [1, 1, 1])
        )
        assert out.status == "optimal"
        assert out.value == F(1)

    def test_oracle_two_row_program(self):
        out = oracle_minimum_over_vertices(program([1, 1], [[1, 0], [0, 2]], [1, 1]))
        assert out.value == F(3, 2)

    def test_oracle_w_tensor_program(self):
        out = oracle_minimum_over_vertices(program([1] * 6, W_ROWS, [1, 1, 1]))
        assert out.value == F(3, 2)

    def test_oracle_infeasible(self):
        out = oracle_minimum_over_vertices(program([1], [[1]], [1], [[1]], [0]))
        assert out.status == "infeasible"

    def test_oracle_size_guard(self):
        p = program([1] * 8, [[1] * 8 for _ in range(12)], [1] * 12)
        with pytest.raises(InputError):
            oracle_minimum_over_vertices(p, max_candidates=10)

    def test_oracle_agreement_fixed(self):
        cases = [
            program([1, 1], [[2, 0], [1, 1], [0, 2]], [1, 1, 1]),
            program([1, 1], [[1, 0], [0, 2]], [1, 1]),
            program([-1], [[-1]], [-2]),
            program([0, 1], [[1, -1]], [-1], [[1, 1]], [2]),
        ]
        for p in cases:
            a = lp_minimize(p)
            b = oracle_minimum_over_vertices(p)
            assert a.status == b.status
            assert a.value == b.value

    @settings(deadline=None, max_examples=120)
    @given(st.data())
    def test_oracle_agreement_random(self, data):
        n = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(1, 4))
        rows = [
            [F(data.draw(st.integers(-3, 3))) for _ in range(n)] for _ in range(m)
        ]
        rhs = [F(data.draw(st.integers(-2, 2))) for _ in range(m)]
        obj = [F(data.draw(st.integers(0, 3))) for _ in range(n)]
        use_eq = data.draw(st.booleans())
        eq_rows, eq_rhs = (), ()
        if use_eq:
            eq_rows = ([F(data.draw(st.integers(-2, 2))) for _ in range(n)],)
            eq_rhs = (F(data.draw(st.integers(0, 2))),)
        p = program(obj, rows, rhs, eq_rows, eq_rhs)
        fast = lp_minimize(p)
        slow = oracle_minimum_over_vertices(p)
        assert fast.status == slow.status
        if fast.status == "optimal":
            assert fast.value == slow.value
            for row, b in zip(rows, rhs):
                assert dot(row, fast.vertex) >= b
            for row, b in zip(eq_rows, eq_rhs):
                assert dot(row, fast.vertex) == b


def test_seeded_random_agreement_bulk():
    rng = random.Random(20260819)
    for _ in range(150):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        rows = [[F(rng.randint(-3, 4)) for _ in range(n)] for _ in range(m)]
        rhs = [F(rng.randint(-2, 3)) for _ in range(m)]
        obj = [F(rng.randint(0, 4)) for _ in range(n)]
        p = program(obj, rows, rhs)
        fast = lp_minimize(p)
        slow = oracle_minimum_over_vertices(p)
        assert fast.status == slow.status
        assert fast.value == slow.value


def test_every_solve_enters_through_lp_minimize(monkeypatch):
    # Both routes are reached only from inside `lp_minimize`, through every
    # public caller of the library; counts of solves taken at `lp_minimize`
    # rest on this.
    depth, routes, outside = [0], [], []

    def route(name, fn):
        def counted(*args):
            routes.append(name)
            if not depth[0]:
                outside.append(name)
            return fn(*args)
        return counted

    def entry(*args, **kwargs):
        depth[0] += 1
        try:
            return solve(*args, **kwargs)
        finally:
            depth[0] -= 1

    solve = exactlp.lp_minimize
    bindings = [(name, module) for name, module in sorted(sys.modules.items())
                if name.startswith("stablerank") and getattr(module, "lp_minimize", None) is solve]
    assert {"stablerank.exactlp", "stablerank.ideals"} <= {name for name, _ in bindings}
    for _, module in bindings:
        monkeypatch.setattr(module, "lp_minimize", entry)
    for name in ("_via_dual", "_primal_two_phase"):
        monkeypatch.setattr(exactlp, name, route(name, getattr(exactlp, name)))

    w = TensorSupport(3, 2, [(2, 1, 1), (1, 2, 1), (1, 1, 2)])
    form = SymmetricSupport(3, 2, [(2, 1), (1, 2)])
    cyclic = MonomialIdeal(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
    poly = PolyIdeal(2, [SparsePolynomial(2, {(2, 0): 1, (1, 1): F(1, 2)}),
                         SparsePolynomial(2, {(0, 3): 1})])
    torus_rank(w)
    torus_rank(w, [1, F(1, 2), 3])
    symm_torus_rank(form)
    t_stable_rank(cyclic)
    t_stable_rank(poly)
    lct_monomial(cyclic)
    newton_threshold(cyclic)
    is_torus_semistable(w)
    is_symm_torus_semistable(form)
    assert exactlp.lp_minimize(program([1, -1], [], [], [[1, 1]], [1])).status == "optimal"
    run_suite("all", 0, 5)
    assert routes.count("_via_dual") > 0 and routes.count("_primal_two_phase") > 0
    assert outside == []


def golden_programs():
    """Every `lp_minimize` program of `golden_lp.json`: 320 of its 345 cases,
    the other 25 calling `torus_rank`."""
    golden = json.loads(Path(__file__).with_name("golden_lp.json").read_text(encoding="utf-8"))
    programs = []
    for case in golden:
        given = case["input"]
        if given["call"] == "lp_minimize":
            programs.append(program(
                [F(v) for v in given["objective"]], [[F(v) for v in row] for row in given["rows"]],
                [F(v) for v in given["rhs"]], [[F(v) for v in row] for row in given["eq_rows"]],
                [F(v) for v in given["eq_rhs"]]))
    assert len(programs) == 320
    return programs


def test_routes_answer_in_integers_and_lp_minimize_divides(monkeypatch):
    # Each route answers a status string or (value, x, D) in ints alone, and
    # `lp_minimize` builds its outcome from that: the value over D * L, with
    # L the cost scale `_integral` cleared, and each vertex entry over D.
    seen = []

    def spy(name):
        fn = getattr(exactlp, name)

        def recorded(*args):
            answer = fn(*args)
            seen.append((name, answer))
            return answer
        return recorded

    for name in ("_integral", "_via_dual", "_primal_two_phase"):
        monkeypatch.setattr(exactlp, name, spy(name))

    programs = golden_programs()
    rng = random.Random(2027)

    def draw(count):
        return [F(rng.randint(-3, 4), rng.choice((1, 1, 2, 3))) for _ in range(count)]

    for _ in range(200):
        n, m, e = rng.randint(1, 4), rng.randint(0, 4), rng.randint(0, 2)
        programs.append(program(draw(n), [draw(n) for _ in range(m)], draw(m),
                                [draw(n) for _ in range(e)], draw(e)))

    kinds, scales = set(), set()
    for p in programs:
        seen.clear()
        out = lp_minimize(p)
        (_, integral), (route, answer) = seen
        scale = integral[5]
        if isinstance(answer, str):
            kinds.add((route, answer))
            assert out == exactlp.LpOutcome(status=answer)
            continue
        kinds.add((route, "optimal"))
        scales.add(scale > 1)
        assert type(answer) is tuple and len(answer) == 3
        value, x, d = answer
        assert type(value) is int and type(d) is int and d > 0
        assert type(x) is list and len(x) == p.num_variables
        assert all(type(v) is int for v in x)
        assert out.status == "optimal"
        assert type(out.value) is F and out.value == F(value, d * scale)
        assert all(type(v) is F for v in out.vertex)
        assert out.vertex == tuple(F(v, d) for v in x)
        assert len({id(v) for v in out.vertex if not v}) <= 1
    assert kinds == {("_via_dual", "optimal"), ("_via_dual", "infeasible"),
                     ("_primal_two_phase", "optimal"), ("_primal_two_phase", "infeasible"),
                     ("_primal_two_phase", "unbounded")}
    assert scales == {False, True}


def test_raw_read_equals_the_public_outcome(monkeypatch):
    # `_slope`, `_feasible` and `newton_threshold` read the route's integer
    # answer and L through `lp_minimize(..., _raw=True)`. What they make of it
    # equals what the public outcome gives: the value by Fraction division,
    # the witness by `cleared` of the vertex, the verdict by the status.
    slopes, verdicts = [], []

    def record(into, fn):
        def recorded(*args):
            result = fn(*args)
            into.append((args, result))
            return result
        return recorded

    for module in (tensors, ideals):
        monkeypatch.setattr(module, "_slope", record(slopes, exactlp._slope))
    monkeypatch.setattr(tensors, "_feasible", record(verdicts, exactlp._feasible))

    statuses = set()
    for p in golden_programs():
        answer, scale = lp_minimize(p, _raw=True)
        out = lp_minimize(p)
        statuses.add(out.status)
        if isinstance(answer, str):
            assert answer == out.status != "optimal"
        else:
            value, x, d = answer
            assert out.value == F(value, d * scale)
            assert tuple(v // math.gcd(d, *x) for v in x) == cleared(out.vertex)[1]
        if p.equality_rows:
            lines = [cleared((*row, b))[1] for row, b in zip(p.equality_rows, p.equality_rhs)]
            system = (tuple(line[:-1] for line in lines), tuple(line[-1] for line in lines))
            verdicts.append((system, exactlp._feasible(*system)))
    assert statuses == {"optimal", "infeasible", "unbounded"}

    rng = random.Random(20261019)
    for _ in range(60):
        tensor, form = verify._random_tensor(rng), verify._random_symmetric(rng)
        torus_rank(tensor)
        torus_rank(tensor, [F(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(tensor.order)])
        symm_torus_rank(form)
        is_torus_semistable(tensor)
        is_symm_torus_semistable(form)
        ideal = verify._random_monomial_ideal(rng)
        assert newton_threshold(ideal) == t_stable_rank(ideal).value

    finite = 0
    for (cost, rows), result in slopes:
        if not all(map(any, rows)):
            assert (result.value, result.witness) == (math.inf, None)
            continue
        finite += 1
        out = lp_minimize(LinearProgram(cost, rows, (1,) * len(rows)))
        assert type(result.value) is F and result.value == out.value
        assert result.witness == cleared(out.vertex)[1]
        assert all(type(v) is int for v in result.witness)
    kinds = set()
    for (rows, rhs), verdict in verdicts:
        kinds.add(verdict)
        assert verdict is (lp_minimize(feasibility([], [], rows, rhs)).status == "optimal")
    assert finite > 200 and kinds == {False, True}


def test_zero_cost_phase_one_packs_no_artificial_column(monkeypatch):
    # A zero-cost system with equality rows takes the two-phase route, whose
    # phase one runs over the variables and the surplus columns alone. Its
    # verdicts match the vertex oracle, each feasible vertex satisfies the
    # system exactly, and `_feasible` gives the same verdict on the system
    # with one explicit surplus variable per inequality row.
    passes = []
    simplex = exactlp._simplex

    def traced(rows, basis, d, fields, ncols, stop_at_zero=False):
        passes.append((ncols, len(basis), stop_at_zero))
        return simplex(rows, basis, d, fields, ncols, stop_at_zero)

    monkeypatch.setattr(exactlp, "_simplex", traced)
    rng = random.Random(20261020)
    seen = set()
    for _ in range(300):
        n, m, p = rng.randint(1, 4), rng.randint(0, 3), rng.randint(1, 2)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-2, 2) for _ in range(m)]
        eq_rows = [[rng.randint(-1, 2) for _ in range(n)] for _ in range(p)]
        eq_rhs = [rng.randint(-1, 3) for _ in range(p)]
        system = feasibility(rows, rhs, eq_rows, eq_rhs)
        passes.clear()
        out = lp_minimize(system)
        assert passes == [(n + m, m + p, True)]
        assert out.status == oracle_minimum_over_vertices(system).status
        if out.status == "optimal":
            x = out.vertex
            assert out.value == 0 and all(v >= 0 for v in x)
            assert all(dot(row, x) >= b for row, b in zip(rows, rhs))
            assert all(dot(row, x) == b for row, b in zip(eq_rows, eq_rhs))
        surplus = [tuple(row) + tuple(-int(i == j) for j in range(m)) for i, row in enumerate(rows)]
        padded = [tuple(row) + (0,) * m for row in eq_rows]
        assert exactlp._feasible(tuple(surplus + padded), tuple(rhs + eq_rhs)) is (out.status == "optimal")
        seen.add((out.status, min(rhs + eq_rhs) < 0))
    assert seen == {("optimal", False), ("optimal", True), ("infeasible", False), ("infeasible", True)}


def test_zero_cost_width_counts_no_artificial_column(monkeypatch):
    # The semistability program of this 3x3x3 support, 7 rows over its 10
    # tuples, has a Hadamard bound of 2^14 and so 16-bit fields. Counting the
    # unit entry of an artificial column, which a zero-cost tableau does not
    # pack, in every row's squared norm would raise the bound to 2^15 and the
    # fields to 24 bits. The support is semistable with no perfect matching,
    # so it reaches the program.
    widths = []

    class Fields(exactlp._Fields):
        def __init__(self, bits):
            super().__init__(bits)
            widths.append(self.k)

    monkeypatch.setattr(exactlp, "_Fields", Fields)
    support = TensorSupport(3, 3, [(1, 1, 1), (1, 2, 2), (1, 3, 1), (2, 1, 1), (2, 1, 2),
                                   (2, 2, 1), (2, 2, 3), (2, 3, 2), (3, 1, 3), (3, 3, 1)])
    assert is_torus_semistable(support) is True
    assert widths == [16]
