"""The trusted callers of the exact LP layer against its public checkers.

`torus_rank`, `symm_torus_rank` and `t_stable_rank` (and through it
`lct_monomial`) hand their rows to `exactlp._slope`, and the two
semistability checks hand theirs to `exactlp._feasible`, unchecked, because
they build them from objects their own constructors have checked.
Over seeded random inputs, every such program must pass the public checks
unchanged, hold int rows and right sides (and positive int costs,
`_slope`'s contract), and give the public route's answer exactly.

The feasibility callers hand over the all-integer twin of a program with
fractional right sides (a multiple of theta); `torus_rank` clears its costs
alpha by the lcm L of their denominators and divides the slope by L. Each
is a positive scaling of rows and variables, so the simplex must take the
same pivots as the fractional formulation through the public `lp_minimize`,
which `oracle.minimize` clears, in fields never wider: the equality system
with a zero objective, and the slope program
min{cost . x : row . x >= 1, x >= 0}.

A support decided before any program is built (a form with a variable no
exponent uses; a tensor whose forced zeros, `tensors._forced_zeros`, settle
its verdict, among them every tensor with an index no tuple uses in some
factor) is decided with no solve at all. For those the tests check that no
program is handed over and that the verdict is the one the full fractional
program gives through `oracle.minimize`.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

import oracle
from oracle import feasible, random_form, random_tensor, simplex_passes, slope
from stablerank import ideals, tensors
from stablerank.exactlp import SlopeResult
from stablerank.ideals import (
    LinearChange,
    MonomialIdeal,
    PolyIdeal,
    SparsePolynomial,
    apply_linear_change,
    lct_monomial,
    newton_threshold,
    t_stable_rank,
)
from stablerank.rationals import cleared, integers
from stablerank.tensors import (
    TensorSupport,
    expand_symmetric,
    is_symm_torus_semistable,
    is_torus_semistable,
    symm_torus_rank,
    torus_rank,
)


@pytest.fixture
def calls(monkeypatch):
    """Every call of the two trusted entry points, with its arguments and
    result. `ideals` calls `_slope` alone."""
    return oracle.calls(monkeypatch, (tensors, "_slope"), (tensors, "_feasible"),
                        (ideals, "_slope"))


def dense_tensor(rng):
    """20 tuples of a 4 x 4 x 4 x 4 support. Forced zeros and the matching
    search decide almost every draw of `random_tensor(rng, 4, 4, 12)`, up
    to 12 tuples over n, d <= 4, before any program; about one in four of
    these is left to the program, semistable or not."""
    return TensorSupport(4, 4, rng.sample(list(itertools.product(range(1, 5), repeat=4)), 20))


def random_monomial_ideal(rng):
    n = rng.randint(1, 4)
    gens = [tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(rng.randint(1, 5))]
    return MonomialIdeal(n, gens)


def random_poly_ideal(rng):
    n = rng.randint(1, 3)
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms = {tuple(rng.randint(0, 3) for _ in range(n)): F(rng.randint(-4, 4) or 1, rng.randint(1, 3))
                 for _ in range(rng.randint(1, 3))}
        gens.append(SparsePolynomial(n, terms))
    ideal = PolyIdeal(n, gens)
    if rng.random() < 0.5:
        return ideal
    # a unipotent change keeps the ideal nonzero and builds trusted polynomials
    matrix = [[F(int(i == j)) if i <= j else F(rng.randint(-2, 2), rng.randint(1, 2))
               for j in range(n)] for i in range(n)]
    return PolyIdeal(n, [apply_linear_change(g, LinearChange(matrix)) for g in gens])


def has_unused_variable(form):
    """Does some variable of the form occur in no exponent?"""
    return any(all(m[j] == 0 for m in form.exponents) for j in range(form.nvars))


def assert_checked_slope(cost, rows, result):
    assert type(cost) is tuple and cost
    assert all(type(c) is int and c > 0 for c in cost)
    assert type(rows) is tuple and rows
    for row in rows:
        assert type(row) is tuple and integers(row, "support row") == row
        assert all(type(e) is int and e >= 0 for e in row)
        assert len(row) == len(cost)
    public = slope(cost, rows)
    assert (public.value, public.witness) == (result.value, result.witness)
    assert type(public.value) is type(result.value)


def assert_checked_feasible(rows, rhs, verdict):
    assert type(rows) is tuple and rows and type(rhs) is tuple and len(rhs) == len(rows)
    width = len(rows[0])
    assert width
    for row in rows:
        assert type(row) is tuple and len(row) == width
        assert all(type(v) is int for v in row)
    assert all(type(v) is int for v in rhs)
    assert feasible((), (), rows, rhs) is verdict


def check_all(calls):
    kinds = set()
    for name, args, _, result in calls:
        kinds.add(name)
        if name == "_slope":
            assert_checked_slope(*args, result)
        else:
            assert_checked_feasible(*args, result)
    calls.clear()
    return kinds


def test_tensor_ranks_and_semistability(calls):
    rng = random.Random(20261101)
    dense = random.Random(20261102)
    verdicts, decided = set(), 0
    for case in range(150):
        support = random_tensor(rng, 4, 4, 12) if case < 120 else dense_tensor(dense)
        alpha = None
        if case % 2:
            alpha = [rng.choice((1, 2, F(1, 2), F(3, 2), F(5, 3))) for _ in range(support.order)]
        torus_rank(support, alpha)
        verdict = is_torus_semistable(support)
        if oracle.forced_zeros(support)[1] is None:
            assert check_all(calls) == {"_slope"}
            assert verdict is feasible((), (), *old_tensor_program(support))
            decided += 1
            continue
        verdicts.add(verdict)
        assert check_all(calls) == {"_slope", "_feasible"}
    assert verdicts == {True, False}
    assert 0 < decided < 150


def test_alpha_programs_clear_only_their_costs(monkeypatch):
    """A fractional alpha makes the costs alone fractional: `torus_rank`
    clears alpha once, by the lcm L of its denominators, hands `_slope` the
    int costs L * alpha_i of the variables it uses with the int rows as they
    are, and returns that slope over L, with the slope's witness."""
    slopes = oracle.calls(monkeypatch, (tensors, "_slope"))
    rng = random.Random(20261107)
    for _ in range(60):
        support = random_tensor(rng, 4, 4, 12)
        alpha = [rng.choice((1, F(1, 2), F(3, 2), F(5, 3))) for _ in range(support.order)]
        alpha[rng.randrange(support.order)] = F(2, 3)
        slopes.clear()
        result = torus_rank(support, alpha)
        assert result == slope(*oracle.full_tensor_program(support, alpha))
        [(_, (cost, rows), _, inner)] = slopes
        scale, scaled = cleared(alpha)
        assert scale > 1 and all(type(c) is int for c in cost)
        n = support.dims
        used = sorted({i * n + j - 1 for t in support.tuples for i, j in enumerate(t)})
        assert cost == tuple(scaled[c // n] for c in used)
        assert result.value == inner.value / scale


def test_form_ranks_and_semistability(calls):
    rng = random.Random(20261102)
    verdicts, unused = set(), 0
    for _ in range(120):
        form = random_form(rng, 4, 5, 6)
        symm_torus_rank(form)
        verdict = is_symm_torus_semistable(form)
        torus_rank(expand_symmetric(form))
        if has_unused_variable(form):
            assert check_all(calls) == {"_slope"}
            assert verdict is False
            assert feasible((), (), *old_form_program(form)) is False
            unused += 1
            continue
        verdicts.add(verdict)
        assert check_all(calls) == {"_slope", "_feasible"}
    assert verdicts == {True, False}
    assert 0 < unused < 120


def test_monomial_ideals(calls):
    rng = random.Random(20261103)
    for _ in range(120):
        ideal = random_monomial_ideal(rng)
        t_stable_rank(ideal)
        if not ideal.is_unit:
            assert lct_monomial(ideal) == newton_threshold(ideal)
        assert check_all(calls) == {"_slope"}


def test_polynomial_ideals(calls):
    rng = random.Random(20261104)
    infinite = 0
    for _ in range(120):
        result = t_stable_rank(random_poly_ideal(rng))
        infinite += result.value == math.inf
        assert check_all(calls) == {"_slope"}
    assert 0 < infinite < 120


def old_tensor_program(support):
    """The fractional formulation over convex theta: sum(theta) = 1 and
    every marginal of j < n equal to 1/n, one column per tuple, the tuples
    in difference-class order."""
    n = support.dims
    rows = oracle.marginal_rows(oracle.difference_class_order(support.tuples, n), n)
    return rows, (1,) + (F(1, n),) * (len(rows) - 1)


def old_form_program(form):
    """Every marginal sum_m theta_m * m_j equal to d/n, one column per
    exponent vector m, by sum(m_j^2) and then in lexicographic order."""
    n, d = form.nvars, form.degree
    exponents = sorted(form.exponents, key=lambda m: (sum(v * v for v in m), m))
    rows = [tuple(m[j] for m in exponents) for j in range(n)]
    return rows, (F(d, n),) * n


def test_integer_programs_take_the_fractional_pivots():
    rng = random.Random(20261106)
    widths, verdicts, pivots = [], {"tensor": set(), "form": set()}, 0
    decided = {"tensor": 0, "form": 0, "unit ideal": 0}

    def same_path(new, old, answers_equal=lambda a, b: a == b and type(a) is type(b),
                  caller="rank", renumber=lambda passes: passes):
        nonlocal pivots
        new_answer, new_passes = simplex_passes(new)
        old_answer, old_passes = simplex_passes(old)
        assert answers_equal(new_answer, old_answer)
        assert oracle.path(new_passes) == oracle.path(renumber(old_passes))
        for new_pass, old_pass in zip(new_passes, old_passes):
            widths.append((caller, new_pass["k"], old_pass["k"]))
            pivots += len(new_pass["pivots"])
        return new_answer

    def same_slope(a, b):
        return (a.value, a.witness) == (b.value, b.witness) and type(a.value) is type(b.value)

    def same_verdict(new, old, caller, decided_first):
        """A support decided before any program gets the full program's
        verdict with no tableau; every other one takes the full program's
        path."""
        if decided_first:
            verdict, passes = simplex_passes(new)
            assert passes == [] and verdict is old()
            decided[caller] += 1
        else:
            verdicts[caller].add(same_path(new, old, caller=caller))

    for case in range(120):
        support = random_tensor(rng, 4, 4, 12)
        rows, rhs = old_tensor_program(support)
        same_verdict(lambda: is_torus_semistable(support),
                     lambda: feasible((), (), rows, rhs), "tensor",
                     oracle.forced_zeros(support)[1] is None)
        alpha = [rng.choice((1, 2, F(1, 2), F(3, 2), F(5, 3))) for _ in range(support.order)]
        same_path(lambda: torus_rank(support, alpha),
                  lambda: slope(*oracle.full_tensor_program(support, alpha)), same_slope,
                  renumber=lambda passes: oracle.used_index_passes(support, passes))

        form = random_form(rng, 4, 5, 6)
        rows, rhs = old_form_program(form)
        same_verdict(lambda: is_symm_torus_semistable(form),
                     lambda: feasible((), (), rows, rhs), "form", has_unused_variable(form))
        same_path(lambda: symm_torus_rank(form),
                  lambda: slope([F(form.degree)] * form.nvars, form.sorted_exponents),
                  same_slope)

        ideal = random_monomial_ideal(rng)
        cost = [F(1)] * ideal.nvars
        if ideal.is_unit:
            # the zero row: +infinity with no tableau, as the full program says
            assert simplex_passes(t_stable_rank, ideal) == (SlopeResult(math.inf, None), [])
            assert slope(cost, ideal.generators).value == math.inf
            decided["unit ideal"] += 1
        else:
            same_path(lambda: t_stable_rank(ideal),
                      lambda: slope(cost, ideal.generators), same_slope)
    dense, left = random.Random(20261107), 0
    for _ in range(1000):  # bounded, so a fault that decides every draw fails
        support = dense_tensor(dense)
        _, live = oracle.forced_zeros(support)
        if live is not None:
            rows, rhs = old_tensor_program(TensorSupport(support.order, support.dims, live))
            same_verdict(lambda: is_torus_semistable(support),
                         lambda: feasible((), (), rows, rhs), "tensor", False)
            left += 1
            if left == 30:
                break
    assert left == 30
    assert all(v == {True, False} for v in verdicts.values()), verdicts
    # every `random_tensor` draw is decided first, so only the dense draws
    # reach the program
    assert decided["tensor"] == 120, decided
    assert all(0 < decided[caller] < 120 for caller in ("form", "unit ideal")), decided
    assert pivots > 1000
    assert all(new <= old for caller, new, old in widths)
    # `oracle.minimize` clears a fractional cost vector by the lcm L of its
    # denominators, as `torus_rank` does, so the rank programs' widths are
    # equal by construction; only the feasibility twins, whose right sides
    # `oracle.minimize` clears with the rows, can come out narrower.
    for caller in ("tensor", "form"):
        assert any(new < old for c, new, old in widths if c == caller), caller
