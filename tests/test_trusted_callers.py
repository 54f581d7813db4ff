"""The trusted callers of the exact LP layer against its public checkers.

`torus_rank`, `symm_torus_rank` and `t_stable_rank` (and through it
`lct_monomial`) hand their rows to `exactlp._slope`, and the semistability
checks and `newton_membership` hand theirs to `exactlp._feasible`, unchecked,
because they build them from objects their own constructors have checked.
Over seeded random inputs, every such program must pass the public checks
unchanged, and each answer must equal the public route's exactly.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from stablerank import ideals, tensors
from stablerank.exactlp import lp_feasible, minimize_slope
from stablerank.ideals import (
    LinearChange,
    MonomialIdeal,
    PolyIdeal,
    SparsePolynomial,
    apply_linear_change,
    lct_monomial,
    newton_membership,
    newton_threshold,
    t_stable_rank,
)
from stablerank.rationals import integers, rational
from stablerank.tensors import (
    SymmetricSupport,
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
    result, as ("slope" | "feasible", arguments, result)."""
    seen = []
    for module in (tensors, ideals):
        for name in ("_slope", "_feasible"):
            solve = getattr(module, name)

            def spy(*args, solve=solve, kind=name[1:]):
                result = solve(*args)
                seen.append((kind, args, result))
                return result

            monkeypatch.setattr(module, name, spy)
    return seen


def compositions(total, parts):
    if parts == 1:
        return [(total,)]
    return [(head, *tail) for head in range(total + 1)
            for tail in compositions(total - head, parts - 1)]


def random_tensor(rng):
    n, d = rng.randint(1, 4), rng.randint(1, 4)
    pool = list(itertools.product(range(1, n + 1), repeat=d))
    return TensorSupport(d, n, rng.sample(pool, rng.randint(1, min(12, len(pool)))))


def random_form(rng):
    n, d = rng.randint(1, 4), rng.randint(1, 5)
    pool = compositions(d, n)
    return SymmetricSupport(d, n, rng.sample(pool, rng.randint(1, min(6, len(pool)))))


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


def assert_checked_slope(cost, rows, result):
    assert type(cost) is tuple and cost
    for c in cost:
        assert type(c) in (int, F) and rational(c, "cost") is c and c > 0
    assert type(rows) is tuple and rows
    for row in rows:
        assert type(row) is tuple and integers(row, "support row") == row
        assert all(type(e) is int and e >= 0 for e in row)
        assert len(row) == len(cost)
    public = minimize_slope(cost, rows)
    assert (public.value, public.witness) == (result.value, result.witness)
    assert type(public.value) is type(result.value)


def assert_checked_feasible(rows, rhs, verdict):
    assert type(rows) is tuple and rows and type(rhs) is tuple and len(rhs) == len(rows)
    width = len(rows[0])
    assert width
    for row in rows:
        assert type(row) is tuple and len(row) == width
        assert all(type(v) in (int, F) and rational(v, "equality row") is v for v in row)
    assert all(type(v) in (int, F) and rational(v, "equality rhs") is v for v in rhs)
    assert lp_feasible([], [], rows, rhs)[0] is verdict


def check_all(calls):
    kinds = set()
    for kind, args, result in calls:
        kinds.add(kind)
        if kind == "slope":
            assert_checked_slope(*args, result)
        else:
            assert_checked_feasible(*args, result)
    calls.clear()
    return kinds


def test_tensor_ranks_and_semistability(calls):
    rng = random.Random(20261101)
    verdicts = set()
    for case in range(120):
        support = random_tensor(rng)
        alpha = None
        if case % 2:
            alpha = [rng.choice((1, 2, F(1, 2), F(3, 2), F(5, 3))) for _ in range(support.order)]
        torus_rank(support, alpha)
        verdicts.add(is_torus_semistable(support))
        assert check_all(calls) == {"slope", "feasible"}
    assert verdicts == {True, False}


def test_form_ranks_and_semistability(calls):
    rng = random.Random(20261102)
    verdicts = set()
    for _ in range(120):
        form = random_form(rng)
        symm_torus_rank(form)
        verdicts.add(is_symm_torus_semistable(form))
        torus_rank(expand_symmetric(form))
        assert check_all(calls) == {"slope", "feasible"}
    assert verdicts == {True, False}


def test_monomial_ideals(calls):
    rng = random.Random(20261103)
    for _ in range(120):
        ideal = random_monomial_ideal(rng)
        t_stable_rank(ideal)
        if ideal.is_unit:
            assert check_all(calls) == {"slope"}
            continue
        nu = lct_monomial(ideal)
        assert nu == newton_threshold(ideal)
        assert newton_membership(ideal, nu)
        assert not newton_membership(ideal, nu + F(1, 7))
        assert check_all(calls) == {"slope", "feasible"}


def test_polynomial_ideals(calls):
    rng = random.Random(20261104)
    infinite = 0
    for _ in range(120):
        result = t_stable_rank(random_poly_ideal(rng))
        infinite += not result.is_finite
        assert check_all(calls) == {"slope"}
    assert 0 < infinite < 120
