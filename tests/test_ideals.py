"""Ideal-side computations: orders, T-stable rank, linear changes, lct, Newton.

Frozen values derived by hand: rank((x^2+2xy+y^2)) = 1 and 1/2 after the
u = x+y, v = x-y change; rank((x+y^2)) = 3/2; rank and lct of the cyclic
ideal (x^2 y, y^2 z, z^2 x) both 1; lct of a diagonal ideal is the sum of
reciprocal exponents. The Newton-polyhedron route is the independent check
for every lct value.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from stablerank import ideals
from stablerank.errors import InputError
from stablerank.exactlp import LinearProgram
from stablerank.ideals import (
    LinearChange,
    MonomialIdeal,
    PolyIdeal,
    SparsePolynomial,
    apply_linear_change,
    ideal_order,
    ideal_power,
    ideal_product,
    ideal_sum,
    lct_monomial,
    newton_membership,
    newton_threshold,
    t_stable_rank,
    weighted_order,
)


def poly(nvars, terms):
    return SparsePolynomial(nvars, terms)


def mono(nvars, *gens):
    return MonomialIdeal(nvars, gens)


SQUARE = poly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})  # x^2 + 2xy + y^2
CUSP_LIKE = poly(2, {(1, 0): 1, (0, 2): 1})  # x + y^2
CYCLIC = mono(3, (2, 1, 0), (0, 2, 1), (1, 0, 2))  # (x^2 y, y^2 z, z^2 x)
HALF_CHANGE = LinearChange([[F(1, 2), F(1, 2)], [F(1, 2), F(-1, 2)]])


class TestSparsePolynomial:
    def test_zero_coefficients_dropped(self):
        f = poly(2, {(1, 0): 1, (0, 1): 0})
        assert f.terms == {(1, 0): F(1)}

    def test_zero_polynomial(self):
        f = poly(2, {})
        assert f.is_zero

    def test_addition_cancels(self):
        f = poly(1, {(1,): 1})
        g = poly(1, {(1,): -1})
        assert (f + g).is_zero

    def test_multiplication(self):
        x_plus_y = poly(2, {(1, 0): 1, (0, 1): 1})
        assert x_plus_y * x_plus_y == SQUARE

    def test_validation(self):
        with pytest.raises(InputError):
            poly(2, {(1,): 1})
        with pytest.raises(InputError):
            poly(2, {(-1, 0): 1})
        with pytest.raises(InputError):
            poly(2, {(1, 0): 0.5})


class TestWeightedOrder:
    def test_square(self):
        assert weighted_order(SQUARE, (1, 1)) == 2
        assert weighted_order(SQUARE, (2, 0)) == 0
        assert weighted_order(SQUARE, (1, 2)) == 2

    def test_zero_polynomial_is_infinite(self):
        assert weighted_order(poly(2, {}), (1, 1)) == math.inf

    def test_additive_on_products(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 3)
            f = _random_poly(rng, n)
            g = _random_poly(rng, n)
            lam = tuple(rng.randint(0, 4) for _ in range(n))
            assert weighted_order(f * g, lam) == weighted_order(f, lam) + weighted_order(g, lam)

    def test_arity_check(self):
        with pytest.raises(InputError):
            weighted_order(SQUARE, (1, 1, 1))


def _random_poly(rng, n, max_terms=3, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(n))
        terms[exps] = F(rng.randint(1, 5))
    return SparsePolynomial(n, terms)


def _random_monomial_ideal(rng, n=None, max_gens=4, max_exp=4):
    n = n or rng.randint(1, 3)
    gens = set()
    for _ in range(rng.randint(1, max_gens)):
        g = tuple(rng.randint(0, max_exp) for _ in range(n))
        if any(g):
            gens.add(g)
    if not gens:
        gens.add(tuple(1 for _ in range(n)))
    return MonomialIdeal(n, gens)


class TestIdealOrder:
    def test_cyclic_unit_weights(self):
        assert ideal_order(CYCLIC, (1, 1, 1)) == 3

    def test_cyclic_skew_weights(self):
        assert ideal_order(CYCLIC, (1, 2, 3)) == 4

    def test_poly_ideal(self):
        ideal = PolyIdeal(2, [SQUARE, CUSP_LIKE])
        assert ideal_order(ideal, (1, 1)) == 1

    def test_poly_ideal_is_the_least_generator_order(self):
        rng = random.Random(9)
        for _ in range(40):
            gens = [poly(3, {tuple(rng.randint(0, 3) for _ in range(3)): rng.randint(1, 3)
                             for _ in range(rng.randint(1, 3))}) for _ in range(rng.randint(1, 3))]
            lam = tuple(rng.choice([0, 1, F(1, 2), F(5, 3)]) for _ in range(3))
            expected = min(weighted_order(g, lam) for g in gens)
            order = ideal_order(PolyIdeal(3, gens), lam)
            assert (order, type(order)) == (expected, type(expected))

    def test_errors(self):
        with pytest.raises(InputError, match="^not an ideal: "):
            ideal_order(SQUARE, (1, 1))
        with pytest.raises(InputError, match="^weight vector: expected 2 entries, got 3$"):
            ideal_order(PolyIdeal(2, [SQUARE]), (1, 1, 1))
        with pytest.raises(InputError, match="^weight vector: expected a value >= 0, got -1$"):
            ideal_order(CYCLIC, (1, -1, 1))

    def test_product_additivity(self):
        rng = random.Random(5)
        for _ in range(30):
            a = _random_monomial_ideal(rng, n=3)
            b = _random_monomial_ideal(rng, n=3)
            lam = tuple(rng.randint(0, 4) for _ in range(3))
            assert ideal_order(ideal_product(a, b), lam) == ideal_order(a, lam) + ideal_order(b, lam)


class TestTStableRank:
    def test_square(self):
        assert t_stable_rank(PolyIdeal(2, [SQUARE])).value == F(1)

    def test_cusp_like(self):
        assert t_stable_rank(PolyIdeal(2, [CUSP_LIKE])).value == F(3, 2)

    def test_cyclic(self):
        assert t_stable_rank(CYCLIC).value == F(1)

    def test_constant_term_gives_infinity(self):
        ideal = PolyIdeal(2, [poly(2, {(0, 0): 3, (1, 0): 1})])
        assert t_stable_rank(ideal).value == math.inf

    def test_unit_monomial_ideal_gives_infinity(self):
        assert t_stable_rank(mono(2, (0, 0))).value == math.inf

    def test_witness_attains_value(self):
        res = t_stable_rank(CYCLIC)
        lam = res.witness
        num = sum(lam)
        den = min(2 * lam[0] + lam[1], 2 * lam[1] + lam[2], 2 * lam[2] + lam[0])
        assert F(num, den) == res.value


class TestLinearChange:
    def test_square_becomes_power_of_u(self):
        g = apply_linear_change(SQUARE, HALF_CHANGE)
        assert g == poly(2, {(2, 0): 1})

    def test_integer_variant(self):
        g = apply_linear_change(SQUARE, LinearChange([[1, 1], [1, -1]]))
        assert g == poly(2, {(2, 0): 4})

    def test_rank_after_change(self):
        g = apply_linear_change(SQUARE, HALF_CHANGE)
        assert t_stable_rank(PolyIdeal(2, [g])).value == F(1, 2)

    def test_identity(self):
        eye = LinearChange([[1, 0], [0, 1]])
        assert apply_linear_change(SQUARE, eye) == SQUARE

    def test_scaling_one_variable(self):
        g = apply_linear_change(poly(1, {(2,): 1}), LinearChange([[2]]))
        assert g == poly(1, {(2,): 4})

    def test_composition_law(self):
        rng = random.Random(7)
        for _ in range(15):
            n = rng.randint(1, 3)
            f = _random_poly(rng, n, max_exp=2)
            m1 = _random_invertible(rng, n)
            m2 = _random_invertible(rng, n)
            composed = LinearChange(_matmul(m1.matrix, m2.matrix))
            assert apply_linear_change(f, composed) == apply_linear_change(
                apply_linear_change(f, m2), m1
            )

    def test_inverse_round_trip(self):
        rng = random.Random(9)
        for _ in range(15):
            n = rng.randint(1, 3)
            f = _random_poly(rng, n, max_exp=2)
            m = _random_invertible(rng, n)
            assert apply_linear_change(apply_linear_change(f, m), m.inverse()) == f

    def test_agrees_with_evaluation(self):
        # independent of the expansion: f(x) with x_i = sum_j M[j][i] * y_j
        # must equal g(y) at random rational points y
        rng = random.Random(37)
        for _ in range(40):
            n = rng.randint(1, 4)
            terms = {
                tuple(rng.randint(0, 4) for _ in range(n)): F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
                for _ in range(rng.randint(0, 4))
            }
            f = poly(n, terms)
            m = _random_invertible(rng, n, dens=(1, 2, 3, 5))
            g = apply_linear_change(f, m)
            for _ in range(3):
                y = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                x = [sum(m.matrix[j][i] * y[j] for j in range(n)) for i in range(n)]
                assert _evaluate(g, y) == _evaluate(f, x)

    def test_singular_rejected(self):
        with pytest.raises(InputError):
            LinearChange([[1, 1], [2, 2]])

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            LinearChange([[1, 0, 0], [0, 1, 0]])

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            apply_linear_change(SQUARE, LinearChange([[1]]))


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _random_invertible(rng, n, dens=None):
    while True:
        rows = [[F(rng.randint(-2, 2), rng.choice(dens) if dens else 1) for _ in range(n)] for _ in range(n)]
        try:
            return LinearChange(rows)
        except InputError:
            continue


def _evaluate(f, point):
    return sum(c * math.prod(v**e for v, e in zip(point, exps)) for exps, c in f.terms.items())


class TestLct:
    def test_cyclic(self):
        assert lct_monomial(CYCLIC) == F(1)

    def test_diagonal_examples(self):
        assert lct_monomial(mono(2, (2, 0), (0, 2))) == F(1)
        assert lct_monomial(mono(2, (3, 0), (0, 4))) == F(7, 12)
        assert lct_monomial(mono(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))) == F(3)

    def test_unit_ideal_rejected(self):
        with pytest.raises(InputError):
            lct_monomial(mono(2, (0, 0)))

    def test_equals_rank_and_newton_on_random_ideals(self):
        rng = random.Random(11)
        for _ in range(40):
            a = _random_monomial_ideal(rng)
            lct = lct_monomial(a)
            assert lct == t_stable_rank(a).value
            assert lct == newton_threshold(a)


class TestNewton:
    def test_membership_examples(self):
        a = mono(2, (2, 0), (0, 2))
        assert newton_membership(a, 1) is True
        assert newton_membership(a, 2) is False
        assert newton_membership(a, F(1, 2)) is True

    def test_membership_boundary(self):
        assert newton_membership(CYCLIC, F(1)) is True
        assert newton_membership(CYCLIC, F(1001, 1000)) is False

    def test_threshold_examples(self):
        assert newton_threshold(mono(2, (2, 0), (0, 2))) == F(1)
        assert newton_threshold(CYCLIC) == F(1)
        assert newton_threshold(mono(4, (2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 7, 0), (0, 0, 0, 9))) == F(1, 2) + F(1, 3) + F(1, 7) + F(1, 9)

    def test_threshold_program_equals_validated_program(self, monkeypatch):
        seen = []
        solve = ideals.lp_minimize
        monkeypatch.setattr(ideals, "lp_minimize", lambda program: seen.append(program) or solve(program))
        assert newton_threshold(CYCLIC) == F(1)
        gens = CYCLIC.generators
        rows = [[-F(g[j]) for g in gens] + [F(1)] for j in range(3)]
        assert seen == [LinearProgram([0, 0, 0, 1], rows, [0, 0, 0], [[1, 1, 1, 0]], [1])]

    def test_membership_monotone_in_nu(self):
        rng = random.Random(13)
        for _ in range(20):
            a = _random_monomial_ideal(rng)
            thr = newton_threshold(a)
            assert newton_membership(a, thr) is True
            assert newton_membership(a, thr + F(1, 17)) is False
            assert newton_membership(a, thr - F(1, 17) if thr > F(1, 17) else F(1, 34)) is True

    def test_invalid_nu(self):
        with pytest.raises(InputError):
            newton_membership(CYCLIC, 0)

    def test_polynomial_ideal_rejected(self):
        ideal = PolyIdeal(2, [SparsePolynomial(2, {(1, 0): 1})])
        with pytest.raises(InputError, match="newton_membership expects a monomial ideal"):
            newton_membership(ideal, 1)
        with pytest.raises(InputError, match="newton_threshold expects a monomial ideal"):
            newton_threshold(ideal)


class TestIdealAlgebra:
    def test_square_of_maximal_ideal(self):
        m = mono(2, (1, 0), (0, 1))
        m2 = ideal_power(m, 2)
        assert m2 == mono(2, (2, 0), (1, 1), (0, 2))
        assert t_stable_rank(m2).value == F(1)

    def test_product_order_example(self):
        a = mono(2, (1, 0), (0, 1))
        b = mono(2, (1, 0))
        assert ideal_order(ideal_product(a, b), (1, 2)) == 2

    def test_power_validation(self):
        with pytest.raises(InputError):
            ideal_power(CYCLIC, 0)

    def test_normalization_drops_divisible_generators(self):
        assert mono(2, (1, 0), (2, 0), (1, 1)) == mono(2, (1, 0))

    def test_power_scales_rank(self):
        rng = random.Random(17)
        for _ in range(25):
            a = _random_monomial_ideal(rng)
            r = rng.randint(2, 3)
            assert t_stable_rank(ideal_power(a, r)).value * r == t_stable_rank(a).value

    def test_poly_power_scales_rank(self):
        ideal = PolyIdeal(2, [SQUARE, CUSP_LIKE])
        base = t_stable_rank(ideal).value
        assert t_stable_rank(ideal_power(ideal, 2)).value * 2 == base

    def test_product_reciprocal_subadditive(self):
        rng = random.Random(19)
        for _ in range(25):
            n = rng.randint(1, 3)
            a = _random_monomial_ideal(rng, n=n)
            b = _random_monomial_ideal(rng, n=n)
            ra = t_stable_rank(a).value
            rb = t_stable_rank(b).value
            rab = t_stable_rank(ideal_product(a, b)).value
            assert 1 / rab <= 1 / ra + 1 / rb

    def test_monotone_under_containment(self):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randint(1, 3)
            a = _random_monomial_ideal(rng, n=n)
            b = _random_monomial_ideal(rng, n=n)
            inside = ideal_product(a, b)  # contained in both factors
            r_inside = t_stable_rank(inside).value
            assert r_inside <= t_stable_rank(a).value
            assert r_inside <= t_stable_rank(b).value

    def test_sum_subadditive(self):
        rng = random.Random(29)
        for _ in range(25):
            n = rng.randint(1, 3)
            a = _random_monomial_ideal(rng, n=n)
            b = _random_monomial_ideal(rng, n=n)
            assert t_stable_rank(ideal_sum(a, b)).value <= (
                t_stable_rank(a).value + t_stable_rank(b).value
            )

    def test_mixed_product(self):
        a = mono(2, (1, 0))
        b = PolyIdeal(2, [CUSP_LIKE])
        prod = ideal_product(a, b)
        assert isinstance(prod, PolyIdeal)
        assert t_stable_rank(prod).value == t_stable_rank(PolyIdeal(2, [poly(2, {(2, 0): 1, (1, 2): 1})])).value


class TestSymmetricBridge:
    def test_w_form_numbers(self):
        f = poly(2, {(2, 1): 1})
        assert t_stable_rank(PolyIdeal(2, [f])).value == F(1, 2)

    def test_fermat_family(self):
        for n in (2, 3):
            for d in (2, 3):
                terms = {tuple(d if j == i else 0 for j in range(n)): F(1) for i in range(n)}
                f = poly(n, terms)
                assert t_stable_rank(PolyIdeal(n, [f])).value == F(n, d)

    def test_symm_rank_is_degree_times_ideal_rank(self):
        from stablerank.tensors import SymmetricSupport, symm_torus_rank

        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(1, 3)
            d = rng.randint(1, 4)
            pool = [c for c in itertools.product(range(d + 1), repeat=n) if sum(c) == d]
            support = rng.sample(sorted(pool), rng.randint(1, min(4, len(pool))))
            v = SymmetricSupport(degree=d, nvars=n, exponents=support)
            f = SparsePolynomial(n, {m: F(1) for m in support})
            ideal_rank = t_stable_rank(PolyIdeal(n, [f])).value
            assert symm_torus_rank(v).value == d * ideal_rank


class TestIdealValidation:
    def test_poly_ideal_needs_nonzero_generator(self):
        with pytest.raises(InputError):
            PolyIdeal(2, [poly(2, {})])

    def test_poly_ideal_needs_generators(self):
        with pytest.raises(InputError):
            PolyIdeal(2, [])

    def test_monomial_ideal_needs_generators(self):
        with pytest.raises(InputError):
            MonomialIdeal(2, [])

    def test_monomial_ideal_arity(self):
        with pytest.raises(InputError):
            MonomialIdeal(2, [(1, 0, 0)])

    def test_product_dimension_mismatch(self):
        with pytest.raises(InputError):
            ideal_product(mono(2, (1, 0)), mono(3, (1, 0, 0)))

    @pytest.mark.parametrize("combine", [ideal_product, ideal_sum])
    @pytest.mark.parametrize("b", [mono(3, (1, 0, 0)), PolyIdeal(3, [poly(3, {(0, 0, 1): 1})])])
    def test_mixed_dimension_mismatch(self, combine, b):
        with pytest.raises(InputError, match="needs matching variable counts$"):
            combine(mono(2, (1, 0)), b)
        with pytest.raises(InputError, match="needs matching variable counts$"):
            combine(b, PolyIdeal(2, [poly(2, {(1, 1): 1})]))

    @pytest.mark.parametrize("call", [
        lambda m: ideal_product(m, "x"),
        lambda m: ideal_sum(m, 3),
        lambda m: ideal_product(3, m),
    ], ids=["product-str", "sum-int", "product-int-first"])
    def test_operations_reject_a_non_ideal(self, call):
        with pytest.raises(InputError, match="^not an ideal: "):
            call(mono(2, (1, 0)))
