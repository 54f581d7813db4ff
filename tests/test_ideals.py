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

import oracle
from oracle import CYCLIC
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
    newton_threshold,
    t_stable_rank,
)


def poly(nvars, terms):
    return SparsePolynomial(nvars, terms)


def mono(nvars, *gens):
    return MonomialIdeal(nvars, gens)


SQUARE = poly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})  # x^2 + 2xy + y^2
CUSP_LIKE = poly(2, {(1, 0): 1, (0, 2): 1})  # x + y^2
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

    def test_product_agrees_with_evaluation(self):
        # (f * g)(y) = f(y) * g(y) at random rational points, in up to six
        # variables with exponents up to 20 (and some above 255), zero and
        # constant factors included
        rng = random.Random(41)
        for case in range(60):
            n = rng.randint(1, 6)
            f, g = (_random_sparse_poly(rng, n, max_exp=20) for _ in range(2))
            if case % 10 == 0:
                f = poly(n, {})
            elif case % 10 == 1:
                g = poly(n, {(0,) * n: F(rng.randint(-9, 9), rng.randint(1, 5))})
            elif case % 10 == 2:
                # exponents past a byte: keys two bytes to a digit
                g = g * poly(n, {(rng.randint(200, 300),) * n: F(1, 3)})
            product = f * g
            assert product.is_zero is (f.is_zero or g.is_zero)
            for _ in range(2):
                y = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                assert _evaluate(product, y) == _evaluate(f, y) * _evaluate(g, y)
        # an exponent in the top bit of its two-byte digit
        assert poly(2, {(40000, 3): 2}) * poly(2, {(1, 0): F(1, 2), (0, 1): 1}) == poly(
            2, {(40001, 3): 1, (40000, 4): 2})

    def test_validation(self):
        with pytest.raises(InputError):
            poly(2, {(1,): 1})
        with pytest.raises(InputError):
            poly(2, {(-1, 0): 1})
        with pytest.raises(InputError):
            poly(2, {(1, 0): 0.5})


def test_polynomial_hash_and_reprs():
    # equal polynomials, their terms given in another order and with int or
    # Fraction coefficients, are one set element
    f = poly(2, {(1, 0): 1, (0, 2): F(-1, 2)})
    g = poly(2, {(0, 2): F(-1, 2), (1, 0): F(1)})
    assert f == g and hash(f) == hash(g)
    assert len({f, g, poly(2, {}), poly(2, {(1, 1): 0})}) == 2
    assert repr(f) == "SparsePolynomial(2, -1/2*x^(0, 2) + 1*x^(1, 0))"
    assert repr(poly(3, {})) == "SparsePolynomial(3, 0)"
    assert repr(mono(3, (2, 1, 0), (0, 2, 1), (1, 0, 2), (2, 2, 2))) == (
        "MonomialIdeal(3, [(0, 2, 1), (1, 0, 2), (2, 1, 0)])")
    assert repr(LinearChange([[1, F(1, 2)], [0, 1]])) == (
        "LinearChange([[1, Fraction(1, 2)], [0, 1]])")


class TestWeightedOrder:
    """The weighted order of one polynomial, as the order of the ideal it
    generates."""

    def test_square(self):
        square = PolyIdeal(2, [SQUARE])
        assert ideal_order(square, (1, 1)) == 2
        assert ideal_order(square, (2, 0)) == 0
        assert ideal_order(square, (1, 2)) == 2

    def test_additive_on_products(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 3)
            f = _random_poly(rng, n)
            g = _random_poly(rng, n)
            lam = tuple(rng.randint(0, 4) for _ in range(n))
            order = [ideal_order(PolyIdeal(n, [h]), lam) for h in (f * g, f, g)]
            assert order[0] == order[1] + order[2]

    def test_arity_check(self):
        with pytest.raises(InputError):
            ideal_order(PolyIdeal(2, [SQUARE]), (1, 1, 1))


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

    def test_reads_the_generators_not_the_rank_program(self, monkeypatch):
        # a fault in the rank program's rows must not also fool the order
        # that checks the rank's witness
        import stablerank.ideals as ideals_mod

        def broken(ideal):
            raise AssertionError("ideal_order read the rank program's rows")

        monkeypatch.setattr(ideals_mod, "_support_rows", broken)
        assert ideal_order(CYCLIC, (1, 1, 1)) == 3
        assert ideal_order(CYCLIC, (1, 2, 3)) == 4
        assert ideal_order(PolyIdeal(2, [SQUARE, CUSP_LIKE]), (1, 1)) == 1

    def test_poly_ideal_is_the_least_generator_order(self):
        rng = random.Random(9)
        for _ in range(40):
            gens = [poly(3, {tuple(rng.randint(0, 3) for _ in range(3)): rng.randint(1, 3)
                             for _ in range(rng.randint(1, 3))}) for _ in range(rng.randint(1, 3))]
            lam = tuple(rng.choice([0, 1, F(1, 2), F(5, 3)]) for _ in range(3))
            expected = min(ideal_order(PolyIdeal(3, [g]), lam) for g in gens)
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
            inverse = LinearChange(oracle.inverse(m.matrix))
            assert apply_linear_change(apply_linear_change(f, m), inverse) == f

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

    def test_agrees_with_evaluation_in_more_variables(self):
        # five or six variables, exponents up to 20 and a sparse change that
        # sends several x_i into the same y_j, so an output exponent reaches
        # the degree of f: a key base at or below it would carry a digit into
        # the next variable
        rng = random.Random(43)
        for _ in range(12):
            n = rng.randint(5, 6)
            f = _random_sparse_poly(rng, n, max_exp=20)
            m = _sparse_invertible(rng, n)
            g = apply_linear_change(f, m)
            for _ in range(2):
                y = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                x = [sum(m.matrix[j][i] * y[j] for j in range(n)) for i in range(n)]
                assert _evaluate(g, y) == _evaluate(f, x)

    def test_exponent_above_255_agrees_with_evaluation(self):
        # x1^260 * x2: a key digit above a byte
        f = poly(2, {(260, 1): F(3, 2), (0, 2): -1})
        m = LinearChange([[F(1, 2), 1], [F(-2, 3), 3]])
        g = apply_linear_change(f, m)
        assert max(max(e) for e in g.terms) == 261
        for y in ([F(1, 3), F(-2, 5)], [F(7, 4), F(1, 9)]):
            x = [sum(m.matrix[j][i] * y[j] for j in range(2)) for i in range(2)]
            assert _evaluate(g, y) == _evaluate(f, x)

    def test_work_bound_covers_every_product(self, monkeypatch):
        # the multiply-adds of every `_int_product` an expansion runs, the
        # memoised powers and each term's running product, stay within the
        # bound `_change_work` reads from the exponents and the columns of M
        seen = oracle.calls(monkeypatch, (ideals, "_int_product"))
        rng = random.Random(53)
        for case in range(40):
            n = rng.randint(2, 4)
            f = _random_sparse_poly(rng, n, max_exp=12)
            m = _random_invertible(rng, n) if case % 2 else _sparse_invertible(rng, n)
            seen.clear()
            apply_linear_change(f, m)
            done = sum(len(a) * len(b) for _, (a, b), _, _ in seen)
            sizes = [sum(1 for row in m.matrix if row[i]) for i in range(n)]
            assert done <= ideals._change_work(f.terms, sizes)

    def test_expansion_budget(self, monkeypatch):
        # x^128 y^128 z^128 under a unit-triangular change is admitted, and
        # its bound is its count of multiply-adds; at y = (1, 1, 1),
        # x = (1, 3, 9), so its coefficients sum to 27^128. At exponent 384
        # the bound is 57,289,155, and it refuses the polynomial before any
        # power is built.
        seen = oracle.calls(monkeypatch, (ideals, "_int_product"))
        m = LinearChange([[1, 2, 3], [0, 1, 5], [0, 0, 1]])
        g = apply_linear_change(poly(3, {(128, 128, 128): 1}), m)
        assert sum(len(a) * len(b) for _, (a, b), _, _ in seen) == 2_171_715
        assert ideals._change_work([(128, 128, 128)], [1, 2, 3]) == 2_171_715
        assert len(g.terms) == 24_897 and sum(g.terms.values()) == 27 ** 128
        message = "^linear change: expansion bound of 57289155 multiply-adds exceeds 10000000$"
        with pytest.raises(InputError, match=message):
            apply_linear_change(poly(3, {(384, 384, 384): 1}), m)

    def test_singular_rejected(self):
        with pytest.raises(InputError, match="^linear change matrix is singular$"):
            LinearChange([[1, 1], [2, 2]])

    def test_constructor_only_asks_whether_the_matrix_is_singular(self, monkeypatch):
        # one singularity check, on M's rows, and nothing else
        seen = oracle.calls(monkeypatch, (ideals, "_singular"))
        m = LinearChange([[F(1, 2), 1], [F(-2, 3), 3]])
        assert [args for _, args, _, _ in seen] == [(list(m.matrix),)]

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


def _random_sparse_poly(rng, n, max_exp, max_terms=3):
    """Up to `max_terms` terms, each with up to two exponents up to `max_exp`
    and the others 0 or 1, so that the expansions stay small."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [rng.randint(0, 1) for _ in range(n)]
        for i in rng.sample(range(n), min(2, n)):
            exps[i] = rng.randint(0, max_exp)
        terms[tuple(exps)] = F(rng.randint(-9, 9) or 1, rng.choice((1, 2, 3, 7)))
    return poly(n, terms)


def _sparse_invertible(rng, n):
    """A triangular matrix with rational diagonal and a few entries above it,
    its rows shuffled: invertible, with each x_i a sum of few y_j."""
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = F(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 5)))
    for _ in range(n):
        i, j = sorted(rng.sample(range(n), 2))
        rows[i][j] = F(rng.randint(-2, 2), rng.choice((1, 3)))
    rng.shuffle(rows)
    return LinearChange(rows)


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
    def test_threshold_examples(self):
        assert newton_threshold(mono(2, (2, 0), (0, 2))) == F(1)
        assert newton_threshold(CYCLIC) == F(1)
        assert newton_threshold(mono(4, (2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 7, 0), (0, 0, 0, 9))) == F(1, 2) + F(1, 3) + F(1, 7) + F(1, 9)

    def test_threshold_program_equals_validated_program(self, monkeypatch):
        seen = oracle.calls(monkeypatch, (ideals, "lp_minimize"))
        assert newton_threshold(CYCLIC) == F(1)
        gens = CYCLIC.generators
        rows = [[-F(g[j]) for g in gens] + [F(1)] for j in range(3)]
        program = LinearProgram([0, 0, 0, 1], rows, [0, 0, 0], [[1, 1, 1, 0]], [1])
        assert [args for _, args, _, _ in seen] == [(program,)]

    def test_unit_ideal_rejected(self):
        with pytest.raises(InputError, match="^threshold undefined for the unit ideal$"):
            newton_threshold(MonomialIdeal(2, [(0, 0)]))

    def test_polynomial_ideal_rejected(self):
        ideal = PolyIdeal(2, [SparsePolynomial(2, {(1, 0): 1})])
        with pytest.raises(InputError, match="^not a monomial ideal: PolyIdeal"):
            newton_threshold(ideal)
        with pytest.raises(InputError, match="^not a monomial ideal: PolyIdeal"):
            lct_monomial(ideal)


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

    def test_minimal_generators_equal_the_quadratic_filter(self):
        # seeded draws of three kinds, each shuffled: random vectors with
        # repeats, antichains (vectors of one total degree, none dividing
        # another) and chains (each vector a multiple of the one before)
        # with random vectors mixed in
        rng = random.Random(33)
        for _ in range(1500):
            n = rng.randint(1, 4)
            kind = rng.choice(["random", "antichain", "chain"])
            if kind == "antichain":
                degree = rng.randint(1, 5)
                layer = [e for e in itertools.product(range(degree + 1), repeat=n)
                         if sum(e) == degree]
                gens = rng.sample(layer, rng.randint(1, len(layer)))
            else:
                gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 10))]
                gens += rng.choices(gens, k=rng.randint(0, 4))
                if kind == "chain":
                    g = gens[0]
                    for _ in range(rng.randint(1, 6)):
                        g = tuple(a + rng.randint(0, 2) for a in g)
                        gens.append(g)
            rng.shuffle(gens)
            generators = MonomialIdeal(n, gens).generators
            assert generators == tuple(oracle.minimal_generators(gens))
            if kind == "antichain":
                assert len(generators) == len(gens)

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

    def test_polynomial_arithmetic_needs_one_variable_count(self):
        p2, p3 = poly(2, {(1, 0): 1}), poly(3, {(0, 0, 1): 1})
        with pytest.raises(InputError, match="^cannot add polynomials in different variable counts$"):
            p2 + p3
        with pytest.raises(InputError,
                           match="^cannot multiply polynomials in different variable counts$"):
            p2 * p3
        with pytest.raises(InputError, match="^generators live in different variable counts$"):
            PolyIdeal(2, [p2, p3])

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
