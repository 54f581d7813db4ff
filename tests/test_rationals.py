"""The boundary helpers every layer shares: a caller's collection, cleared
denominators, and the integer and rational tokens of files and flags."""

import re
from fractions import Fraction as F

import pytest

from stablerank.errors import InputError
from stablerank.exactlp import LinearProgram, lp_minimize
from stablerank.fileformat import InputDocument, parse_input, serialize
from stablerank.ideals import (
    LinearChange,
    MonomialIdeal,
    PolyIdeal,
    SparsePolynomial,
    apply_linear_change,
    ideal_order,
    ideal_power,
    ideal_sum,
    lct_monomial,
    newton_threshold,
    t_stable_rank,
)
from stablerank.rationals import cleared, parse_integer, parse_rational
from stablerank.tensors import (
    SymmetricSupport,
    TensorSupport,
    torus_rank,
    torus_valuation,
)

W = TensorSupport(2, 2, [(1, 1)])
X = SparsePolynomial(2, {(1, 0): 1})


@pytest.mark.parametrize(
    "make, message",
    [
        # the outer collection, then one level in
        (lambda: TensorSupport(2, 2, 7), "tensor support: expected a collection, got 7"),
        (lambda: TensorSupport(2, 2, [5]), "tensor support tuple: expected a collection, got 5"),
        (lambda: SymmetricSupport(2, 2, 7), "symmetric support: expected a collection, got 7"),
        (lambda: SymmetricSupport(2, 2, [5]), "exponent vector: expected a collection, got 5"),
        (lambda: MonomialIdeal(2, 3), "ideal generators: expected a collection, got 3"),
        (lambda: MonomialIdeal(2, [3]), "exponent vector: expected a collection, got 3"),
        (lambda: SparsePolynomial(2, 5), "polynomial terms: expected a mapping, got 5"),
        (lambda: SparsePolynomial(2, {3: 1}), "exponent vector: expected a collection, got 3"),
        (lambda: PolyIdeal(1, 3), "ideal generators: expected a collection, got 3"),
        (lambda: LinearChange(5), "matrix: expected a collection, got 5"),
        (lambda: LinearChange([5]), "matrix entry: expected a collection, got 5"),
        (lambda: LinearProgram(5, [], []), "objective: expected a collection, got 5"),
        (lambda: LinearProgram((1,), 5, []), "constraint rows: expected a collection, got 5"),
        (lambda: LinearProgram((1,), [5], [1]), "constraint row: expected a collection, got 5"),
        (lambda: LinearProgram((1,), [], 5), "rhs: expected a collection, got 5"),
        (lambda: LinearProgram((1,), [], [], 5, []), "equality rows: expected a collection, got 5"),
        (lambda: LinearProgram((1,), [], [], [5], [1]), "equality row: expected a collection, got 5"),
        (lambda: LinearProgram((1,), [], [], [], 5), "equality rhs: expected a collection, got 5"),
        (lambda: torus_rank(W, 3), "alpha: expected a collection, got 3"),
        (lambda: torus_valuation(W, 3), "weight assignment: expected a collection, got 3"),
        (lambda: torus_valuation(W, [3, 3]), "weight vector: expected a collection, got 3"),
        (lambda: ideal_order(MonomialIdeal(2, [(1, 0)]), 3),
         "weight vector: expected a collection, got 3"),
    ],
)
def test_a_non_collection_is_an_input_error(make, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: lp_minimize(5), "not a linear program: 5"),
        (lambda: apply_linear_change(3, LinearChange([[1, 0], [0, 1]])), "not a polynomial: 3"),
        (lambda: apply_linear_change(X, 3), "not a linear change: 3"),
        (lambda: parse_input(5), "not a string: 5"),
        (lambda: X + 3, "not a polynomial: 3"),
        (lambda: X * 3, "not a polynomial: 3"),
        (lambda: PolyIdeal(2, [3]), "not a polynomial: 3"),
        (lambda: PolyIdeal(2, [X, "x"]), "not a polynomial: 'x'"),
        (lambda: lct_monomial(3), "not a monomial ideal: 3"),
        (lambda: newton_threshold(PolyIdeal(2, [X])),
         "not a monomial ideal: PolyIdeal(2, [SparsePolynomial(2, 1*x^(1, 0))])"),
        (lambda: t_stable_rank(3), "not an ideal: 3"),
        (lambda: ideal_order(X, [1, 1]), f"not an ideal: {X!r}"),
        (lambda: ideal_power("x", 2), "not an ideal: 'x'"),
        (lambda: ideal_sum(MonomialIdeal(2, [(1, 0)]), 3), "not an ideal: 3"),
        (lambda: serialize(3), "not a document: 3"),
        (lambda: InputDocument(3), "not a document payload: 3"),
    ],
)
def test_a_non_library_object_is_an_input_error(make, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        make()


def test_an_error_inside_a_callers_generator_is_not_masked():
    def tuples():
        yield (1, 1)
        raise TypeError("raised by the caller")

    with pytest.raises(TypeError, match="^raised by the caller$"):
        TensorSupport(2, 2, tuples())


class TestCleared:
    def test_ints_alone(self):
        assert cleared((3, -1, 0)) == (1, (3, -1, 0))
        assert cleared(()) == (1, ())

    def test_fractions(self):
        assert cleared((F(1, 2), F(2, 3), F(5))) == (6, (3, 4, 30))

    def test_mixed_signs_with_a_zero(self):
        den, values = cleared([F(-3, 4), 0, F(5, 6), -2, F(0)])
        assert (den, values) == (12, (-9, 0, 10, -24, 0))
        assert all(type(v) is int for v in values)


class TestTokens:
    def test_integers(self):
        assert [parse_integer(t) for t in ("0", "-5", "+07", "12")] == [0, -5, 7, 12]

    @pytest.mark.parametrize("token", ["٢", "1٠", " 7", "7 ", "7\n", "1_0", "+", "",
                                       "0x1", "1.0", "1/2"])
    def test_integers_are_ascii_digits_in_full(self, token):
        with pytest.raises(InputError, match=f"^entry must be an integer, got {re.escape(repr(token))}$"):
            parse_integer(token, "entry")

    def test_rationals(self):
        assert [parse_rational(t) for t in ("-3/6", "+2", "0/5")] == [F(-1, 2), 2, 0]

    @pytest.mark.parametrize("token", ["٣", "٣/1", "1/٢", " 1/2", "1/2\n", "1_0/3",
                                       "1/", "/2", "1.5"])
    def test_rationals_are_ascii_digits_in_full(self, token):
        with pytest.raises(InputError, match="^not a rational"):
            parse_rational(token)
