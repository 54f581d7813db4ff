"""The boundary helpers every layer shares: a caller's collection, cleared
denominators, and the integer and rational tokens of files and flags."""

import re
from collections import namedtuple
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablerank import ideals, tensors
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
from stablerank.rationals import (
    cleared,
    collection,
    integer_vectors,
    integers,
    parse_integer,
    parse_rational,
)
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


def per_vector(values, what, vector, length, low, high=None):
    """The rule `integer_vectors` follows: one `integers` call per vector."""
    return tuple([integers(v, vector, length, low, high) for v in collection(values, what)])


class Int(int):
    pass


Pair = namedtuple("Pair", "a b")
Triple = namedtuple("Triple", "a b c")


class Tup(tuple):
    pass


def outcome(make):
    """The first error's message, or the value with the type of every entry of
    every vector in it."""
    try:
        value = make()
    except InputError as exc:
        return "error", str(exc)
    field = {TensorSupport: "tuples", SymmetricSupport: "exponents", MonomialIdeal: "generators"}
    vectors = getattr(value, field[type(value)]) if type(value) in field else value
    return "value", value, sorted([(v, tuple(map(type, v))) for v in vectors], key=lambda p: p[0])


def constructors(make_vectors, length, bound):
    """The three constructors that check a collection of vectors, each
    called on a fresh collection from `make_vectors`: a tensor support of
    order `length` and dims `bound`, a symmetric support of degree `bound`
    in `length` variables, and a monomial ideal in `length` variables."""
    return [
        lambda: TensorSupport(length, bound, make_vectors()),
        lambda: SymmetricSupport(bound, length, make_vectors()),
        lambda: MonomialIdeal(length, make_vectors()),
    ]


def assert_follows_the_per_vector_rule(make_vectors, length, bound):
    for make in constructors(make_vectors, length, bound):
        got = outcome(make)
        with mock.patch.object(tensors, "integer_vectors", per_vector), \
                mock.patch.object(ideals, "integer_vectors", per_vector):
            assert got == outcome(make)


SHAPES = {"list": list, "subclass": Tup, "named": lambda v: {2: Pair, 3: Triple}[len(v)](*v)}


@st.composite
def vector_collections(draw):
    """(make, length, bound): a factory of fresh collections of vectors, each
    a tensor support of order `length` and dims `bound` or a support of a
    form of degree `bound` in `length` variables, with at most one fault:
    an entry `integers` coerces or rejects, a vector of another type or
    length, or a vector that is no collection."""
    length, bound = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        vector = st.lists(st.integers(1, bound), min_size=length, max_size=length)
    else:
        vector = st.lists(st.integers(0, bound), min_size=length - 1, max_size=length - 1).map(
            lambda head: head + [bound - sum(head)])
    vectors = [tuple(v) for v in draw(st.lists(vector, max_size=6))]
    fault = draw(st.sampled_from(["none", "entry", "shape", "length", "not a collection"]))
    if vectors and fault != "none":
        i = draw(st.integers(0, len(vectors) - 1))
        v = list(vectors[i])
        if fault == "entry":
            v[draw(st.integers(0, length - 1))] = draw(st.sampled_from(
                [True, False, F(1), F(bound), F(1, 2), Int(1), 1.0, "1", -1, 0, bound + 1]))
            vectors[i] = tuple(v)
        elif fault == "shape":
            shape = draw(st.sampled_from(["list", "subclass", "named"] if length > 1
                                         else ["list", "subclass"]))
            vectors[i] = SHAPES[shape](v)
        elif fault == "length":
            vectors[i] = tuple(v[:-1] if draw(st.booleans()) else v + [1])
        else:
            vectors[i] = draw(st.sampled_from([5, None]))
    container = draw(st.sampled_from([list, tuple, iter]))
    return (lambda: container(vectors)), length, bound


class TestIntegerVectors:
    @settings(deadline=None, max_examples=300)
    @given(vector_collections())
    def test_returns_what_each_vector_check_returns(self, drawn):
        make, length, bound = drawn
        values = list(make())
        for low, high in ((1, bound), (0, None)):
            got = outcome(lambda: integer_vectors(make(), "vectors", "vector", length, low, high))
            assert got == outcome(lambda: per_vector(make(), "vectors", "vector", length, low, high))
            if got[0] == "value":
                # the caller's own tuple comes back exactly where `integers`
                # returns it unchanged
                out = integer_vectors(values, "vectors", "vector", length, low, high)
                ref = per_vector(values, "vectors", "vector", length, low, high)
                assert [o is v for o, v in zip(out, values)] == [r is v for r, v in zip(ref, values)]

    @settings(deadline=None, max_examples=300)
    @given(vector_collections())
    def test_constructors_follow_the_per_vector_rule(self, drawn):
        assert_follows_the_per_vector_rule(*drawn)

    @pytest.mark.parametrize("vectors, errors", [
        ([(1, 1), (2, 0)], ()),
        ([[1, 1], (2, 0)], ()),
        ([Tup((1, 1)), (0, 2)], ()),
        ([Pair(1, 1), Pair(2, 0)], ()),
        ([(1, True)], ("expected an integer, got True",)),
        ([(True, 1), (1, 1)], ("expected an integer, got True",)),
        ([(F(2), 0)], ()),
        ([(1, 1), (F(1, 2), 1)], ("expected an integer, got Fraction(1, 2)",)),
        ([(1, 1), (1, 3)], ("expected a value in 1..2, got 3",)),
        ([(1, 1), (0, 2)], ("expected a value in 1..2, got 0",)),
        ([(1, 1), (-1, 3)], ("expected a value >= 0, got -1",)),
        ([(1, 1), (1, 1, 0)], ("expected 2 entries, got 3",)),
        ([(1, 1), (2,)], ("expected 2 entries, got 1",)),
        ([(1, 1), 5], ("expected a collection, got 5",)),
        ([], ("must be nonempty", "needs at least one generator")),
    ], ids=["tuples", "list", "tuple-subclass", "namedtuple", "bool", "bool-first",
            "integral-fraction", "half", "above-dims", "below-one", "negative-exponent",
            "too-long", "too-short", "non-collection", "empty"])
    def test_explicit_cases(self, vectors, errors):
        assert_follows_the_per_vector_rule(lambda: list(vectors), 2, 2)
        assert_follows_the_per_vector_rule(lambda: (v for v in vectors), 2, 2)
        # every listed fault is raised by some constructor
        messages = [got[1] for got in map(outcome, constructors(lambda: vectors, 2, 2))
                    if got[0] == "error"]
        assert all(any(e in m for m in messages) for e in errors)


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
