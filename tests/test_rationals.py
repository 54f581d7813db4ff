"""The boundary helpers every layer shares: a caller's collection, cleared
denominators, and the integer and rational tokens of files and flags."""

import copy
import pickle
import re
from collections import namedtuple
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablerank import ideals, tensors
from stablerank.errors import InputError
from stablerank.exactlp import LinearProgram, LpOutcome, SlopeResult, lp_minimize
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
    Record,
    _record,
    cleared,
    collection,
    integer_vectors,
    integers,
    parse_integer,
    parse_rational,
    rational,
    rationals,
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


def per_term(nvars, terms):
    """The terms `SparsePolynomial(nvars, terms)` keeps, checked term by
    term: its exponent vector, then its coefficient."""
    clean = {}
    for exps, coeff in terms.items():
        key = integers(exps, "exponent vector", nvars, low=0)
        value = rational(coeff, "coefficient")
        if value:
            clean[key] = clean.get(key, F(0)) + value
            if not clean[key]:
                del clean[key]
    return clean


def per_row(matrix):
    """The matrix `LinearChange(matrix)` keeps, checked row by row."""
    rows = [rationals(row, "matrix entry") for row in collection(matrix, "matrix")]
    if not rows or any(len(r) != len(rows) for r in rows):
        raise InputError("a linear change needs a square matrix")
    return tuple(rows)


def typed(make):
    """The first error's message, or the value with the type of every entry."""
    try:
        value = make()
    except InputError as exc:
        return "error", str(exc)
    if isinstance(value, dict):
        return "value", sorted((k, tuple(map(type, k)), v, type(v)) for k, v in value.items())
    return "value", [(row, tuple(map(type, row))) for row in value]


BAD_ENTRIES = [True, F(2), F(1, 2), Int(1), 1.0, "1", "2/3", -1, 0, None]

# The Fractions of denominator at most 4 below 4 in magnitude, drawn as p / q
# with |p| <= 15: few draws are rejected, where `st.fractions` rejects most.
SMALL_FRACTIONS = st.builds(F, st.integers(-15, 15), st.integers(1, 4)).filter(
    lambda q: abs(q) < 4)


@st.composite
def term_mappings(draw):
    """(nvars, terms) with at most two faults, exponent vectors or
    coefficients, anywhere among the terms, and exponent vectors that may
    coincide once coerced."""
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    coeffs = st.one_of(st.integers(-3, 3), SMALL_FRACTIONS)
    terms = dict(draw(st.lists(st.tuples(exps, coeffs), max_size=6)))
    items = list(terms.items())
    for i in draw(st.sets(st.integers(0, len(items) - 1), max_size=2)) if items else ():
        key, coeff = items[i]
        if draw(st.booleans()):
            coeff = draw(st.sampled_from(BAD_ENTRIES))
        else:
            key = list(key)
            key[draw(st.integers(0, nvars - 1))] = draw(st.sampled_from(BAD_ENTRIES))
            key = draw(st.sampled_from([tuple(key), Tup(key), tuple(key[:-1]), 5]))
        items[i] = (key, coeff)
    return nvars, dict(items)


@st.composite
def matrices(draw):
    """Square or ragged matrices of lists, tuples or generators, with at most
    two faulty entries or rows."""
    n = draw(st.integers(0, 3))
    entry = st.one_of(st.integers(-3, 3), SMALL_FRACTIONS)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)) if rows else ():
        fault = draw(st.sampled_from(["entry", "length", "not a collection"]))
        if fault == "entry" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(BAD_ENTRIES))
        elif fault == "length":
            rows[i] = rows[i][:-1] if rows[i] and draw(st.booleans()) else rows[i] + [1]
        else:
            rows[i] = draw(st.sampled_from([5, None]))
    shape = draw(st.sampled_from([list, tuple, iter]))
    return lambda: [shape(row) if isinstance(row, list) else row for row in rows]


class TestPerEntryChecks:
    """`SparsePolynomial` checks its terms one at a time, exponent vector
    then coefficient, and `LinearChange` its matrix row by row: `per_term`
    and `per_row` write that rule out, values, entry types and first message,
    so that a faster check of a whole collection has to keep it."""

    @settings(deadline=None, max_examples=300)
    @given(term_mappings())
    def test_polynomial_terms_follow_the_per_term_rule(self, drawn):
        nvars, terms = drawn
        assert typed(lambda: SparsePolynomial(nvars, terms).terms) == \
            typed(lambda: per_term(nvars, terms))

    @settings(deadline=None, max_examples=300)
    @given(matrices())
    def test_matrix_entries_follow_the_per_row_rule(self, make):
        assert typed(lambda: per_row(make())) == typed(_unless_singular(make))

    @pytest.mark.parametrize("terms, message", [
        ({(1, 0): 1.0, (2, 2, 2): 1}, "coefficient: floating point is not exact, pass int or Fraction"),
        ({(2, 2, 2): 1, (1, 0): 1.0}, "exponent vector: expected 2 entries, got 3"),
        ({(1, 0): 1, (1, -1): "x"}, "exponent vector: expected a value >= 0, got -1"),
        ({(1, 0): "x", (1, -1): 1}, "coefficient: not a rational value: 'x'"),
    ])
    def test_the_first_faulty_term_raises(self, terms, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            SparsePolynomial(2, terms)

    def test_terms_equal_once_coerced_are_merged(self):
        class Key:
            """An exponent vector equal only to itself."""

            def __init__(self, *entries):
                self.entries = entries

            def __iter__(self):
                return iter(self.entries)

        terms = {Key(1, 0): 2, Key(F(1), 0): F(1, 2), (0, 1): 0}
        assert typed(lambda: SparsePolynomial(2, terms).terms) == \
            typed(lambda: {(1, 0): F(5, 2)}) == typed(lambda: per_term(2, terms))
        assert SparsePolynomial(1, {Key(1): 1, Key(1): -1}).terms == {}

    def test_generator_rows_are_read_once(self):
        change = LinearChange([(v for v in (1, 0)), [0, F(2)]])
        assert change.matrix == ((1, 0), (0, 2))


def _unless_singular(make):
    """`LinearChange(make()).matrix`, or None when only the singularity check
    rejects it (the reference does not test it)."""
    def call():
        try:
            return LinearChange(make()).matrix
        except InputError as exc:
            if str(exc) == "linear change matrix is singular":
                return per_row(make())
            raise
    return call


RECORDS = [
    (LinearProgram((1, F(1, 2)), [[1, 0]], [1], equality_rows=[[1, 1]], equality_rhs=[2]),
     "LinearProgram(objective=(1, Fraction(1, 2)), constraint_rows=((1, 0),), rhs=(1,), "
     "equality_rows=((1, 1),), equality_rhs=(2,))"),
    (LpOutcome("optimal", F(3, 2), (3, 0), 2),
     "LpOutcome(status='optimal', value=Fraction(3, 2), numerators=(3, 0), denominator=2)"),
    (SlopeResult(F(3, 2), (1, 1, 0)), "SlopeResult(value=Fraction(3, 2), witness=(1, 1, 0))"),
    (TensorSupport(2, 2, [(1, 2)]), "TensorSupport(order=2, dims=2, tuples=frozenset({(1, 2)}))"),
    (SymmetricSupport(2, 2, [(1, 1)]),
     "SymmetricSupport(degree=2, nvars=2, exponents=frozenset({(1, 1)}))"),
    (InputDocument(TensorSupport(1, 1, [(1,)])),
     "InputDocument(payload=TensorSupport(order=1, dims=1, tuples=frozenset({(1,)})))"),
    (SparsePolynomial(2, {(1, 0): F(1, 2), (0, 2): -3}),
     "SparsePolynomial(2, -3*x^(0, 2) + 1/2*x^(1, 0))"),
    (PolyIdeal(2, [X, SparsePolynomial(2, {})]),
     "PolyIdeal(2, [SparsePolynomial(2, 1*x^(1, 0)), SparsePolynomial(2, 0)])"),
    (MonomialIdeal(2, [(2, 0), (1, 1), (2, 1)]), "MonomialIdeal(2, [(1, 1), (2, 0)])"),
    (LinearChange([[1, F(1, 2)], [0, 1]]), "LinearChange([[1, Fraction(1, 2)], [0, 1]])"),
]
RECORD_IDS = [type(record).__name__ for record, _ in RECORDS]


class TestRecord:
    """The ten value types on `Record`: the value semantics of a frozen
    dataclass, with the ideal types' own reprs."""

    def test_keyword_construction_and_defaults(self):
        program = LinearProgram(objective=[1, 2], constraint_rows=[[1, 1]], rhs=[1],
                                equality_rows=[[1, 0]], equality_rhs=[F(1, 2)])
        assert program == LinearProgram((1, 2), ((1, 1),), (1,), ((1, 0),), (F(1, 2),))
        assert (program.equality_rows, program.equality_rhs) == (((1, 0),), (F(1, 2),))
        bare = LinearProgram(objective=[1], constraint_rows=[], rhs=[])
        assert (bare.equality_rows, bare.equality_rhs) == ((), ())
        outcome = LpOutcome("infeasible")
        assert (outcome.status, outcome.value, outcome.numerators, outcome.denominator) == (
            "infeasible", None, None, None)
        outcome = LpOutcome(status="optimal", value=F(1), numerators=(2,), denominator=2)
        assert (outcome.numerators, outcome.denominator) == ((2,), 2)
        assert SlopeResult(value=F(2), witness=(1,)) == SlopeResult(F(2), (1,))
        assert TensorSupport(order=1, dims=2, tuples=[(2,)]) == TensorSupport(1, 2, {(2,)})
        assert SymmetricSupport(degree=2, nvars=1, exponents=[(2,)]).exponents == {(2,)}
        assert InputDocument(payload=W).payload is W
        assert SparsePolynomial(nvars=2, terms={(1, 0): 1}) == X
        assert PolyIdeal(nvars=2, generators=[X]).generators == (X,)
        assert MonomialIdeal(nvars=1, generators=[(2,), (1,)]).generators == ((1,),)
        assert LinearChange(matrix=[[2]]).nvars == 1

    @pytest.mark.parametrize("record, text", RECORDS, ids=RECORD_IDS)
    def test_equality_hash_and_repr(self, record, text):
        fields = tuple(getattr(record, name) for name in type(record).__match_args__)
        twin = type(record)(*fields)
        assert twin == record and not twin != record and twin is not record
        assert hash(record) == hash(twin)
        if isinstance(record, SparsePolynomial):
            # `terms` is a dict, so the polynomial hashes its items instead
            assert hash(record) == hash((record.nvars, frozenset(record.terms.items())))
        else:
            assert hash(record) == hash(fields)
        assert repr(record) == text
        assert record != fields and record != object()

    def test_fields_decide_equality(self):
        assert LpOutcome("optimal", F(1)) != LpOutcome("optimal", F(2))
        assert SlopeResult(F(1), (1, 0)) != SlopeResult(F(1), (0, 1))
        assert TensorSupport(1, 2, [(1,)]) != TensorSupport(1, 3, [(1,)])
        assert SparsePolynomial(2, {(1, 0): 1}) != SparsePolynomial(3, {(1, 0, 0): 1})
        assert MonomialIdeal(2, [(1, 0)]) != MonomialIdeal(2, [(0, 1)])
        # another class with equal fields is not equal
        assert SlopeResult("optimal", None) != LpOutcome("optimal", None)
        assert MonomialIdeal(1, [(1,)]) != PolyIdeal(1, [SparsePolynomial(1, {(1,): 1})])

    def test_positional_patterns(self):
        match SlopeResult(F(3, 2), (1, 0)):
            case LpOutcome():
                matched = None
            case SlopeResult(value, witness):
                matched = (value, witness)
        assert matched == (F(3, 2), (1, 0))
        match MonomialIdeal(2, [(1, 0)]):
            case PolyIdeal():
                matched = None
            case MonomialIdeal(nvars, generators):
                matched = (nvars, generators)
        assert matched == (2, ((1, 0),))
        match LinearChange([[2]]):
            case LinearChange(matrix):
                assert matrix == ((2,),)

    @pytest.mark.parametrize("record, text", RECORDS, ids=RECORD_IDS)
    def test_assignment_and_deletion_raise(self, record, text):
        for name in (*type(record).__match_args__, "other"):
            with pytest.raises(AttributeError) as raised:
                setattr(record, name, 1)
            assert type(raised.value) is AttributeError
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == text

    @pytest.mark.parametrize("record, text", RECORDS, ids=RECORD_IDS)
    def test_copy_deepcopy_and_pickle(self, record, text):
        for twin in (copy.copy(record), copy.deepcopy(record),
                     *(pickle.loads(pickle.dumps(record, protocol))
                       for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
            assert type(twin) is type(record) and twin == record and repr(twin) == text

    @pytest.mark.parametrize("record, text", RECORDS, ids=RECORD_IDS)
    def test_no_instance_dict(self, record, text):
        assert isinstance(record, Record) and not hasattr(record, "__dict__")
        assert type(record).__slots__ == type(record).__match_args__

    def test_unchecked_results_equal_checked_ones(self):
        # `_record` stores the fields as given, without running the checks
        program = _record(LinearProgram, ((1,), ((1,),), (1,), (), ()))
        assert program == LinearProgram((1,), [[1]], [1]) and repr(program) == (
            "LinearProgram(objective=(1,), constraint_rows=((1,),), rhs=(1,), "
            "equality_rows=(), equality_rhs=())")
        assert _record(TensorSupport, (1, 2, frozenset({(2,)}))) == TensorSupport(1, 2, [(2,)])
        y = SparsePolynomial(2, {(0, 1): F(1, 3)})
        for unchecked in (X + y, X * y, apply_linear_change(X, LinearChange([[0, 1], [1, 0]]))):
            checked = SparsePolynomial(unchecked.nvars, unchecked.terms)
            assert unchecked == checked and hash(unchecked) == hash(checked)


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
