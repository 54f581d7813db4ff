import random
from fractions import Fraction as F

import pytest

from stablerank.errors import InputError, ParseError
from stablerank.fileformat import InputDocument, parse_input, serialize
from stablerank.ideals import LinearChange, MonomialIdeal, PolyIdeal, SparsePolynomial
from stablerank.tensors import SymmetricSupport, TensorSupport, symm_torus_rank, torus_rank

W_TEXT = """\
# tripartite W state support
tensor 3 2
2 1 1
1 2 1
1 1 2
"""

PIDEAL_TEXT = """\
pideal 2
1 : 2 0
2 : 1 1
1 : 0 2
--
-1/2 : 1 0
"""


class TestParse:
    def test_tensor(self):
        doc = parse_input(W_TEXT)
        assert doc.kind == "tensor"
        assert doc.payload == TensorSupport(3, 2, [(2, 1, 1), (1, 2, 1), (1, 1, 2)])

    def test_symm(self):
        doc = parse_input("symm 3 2\n2 1\n")
        assert doc.kind == "symm"
        assert doc.payload == SymmetricSupport(3, 2, [(2, 1)])

    def test_mideal(self):
        doc = parse_input("mideal 3\n2 1 0\n0 2 1\n1 0 2\n")
        assert doc.kind == "mideal"
        assert doc.payload == MonomialIdeal(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])

    def test_pideal(self):
        doc = parse_input(PIDEAL_TEXT)
        assert doc.kind == "pideal"
        square = SparsePolynomial(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        half_x = SparsePolynomial(2, {(1, 0): F(-1, 2)})
        assert doc.payload == PolyIdeal(2, [square, half_x])

    def test_matrix(self):
        doc = parse_input("matrix 2\n1/2 1/2\n1/2 -1/2\n")
        assert doc.kind == "matrix"
        assert doc.payload == LinearChange([[F(1, 2), F(1, 2)], [F(1, 2), F(-1, 2)]])

    def test_comments_and_blanks_anywhere(self):
        text = "\n# leading\n  mideal 2   # trailing\n\n 2 0  \n# interlude\n0 2\n\n"
        doc = parse_input(text)
        assert doc.payload == MonomialIdeal(2, [(2, 0), (0, 2)])

    def test_mideal_normalizes_divisibility(self):
        doc = parse_input("mideal 2\n1 0\n2 0\n1 1\n")
        assert doc.payload == MonomialIdeal(2, [(1, 0)])


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,line",
        [
            ("", 1),
            ("# only comments\n", 1),
            ("widget 2\n1 1\n", 1),
            ("tensor 2\n", 1),
            ("tensor x 2\n1 1\n", 1),
            ("tensor 0 2\n", 1),
            ("symm 3\n", 1),
            ("mideal 2 2\n1 0\n", 1),
            ("matrix -1\n", 1),
            ("tensor 2 2\n1 3\n", 2),
            ("tensor 2 2\n1 0\n", 2),
            ("tensor 3 2\n1 1\n", 2),
            ("tensor 2 2\n1 1\n2 2\n1 1\n", 4),
            ("tensor 2 2\n1 1.0\n", 2),
            ("symm 3 2\n1 1\n", 2),
            ("symm 2 2\n3 -1\n", 2),
            ("symm 2 2\n2 0\n2 0\n", 3),
            ("mideal 2\n1 0 0\n", 2),
            ("mideal 2\n1 -1\n", 2),
            ("mideal 2\n1 0\n1 0\n", 3),
            ("pideal 2\n1 2 0\n", 2),
            ("pideal 2\n0 : 1 0\n", 2),
            ("pideal 2\n1.5 : 1 0\n", 2),
            ("pideal 2\n1/0 : 1 0\n", 2),
            ("pideal 2\n1 : 2\n", 2),
            ("pideal 2\n1 : 1 0\n1 : 1 0\n", 3),
            ("pideal 2\n--\n1 : 1 0\n", 2),
            ("pideal 2\n1 : 1 0\n--\n", 3),
            ("pideal 2\n1 2 : 1 0\n", 2),
            ("matrix 2\n1 0\n0 1\n1 1\n", 4),
            ("matrix 2\n1 0 0\n0 1\n", 2),
            ("matrix 2\n1 2\n2 4\n", 1),
            ("matrix 2\n0.5 0\n0 1\n", 2),
        ],
    )
    def test_line_numbered_diagnostics(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_input(text)
        assert exc.value.line == line
        assert f"line {line}:" in str(exc.value)

    def test_missing_body(self):
        for text in ("tensor 2 2\n", "symm 2 2\n", "mideal 2\n", "pideal 2\n", "matrix 2\n"):
            with pytest.raises(ParseError):
                parse_input(text)

    @pytest.mark.parametrize(
        "text, line, constructor, args",
        [
            ("tensor 2 2\n1 3\n", 2, TensorSupport, (2, 2, [(1, 3)])),
            ("tensor 2 2\n1 0\n", 2, TensorSupport, (2, 2, [(1, 0)])),
            ("tensor 3 2\n1 1\n", 2, TensorSupport, (3, 2, [(1, 1)])),
            ("symm 3 2\n1 1\n", 2, SymmetricSupport, (3, 2, [(1, 1)])),
            ("symm 2 2\n3 -1\n", 2, SymmetricSupport, (2, 2, [(3, -1)])),
            ("mideal 2\n1 0 0\n", 2, MonomialIdeal, (2, [(1, 0, 0)])),
            ("mideal 2\n1 -1\n", 2, MonomialIdeal, (2, [(1, -1)])),
            ("pideal 2\n1 : 2\n", 2, SparsePolynomial, (2, {(2,): 1})),
        ],
    )
    def test_entry_faults_carry_the_constructor_message(self, text, line, constructor, args):
        # the parser leaves entry rules to the constructors: a rejected line
        # reads exactly as the constructor's rejection of that entry alone
        with pytest.raises(InputError) as alone:
            constructor(*args)
        with pytest.raises(ParseError) as exc:
            parse_input(text)
        assert exc.value.line == line
        assert exc.value.message == str(alone.value)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("tensor 2 2\n1 1\n1 3\n1 x\n", 3),
            ("tensor 2 2\n1 3\n1 3\n", 2),
            ("symm 2 2\n1 1\n3 -1\n2 0\n2 0\n", 3),
            ("mideal 2\n1 0\n1 0 0\n1 0\n", 3),
            ("pideal 2\n1 : -1 0\n0 : 1 0\n", 2),
            ("pideal 2\n1 : 1 0\n1 : 2\n--\n", 3),
        ],
    )
    def test_first_faulty_line_is_reported(self, text, line):
        # an entry fault above a format fault is the one reported
        with pytest.raises(ParseError) as exc:
            parse_input(text)
        assert exc.value.line == line


@pytest.mark.parametrize(
    "make",
    [
        lambda: torus_rank(TensorSupport(2.0, 2, [(1, 1)])),
        lambda: TensorSupport(2, "2", [(1, 1)]),
        lambda: TensorSupport(True, 2, [(1,)]),
        lambda: symm_torus_rank(SymmetricSupport(2.0, 2, [(1, 1)])),
        lambda: SymmetricSupport(2, 2.0, [(1, 1)]),
        lambda: MonomialIdeal(2.0, [(1, 0)]),
        lambda: SparsePolynomial(True, {(1,): 1}),
        lambda: PolyIdeal(2.0, [SparsePolynomial(2, {(1, 0): 1})]),
    ],
    ids=["torus_rank-order", "tensor-dims", "tensor-order-bool", "symm_torus_rank-degree",
         "symm-nvars", "mideal-nvars", "polynomial-nvars-bool", "pideal-nvars"],
)
def test_size_fields_must_be_integers(make):
    # a float size would serialize as e.g. "pideal 2.0", which parse_input
    # rejects, so a reproducer built from the object would not replay
    with pytest.raises(InputError, match=r"^[a-z ]+: expected an integer, got (2\.0|'2'|True)$"):
        make()


@pytest.mark.parametrize(
    "text, line",
    [
        ("tensor \u0662 2\n1 1\n", 1),
        ("tensor 2 2\n1 \u0661\n", 2),
        ("mideal 2\n1 0\n0 \u0662\n", 3),
        ("pideal 2\n\u0662 : 1 0\n", 2),
        ("pideal 2\n1 : 1 \u0660\n", 2),
        ("matrix 2\n1 0\n0 \u0663/1\n", 3),
    ],
    ids=["header", "tensor-entry", "mideal-entry", "coefficient", "exponent", "matrix-entry"],
)
def test_tokens_are_ascii_digits(text, line):
    # Python's int() reads any Unicode decimal digit; files take ASCII only,
    # as `serialize` writes them
    with pytest.raises(ParseError, match="must be an integer|not a rational") as exc:
        parse_input(text)
    assert exc.value.line == line


class TestSerialize:
    def test_tensor_sorted_lines(self):
        doc = parse_input(W_TEXT)
        assert serialize(doc) == "tensor 3 2\n1 1 2\n1 2 1\n2 1 1\n"

    def test_symm(self):
        doc = InputDocument("symm", SymmetricSupport(2, 2, [(0, 2), (2, 0)]))
        assert serialize(doc) == "symm 2 2\n0 2\n2 0\n"

    def test_mideal(self):
        doc = InputDocument("mideal", MonomialIdeal(2, [(0, 2), (2, 0)]))
        assert serialize(doc) == "mideal 2\n0 2\n2 0\n"

    def test_pideal_fraction_coefficients(self):
        doc = parse_input(PIDEAL_TEXT)
        assert serialize(doc) == (
            "pideal 2\n1 : 0 2\n2 : 1 1\n1 : 2 0\n--\n-1/2 : 1 0\n"
        )

    def test_matrix(self):
        doc = parse_input("matrix 2\n1/2 1/2\n1/2 -1/2\n")
        assert serialize(doc) == "matrix 2\n1/2 1/2\n1/2 -1/2\n"

    def test_integer_rationals_bare(self):
        doc = InputDocument("matrix", LinearChange([[F(2, 1), F(0)], [F(0), F(1, 3)]]))
        assert serialize(doc) == "matrix 2\n2 0\n0 1/3\n"

    def test_zero_generator_unrepresentable(self):
        zero = SparsePolynomial(2, {})
        one = SparsePolynomial(2, {(1, 0): 1})
        doc = InputDocument("pideal", PolyIdeal(2, [one, zero]))
        with pytest.raises(InputError):
            serialize(doc)


class TestDocumentValidation:
    def test_kind_payload_mismatch(self):
        with pytest.raises(InputError):
            InputDocument("tensor", MonomialIdeal(2, [(1, 0)]))

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            InputDocument("widget", MonomialIdeal(2, [(1, 0)]))


def _random_doc(rng):
    kind = rng.choice(["tensor", "symm", "mideal", "pideal", "matrix"])
    n = rng.randint(1, 3)
    if kind == "tensor":
        d = rng.randint(1, 3)
        pool = list(__import__("itertools").product(range(1, n + 1), repeat=d))
        tuples = rng.sample(pool, k=rng.randint(1, min(4, len(pool))))
        return InputDocument(kind, TensorSupport(d, n, tuples))
    if kind == "symm":
        d = rng.randint(1, 4)
        pool = [t for t in __import__("itertools").product(range(d + 1), repeat=n) if sum(t) == d]
        exps = rng.sample(pool, k=rng.randint(1, min(3, len(pool))))
        return InputDocument(kind, SymmetricSupport(d, n, exps))
    if kind == "mideal":
        gens = {tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 4))}
        if all(not any(g) for g in gens):
            gens = {tuple(1 for _ in range(n))}
        return InputDocument(kind, MonomialIdeal(n, gens))
    if kind == "pideal":
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exps = tuple(rng.randint(0, 3) for _ in range(n))
                terms[exps] = F(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
            gens.append(SparsePolynomial(n, terms))
        return InputDocument(kind, PolyIdeal(n, gens))
    while True:
        rows = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        try:
            return InputDocument(kind, LinearChange(rows))
        except InputError:
            continue


class TestRoundTrip:
    def test_fixed_examples(self):
        for text in (W_TEXT, PIDEAL_TEXT, "symm 3 2\n2 1\n", "mideal 2\n2 0\n0 2\n",
                      "matrix 2\n1/2 1/2\n1/2 -1/2\n"):
            doc = parse_input(text)
            assert parse_input(serialize(doc)) == doc

    def test_random_documents(self):
        rng = random.Random(20240817)
        for _ in range(120):
            doc = _random_doc(rng)
            text = serialize(doc)
            again = parse_input(text)
            assert again == doc
            assert serialize(again) == text
