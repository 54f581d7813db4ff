"""Line-oriented input files for supports, ideals, and change-of-variable matrices.

Grammar, shared by every kind: '#' starts a comment, blank lines are ignored,
tokens are whitespace-separated, and the first significant line is a header
naming the kind. Integers are ASCII digits with an optional sign, and
rationals are written p/q or as bare integers (`rationals.parse_integer`
and `parse_rational`); decimal notation is rejected so every value stays
exact.

    tensor <order> <dims>   then one line of <order> indices in 1..dims per entry
    symm <degree> <nvars>   then one line of <nvars> exponents summing to degree
    mideal <nvars>          then one generator line of <nvars> exponents each
    pideal <nvars>          generators separated by '--' lines, terms written
                            '<coeff> : e1 ... e<nvars>' with a nonzero coeff
    matrix <nvars>          then exactly <nvars> rows of <nvars> rationals

`parse_input` reports every problem as a ParseError carrying the 1-based line
number, the first faulty line when there are several. The parser checks
only the format: the token shapes (integers, p/q rationals), the header
(its kind, field count and fields >= 1), duplicate lines, an empty body,
the '--' separators and ':' of a pideal, zero coefficients, and the row
count and widths of a matrix. Every rule on an entry (its arity, its range,
a form's degree sum) belongs to the constructor, which the parser runs on
the whole body; when the constructor rejects it, the constructor's message
is reported at the first line whose entry it rejects on its own.
`serialize` writes a canonical form (sorted entry lines, bare integers
where possible) and `parse_input(serialize(doc)) == doc` holds for every
representable document.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import InputError, ParseError
from .ideals import LinearChange, MonomialIdeal, PolyIdeal, SparsePolynomial
from .rationals import fmt, parse_integer, parse_rational
from .tensors import SymmetricSupport, TensorSupport

__all__ = ["InputDocument", "parse_input", "serialize"]

_KIND_TYPES = {
    "tensor": TensorSupport,
    "symm": SymmetricSupport,
    "mideal": MonomialIdeal,
    "pideal": PolyIdeal,
    "matrix": LinearChange,
}


@dataclass(frozen=True)
class InputDocument:
    """A parsed input file: the header kind plus the domain object it encodes."""

    kind: str
    payload: object

    def __post_init__(self):
        expected = _KIND_TYPES.get(self.kind)
        if expected is None:
            raise InputError(f"unknown input kind {self.kind!r}")
        if not isinstance(self.payload, expected):
            raise InputError(
                f"kind {self.kind!r} expects a {expected.__name__} payload, "
                f"got {type(self.payload).__name__}"
            )


def _token(read, token: str, line: int, *what):
    """`read(token, *what)`, a `rationals` token reader, with its InputError
    reported at `line`."""
    try:
        return read(token, *what)
    except InputError as exc:
        raise ParseError(str(exc), line) from exc


def _significant_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((idx, body))
    return out


def _header_count(tokens, header_line, usage, count):
    if len(tokens) != count + 1:
        raise ParseError(f"usage: {usage}", header_line)
    values = []
    for tok in tokens[1:]:
        v = _token(parse_integer, tok, header_line, "header field")
        if v < 1:
            raise ParseError(f"header field must be >= 1, got {v}", header_line)
        values.append(v)
    return values


def _index_rows(rest, entries: list) -> list[tuple[int, ...]]:
    """The rows of integer tokens on the entry lines, no row twice; each is
    also appended to `entries` as (line, row)."""
    seen = set()
    for ln, body in rest:
        parts = body.split()
        row = tuple(_token(parse_integer, p, ln, "entry") for p in parts)
        if row in seen:
            raise ParseError(f"duplicate line: {' '.join(parts)}", ln)
        seen.add(row)
        entries.append((ln, row))
    return [row for _, row in entries]


def _pideal_generators(rest, entries: list) -> list[dict]:
    """The generators of a pideal body as term dictionaries; each term is
    also appended to `entries` as (line, {exponents: coefficient})."""
    generators: list[dict] = []
    current: dict = {}
    for ln, body in rest:
        if body == "--":
            if not current:
                raise ParseError("generator has no terms", ln)
            generators.append(current)
            current = {}
            continue
        coeff_part, sep, exps_part = body.partition(":")
        if not sep:
            raise ParseError("term line must look like '<coeff> : e1 ... en'", ln)
        ctoks = coeff_part.split()
        if len(ctoks) != 1:
            raise ParseError("exactly one coefficient is allowed before ':'", ln)
        coeff = _token(parse_rational, ctoks[0], ln)
        if coeff == 0:
            raise ParseError("zero coefficient is not allowed", ln)
        key = tuple(_token(parse_integer, tok, ln, "exponent") for tok in exps_part.split())
        if key in current:
            raise ParseError(f"duplicate exponent vector in generator: {exps_part.strip()}", ln)
        current[key] = coeff
        entries.append((ln, {key: coeff}))
    if not current:
        raise ParseError("generator has no terms", ln)  # the body ends with '--'
    generators.append(current)
    return generators


def parse_input(text: str) -> InputDocument:
    """Parse one input file into an InputDocument.

    Raises ParseError, with the offending 1-based line number, for anything
    malformed: unknown kinds, wrong arities, out-of-range indices, duplicate
    lines, zero coefficients, non-rational tokens, or a singular matrix
    (reported at the header line). When a file has several faults, the
    first faulty line is the one reported.
    """
    lines = _significant_lines(text)
    if not lines:
        raise ParseError("empty input: expected a header line", 1)
    header_line, header = lines[0]
    tokens = header.split()
    kind = tokens[0]
    rest = lines[1:]

    if kind == "matrix":
        (nvars,) = _header_count(tokens, header_line, "matrix <nvars>", 1)
        if len(rest) > nvars:
            raise ParseError("unexpected line after matrix rows", rest[nvars][0])
        if len(rest) < nvars:
            raise ParseError(f"matrix needs {nvars} rows, found {len(rest)}", header_line)
        rows = []
        for ln, body in rest:
            toks = body.split()
            if len(toks) != nvars:
                raise ParseError(f"expected {nvars} entries, got {len(toks)}", ln)
            rows.append([_token(parse_rational, t, ln) for t in toks])
        try:
            payload = LinearChange(rows)
        except InputError as exc:
            raise ParseError(str(exc), header_line) from exc
        return InputDocument(kind, payload)

    # the entry kinds: `read` checks the format, the constructor `make` every
    # entry; a fault is reported at the first line whose entry `make` rejects
    # alone, when that line comes before the format fault or there is none
    if kind == "tensor":
        order, dims = _header_count(tokens, header_line, "tensor <order> <dims>", 2)
        make, read = partial(TensorSupport, order, dims), _index_rows
    elif kind == "symm":
        degree, nvars = _header_count(tokens, header_line, "symm <degree> <nvars>", 2)
        make, read = partial(SymmetricSupport, degree, nvars), _index_rows
    elif kind == "mideal":
        (nvars,) = _header_count(tokens, header_line, "mideal <nvars>", 1)
        make, read = partial(MonomialIdeal, nvars), _index_rows
    elif kind == "pideal":
        (nvars,) = _header_count(tokens, header_line, "pideal <nvars>", 1)

        def make(generators):
            return PolyIdeal(nvars, [SparsePolynomial(nvars, g) for g in generators])

        read = _pideal_generators
    else:
        raise ParseError(f"unknown input kind {kind!r}", header_line)
    if not rest:
        raise ParseError(f"{kind} needs at least one entry line", header_line)
    entries: list = []
    try:
        return InputDocument(kind, make(read(rest, entries)))
    except InputError as exc:
        for ln, entry in entries:
            try:
                make([entry])
            except InputError as alone:
                raise ParseError(str(alone), ln) from alone
        if isinstance(exc, ParseError):
            raise
        raise ParseError(str(exc), header_line) from exc


def serialize(doc: InputDocument) -> str:
    """Canonical text for a document; parse_input inverts it exactly."""
    p = doc.payload
    if doc.kind == "tensor":
        lines = [f"tensor {p.order} {p.dims}"]
        lines += [" ".join(map(str, t)) for t in p.sorted_tuples]
    elif doc.kind == "symm":
        lines = [f"symm {p.degree} {p.nvars}"]
        lines += [" ".join(map(str, e)) for e in p.sorted_exponents]
    elif doc.kind == "mideal":
        lines = [f"mideal {p.nvars}"]
        lines += [" ".join(map(str, g)) for g in p.generators]
    elif doc.kind == "pideal":
        lines = [f"pideal {p.nvars}"]
        for pos, gen in enumerate(p.generators):
            if gen.is_zero:
                raise InputError("a zero generator has no file representation")
            if pos:
                lines.append("--")
            lines += [
                f"{fmt(c)} : " + " ".join(map(str, e))
                for e, c in gen.sorted_terms()
            ]
    elif doc.kind == "matrix":
        lines = [f"matrix {p.nvars}"]
        lines += [" ".join(fmt(v) for v in row) for row in p.matrix]
    else:
        raise InputError(f"unknown input kind {doc.kind!r}")
    return "\n".join(lines) + "\n"
