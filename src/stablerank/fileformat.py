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

from functools import partial

from .errors import InputError, ParseError
from .ideals import LinearChange, MonomialIdeal, PolyIdeal, SparsePolynomial
from .rationals import Record, expect, parse_integer, parse_rational
from .tensors import SymmetricSupport, TensorSupport

__all__ = ["InputDocument", "parse_input", "serialize"]

# each kind's payload type, its header fields and the field holding its
# entry lines in canonical order, the fields being attributes of the payload
# of the same names (None for a pideal, whose lines are its generators' terms)
_KINDS = {
    "tensor": (TensorSupport, ("order", "dims"), "sorted_tuples"),
    "symm": (SymmetricSupport, ("degree", "nvars"), "sorted_exponents"),
    "mideal": (MonomialIdeal, ("nvars",), "generators"),
    "pideal": (PolyIdeal, ("nvars",), None),
    "matrix": (LinearChange, ("nvars",), "matrix"),
}
_KIND_OF = {payload: kind for kind, (payload, *_) in _KINDS.items()}


class InputDocument(Record):
    """A parsed input file: the domain object it encodes, whose type names
    the header kind."""

    __slots__ = __match_args__ = ("payload",)

    def __init__(self, payload: object):
        expect(payload, tuple(_KIND_OF), "document payload")
        self._store(payload)

    @property
    def kind(self) -> str:
        # a subclass of a payload type has its base's kind
        return next(_KIND_OF[t] for t in type(self.payload).__mro__ if t in _KIND_OF)


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


def _header_fields(kind: str, tokens, header_line) -> list[int]:
    """The values of the header fields `_KINDS` names for `kind`."""
    names = _KINDS[kind][1]
    if len(tokens) != len(names):
        raise ParseError(f"usage: {' '.join([kind, *(f'<{n}>' for n in names)])}", header_line)
    values = []
    for tok in tokens:
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
    expect(text, str, "string")
    lines = _significant_lines(text)
    if not lines:
        raise ParseError("empty input: expected a header line", 1)
    header_line, header = lines[0]
    kind, *tokens = header.split()
    rest = lines[1:]
    if kind not in _KINDS:
        raise ParseError(f"unknown input kind {kind!r}", header_line)
    fields = _header_fields(kind, tokens, header_line)

    if kind == "matrix":
        (nvars,) = fields
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
        return InputDocument(payload)

    # the entry kinds: `read` checks the format, the constructor `make` every
    # entry; a fault is reported at the first line whose entry `make` rejects
    # alone, when that line comes before the format fault or there is none
    if kind == "pideal":
        (nvars,) = fields

        def make(generators):
            return PolyIdeal(nvars, [SparsePolynomial(nvars, g) for g in generators])

        read = _pideal_generators
    else:
        make, read = partial(_KINDS[kind][0], *fields), _index_rows
    if not rest:
        raise ParseError(f"{kind} needs at least one entry line", header_line)
    entries: list = []
    try:
        return InputDocument(make(read(rest, entries)))
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
    expect(doc, InputDocument, "document")
    p = doc.payload
    _, fields, entries = _KINDS[doc.kind]
    lines = [" ".join([doc.kind, *(str(getattr(p, f)) for f in fields)])]
    if entries:
        lines += [" ".join(map(str, e)) for e in getattr(p, entries)]
    else:
        for pos, gen in enumerate(p.generators):
            if gen.is_zero:
                raise InputError("a zero generator has no file representation")
            if pos:
                lines.append("--")
            lines += [
                f"{c} : " + " ".join(map(str, e))
                for e, c in gen.sorted_terms()
            ]
    return "\n".join(lines) + "\n"
