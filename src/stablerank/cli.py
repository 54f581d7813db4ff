"""Command line front end.

    stablerank rank tensor FILE [--alpha p/q,p/q,...]
    stablerank rank symm FILE
    stablerank rank ideal FILE [--change MATRIXFILE]...
    stablerank lct FILE
    stablerank semistable FILE
    stablerank verify SUITE [--seed S] [--cases N]

Every subcommand accepts --json and then prints one object
{"value": ..., "witness": [...], "notes": [...]} with the value written
exactly as p/q, a bare integer, or "inf". Exit codes: 0 on success, 1 when
a verify run reports failures, 2 for any input problem, 3 for an internal
error (a fault in the program, reported as one "error: internal: ..." line
on stderr, without a traceback).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InputError
from .fileformat import parse_input
from .ideals import (
    PolyIdeal,
    _change_budget,
    _lct_rank,
    _poly_ideal,
    apply_linear_change,
    t_stable_rank,
)
from .rationals import parse_integer, parse_rational
from .tensors import (
    TensorSupport,
    is_symm_torus_semistable,
    is_torus_semistable,
    symm_torus_rank,
    torus_rank,
)
from .verify import SUITES, run_suite

__all__ = ["run", "main"]

_UPPER_BOUND_TENSOR = (
    "upper bound on rk^G; exact when the infimum is attained by a torus "
    "one-parameter subgroup"
)
_UPPER_BOUND_IDEAL = "upper bound on rk^G over all linear systems of parameters"
_CHUNK = 4096


def _load(path: str, kinds: tuple[str, ...], what: str):
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8 at byte offset {exc.start}") from None
    # a leading byte-order mark, as Windows editors write it, is not content
    doc = parse_input(text.removeprefix("\ufeff"))
    if doc.kind not in kinds:
        raise InputError(f"{what} expects a {' or '.join(kinds)} file, got {doc.kind!r}")
    return doc.payload


def _emit(as_json: bool, value, witness, notes: list[str], width: int = 0) -> int:
    """Print one answer, its exact value as p/q, an integer or "inf".
    `witness` is None or a flat tuple of ints. A tensor's witness comes with
    `width`, its entries per factor: the JSON object nests its factors as
    lists, and the text line separates them by ' / '. Both forms write the
    witness by one loop, straight from the flat tuple and `_CHUNK` entries
    at a time, so a long witness never has every entry's text, or a copy of
    a factor, in memory at once. An int's text is its JSON, so the JSON form
    prints the bytes `json.dumps` prints of the whole object."""
    value = str(value)
    witness = () if witness is None else witness
    write = sys.stdout.write
    if as_json:
        write(f'{{"value": {json.dumps(value)}, "witness": [')
        sep, between, opening, closing = ", ", ", ", "[" * bool(width), "]" * bool(width)
    else:
        print(f"value: {value}")
        write("witness: " if witness else "")
        sep, between, opening, closing = " ", " / ", "", ""
    step = width or len(witness) or 1
    for start in range(0, len(witness), step):
        write(between + opening if start else opening)
        end = start + step
        for at in range(start, end, _CHUNK):
            if at > start:
                write(sep)
            write(sep.join(map(str, witness[at:min(at + _CHUNK, end)])))
        write(closing)
    if as_json:
        write(f'], "notes": {json.dumps(notes)}}}\n')
        return 0
    write("\n" if witness else "")
    for note in notes:
        print(f"note: {note}")
    return 0


def _cmd_rank_tensor(args) -> int:
    support = _load(args.file, ("tensor",), "rank tensor")
    alpha = None
    if args.alpha is not None:
        parts = args.alpha.split(",")
        if len(parts) != support.order:
            raise InputError(
                f"--alpha needs {support.order} comma-separated rationals, got {len(parts)}"
            )
        alpha = tuple(parse_rational(p.strip()) for p in parts)
    result = torus_rank(support, alpha)
    return _emit(args.json, result.value, result.witness, [_UPPER_BOUND_TENSOR], support.dims)


def _cmd_rank_symm(args) -> int:
    support = _load(args.file, ("symm",), "rank symm")
    result = symm_torus_rank(support)
    return _emit(args.json, result.value, result.witness, [_UPPER_BOUND_TENSOR])


def _cmd_rank_ideal(args) -> int:
    payload = _load(args.file, ("mideal", "pideal"), "rank ideal")
    changes = [_load(path, ("matrix",), "--change") for path in args.change or []]
    if changes:
        base = _poly_ideal(payload)
        # one budget for every generator under every change, before any work
        _change_budget(base.generators, changes)
    candidates = [("standard coordinates", t_stable_rank(payload))]
    for pos, change in enumerate(changes, start=1):
        moved = PolyIdeal(base.nvars, [apply_linear_change(g, change) for g in base.generators])
        candidates.append((f"change #{pos}", t_stable_rank(moved)))
    best_label, best = min(candidates, key=lambda item: item[1].value)
    notes = [_UPPER_BOUND_IDEAL]
    if len(candidates) > 1:
        notes.append(
            f"minimum over {len(candidates)} coordinate systems; attained by {best_label}"
        )
    return _emit(args.json, best.value, best.witness, notes)


def _cmd_lct(args) -> int:
    ideal = _load(args.file, ("mideal",), "lct")
    result = _lct_rank(ideal)
    notes = ["log canonical threshold at the origin; equals the stable rank of the ideal"]
    return _emit(args.json, result.value, result.witness, notes)


def _cmd_semistable(args) -> int:
    payload = _load(args.file, ("tensor", "symm"), "semistable")
    if isinstance(payload, TensorSupport):
        flag = is_torus_semistable(payload)
    else:
        flag = is_symm_torus_semistable(payload)
    note = (
        "torus-semistable"
        if flag
        else "not torus-semistable: some torus one-parameter subgroup is destabilizing"
    )
    return _emit(args.json, "1" if flag else "0", None, [note])


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    suites: list[str] = []
    fails: list[str] = []
    for name in names:
        reports = run_suite(name, args.seed, args.cases)
        failed = [r for r in reports if not r.passed]
        suites.append(f"suite {name}: {len(reports)} checks, {len(failed)} failed")
        if not args.json:
            print(suites[-1])
        for report in failed:
            fails.append(f"FAIL {report.check_name}: {report.lhs} vs {report.rhs}")
            if not args.json:
                print(fails[-1], "instance:", sep="\n")
                for line in report.instance.rstrip("\n").splitlines():
                    print(f"  {line}")
    if args.json:
        _emit(True, str(len(fails)), None, suites + fails)
    else:
        print(f"failures: {len(fails)}")
    return 1 if fails else 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help is formatted at a fixed width.
    `add_subparsers` builds its subparsers from the parser's own class, and
    `add_argument` already formats, so every parser, the `common` parent
    included, is one."""

    def __init__(self, **kwargs):
        # A fixed width, the one every caller whose stdout is not a terminal
        # gets anyway. Without a width, argparse imports shutil (and with it
        # bz2, lzma, fnmatch and zlib) to ask for the terminal size, which at
        # least doubles the time a call spends building its parsers.
        super().__init__(formatter_class=lambda prog: argparse.HelpFormatter(prog, width=78),
                         **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="print one JSON object instead of plain lines")

    parser = _Parser(
        prog="stablerank",
        description="Exact torus-restricted stable ranks, ideal ranks, and "
                    "monomial log canonical thresholds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rank = sub.add_parser("rank", help="stable rank of a tensor, form, or ideal")
    ranksub = rank.add_subparsers(dest="target", required=True)

    rt = ranksub.add_parser("tensor", parents=[common], help="tensor support file")
    rt.add_argument("file")
    rt.add_argument("--alpha", metavar="LIST",
                    help="comma-separated positive rationals, one per tensor factor")
    rt.set_defaults(handler=_cmd_rank_tensor)

    rs = ranksub.add_parser("symm", parents=[common], help="symmetric support file")
    rs.add_argument("file")
    rs.set_defaults(handler=_cmd_rank_symm)

    ri = ranksub.add_parser("ideal", parents=[common], help="mideal or pideal file")
    ri.add_argument("file")
    ri.add_argument("--change", action="append", metavar="MATRIXFILE",
                    help="matrix file with a linear change of coordinates; repeatable")
    ri.set_defaults(handler=_cmd_rank_ideal)

    lct = sub.add_parser("lct", parents=[common],
                         help="log canonical threshold of a monomial ideal")
    lct.add_argument("file")
    lct.set_defaults(handler=_cmd_lct)

    ss = sub.add_parser("semistable", parents=[common],
                        help="torus semistability of a tensor or symmetric support")
    ss.add_argument("file")
    ss.set_defaults(handler=_cmd_semistable)

    vf = sub.add_parser("verify", parents=[common], help="run a self-check suite")
    vf.add_argument("suite", help=f"one of: {', '.join([*SUITES, 'all'])}")
    vf.add_argument("--seed", type=parse_integer, default=0)
    vf.add_argument("--cases", type=parse_integer, default=200)
    vf.set_defaults(handler=_cmd_verify)

    return parser


def run(argv=None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault in the library, not in the input
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: internal: {message}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
