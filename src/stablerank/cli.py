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
    _lct_rank,
    _poly_ideal,
    apply_linear_change,
    t_stable_rank,
)
from .rationals import fmt, parse_integer, parse_rational
from .tensors import (
    TensorSupport,
    is_symm_torus_semistable,
    is_torus_semistable,
    symm_torus_rank,
    torus_rank,
)
from .verify import SUITES, RandomInstanceConfig, run_suite

__all__ = ["run", "main"]

_UPPER_BOUND_TENSOR = (
    "upper bound on rk^G; exact when the infimum is attained by a torus "
    "one-parameter subgroup"
)
_UPPER_BOUND_IDEAL = "upper bound on rk^G over all linear systems of parameters"


def _load(path: str, kinds: tuple[str, ...], what: str):
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8 at byte offset {exc.start}") from None
    doc = parse_input(text)
    if doc.kind not in kinds:
        raise InputError(f"{what} expects a {' or '.join(kinds)} file, got {doc.kind!r}")
    return doc.payload


def _emit(as_json: bool, value: str, witness_json: list, witness_text: str | None,
          notes: list[str]) -> int:
    if as_json:
        print(json.dumps({"value": value, "witness": witness_json, "notes": notes}))
    else:
        print(f"value: {value}")
        if witness_text is not None:
            print(f"witness: {witness_text}")
        for note in notes:
            print(f"note: {note}")
    return 0


def _flat_witness(witness) -> tuple[list, str | None]:
    """A flat witness vector as `_emit` takes it: a JSON list and a text line."""
    if witness is None:
        return [], None
    return list(witness), " ".join(map(str, witness))


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
    witness_json: list = []
    witness_text = None
    if result.witness is not None:
        n = support.dims
        groups = [list(result.witness[i * n:(i + 1) * n]) for i in range(support.order)]
        witness_json = groups
        witness_text = " / ".join(" ".join(map(str, g)) for g in groups)
    return _emit(args.json, fmt(result.value), witness_json, witness_text,
                 [_UPPER_BOUND_TENSOR])


def _cmd_rank_symm(args) -> int:
    support = _load(args.file, ("symm",), "rank symm")
    result = symm_torus_rank(support)
    return _emit(args.json, fmt(result.value), *_flat_witness(result.witness),
                 [_UPPER_BOUND_TENSOR])


def _cmd_rank_ideal(args) -> int:
    payload = _load(args.file, ("mideal", "pideal"), "rank ideal")
    candidates = [("standard coordinates", t_stable_rank(payload))]
    changes = args.change or []
    if changes:
        base = _poly_ideal(payload)
        for pos, path in enumerate(changes, start=1):
            change = _load(path, ("matrix",), "--change")
            moved = PolyIdeal(
                base.nvars, [apply_linear_change(g, change) for g in base.generators]
            )
            candidates.append((f"change #{pos}", t_stable_rank(moved)))
    best_label, best = min(candidates, key=lambda item: item[1].value)
    notes = [_UPPER_BOUND_IDEAL]
    if len(candidates) > 1:
        notes.append(
            f"minimum over {len(candidates)} coordinate systems; attained by {best_label}"
        )
    return _emit(args.json, fmt(best.value), *_flat_witness(best.witness), notes)


def _cmd_lct(args) -> int:
    ideal = _load(args.file, ("mideal",), "lct")
    result = _lct_rank(ideal)
    notes = ["log canonical threshold at the origin; equals the stable rank of the ideal"]
    return _emit(args.json, fmt(result.value), *_flat_witness(result.witness), notes)


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
    return _emit(args.json, "1" if flag else "0", [], None, [note])


def _cmd_verify(args) -> int:
    config = RandomInstanceConfig(seed=args.seed, cases=args.cases)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    total_failed = 0
    notes: list[str] = []
    fail_notes: list[str] = []
    for name in names:
        reports = run_suite(name, config)
        failed = [r for r in reports if not r.passed]
        total_failed += len(failed)
        line = f"suite {name}: {len(reports)} checks, {len(failed)} failed"
        notes.append(line)
        if not args.json:
            print(line)
        for report in failed:
            fail_notes.append(f"FAIL {report.check_name}: {report.lhs} vs {report.rhs}")
            if not args.json:
                print(f"FAIL {report.check_name}: {report.lhs} vs {report.rhs}")
                print("instance:")
                for text_line in report.instance.rstrip("\n").splitlines():
                    print(f"  {text_line}")
    if args.json:
        print(json.dumps({
            "value": str(total_failed),
            "witness": [],
            "notes": notes + fail_notes,
        }))
    else:
        print(f"failures: {total_failed}")
    return 1 if total_failed else 0


def _formatter(prog: str) -> argparse.HelpFormatter:
    # A fixed width, the one every caller whose stdout is not a terminal gets
    # anyway. Without a width, argparse imports shutil (and with it bz2, lzma,
    # fnmatch and zlib) to ask for the terminal size, which at least doubles
    # the time a call spends building its parsers.
    return argparse.HelpFormatter(prog, width=78)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, formatter_class=_formatter)
    common.add_argument("--json", action="store_true",
                        help="print one JSON object instead of plain lines")

    parser = argparse.ArgumentParser(
        prog="stablerank",
        description="Exact torus-restricted stable ranks, ideal ranks, and "
                    "monomial log canonical thresholds.",
        formatter_class=_formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rank = sub.add_parser("rank", formatter_class=_formatter,
                          help="stable rank of a tensor, form, or ideal")
    ranksub = rank.add_subparsers(dest="target", required=True)

    rt = ranksub.add_parser("tensor", parents=[common], formatter_class=_formatter,
                            help="tensor support file")
    rt.add_argument("file")
    rt.add_argument("--alpha", metavar="LIST",
                    help="comma-separated positive rationals, one per tensor factor")
    rt.set_defaults(handler=_cmd_rank_tensor)

    rs = ranksub.add_parser("symm", parents=[common], formatter_class=_formatter,
                            help="symmetric support file")
    rs.add_argument("file")
    rs.set_defaults(handler=_cmd_rank_symm)

    ri = ranksub.add_parser("ideal", parents=[common], formatter_class=_formatter,
                            help="mideal or pideal file")
    ri.add_argument("file")
    ri.add_argument("--change", action="append", metavar="MATRIXFILE",
                    help="matrix file with a linear change of coordinates; repeatable")
    ri.set_defaults(handler=_cmd_rank_ideal)

    lct = sub.add_parser("lct", parents=[common], formatter_class=_formatter,
                         help="log canonical threshold of a monomial ideal")
    lct.add_argument("file")
    lct.set_defaults(handler=_cmd_lct)

    ss = sub.add_parser("semistable", parents=[common], formatter_class=_formatter,
                        help="torus semistability of a tensor or symmetric support")
    ss.add_argument("file")
    ss.set_defaults(handler=_cmd_semistable)

    vf = sub.add_parser("verify", parents=[common], formatter_class=_formatter,
                        help="run a self-check suite")
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
