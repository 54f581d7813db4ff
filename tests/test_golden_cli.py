"""Golden output of the command line: exit code, stdout and stderr, bit for bit.

The CLI tests in `test_cli.py` look for substrings and JSON fields, so they
would not notice a changed separator, note order or FAIL layout.
`golden_cli.json` pins the exit code, stdout and stderr of every call in
`CASES`, run in a directory holding the files of `FILES` and named by
relative paths, so no absolute path reaches the bytes:

- every subcommand, in text and with --json, including a tensor witness
  (one group per factor), flat witnesses and an infinite rank without one;
- --alpha, and one and two --change matrices;
- semistable on a tensor file and on a form file;
- each suite at a few cases, and `verify all`, once as they are and once
  with `newton_threshold` faulted so that FAIL lines are printed;
- a line-numbered parse error, a kind mismatch, a file that is not UTF-8,
  a missing file, a wrong --alpha arity and an unknown suite;
- semistable on two tensor files whose header names far more indices than
  the one-line support uses (n = 3,000,000 and n = 10^20), which must answer
  at once; these are the last cases, added after the others.

Text written by argparse itself (help pages and usage errors) is left out:
its bytes differ between Python versions, and `TestFixedHelpWidth` in
`test_cli.py` covers it. The file was written before the command line's
printing code was rewritten; regenerating it is only right when an output
is meant to change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import os
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import oracle
import stablerank.verify
from stablerank.cli import run

GOLDEN = "golden_cli.json"

FILES = {
    "w.txt": b"tensor 3 2\n2 1 1\n1 2 1\n1 1 2\n",
    "diag.txt": b"tensor 3 2\n1 1 1\n2 2 2\n",
    "wform.txt": b"symm 3 2\n2 1\n",
    "square.txt": b"pideal 2\n1 : 2 0\n2 : 1 1\n1 : 0 2\n",
    "cyclic.txt": b"mideal 3\n2 1 0\n0 2 1\n1 0 2\n",
    "unit.txt": b"mideal 2\n0 0\n",
    "half.txt": b"matrix 2\n1/2 1/2\n1/2 -1/2\n",
    "shear.txt": b"matrix 2\n1 1\n0 1\n",
    "bad.txt": b"mideal 2\n1 0\n1 0 0\n",
    "latin1.txt": b"tensor 3 2\n1 1 1\n# caf\xe9\n",
    "wide.txt": b"tensor 1 3000000\n1\n",
    "huge.txt": b"tensor 1 99999999999999999999\n1\n",
}

_CALLS = [
    ["rank", "tensor", "w.txt"],
    ["rank", "tensor", "w.txt", "--alpha", "2,1/2,3"],
    ["rank", "symm", "wform.txt"],
    ["rank", "ideal", "square.txt"],
    ["rank", "ideal", "cyclic.txt"],
    ["rank", "ideal", "unit.txt"],
    ["rank", "ideal", "square.txt", "--change", "half.txt"],
    ["rank", "ideal", "square.txt", "--change", "shear.txt", "--change", "half.txt"],
    ["lct", "cyclic.txt"],
    ["semistable", "w.txt"],
    ["semistable", "diag.txt"],
    ["semistable", "wform.txt"],
    *(["verify", suite, "--seed", "3", "--cases", "3"]
      for suite in ("symm-multi", "semistable", "monomial-lct", "ideal-props", "lct-bound")),
    ["verify", "all", "--seed", "5", "--cases", "4"],
]
_ERRORS = [
    ["rank", "ideal", "bad.txt"],
    ["rank", "tensor", "cyclic.txt"],
    ["semistable", "latin1.txt"],
    ["lct", "missing.txt"],
    ["rank", "ideal", "square.txt", "--change", "w.txt"],
    ["rank", "tensor", "w.txt", "--alpha", "1,1"],
    ["lct", "unit.txt"],
    ["verify", "nonsense"],
]
_HEADERS = [
    ["semistable", "wide.txt"],
    ["semistable", "huge.txt"],
]
_FAULTED = [
    ["verify", "monomial-lct", "--seed", "7", "--cases", "3"],
    ["verify", "all", "--seed", "7", "--cases", "2"],
]

# (faulted, argv): every call in text and with --json
CASES = [
    (faulted, [*argv, *json_flag])
    for faulted, calls in ((False, _CALLS + _ERRORS), (True, _FAULTED), (False, _HEADERS))
    for argv in calls
    for json_flag in ([], ["--json"])
]


def outputs() -> list[dict]:
    """Write `FILES` into the working directory and run every case there."""
    for name, data in FILES.items():
        Path(name).write_bytes(data)
    records = []
    for faulted, argv in CASES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            if faulted:
                stack.enter_context(mock.patch.object(
                    stablerank.verify, "newton_threshold", lambda ideal: Fraction(10**7)))
            code = run(argv)
        records.append({"argv": argv, "faulted": faulted, "code": code,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    return records


def test_golden_covers_every_exit_code():
    golden = oracle.golden(GOLDEN)
    assert {g["code"] for g in golden} == {0, 1, 2}
    assert all(g["stdout"] or g["stderr"] for g in golden)


def test_golden_cli(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    oracle.assert_golden(GOLDEN, outputs())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)
        try:
            records = outputs()
        finally:
            os.chdir(here)
    oracle.write_golden(GOLDEN, records)
