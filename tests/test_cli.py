import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import stablerank.exactlp
from stablerank.cli import _CHUNK, _UPPER_BOUND_TENSOR, _emit, main, run
from stablerank.tensors import TensorSupport, torus_rank, torus_valuation

W_TEXT = "tensor 3 2\n2 1 1\n1 2 1\n1 1 2\n"
W_FORM_TEXT = "symm 3 2\n2 1\n"
SQUARE_TEXT = "pideal 2\n1 : 2 0\n2 : 1 1\n1 : 0 2\n"
CYCLIC_TEXT = "mideal 3\n2 1 0\n0 2 1\n1 0 2\n"
HALF_TEXT = "matrix 2\n1/2 1/2\n1/2 -1/2\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in {
        "w.txt": W_TEXT,
        "wform.txt": W_FORM_TEXT,
        "square.txt": SQUARE_TEXT,
        "cyclic.txt": CYCLIC_TEXT,
        "half.txt": HALF_TEXT,
        "diag.txt": "tensor 3 2\n1 1 1\n2 2 2\n",
        "unit.txt": "mideal 2\n0 0\n",
        "bad.txt": "mideal 2\n1 0 0\n",
    }.items():
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


class TestRankTensor:
    def test_w_value(self, files, capsys):
        assert run(["rank", "tensor", files["w.txt"]]) == 0
        out = capsys.readouterr().out
        assert "value: 3/2" in out

    def test_w_json_witness_nested(self, files, capsys):
        assert run(["rank", "tensor", files["w.txt"], "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == "3/2"
        assert len(data["witness"]) == 3
        assert all(len(group) == 2 for group in data["witness"])
        support = TensorSupport(3, 2, [(2, 1, 1), (1, 2, 1), (1, 1, 2)])
        weights = [tuple(g) for g in data["witness"]]
        total = sum(sum(g) for g in weights)
        assert total == 3 * torus_valuation(support, weights) // 2
        assert isinstance(data["notes"], list)

    def test_long_witness_is_written_in_chunks(self, tmp_path, capsys):
        # two factors of 5,000 entries, each above one chunk, and the same
        # bytes as one join over the witness
        path = tmp_path / "long.txt"
        path.write_text("tensor 2 5000\n1 1\n")
        result = torus_rank(TensorSupport(2, 5000, [(1, 1)]))
        groups = [list(result.witness[:5000]), list(result.witness[5000:])]
        assert len(groups[0]) > _CHUNK
        assert run(["rank", "tensor", str(path)]) == 0
        assert capsys.readouterr().out == (
            f"value: {result.value}\nwitness: "
            + " / ".join(" ".join(map(str, group)) for group in groups)
            + f"\nnote: {_UPPER_BOUND_TENSOR}\n")
        assert run(["rank", "tensor", str(path), "--json"]) == 0
        assert capsys.readouterr().out == json.dumps(
            {"value": str(result.value), "witness": groups, "notes": [_UPPER_BOUND_TENSOR]}) + "\n"

    @pytest.mark.parametrize("header, support, lengths", [
        ("tensor 1 99999999999999999999", "1", None),
        ("tensor 1 3000000", "1", [3_000_000]),
        ("tensor 2 1500000", "1 1", [1_500_000] * 2),
    ])
    def test_witness_budget_in_a_capped_child(self, tmp_path, header, support, lengths):
        # The witness has dims * order entries. A header above the budget
        # exits 2 with one line before any work; one at 3,000,000 entries
        # still answers. The child caps its own address space at 1 GiB and
        # runs under a timeout, so a witness filled toward 10^20 entries
        # fails this test instead of taking the machine's memory or hanging.
        path = tmp_path / "support.txt"
        path.write_text(f"{header}\n{support}\n")
        env = dict(os.environ, PYTHONPATH=str(Path(stablerank.__file__).parents[1]))
        cap = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
               "from stablerank.cli import run; sys.exit(run(sys.argv[1:]))")
        done = subprocess.run([sys.executable, "-c", cap, "rank", "tensor", str(path)],
                              capture_output=True, text=True, env=env, timeout=30)
        if lengths is None:
            assert (done.returncode, done.stdout, done.stderr) == (2, "", (
                "error: torus rank witness: dims * order = 99999999999999999999 exceeds 10000000\n"))
            return
        assert (done.returncode, done.stderr) == (0, "")
        value, witness, _ = done.stdout.splitlines()
        groups = witness.removeprefix("witness: ").split(" / ")
        assert value == "value: 1" and [len(g.split()) for g in groups] == lengths

    def test_factors_are_written_from_the_flat_witness(self, tmp_path):
        # Both forms write each factor's entries straight from the flat
        # witness, so a child answering on two factors of 1,500,000 entries
        # peaks within 5% of one answering on one factor of 3,000,000, and
        # the --json child within 5% of the text child. Copying each factor
        # out first costs about 21 MB more, half again the one-factor peak
        # of about 40 MB; handing json.dumps nested lists cost about 40 MB.
        env = dict(os.environ, PYTHONPATH=str(Path(stablerank.__file__).parents[1]))
        out = tmp_path / "out.txt"

        def peak(header, support, *flags):
            path = tmp_path / "support.txt"
            path.write_text(f"{header}\n{support}\n")
            argv = [sys.executable, "-m", "stablerank", "rank", "tensor", str(path), *flags]
            pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
                (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)])
            _, status, usage = os.wait4(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            return usage.ru_maxrss

        one = peak("tensor 1 3000000", "1")
        two = peak("tensor 2 1500000", "1 1")
        value, witness, _ = out.read_text().splitlines()
        groups = witness.removeprefix("witness: ").split(" / ")
        assert value == "value: 1" and [len(g.split()) for g in groups] == [1_500_000] * 2
        assert two <= 1.05 * one
        nested = peak("tensor 2 1500000", "1 1", "--json")
        assert [len(g) for g in json.loads(out.read_text())["witness"]] == [1_500_000] * 2
        assert nested <= 1.05 * two

    @pytest.mark.parametrize("value, witness, width", [
        ("3/2", (1, 0, 2), 0),
        ("3/2", (1, 0, 2, 0, 1, 1), 2),
        ("7", tuple(range(-3, 2 * _CHUNK + 5)), 0),
        ("7", tuple(range(-3, 2 * _CHUNK + 5)), _CHUNK + 4),
        ("0", None, 0),
        ("1", (), 0),
        (math.inf, None, 0),
    ], ids=["flat", "nested", "flat-chunks", "nested-chunks", "empty", "empty-tuple", "inf"])
    def test_json_form_is_the_bytes_of_json_dumps(self, capsys, value, witness, width):
        # the streamed JSON object is byte for byte json.dumps of the whole
        # object, factors nested as lists when a width is given
        notes = [_UPPER_BOUND_TENSOR, "a \"quoted\" note, \u2265 one"]
        assert _emit(True, value, witness, notes, width) == 0
        flat = list(witness or ())
        nested = [flat[i:i + width] for i in range(0, len(flat), width)] if width else flat
        assert capsys.readouterr().out == json.dumps(
            {"value": str(value), "witness": nested, "notes": notes}) + "\n"

    def test_alpha_scaling(self, files, capsys):
        assert run(["rank", "tensor", files["w.txt"], "--alpha", "2,2,2"]) == 0
        assert "value: 3" in capsys.readouterr().out

    def test_alpha_fractions(self, files, capsys):
        assert run(["rank", "tensor", files["w.txt"], "--alpha", "1/2,1/2,1/2"]) == 0
        assert "value: 3/4" in capsys.readouterr().out

    def test_alpha_wrong_arity(self, files, capsys):
        assert run(["rank", "tensor", files["w.txt"], "--alpha", "1,1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_alpha_rejects_decimals(self, files, capsys):
        assert run(["rank", "tensor", files["w.txt"], "--alpha", "0.5,1,1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_kind_mismatch(self, files, capsys):
        assert run(["rank", "tensor", files["cyclic.txt"]]) == 2
        assert "error:" in capsys.readouterr().err


class TestRankSymm:
    def test_w_form(self, files, capsys):
        assert run(["rank", "symm", files["wform.txt"]]) == 0
        assert "value: 3/2" in capsys.readouterr().out

    def test_json_flat_witness(self, files, capsys):
        assert run(["rank", "symm", files["wform.txt"], "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == "3/2"
        assert data["witness"] == [1, 0]

    def test_kind_mismatch(self, files):
        assert run(["rank", "symm", files["w.txt"]]) == 2


class TestRankIdeal:
    def test_square_standard(self, files, capsys):
        assert run(["rank", "ideal", files["square.txt"]]) == 0
        out = capsys.readouterr().out
        assert "value: 1" in out
        assert "upper bound on rk^G" in out

    def test_square_with_change(self, files, capsys):
        assert run(["rank", "ideal", files["square.txt"], "--change", files["half.txt"]]) == 0
        out = capsys.readouterr().out
        assert "value: 1/2" in out

    def test_change_json(self, files, capsys):
        code = run(["rank", "ideal", files["square.txt"], "--change", files["half.txt"], "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == "1/2"
        assert len(data["witness"]) == 2
        assert any("upper bound on rk^G" in n for n in data["notes"])

    def test_monomial_ideal_file(self, files, capsys):
        assert run(["rank", "ideal", files["cyclic.txt"]]) == 0
        assert "value: 1" in capsys.readouterr().out

    def test_change_on_matrix_file_kind_check(self, files):
        assert run(["rank", "ideal", files["square.txt"], "--change", files["w.txt"]]) == 2

    def test_singular_change_fails_at_its_header(self, files, tmp_path, capsys):
        path = tmp_path / "singular.txt"
        path.write_text("matrix 2\n1 1\n2 2\n")
        assert run(["rank", "ideal", files["square.txt"], "--change", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: linear change matrix is singular\n"

    def test_change_over_the_expansion_budget(self, tmp_path, capsys):
        # one line and exit 2, before any power of the expansion is built
        (tmp_path / "ideal.txt").write_text("pideal 3\n1 : 384 384 384\n")
        (tmp_path / "matrix.txt").write_text("matrix 3\n1 2 3\n0 1 5\n0 0 1\n")
        assert run(["rank", "ideal", str(tmp_path / "ideal.txt"),
                    "--change", str(tmp_path / "matrix.txt")]) == 2
        assert capsys.readouterr() == ("", "error: linear change: expansion bound of "
                                           "57289155 multiply-adds exceeds 10000000\n")

    def test_changes_share_one_expansion_budget(self, tmp_path, capsys, monkeypatch):
        # each generator alone is admitted under the change (8,181,303 and
        # 8,282,807 multiply-adds), but the command expands both: one line
        # and exit 2, before any expansion or solve
        seen = oracle.calls(monkeypatch, (stablerank.cli, "apply_linear_change"),
                            (stablerank.cli, "t_stable_rank"))
        (tmp_path / "ideal.txt").write_text("pideal 3\n1 : 200 200 200\n--\n1 : 199 200 201\n")
        (tmp_path / "matrix.txt").write_text("matrix 3\n1 2 3\n0 1 5\n0 0 1\n")
        assert run(["rank", "ideal", str(tmp_path / "ideal.txt"),
                    "--change", str(tmp_path / "matrix.txt")]) == 2
        assert capsys.readouterr() == ("", "error: linear change: expansion bound of "
                                           "16464110 multiply-adds exceeds 10000000\n")
        assert seen == []

    def test_every_change_file_is_read_before_any_work(self, files, tmp_path, capsys,
                                                       monkeypatch):
        seen = oracle.calls(monkeypatch, (stablerank.cli, "apply_linear_change"),
                            (stablerank.cli, "t_stable_rank"))
        assert run(["rank", "ideal", files["square.txt"], "--change", files["half.txt"],
                    "--change", str(tmp_path / "missing.txt")]) == 2
        assert "missing.txt" in capsys.readouterr().err
        assert seen == []

    # a linear change of a deep power: both routes reach the recursive
    # `form_power`, which ends in RecursionError (exit 3) until ROADMAP
    # item 5a makes it iterative; these then pass, and the marks go
    @pytest.mark.xfail(strict=True, reason="RecursionError in form_power (ROADMAP item 5a)")
    @pytest.mark.parametrize("ideal, matrix", [
        ("pideal 1\n1 : 1200\n", "matrix 1\n2\n"),
        ("mideal 2\n1200 0\n0 1\n", "matrix 2\n1 0\n0 1\n"),
    ], ids=["pideal", "mideal"])
    def test_deep_power_under_a_change_ends_in_an_answer(self, tmp_path, capsys, ideal, matrix):
        (tmp_path / "ideal.txt").write_text(ideal)
        (tmp_path / "matrix.txt").write_text(matrix)
        code = run(["rank", "ideal", str(tmp_path / "ideal.txt"),
                    "--change", str(tmp_path / "matrix.txt")])
        assert code in (0, 2), capsys.readouterr().err


class TestLct:
    def test_cyclic(self, files, capsys):
        assert run(["lct", files["cyclic.txt"]]) == 0
        assert "value: 1" in capsys.readouterr().out

    def test_diagonal(self, tmp_path, capsys):
        p = tmp_path / "d.txt"
        p.write_text("mideal 2\n2 0\n0 2\n")
        assert run(["lct", str(p)]) == 0
        assert "value: 1" in capsys.readouterr().out

    def test_rejects_pideal(self, files):
        assert run(["lct", files["square.txt"]]) == 2

    def test_unit_ideal(self, files, capsys):
        assert run(["lct", files["unit.txt"]]) == 2
        assert "error:" in capsys.readouterr().err

    def test_one_solve_per_call(self, files, capsys, monkeypatch):
        solves = oracle.calls(monkeypatch, (stablerank.exactlp, "lp_minimize"))
        assert run(["lct", files["cyclic.txt"], "--json"]) == 0
        assert len(solves) == 1
        assert json.loads(capsys.readouterr().out)["witness"] == [1, 1, 1]


class TestSemistable:
    def test_w_not_semistable(self, files, capsys):
        assert run(["semistable", files["w.txt"]]) == 0
        out = capsys.readouterr().out
        assert "value: 0" in out
        assert "not torus-semistable" in out

    def test_diagonal_semistable_json(self, files, capsys):
        assert run(["semistable", files["diag.txt"], "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == "1"
        assert data["witness"] == []
        assert any("semistable" in n for n in data["notes"])

    def test_symm_form(self, files, capsys):
        assert run(["semistable", files["wform.txt"]]) == 0
        assert "value: 0" in capsys.readouterr().out

    def test_rejects_ideal(self, files):
        assert run(["semistable", files["cyclic.txt"]]) == 2


class TestVerifyCommand:
    def test_lct_bound(self, capsys):
        assert run(["verify", "lct-bound"]) == 0
        assert "failures: 0" in capsys.readouterr().out

    def test_symm_multi_small(self, capsys):
        assert run(["verify", "symm-multi", "--seed", "7", "--cases", "5"]) == 0
        out = capsys.readouterr().out
        assert "suite symm-multi: 5 checks, 0 failed" in out

    def test_all_json(self, capsys):
        assert run(["verify", "all", "--seed", "7", "--cases", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == "0"
        assert any("symm-multi" in n for n in data["notes"])
        assert any("ideal-props" in n for n in data["notes"])

    @pytest.mark.parametrize(
        "argv, got",
        [
            (["verify", "all", "--cases", "0"], "0"),
            (["verify", "nonsense", "--cases", "0"], "0"),  # checked before the name
            (["verify", "symm-multi", "--cases", "-3", "--json"], "-3"),
            (["verify", "lct-bound", "--cases", "0"], "0"),
        ],
    )
    def test_case_count_errors(self, argv, got, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cases: expected a value >= 1, got {got}\n"

    def test_unknown_suite(self, capsys):
        assert run(["verify", "nonsense"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_failure_exit_code(self, capsys, monkeypatch):
        import stablerank.cli as cli_mod
        from stablerank.verify import CheckReport

        def fake(name, seed, cases):
            return [CheckReport("fake/check", "mideal 1\n1\n", False, "1", "2")]

        monkeypatch.setattr(cli_mod, "run_suite", fake)
        assert run(["verify", "monomial-lct"]) == 1
        out = capsys.readouterr().out
        assert "FAIL fake/check" in out
        assert "failures: 1" in out

    def test_failure_json_value(self, capsys, monkeypatch):
        import stablerank.cli as cli_mod
        from stablerank.verify import CheckReport

        def fake(name, seed, cases):
            return [CheckReport("fake/check", "mideal 1\n1\n", False, "1", "2")]

        monkeypatch.setattr(cli_mod, "run_suite", fake)
        assert run(["verify", "monomial-lct", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == "1"


class TestErrorsAndPlumbing:
    def test_parse_error_is_line_numbered(self, files, capsys):
        assert run(["rank", "ideal", files["bad.txt"]]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run(["lct", "/nonexistent/path.txt"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["rank", "tensor"], ["semistable"], ["rank", "ideal"],
                                      ["lct"], ["rank", "symm"]])
    def test_file_not_utf8_is_an_input_error(self, tmp_path, capsys, argv):
        # a Latin-1 byte after the header: the diagnostic names the file and
        # the offset of the first byte that does not decode
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"tensor 3 2\n1 1 1\n# caf\xe9\n")
        assert run([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not valid UTF-8 at byte offset 22\n"

    def test_change_file_not_utf8_is_an_input_error(self, files, tmp_path, capsys):
        path = tmp_path / "matrix.txt"
        path.write_bytes(b"\xffmatrix 2\n1 0\n0 1\n")
        assert run(["rank", "ideal", files["square.txt"], "--change", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: not valid UTF-8 at byte offset 0\n"

    def test_leading_byte_order_mark_is_dropped(self, files, tmp_path, capsys):
        # a UTF-8 byte-order mark before the header, on an input and on a
        # --change file, gives the bytes the unmarked files give
        bom = b"\xef\xbb\xbf"
        marked = tmp_path / "w_bom.txt"
        marked.write_bytes(bom + W_TEXT.encode())
        matrix = tmp_path / "half_bom.txt"
        matrix.write_bytes(bom + HALF_TEXT.encode())
        for plain, argv in (
            (["rank", "tensor", files["w.txt"], "--json"], ["rank", "tensor", str(marked), "--json"]),
            (["semistable", files["w.txt"]], ["semistable", str(marked)]),
            (["rank", "ideal", files["square.txt"], "--change", files["half.txt"]],
             ["rank", "ideal", files["square.txt"], "--change", str(matrix)]),
        ):
            assert run(plain) == 0
            expected = capsys.readouterr()
            assert run(argv) == 0
            assert capsys.readouterr() == expected
        # only one mark is dropped, and a bad byte after it keeps its offset
        twice = tmp_path / "twice.txt"
        twice.write_bytes(bom + bom + W_TEXT.encode())
        assert run(["rank", "tensor", str(twice)]) == 2
        assert "unknown input kind '\\ufefftensor'" in capsys.readouterr().err
        bad = tmp_path / "bad_bom.txt"
        bad.write_bytes(bom + b"tensor 3 2\n1 1 1\n# caf\xe9\n")
        assert run(["rank", "tensor", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: not valid UTF-8 at byte offset 25\n"

    @pytest.mark.parametrize("fault", [
        RecursionError("maximum recursion depth exceeded"),
        ZeroDivisionError("division by zero"),
        RuntimeError("first line\nsecond line"),
    ])
    def test_internal_error_is_one_line_and_exit_3(self, files, capsys, monkeypatch, fault):
        import stablerank.cli as cli_mod

        def broken(*args):
            raise fault

        monkeypatch.setattr(cli_mod, "apply_linear_change", broken)
        assert run(["rank", "ideal", files["square.txt"], "--change", files["half.txt"]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: internal: {type(fault).__name__}: ")
        assert captured.err.count("\n") == 1

    def test_usage_error_exit_code(self):
        assert run(["rank"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["verify", "monomial-lct", "--seed", "1_0"],
         "argument --seed: invalid parse_integer value: '1_0'"),
        (["verify", "monomial-lct", "--cases", "1_0"],
         "argument --cases: invalid parse_integer value: '1_0'"),
        (["verify", "monomial-lct", "--cases", " \u0667"],
         "argument --cases: invalid parse_integer value: ' \u0667'"),
        (["verify", "monomial-lct", "--seed", "\u0663"],
         "argument --seed: invalid parse_integer value: '\u0663'"),
        (["rank", "tensor", "W", "--alpha", "\u0663,1,1"],
         "error: not a rational (write p/q or an integer): '\u0663'"),
    ], ids=["seed-underscore", "cases-underscore", "cases-arabic-indic",
            "seed-arabic-indic", "alpha-arabic-indic"])
    def test_number_tokens_are_ascii_digits(self, files, capsys, argv, message):
        # int() would read each of these (1_0 as ten)
        argv = [files["w.txt"] if a == "W" else a for a in argv]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(message + "\n")

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    def test_main_raises_system_exit(self, files, monkeypatch):
        monkeypatch.setattr("sys.argv", ["stablerank", "lct", files["cyclic.txt"]])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 0

    def test_byte_identical_output(self, files, capsys):
        run(["verify", "monomial-lct", "--seed", "11", "--cases", "6", "--json"])
        first = capsys.readouterr().out
        run(["verify", "monomial-lct", "--seed", "11", "--cases", "6", "--json"])
        assert capsys.readouterr().out == first


@pytest.mark.parametrize("module", ["stablerank", "stablerank.cli"])
def test_python_m_entry_points(files, module, capsys):
    assert run(["lct", files["cyclic.txt"]]) == 0
    expected = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(Path(stablerank.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", module, "lct", files["cyclic.txt"]],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")


class TestFixedHelpWidth:
    """Every parser formats at one fixed width, so a call never asks shutil
    for the terminal size, and never pays for importing it."""

    HELP = [[], ["rank"], ["rank", "tensor"], ["rank", "symm"], ["rank", "ideal"], ["lct"],
            ["semistable"], ["verify"]]

    @pytest.fixture
    def terminal_size_calls(self, monkeypatch):
        # Record every call and answer it, rather than raise: the swap holds
        # for the whole process until teardown, and pytest's own reporter may
        # ask for the terminal size meanwhile. The test checks the record.
        calls = []

        def record(*args, **kwargs):
            calls.append(args)
            return os.terminal_size((80, 24))

        monkeypatch.setattr(shutil, "get_terminal_size", record)
        return calls

    def test_no_call_asks_for_the_terminal_size(self, files, capsys, terminal_size_calls):
        for argv in (["rank", "tensor", files["w.txt"]], ["rank", "symm", files["wform.txt"]],
                     ["rank", "ideal", files["square.txt"]], ["lct", files["cyclic.txt"]],
                     ["semistable", files["diag.txt"]],
                     ["verify", "symm-multi", "--cases", "2"]):
            assert run(argv) == 0, argv
            assert capsys.readouterr().out
        for argv in self.HELP:
            assert run([*argv, "--help"]) == 0, argv
            assert capsys.readouterr().out.startswith(f"usage: {' '.join(['stablerank', *argv])} ")
        assert run(["rank", "tensor"]) == 2
        assert "error: the following arguments are required: file" in capsys.readouterr().err
        assert terminal_size_calls == [], "the terminal size was asked for"

    def test_help_ignores_columns(self, capsys, monkeypatch):
        pages = {}
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            for argv in self.HELP:
                assert run([*argv, "--help"]) == 0
                pages.setdefault(columns, []).append(capsys.readouterr().out)
        assert pages["40"] == pages["200"]
        assert max(len(line) for page in pages["40"] for line in page.splitlines()) <= 78


def test_import_loads_the_speed_gauge_modules():
    # bench/workloads.py scales every `cli` time by a PROBE_CHILD gauge, which
    # imports these modules, and the benchmark compiles bytecode only for what
    # `import stablerank.cli` loads. Dropping one of them from the import
    # would leave the gauge compiling it from source and inflate the scaled
    # figures. ROADMAP item 5 compiles bytecode for the gauge's own imports;
    # that change retires this test.
    env = dict(os.environ, PYTHONPATH=str(Path(stablerank.__file__).parents[1]))
    code = ("import sys, stablerank.cli; "
            "print(' '.join(m for m in ('argparse', 'dataclasses', 'json', 'random', 'fractions')"
            " if m not in sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "\n", "")
