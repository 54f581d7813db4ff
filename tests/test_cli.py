import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import stablerank.exactlp
from stablerank.cli import main, run
from stablerank.tensors import TensorSupport, torus_valuation

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
        solves = []
        solve = stablerank.exactlp.lp_minimize
        monkeypatch.setattr(stablerank.exactlp, "lp_minimize",
                            lambda program: solves.append(program) or solve(program))
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

    def test_unknown_suite(self, capsys):
        assert run(["verify", "nonsense"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_failure_exit_code(self, capsys, monkeypatch):
        import stablerank.cli as cli_mod
        from stablerank.verify import CheckReport

        def fake(name, config):
            return [CheckReport("fake/check", "mideal 1\n1\n", False, "1", "2")]

        monkeypatch.setattr(cli_mod, "run_suite", fake)
        assert run(["verify", "monomial-lct"]) == 1
        out = capsys.readouterr().out
        assert "FAIL fake/check" in out
        assert "failures: 1" in out

    def test_failure_json_value(self, capsys, monkeypatch):
        import stablerank.cli as cli_mod
        from stablerank.verify import CheckReport

        def fake(name, config):
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
    def no_terminal_size(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the terminal size was asked for")

        monkeypatch.setattr(shutil, "get_terminal_size", refuse)

    def test_no_call_asks_for_the_terminal_size(self, files, capsys, no_terminal_size):
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
