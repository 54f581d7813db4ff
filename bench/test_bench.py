"""Tests of the benchmark itself: `python3 -m pytest bench` from the repo root.

The end-to-end cases use `--smoke` (one set-up, one round per workload).
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def work_dir():
    """A scratch directory inside the checkout, removed afterwards."""
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=ROOT / ".bench_out"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["rank", "semistable", "cli"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    result = last_json(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", trace, "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    # one round: the x1^1200 --change call is the only failure, in cli only
    if workload == "cli":
        assert (result["attempted"], result["failed"]) == (17, 1)
    else:
        assert result["failed"] == 0


def test_traced_counts_repeat_for_a_seed():
    runs = [last_json(bench("--workload", "cli", "--seed", "5", "--seconds", "1",
                            "--trace", "1", "--smoke"))["metrics"] for _ in range(2)]
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] == "count"} for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["exactlp.solves"] > 0 and counts[0]["verify.checks"] > 0
    assert counts[0]["fileformat.parse_bytes"] > 0


def test_all_prints_fifteen_end_to_end_values():
    proc = bench("--workload", "all", "--seed", "2", "--seconds", "1", "--trace", "0", "--smoke")
    result = last_json(proc)
    assert len(result["metrics"]) == 15
    assert result["failed"] == 1 and result["correct"] is True


@pytest.mark.parametrize("slot, wrong", [("verify", True), ("deep_change", False)])
def test_only_the_known_fault_may_fail(slot, wrong):
    # a verify call that finds failures exits 1: a wrong answer, not a failure to keep
    finished = workloads.Finished(1, "suite all: 10 checks, 1 failed\nfailures: 1\n", "")
    op = workloads.cli_op(None, lambda args: finished, slot, ["verify", "all"], {}, {}, {})
    m = run.Measurement(lambda: 0.005, 0.005)
    m.run_round([op])
    assert m.failed == 1
    assert bool(m.errors) == wrong


def test_an_exception_in_an_operation_is_a_wrong_answer():
    def solve():
        raise RuntimeError("slope program should be solvable")
    m = run.Measurement(lambda: 0.005, 0.005)
    m.run_round([workloads.Op("lct", solve, lambda result: None)])
    assert m.failed == 1
    assert m.errors == ["lct: failed: RuntimeError: slope program should be solvable"]


def test_without_the_library_it_fails_without_a_result(work_dir):
    shutil.copytree(BENCH, work_dir / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", work_dir)
    proc = bench("--workload", "rank", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=work_dir)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_same_seed_same_inputs(work_dir):
    a = workloads.write_cli_files(_library(), 9, str(work_dir))[0]
    b = workloads.write_cli_files(_library(), 9, str(work_dir))[0]
    c = workloads.write_cli_files(_library(), 10, str(work_dir))[0]
    assert a == b and a != c
    assert [slot for slot, _ in a[0]] == [slot for slot, _ in c[0]]


def _library():
    import stablerank
    return stablerank


def test_checks_reject_a_wrong_witness_and_value():
    sb = _library()
    w = sb.TensorSupport(3, 2, [(2, 1, 1), (1, 2, 1), (1, 1, 2)])
    good = sb.torus_rank(w)
    checks.check_tensor_rank(w, None, good)
    with pytest.raises(checks.CheckFailed):
        checks.check_tensor_rank(w, None, sb.SlopeResult(Fraction(1), good.witness))
    with pytest.raises(checks.CheckFailed):
        checks.check_tensor_rank(w, None, sb.SlopeResult(good.value, (1, 1, 0, 0, 0, 0)))
    with pytest.raises(checks.CheckFailed):
        checks.check_tensor_rank(w, None, sb.SlopeResult(math.inf, good.witness))


def test_parse_output_plain_and_json():
    plain = "value: 3/2\nwitness: 1 0 / 1 0 / 1 0\nnote: x\n"
    assert workloads.parse_output(plain, False) == ("3/2", [[1, 0], [1, 0], [1, 0]])
    assert workloads.parse_output("value: 2\nwitness: 0 1 1\n", False) == ("2", [0, 1, 1])
    assert workloads.parse_output("suite a: 3 checks, 0 failed\nfailures: 0\n", False) == ("0", [])
    data = '{"value": "1", "witness": [], "notes": []}'
    assert workloads.parse_output(data, True) == ("1", [])


def test_self_time_and_routes():
    spans = [
        ["tensors.torus_rank", 0.0, 10.0, -1, {}],
        ["exactlp.minimize_slope", 1.0, 9.0, 0, {}],
        ["exactlp.lp_minimize", 2.0, 8.0, 1, {"route": "dual", "cells": 12}],
        ["tensors.is_torus_semistable", 10.0, 14.0, -1, {}],
        ["exactlp.lp_feasible", 11.0, 14.0, 3, {"route": "two_phase", "cells": 5}],
    ]
    assert tracing.self_times(spans) == [2.0, 2.0, 6.0, 1.0, 3.0]
    m = tracing.layer_metrics(spans)
    assert m["tensors.self_s"] == 3.0
    assert m["exactlp.dual_s"] == 8.0 and m["exactlp.two_phase_s"] == 3.0
    assert m["exactlp.solves"] == 2 and m["exactlp.program_cells"] == 17
