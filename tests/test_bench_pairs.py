"""Verdicts of tools/bench_pairs.py, on made-up runs (no benchmark is run)."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
]}


def runs(values, failed=0, metric="ops_per_s"):
    return [{"metrics": {metric: {"value": v}}, "failed": failed} for v in values]


def judge(old, new, metric="ops_per_s", old_failed=0, new_failed=0):
    spec = {"end_to_end": [m for m in SPEC["end_to_end"] if m["name"] == metric]}
    return bench_pairs.compare(runs(old, old_failed, metric), runs(new, new_failed, metric),
                               spec)[metric]


PARENT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


class TestCompare:
    def test_small_change_within_bound(self):
        m = judge(PARENT, [v - 5 for v in PARENT])
        assert m["verdict"] == "within bound" and m["wins"] == 0 and m["pairs"] == 10
        assert not m["gain_claimable"]

    def test_worse_beyond_bound_is_a_regression(self):
        m = judge(PARENT, [v * 0.7 for v in PARENT])
        assert m["verdict"] == "regression"
        assert m["relative_change"] == pytest.approx(-0.3)

    def test_lower_is_better(self):
        assert judge(PARENT, [v * 1.3 for v in PARENT], "op_p50_ms")["verdict"] == "regression"
        m = judge(PARENT, [v * 0.7 for v in PARENT], "op_p50_ms")
        assert m["verdict"] == "within bound" and m["gain_claimable"]

    def test_wide_parent_spread_is_unresolved(self):
        # parent quartiles about 60 and 140: wider than 0.2 of the median
        wide = [60, 140, 60, 140, 100, 60, 140, 100, 60, 140]
        assert judge(wide, [90] * 10)["verdict"] == "unresolved"
        assert judge(wide, [50] * 10)["verdict"] == "unresolved"

    def test_every_change_run_better_overrides_the_spread(self):
        wide = [60, 140, 60, 140, 100, 60, 140, 100, 60, 140]
        assert judge(wide, [150] * 10)["verdict"] == "within bound"


class TestGainClaimable:
    def test_nine_of_ten_wins_and_clear_of_the_spread(self):
        new = [v * 1.2 for v in PARENT]
        new[3] = 50
        m = judge(PARENT, new)
        assert m["wins"] == 9 and m["gain_claimable"]

    def test_eight_wins_are_not_enough(self):
        new = [v * 1.2 for v in PARENT]
        new[3] = new[4] = 50
        m = judge(PARENT, new)
        assert m["wins"] == 8 and not m["gain_claimable"]

    def test_medians_within_the_parents_interquartile_range(self):
        # every pair won, but by less than the parent's interquartile range
        parent = [90, 110, 90, 110, 100, 90, 110, 100, 90, 110]
        m = judge(parent, [v + 1 for v in parent])
        assert m["wins"] == 10 and not m["gain_claimable"]

    def test_extra_failures_forbid_a_claim(self):
        new = [v * 1.2 for v in PARENT]
        assert judge(PARENT, new, new_failed=0)["gain_claimable"]
        assert not judge(PARENT, new, new_failed=1)["gain_claimable"]
        assert judge(PARENT, new, old_failed=1, new_failed=1)["gain_claimable"]


def traced_runs(*values):
    return [{"metrics": {"exactlp.solves": {"unit": "count", "value": v},
                         "cli.run_ms": {"unit": "ms", "value": v}}} for v in values]


class TestTraced:
    def test_a_count_moved_on_purpose_repeats(self):
        m = bench_pairs.traced(traced_runs(432, 432, 432), traced_runs(355, 355, 355))
        assert m["exactlp.solves"] == {"unit": "count", "parent": 432, "change": 355,
                                       "repeats": True}
        assert "repeats" not in m["cli.run_ms"]

    @pytest.mark.parametrize("old, new", [((432, 431, 432), (355, 355, 355)),
                                          ((432, 432, 432), (355, 356, 355))])
    def test_a_count_that_varies_on_one_side_does_not_repeat(self, old, new):
        m = bench_pairs.traced(traced_runs(*old), traced_runs(*new))
        assert m["exactlp.solves"]["repeats"] is False


def test_summary_of_a_single_run():
    assert bench_pairs.summary([7.5]) == {"median": 7.5, "q1": 7.5, "q3": 7.5, "runs": [7.5]}


def test_summary_quartiles_are_exclusive():
    s = bench_pairs.summary([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert (s["q1"], s["median"], s["q3"]) == (2.75, 5.5, 8.25)


class TestParsePlan:
    def test_seeds_follow_their_workload(self):
        args, plan = bench_pairs.parse_plan(
            ["--parent", "HEAD~1", "--workload", "rank", "--seed", "1", "--seed", "5",
             "--workload", "cli", "--seed", "1", "--out", "B.json"])
        assert plan == [("rank", [1, 5]), ("cli", [1])]
        assert (args.change, args.pairs, args.traced_pairs) == ("HEAD", 10, 3)

    @pytest.mark.parametrize("argv", [
        ["--seed", "1", "--workload", "rank", "--seed", "5"],
        ["--workload", "rank"],
        [],
        ["--workload", "rank", "--seed", "1", "--pairs", "0"],
        ["--workload", "rank", "--seed", "1", "--pairs", "-2"],
        ["--workload", "rank", "--seed", "1", "--traced-pairs", "-1"],
    ])
    def test_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            bench_pairs.parse_plan(["--parent", "HEAD~1", "--out", "B.json", *argv])
        assert exc.value.code == 2
        # the message names the count at fault, or else the missing workload
        named = [flag for flag in ("--pairs", "--traced-pairs") if flag in argv] or ["--workload"]
        assert all(flag in capsys.readouterr().err for flag in named)

    def test_seconds_is_not_an_option(self, capsys):
        # every run takes BENCHMARK.json's run_seconds
        with pytest.raises(SystemExit) as exc:
            bench_pairs.parse_plan(["--parent", "HEAD~1", "--out", "B.json", "--workload", "rank",
                                    "--seed", "1", "--seconds", "28"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seconds 28" in capsys.readouterr().err
        args, _ = bench_pairs.parse_plan(["--parent", "HEAD~1", "--out", "B.json",
                                          "--workload", "rank", "--seed", "1"])
        assert not hasattr(args, "seconds")


class TestTable:
    def report(self):
        # the same values for both metrics: higher is better for one, lower for the other
        def both(values):
            return [{"metrics": {"ops_per_s": {"value": v}, "op_p50_ms": {"value": v}}, "failed": 0}
                    for v in values]

        wide = [60, 140, 60, 140, 100, 60, 140, 100, 60, 140]
        return {"workloads": {
            "rank": {
                "seed 1": {"end_to_end": bench_pairs.compare(both(PARENT), both([v * 1.3 for v in PARENT]),
                                                             SPEC)},
                "traced seed 1": {"per_layer": {}},
            },
            "cli": {"seed 3": {"end_to_end": bench_pairs.compare(both(wide), both([90] * 10), SPEC)}},
        }}

    def test_one_row_per_workload_and_seed(self):
        assert bench_pairs.table(self.report()).splitlines() == [
            "| workload, seed (pairs) | ops_per_s | op_p50_ms |",
            "|---|---|---|",
            "| `rank` 1 (10) | 100 [99–101] → 130 (10/10) | 100 [99–101] → 130 (0/10), regression |",
            "| `cli` 3 (10) | 100 [60–140] → 90 (4/10), unresolved"
            " | 100 [60–140] → 90 (6/10), unresolved |",
        ]

    def test_from_a_file(self, tmp_path, capsys):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(self.report()), encoding="utf-8")
        assert bench_pairs.main(["--table", str(path)]) == 0
        assert capsys.readouterr().out == bench_pairs.table(self.report()) + "\n"

    def test_traced_layers_follow_the_end_to_end_table(self, tmp_path, capsys):
        report = self.report()
        report["workloads"]["cli"]["traced seed 3"] = {"per_layer": {
            "cli.run_ms": {"unit": "ms", "parent": 51.5586, "change": 20.25},
            "exactlp.solves": {"unit": "count", "parent": 1893, "change": 1893, "repeats": True},
            "exactlp.program_cells": {"unit": "count", "parent": 252320, "change": 252321,
                                      "repeats": False},
            "exactlp.two_phase_s": {"unit": "s", "parent": 0, "change": 0},
            "tensors.expand_s": {"unit": "s", "parent": 0, "change": 0.0021},
        }}
        assert bench_pairs.layer_table(report).splitlines() == [
            "| traced workload, seed | layer | unit | parent → change (medians) |",
            "|---|---|---|---|",
            "| `cli` 3 | cli.run_ms | ms | 51.56 → 20.25 |",
            "| `cli` 3 | exactlp.solves | count | 1,893 → 1,893 |",
            "| `cli` 3 | exactlp.program_cells | count | 252,320 → 252,321, not repeated |",
            "| `cli` 3 | tensors.expand_s | s | 0 → 0.0021 |",
        ]
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        assert bench_pairs.main(["--table", str(path)]) == 0
        assert capsys.readouterr().out == (bench_pairs.table(report) + "\n\n"
                                           + bench_pairs.layer_table(report) + "\n")

    def test_every_committed_record_renders(self):
        records = sorted(_PATH.parents[1].glob("BENCH_*.json"))
        assert records
        for path in records:
            text = bench_pairs.tables(json.loads(path.read_text(encoding="utf-8")))
            assert text.startswith("| workload, seed (pairs) |"), path.name

    def test_a_closed_pipe_ends_without_a_traceback(self, tmp_path):
        # far more rows than a pipe holds, so the script is still writing
        # when the reader (as `| head -n 1` would) closes its end
        rank = self.report()["workloads"]["rank"]
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps({"workloads": {f"w{i}": rank for i in range(3000)}}),
                        encoding="utf-8")
        proc = subprocess.Popen([sys.executable, str(_PATH), "--table", str(path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"| workload, seed (pairs) |")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert "Traceback" not in err.decode()
        assert proc.returncode == 1

    def test_table_runs_nothing(self):
        args, plan = bench_pairs.parse_plan(["--table", "B.json"])
        assert plan == [] and args.table.name == "B.json"

    def test_a_comparison_needs_parent_and_out(self, capsys):
        with pytest.raises(SystemExit) as exc:
            bench_pairs.parse_plan(["--parent", "HEAD~1", "--workload", "rank", "--seed", "1"])
        assert exc.value.code == 2
        assert "--table" in capsys.readouterr().err


class TestSourceSize:
    def test_counts_the_package_modules_as_wc_does(self, tmp_path):
        package = tmp_path / "src" / "stablerank"
        (package / "sub").mkdir(parents=True)
        (package / "a.py").write_text("one\ntwo\nthree\n", encoding="utf-8")
        (package / "b.py").write_text("one\nno newline at the end", encoding="utf-8")
        (package / "notes.txt").write_text("not\ncounted\n", encoding="utf-8")
        (package / "sub" / "c.py").write_text("not\ncounted\n", encoding="utf-8")
        assert bench_pairs.py_lines(package) == 4

    def test_printed_after_the_tables(self):
        report = TestTable().report()
        assert "lines" not in bench_pairs.tables(report)
        report["src_lines"] = {"parent": 2462, "change": 2446}
        assert bench_pairs.tables(report) == (bench_pairs.table(report)
                                              + "\n\nsrc/stablerank lines: 2,462 → 2,446")
        report["tests_lines"] = {"parent": 4695, "change": 4780}
        assert bench_pairs.tables(report) == (
            bench_pairs.table(report)
            + "\n\nsrc/stablerank lines: 2,462 → 2,446; tests lines: 4,695 → 4,780")
