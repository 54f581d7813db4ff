"""Compare two commits on the benchmark in alternating pairs of runs.

    python3 tools/bench_pairs.py --parent REV [--change REV] \
        --workload rank --seed 1 --seed 5 --workload semistable --seed 1 \
        --pairs 10 --traced-pairs 3 --out BENCH_N.json
    python3 tools/bench_pairs.py --table BENCH_N.json

Run from the root of a checkout. Each revision's committed files are
exported with `git archive` into a temporary directory, so the benchmark
builds what it runs from a clean tree, and the checkout itself is left as it
is. `--change` defaults to HEAD. Each `--seed` applies to the `--workload`
before it.

For every workload and seed the script makes `--pairs` pairs of untraced
`bench/run.py` runs, one on each tree, alternating which tree runs first,
one run at a time. For every workload it also makes `--traced-pairs` pairs
of traced runs (`--trace 1`) at the first seed. Every run is given the
`run_seconds` of BENCHMARK.json as its `--seconds`, which the output file
keeps as `seconds`; `bench/run.py` requires the flag, but its figure does
not change a run. The output file holds, per
workload and seed and per end-to-end metric, every run's value, each side's
median and quartiles, the change's wins (pairs in which it reads better,
ties counting for neither), a verdict against the metric's bound in
BENCHMARK.json, and whether a gain can be claimed: at least nine tenths of
the pairs won, the medians further apart than the parent's interquartile
range, and no more failed operations than the parent's. The verdict is
"within bound" when every change run reads better than every parent run;
otherwise "unresolved" when the parent's interquartile range, relative to
its median, is wider than the bound (the runs spread too widely to tell);
otherwise "regression" when the median got worse by more than the bound,
and "within bound" when it did not. Traced runs give the medians of every
per-layer metric per side and, for every count, whether it repeated: each
side's own traced runs read one value, so a count that a change moves on
purpose still repeats. Every run's attempted, failed and correct figures
are kept too.

At the end of a comparison, and for `--table` on a file it wrote, the script
prints the end-to-end figures as a markdown table: one row per workload and
seed, and per metric the cell "parent median [q1–q3] → change median
(wins/pairs)", followed by the verdict when it is not "within bound". A
second table follows for the traced runs: one row per workload and layer,
with the parent's median → the change's, and "not repeated" after a count
that varied between the runs of one side; a layer that reads 0 on both
sides has no row. A last line gives each side's newline count of
`src/stablerank/*.py` (what `wc -l` totals), which the output file keeps as
`src_lines`, and then that of `tests/*.py`, kept as `tests_lines`, so that
lines moved into the tests read apart from lines removed from the package.
Files written before a key was added have no such figure.
A reader that stops early (`| head`) ends the output with exit status 1 and
no traceback.

Stdlib only. Quartiles are `statistics.quantiles(values, n=4)`, the
exclusive method.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def export(rev: str, into: Path) -> Path:
    """The committed files of `rev`, written under `into`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return into


def py_lines(folder: Path) -> int:
    """The newline count of `folder/*.py`, the total `wc -l` prints."""
    return sum(path.read_bytes().count(b"\n") for path in folder.glob("*.py"))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def run_bench(tree: Path, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(traced))]
    proc = subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2],
            "runs": values}


def compare(parent: list[dict], change: list[dict], spec: dict) -> dict:
    """End-to-end metrics of paired untraced runs, judged by BENCHMARK.json."""
    out = {}
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        old = [run["metrics"][name]["value"] for run in parent]
        new = [run["metrics"][name]["value"] for run in change]
        wins = sum(n > o if higher else n < o for o, n in zip(old, new))
        more_failures = sum(r["failed"] for r in change) > sum(r["failed"] for r in parent)
        a, b = summary(old), summary(new)
        worse = (a["median"] - b["median"]) if higher else (b["median"] - a["median"])
        if (min(new) > max(old)) if higher else (max(new) < min(old)):
            verdict = "within bound"
        elif a["q3"] - a["q1"] > metric["bound"] * a["median"]:
            verdict = "unresolved"
        elif worse > metric["bound"] * a["median"]:
            verdict = "regression"
        else:
            verdict = "within bound"
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": a, "change": b, "wins": wins, "pairs": len(old),
            "relative_change": b["median"] / a["median"] - 1,
            "verdict": verdict,
            "gain_claimable": (wins >= 0.9 * len(old) and -worse > a["q3"] - a["q1"]
                               and not more_failures),
        }
    return out


def traced(parent: list[dict], change: list[dict]) -> dict:
    """Medians of the per-layer metrics per side; a count repeats when each
    side's runs read one value, which may differ between the sides."""
    out = {}
    for name in parent[0]["metrics"]:
        old = [run["metrics"][name]["value"] for run in parent]
        new = [run["metrics"][name]["value"] for run in change]
        entry = {"unit": parent[0]["metrics"][name]["unit"],
                 "parent": statistics.median(old), "change": statistics.median(new)}
        if entry["unit"] == "count":
            entry["repeats"] = len(set(old)) == len(set(new)) == 1
        out[name] = entry
    return out


def outcomes(runs: list[dict]) -> list[dict]:
    return [{k: run[k] for k in ("attempted", "failed", "correct")} for run in runs]


def pairs(trees: dict, workload: str, seed: int, count: int, seconds: float,
          traced_runs: bool) -> dict:
    runs: dict = {"parent": [], "change": []}
    for i in range(count):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_bench(trees[side], workload, seed, seconds, traced_runs))
            result = runs[side][-1]
            print(f"{workload} seed {seed} {'traced ' if traced_runs else ''}pair {i + 1}/{count} "
                  f"{side}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}", file=sys.stderr, flush=True)
    return runs


def table(report: dict) -> str:
    """The end-to-end metrics of a report as a markdown table, one row per
    workload and seed; traced runs have no row."""
    rows = [(workload, key.removeprefix("seed "), part["end_to_end"])
            for workload, entry in report["workloads"].items()
            for key, part in entry.items() if "end_to_end" in part]
    names = list(rows[0][2])
    lines = ["| workload, seed (pairs) | " + " | ".join(names) + " |",
             "|---" * (len(names) + 1) + "|"]
    for workload, seed, metrics in rows:
        cells = []
        for name in names:
            m = metrics[name]
            a, b = m["parent"], m["change"]
            cell = (f"{a['median']:.4g} [{a['q1']:.4g}–{a['q3']:.4g}] → {b['median']:.4g} "
                    f"({m['wins']}/{m['pairs']})")
            cells.append(cell if m["verdict"] == "within bound" else f"{cell}, {m['verdict']}")
        pairs = metrics[names[0]]["pairs"]
        lines.append(f"| `{workload}` {seed} ({pairs}) | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def layer_table(report: dict) -> str:
    """The traced per-layer medians of a report as a markdown table, one row
    per workload and layer, leaving out layers that read 0 on both sides;
    empty when nothing was traced."""
    lines = []
    for workload, entry in report["workloads"].items():
        for key, part in entry.items():
            for name, m in part.get("per_layer", {}).items():
                if m["parent"] == m["change"] == 0:
                    continue
                digits = ",.10g" if m["unit"] == "count" else ".4g"
                cell = f"{m['parent']:{digits}} → {m['change']:{digits}}"
                if m["unit"] == "count" and not m["repeats"]:
                    cell += ", not repeated"
                lines.append(f"| `{workload}` {key.removeprefix('traced seed ')} | {name} "
                             f"| {m['unit']} | {cell} |")
    if not lines:
        return ""
    return "\n".join(["| traced workload, seed | layer | unit | parent → change (medians) |",
                      "|---|---|---|---|", *lines])


def tables(report: dict) -> str:
    """The end-to-end table, then the per-layer table when there is one, then
    the source size of both sides, and that of the tests, when the report
    records it."""
    parts = [table(report), layer_table(report)]
    if "src_lines" in report:
        size = report["src_lines"]
        line = f"src/stablerank lines: {size['parent']:,} → {size['change']:,}"
        if "tests_lines" in report:
            size = report["tests_lines"]
            line += f"; tests lines: {size['parent']:,} → {size['change']:,}"
        parts.append(line)
    return "\n\n".join(filter(None, parts))


def show(text: str) -> None:
    """Print `text`. When the reader has closed the pipe, stdout is pointed
    at os.devnull, so that the flush at exit cannot fail as well, and the
    script exits 1 without a traceback."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


def parse_plan(argv: list[str]) -> tuple[argparse.Namespace, list[tuple[str, list[int]]]]:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", type=Path,
                        help="print the markdown tables of a file this script wrote, and run nothing")
    parser.add_argument("--parent", help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    parser.add_argument("--workload", action="append", default=[], dest="plan",
                        type=lambda w: ("workload", w))
    parser.add_argument("--seed", action="append", dest="plan", type=lambda s: ("seed", int(s)))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced-pairs", type=int, default=3)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.table:
        return args, []
    if not (args.parent and args.out):
        parser.error("give --parent and --out, or --table alone")
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if args.traced_pairs < 0:
        parser.error(f"--traced-pairs must be at least 0, got {args.traced_pairs}")
    plan = []
    for kind, value in args.plan:
        if kind == "workload":
            plan.append((value, []))
        elif plan:
            plan[-1][1].append(value)
        else:
            parser.error("--seed applies to the --workload before it; give the --workload first")
    if not plan or not all(seeds for _, seeds in plan):
        parser.error("give at least one --workload, each followed by at least one --seed")
    return args, plan


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args, plan = parse_plan(argv)
    if args.table:
        show(tables(json.loads(args.table.read_text(encoding="utf-8"))))
        return 0
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    revs = {side: git("rev-parse", rev) for side, rev in
            (("parent", args.parent), ("change", args.change))}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: export(rev, Path(tmp) / side) for side, rev in revs.items()}
        report: dict = {
            "command": " ".join(["python3", "tools/bench_pairs.py", *argv]),
            "parent": revs["parent"], "change": revs["change"],
            "src_trees": {side: git("rev-parse", f"{rev}:src") for side, rev in revs.items()},
            "src_lines": {side: py_lines(tree / "src" / "stablerank")
                          for side, tree in trees.items()},
            "tests_lines": {side: py_lines(tree / "tests") for side, tree in trees.items()},
            "python": sys.version.split()[0], "pairs": args.pairs,
            "traced_pairs": args.traced_pairs, "seconds": seconds, "workloads": {},
        }
        for workload, seeds in plan:
            entry = report["workloads"].setdefault(workload, {})
            for seed in seeds:
                runs = pairs(trees, workload, seed, args.pairs, seconds, False)
                entry[f"seed {seed}"] = {
                    "end_to_end": compare(runs["parent"], runs["change"], spec),
                    "outcomes": {side: outcomes(r) for side, r in runs.items()},
                }
            if args.traced_pairs:
                runs = pairs(trees, workload, seeds[0], args.traced_pairs, seconds, True)
                entry[f"traced seed {seeds[0]}"] = {
                    "per_layer": traced(runs["parent"], runs["change"]),
                    "outcomes": {side: outcomes(r) for side, r in runs.items()},
                }
            # written after every workload, so a long comparison cut short keeps its results
            args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    lines = [tables(report)]
    for workload, entry in report["workloads"].items():
        for key, part in entry.items():
            gains = [name for name, m in part.get("end_to_end", {}).items() if m["gain_claimable"]]
            if gains:
                lines.append(f"gain claimable: {workload} {key}: {', '.join(gains)}")
    show("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
