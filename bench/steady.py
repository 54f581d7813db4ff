"""Steadiness check: two sets of runs of the same commit, compared.

    python3 bench/steady.py [--runs 10] [--traced]

Run from the root of a checkout. Each of two sets runs every workload once
per seed (set A uses seeds 1..runs, set B seeds 101..100+runs), with the run
length from BENCHMARK.json, workloads interleaved within a seed. Before each
run a fixed Fraction loop is timed, as a measure of the machine's own noise.
For every workload and end-to-end metric it prints each set's median and
quartiles, the spread (Q3 - Q1) / median, and the shift of set B's median in
the worse direction; a row passes when both spreads and the shift stay
within the metric's bound and the failed share is the same in every run.
`--traced` also runs every workload traced twice on one seed, checks that
the per-layer counts repeat exactly, and reports the tracing overhead
against an untraced run of the same seed. Raw results go to
`.bench_out/steady-<time>.json`. Exits 1 when a row fails.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
COUNTS = ("exactlp.solves", "exactlp.program_cells", "tensors.expanded_tuples",
          "ideals.change_terms", "fileformat.parse_bytes", "verify.checks")


def machine_probe_ms() -> float:
    """Wall time of a fixed Fraction loop; its spread is the machine's noise."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 20000):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return (time.perf_counter() - start) * 1000


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    found = re.search(r"pass ([0-9.]+) s scaled", proc.stderr)
    result["pass_s"] = float(found.group(1)) if found else None
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_set(seeds, workloads, seconds, label):
    results = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            probe = machine_probe_ms()
            result = bench(workload, seed, seconds, 0)
            result["seed"], result["machine_probe_ms"] = seed, probe
            results[workload].append(result)
            print(f"[{label}] {workload} seed {seed}: correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed, probe {probe:.1f} ms",
                  flush=True)
    return results


def compare(sets, spec) -> bool:
    ok_all = True
    print(f"\n{'workload':<11}{'metric':<13}{'set':<4}{'median':>11}{'Q1':>11}{'Q3':>11}"
          f"{'spread':>8}{'shift':>8}{'bound':>7}  ok")
    for workload in sets[0]:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            meds = []
            for label, results in zip("AB", sets):
                values = [r["metrics"][name]["value"] for r in results[workload]]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                meds.append(med)
                shift = ""
                ok = spread <= bound
                if len(meds) == 2:
                    worse = (meds[1] - meds[0]) / meds[0]
                    worse = -worse if metric["better"] == "higher" else worse
                    shift = f"{worse:+.3f}"
                    ok = ok and worse <= bound
                ok_all = ok_all and ok
                print(f"{workload:<11}{name:<13}{label:<4}{med:>11.4g}{q1:>11.4g}{q3:>11.4g}"
                      f"{spread:>8.3f}{shift:>8}{bound:>7}  {'yes' if ok else 'NO'}")
        shares = {Fraction(sum(r["failed"] for r in results[workload]),
                           sum(r["attempted"] for r in results[workload]))
                  for results in sets}
        per_run = {Fraction(r["failed"], r["attempted"]) for results in sets
                   for r in results[workload]}
        same = len(per_run) == 1
        ok_all = ok_all and same
        print(f"{workload:<11}failed share per run: {sorted(map(str, per_run))} "
              f"({'same in every run' if same else 'DIFFERS'}); set totals {sorted(map(str, shares))}")
    probes = [r["machine_probe_ms"] for results in sets for rs in results.values() for r in rs]
    q1, med, q3 = quartiles(probes)
    print(f"\nmachine probe: median {med:.1f} ms, Q1 {q1:.1f}, Q3 {q3:.1f}, "
          f"spread {(q3 - q1) / med:.3f}, range {min(probes):.1f}-{max(probes):.1f} ms")
    return ok_all


def traced_check(workloads, seconds) -> dict:
    """Counts repeat exactly between two traced runs of one seed; overhead is
    the traced pass over the untraced pass of the same seed, both scaled to
    the reference speed."""
    out = {}
    for workload in workloads:
        first, second = bench(workload, 1, seconds, 1), bench(workload, 1, seconds, 1)
        plain = bench(workload, 1, seconds, 0)
        counts = {k: (first["metrics"][k]["value"], second["metrics"][k]["value"]) for k in COUNTS}
        repeat = all(a == b for a, b in counts.values())
        overhead = first["pass_s"] / plain["pass_s"] - 1
        out[workload] = {"counts": counts, "repeat": repeat, "overhead": overhead,
                         "traced": [first, second]}
        print(f"{workload}: counts {'repeat' if repeat else 'DIFFER'} "
              f"{ {k: v[0] for k, v in counts.items()} }; tracing overhead {overhead:+.1%}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sets = [run_set(range(base + 1, base + 1 + args.runs), workloads, seconds, label)
            for label, base in zip("AB", (0, 100))]
    ok = compare(sets, spec)
    record = {"spec": spec, "sets": sets}
    if args.traced:
        record["traced"] = traced_check(workloads, seconds)
        ok = ok and all(t["repeat"] for t in record["traced"].values())
    out = Path(".bench_out") / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"raw results: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
