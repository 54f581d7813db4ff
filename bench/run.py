"""Benchmark for stablerank: three seeded workloads, end-to-end and per layer.

    python3 bench/run.py --workload rank|semistable|cli|all --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the library is imported from `src/`. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones (throughput, per-operation latency, set-up time, peak
memory), measured with no wrappers installed. With `--trace 1` the run wraps
the library's public functions and reports the per-layer metrics. Every run
makes exactly one pass over the workload's pool of rounds, so every run
attempts the same operations and every count repeats for a given seed; at
the reference speed a pass takes about the `run_seconds` of BENCHMARK.json,
and `--seconds` does not change it. Times are scaled to the reference speed
(see README.md). `--workload all` runs the three workloads one after the
other, each in its own process, and prints a table. `--smoke` makes one
set-up and one round, for the benchmark's own tests. Work files go to
`.bench_out/` and are removed at exit; traced in-process runs leave their
spans there.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("rank", "semistable", "cli")
SETUP_REPEATS = 9
START_PROBES = 11
# Times are scaled to a machine on which each workload's speed gauge reads
# REFERENCE_S (this machine's usual figure). The machine's speed drifts by up
# to 2x over tens of seconds; a gauge doing the same kind of work as the
# operations, run before every GAUGE_EVERY-th one of them, tracks that drift.
# In-process operations use `reference_loop_s`; command-line calls use a child
# process (`workloads.Cli.probe_s`), because start-up and import do not follow
# a loop timed in the parent. That child costs as much as a call, so it runs
# before every second call only. Both gauges read in two modes about 1.7x
# apart (as if the two vCPUs ran at different speeds), so the scale takes the mean
# of the readings around an operation: their median jumps between the modes.
REFERENCE_S = {"rank": 0.005, "semistable": 0.005, "cli": 0.090}
GAUGE_EVERY = {"rank": 1, "semistable": 1, "cli": 2}
LOOP_REFERENCE_S = REFERENCE_S["rank"]
SPEED_WINDOW = 9

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return "s" if name.endswith("_s") else "count"


def fresh_import(src: Path, pycache: Path):
    """Compile the package's bytecode into the benchmark's own cache and import
    it from there, the same way whatever the environment says about bytecode.
    Only the package's part of the cache is removed first; the standard
    library's bytecode, compiled once before the timed set-ups, stays."""
    shutil.rmtree(pycache / str(src / "stablerank").lstrip(os.sep), ignore_errors=True)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    sys.pycache_prefix = str(pycache)
    sys.dont_write_bytecode = True
    compileall.compile_dir(str(src / "stablerank"), quiet=1, force=True)
    for name in [m for m in sys.modules if m == "stablerank" or m.startswith("stablerank.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("stablerank")


def set_up(workload: str, seed: int, src: Path, work: Path, traced: bool):
    """Everything before the first timed operation: compile the package's
    bytecode, import, generate, build (and for cli, write the files).
    Returns the rounds of operations, a function giving the peak memory in
    KiB of the process, or processes, that run them, and the speed gauge."""
    sb = fresh_import(src, work / "pycache")
    if workload == "rank":
        return workloads.rank_rounds(sb, seed), _own_peak_kb, reference_loop_s
    if workload == "semistable":
        return workloads.semistable_rounds(sb, seed), _own_peak_kb, reference_loop_s
    files = work / "files"
    shutil.rmtree(files, ignore_errors=True)
    files.mkdir(parents=True)
    lines, paths, objects = workloads.write_cli_files(sb, seed, str(files))
    if traced:
        (work / "spans").mkdir(exist_ok=True)
    cli = workloads.Cli(str(src), str(work), shim=str(BENCH_DIR / "cli_shim.py") if traced else None)
    cache: dict = {}
    rounds = [[workloads.cli_op(sb, cli, slot, argv, paths, objects, cache)
               for slot, argv in line] for line in lines]
    return rounds, lambda: cli.peak_kb, cli.probe_s


def _own_peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def reference_loop_s() -> float:
    """Wall time of a fixed loop of Fraction arithmetic, the same kind of work
    as the in-process operations; it gauges the machine's current speed."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - start


class Measurement:
    """Per-operation wall times, failures and wrong answers of one run. The
    speed gauge runs before every `every`-th operation, outside the timed
    region, so that the times can be scaled to the reference speed."""

    def __init__(self, gauge, reference_s: float, every: int = 1):
        self.gauge, self.reference_s, self.every = gauge, reference_s, every
        self.starts: list[float] = []
        self.times: list[float] = []
        self.ok: list[bool] = []
        self.probes: list[float] = []
        self.timed = 0.0
        self.errors: list[str] = []
        self.failures: dict[str, str] = {}

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def run_round(self, ops, tracer=None):
        for op in ops:
            if self.attempted % self.every == 0:
                self.probes.append(self.gauge())
            start = time.perf_counter()
            try:
                result = op.call()
                failed = op.failed(result)
            except Exception as exc:  # a failed operation, reported below
                result, failed = exc, True
            elapsed = time.perf_counter() - start
            self.starts.append(start)
            self.timed += elapsed
            self.times.append(elapsed)
            self.ok.append(not failed)
            if failed:
                text = _failure_text(result)
                self.failures.setdefault(op.slot, text)
                if not op.expected_failure:
                    self.errors.append(f"{op.slot}: failed: {text}")
                continue
            if tracer is not None:
                tracer.enabled = False
            try:
                op.check(result)
            except Exception as exc:  # any exception in a check is a wrong answer
                self.errors.append(f"{op.slot}: {type(exc).__name__}: {exc}")
            finally:
                if tracer is not None:
                    tracer.enabled = True

    def scaled_times(self) -> list[float]:
        """Each time times the reference reading over the mean of the nine
        gauge readings around the one taken before it."""
        half = SPEED_WINDOW // 2
        scaled = []
        for i, t in enumerate(self.times):
            j = i // self.every
            scaled.append(t * self.reference_s
                          / statistics.fmean(self.probes[max(0, j - half):j + half + 1]))
        return scaled

    def scale_at(self):
        """The scale of the operation running at a given perf_counter time
        (the clock is system-wide, so child processes' spans map too)."""
        factors = [s / t for s, t in zip(self.scaled_times(), self.times)]
        return lambda moment: factors[max(0, bisect.bisect_right(self.starts, moment) - 1)]


def end_to_end(times, ok, setup_s: float, peak_kb: int) -> dict:
    # a failed operation counts as infinitely slow in the percentiles
    latencies = sorted(t if good else math.inf for t, good in zip(times, ok))
    return {
        "ops_per_s": ok.count(True) / sum(times),
        "op_p50_ms": nearest_rank(latencies, 0.5) * 1000,
        "op_p90_ms": nearest_rank(latencies, 0.9) * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024,
    }


def _failure_text(result) -> str:
    if isinstance(result, BaseException):
        return f"{type(result).__name__}: {result}"
    tail = (result.stderr or "").strip().splitlines()[-1:] or [""]
    return f"exit {result.returncode}: {tail[0]}"


def start_probe_ms() -> float:
    """Median wall time of a bare `python -S -c pass`, the interpreter alone."""
    times = []
    for _ in range(START_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def cli_layer_metrics(spans_dir: Path, scale) -> dict:
    totals: dict = {}
    imports, runs = [], []
    for path in sorted(spans_dir.glob("*.json")):
        spans = json.loads(path.read_text(encoding="utf-8"))
        for key, value in tracing.layer_metrics(spans, scale).items():
            totals[key] = totals.get(key, 0) + value
        for name, start, end, _, _ in spans:
            if name == "cli.import":
                imports.append((end - start) * scale(start) * 1000)
            elif name == "cli.run":
                runs.append((end - start) * scale(start) * 1000)
    totals["cli.import_ms"] = statistics.median(imports) if imports else 0.0
    totals["cli.run_ms"] = statistics.median(runs) if runs else 0.0
    return totals


def run_workload(workload, seed, traced, smoke, src: Path, work: Path):
    reference_s = REFERENCE_S[workload]
    # untimed: the standard library's bytecode in the prefix (for cli, every
    # module the children import) and the modules the package imports
    fresh_import(src, work / "pycache")
    if workload == "cli":
        workloads.Cli(str(src), str(work)).compile_bytecode()
    setups = []

    def timed_set_up():
        # set-up runs in this process, so the in-process gauge, read five
        # times before and five times after it, scales it
        readings = [reference_loop_s() for _ in range(5)]
        start = time.perf_counter()
        built = set_up(workload, seed, src, work, traced)
        elapsed = time.perf_counter() - start
        readings += [reference_loop_s() for _ in range(5)]
        setups.append(elapsed * LOOP_REFERENCE_S / statistics.fmean(readings))
        return built

    rounds, peak_kb, gauge = timed_set_up()
    # The other set-ups, whose results are dropped, are spread over the pass:
    # back to back they all met the machine at one speed, and the median
    # moved with it from run to run. A traced run reports no set-up time and
    # keeps its wrappers on the first import.
    repeat_before = set()
    if smoke:
        rounds = rounds[:1]
    elif not traced:
        repeat_before = {len(rounds) * k // SETUP_REPEATS for k in range(1, SETUP_REPEATS)}

    tracer = None
    if traced and workload != "cli":
        tracer = tracing.Tracer()
        tracer.install()
    m = Measurement(gauge, reference_s, GAUGE_EVERY[workload])
    for index, ops in enumerate(rounds):
        if index in repeat_before:
            timed_set_up()
        m.run_round(ops, tracer)
    scaled = m.scaled_times()

    print(f"{workload} seed {seed}: {m.attempted} operations, pass {sum(scaled):.3f} s scaled "
          f"({m.timed:.3f} s unscaled), {m.failed} failed; set-ups "
          f"{' '.join(f'{x:.4f}' for x in setups)} s scaled", file=sys.stderr)
    for slot, text in sorted(m.failures.items()):
        print(f"  failed {slot}: {text}", file=sys.stderr)
    for text in m.errors[:10]:
        print(f"  WRONG {text}", file=sys.stderr)

    if traced:
        if tracer is not None:
            tracer.dump(str(work.parent / f"spans-{workload}-{seed}.json"))
            values = tracing.layer_metrics(tracer.spans, m.scale_at())
            values.update({"cli.import_ms": 0.0, "cli.run_ms": 0.0})
        else:
            values = cli_layer_metrics(work / "spans", m.scale_at())
        # the bare interpreter start is the machine's own floor, unscaled
        values["cli.start_ms"] = start_probe_ms()
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(values.items())}
    else:
        values = end_to_end(scaled, m.ok, statistics.median(setups), peak_kb())
        unscaled = end_to_end(m.times, m.ok, 0, 0)
        print(f"unscaled: ops_per_s {unscaled['ops_per_s']:.4g}, op_p50_ms "
              f"{unscaled['op_p50_ms']:.4g}, op_p90_ms {unscaled['op_p90_ms']:.4g}; "
              f"gauge median {statistics.median(m.probes) * 1000:.3f} ms "
              f"(scaled to {reference_s * 1000:.1f} ms)")
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {"correct": not m.errors, "attempted": m.attempted, "failed": m.failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory is the workload's own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {str(result['correct']).lower()}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<26} {metric['value']:>14.6g} {metric['unit']}")
            combined["metrics"][f"{workload}.{name}"] = metric
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal run length; a run is always one pass over the pool")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up and one round: a quick self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "stablerank" / "__init__.py").is_file():
        print(f"error: no stablerank package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        work = root / ".bench_out" / f"work-{args.workload}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            result = run_workload(args.workload, args.seed, bool(args.trace), args.smoke,
                                  src, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
