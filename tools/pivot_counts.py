"""Solves and pivots per slot for one pass of a benchmark pool.

    python3 tools/pivot_counts.py --workload semistable --seed 1
    python3 tools/pivot_counts.py --workload rank --seed 5 --json

The library is imported from the checkout's `src/` and the pool from its
`bench/workloads.py`, which is read as it is. Every operation of the pool
runs once, its timed call alone (the benchmark's answer checks are not
run), while spies count the calls of `exactlp._via_dual` and
`exactlp._primal_two_phase` (one call is one solve) and of `exactlp._pivot`
(one call is one pivot, on either route, phase one and phase two alike).
Nothing is timed: the pool repeats for a seed and the pivot rule is
Bland's, so every count repeats too, and a change to the pivot path shows
as a change of these figures.

The output has one line per slot, in pool order, with its operations,
solves and pivots, then a `total` line; with `--json`, one JSON object
keyed by slot instead, `total` last. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("rank", "semistable")


def counts(workload: str, seed: int) -> dict[str, dict[str, int]]:
    """{slot: {"operations", "solves", "pivots"}} for one pass of the pool,
    slots in pool order, then "total"."""
    for path in (ROOT / "bench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import stablerank
    import workloads
    from stablerank import exactlp

    rounds = getattr(workloads, f"{workload}_rounds")(stablerank, seed)
    table: dict[str, dict[str, int]] = {}
    current: dict[str, int] = {}

    def spy(function, key):
        def counted(*args, **kwargs):
            current[key] += 1
            return function(*args, **kwargs)
        return counted

    names = {"_via_dual": "solves", "_primal_two_phase": "solves", "_pivot": "pivots"}
    originals = {name: getattr(exactlp, name) for name in names}
    try:
        for name, key in names.items():
            setattr(exactlp, name, spy(originals[name], key))
        for ops in rounds:
            for op in ops:
                current = table.setdefault(op.slot, {"operations": 0, "solves": 0, "pivots": 0})
                current["operations"] += 1
                op.call()
    finally:
        for name, function in originals.items():
            setattr(exactlp, name, function)
    table["total"] = {key: sum(row[key] for row in table.values())
                      for key in ("operations", "solves", "pivots")}
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    table = counts(args.workload, args.seed)
    if args.json:
        print(json.dumps(table))
        return 0
    width = max(map(len, table))
    print(f"{'slot':<{width}}  {'operations':>10}  {'solves':>7}  {'pivots':>7}")
    for slot, row in table.items():
        print(f"{slot:<{width}}  {row['operations']:>10,}  {row['solves']:>7,}  {row['pivots']:>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
