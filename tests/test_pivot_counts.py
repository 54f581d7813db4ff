"""tools/pivot_counts.py on one pass of the benchmark's rank and semistable
pools."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def pool_counts(workload: str, seed: int = 1) -> tuple[dict, dict]:
    """(per-slot counts, total) of one pass of the pool at the seed."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pivot_counts.py"),
         "--workload", workload, "--seed", str(seed), "--json"],
        capture_output=True, text=True, check=True)
    table = json.loads(out.stdout)
    total = table.pop("total")
    for key in ("operations", "solves", "pivots", "nodes"):
        assert total[key] == sum(row[key] for row in table.values())
    return table, total


def test_rank_pool_at_seed_1():
    table, total = pool_counts("rank")
    assert list(table) == ["tensor_uniform4", "tensor_uniform5", "tensor_skewed",
                           "tensor_alpha", "symm_compare", "ideal_change", "lct", "closed_w",
                           "closed_diagonal", "closed_form", "closed_diag_ideal",
                           "closed_principal"]
    # every rank program's rows and records are built by `_support_rows` and
    # `rationals._record`; a change there that moved a pivot shows here
    assert (total["operations"], total["solves"], total["pivots"]) == (576, 648, 15252)
    # no rank operation runs the matching search
    assert total["nodes"] == 0


def test_semistable_pool_at_seed_1():
    table, total = pool_counts("semistable")
    assert list(table) == ["form", "uniform_n3_d3", "uniform_n4_d3", "skewed_n4_d3",
                           "skewed_n3_d4", "with_diagonal", "missing_index", "uniform_n4_d4"]
    # the traced counts of the benchmark: 432 operations, 103 solves (355
    # before forced zeros decided 122 supports that use every index, 233
    # before the matching search decided 130 more); the missing_index slot
    # is decided with no program
    assert (total["operations"], total["solves"]) == (432, 103)
    assert table["missing_index"] == {"operations": 48, "solves": 0, "pivots": 0, "nodes": 0}
    # 4,348 in the lexicographic column order, 3,116 by difference class,
    # 1,524 once forced zeros decide 122 of those programs' supports, 573
    # once the matching search decides 130 more, 536 once the 14 programs
    # left hold only the tuples the kills leave live
    assert 0 < total["pivots"] <= 536
    # the matching search's choices, one `tensors._choose` call each: a
    # change to its order or its budget moves these
    assert total["nodes"] == 895
    assert pool_counts("semistable", 5)[1]["nodes"] == 894
