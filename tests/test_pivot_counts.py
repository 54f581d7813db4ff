"""tools/pivot_counts.py on one pass of the benchmark's semistable pool."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_semistable_pool_at_seed_1():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pivot_counts.py"),
         "--workload", "semistable", "--seed", "1", "--json"],
        capture_output=True, text=True, check=True)
    table = json.loads(out.stdout)
    total = table.pop("total")
    assert list(table) == ["form", "uniform_n3_d3", "uniform_n4_d3", "skewed_n4_d3",
                           "skewed_n3_d4", "with_diagonal", "missing_index", "uniform_n4_d4"]
    for key in ("operations", "solves", "pivots"):
        assert total[key] == sum(row[key] for row in table.values())
    # the traced counts of the benchmark: 432 operations, 233 solves (355
    # before forced zeros decided 122 supports that use every index); the
    # missing_index slot is decided with no program
    assert (total["operations"], total["solves"]) == (432, 233)
    assert table["missing_index"] == {"operations": 48, "solves": 0, "pivots": 0}
    # 4,348 in the lexicographic column order, 3,116 by difference class,
    # 1,524 once forced zeros decide 122 of those programs' supports
    assert 0 < total["pivots"] <= 1700
