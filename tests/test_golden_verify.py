"""Golden reports of the randomized cross-checks: every field, bit for bit.

`stablerank verify --json` prints per-suite counts only, so its output cannot
show a changed value or witness. `golden_verify.json` pins the name, both
sides, the witness, the verdict and the reproducer of every report of
`run_suite("all", seed, CASES)` for each seed in `SEEDS`, one report per line
in run order. At the full size that `verify all` runs by default, 200 cases,
each seed's reports are pinned by the sha256 of one compact JSON list instead
(`FULL_SIZE_DIGESTS`).

The file was written before the generator's size bounds became module
constants; regenerating it is only right when a report is meant to change:

    PYTHONPATH=src python tests/test_golden_verify.py

The same command prints the `FULL_SIZE_DIGESTS` of the regenerated reports,
ready to paste over the pinned ones, so one run renews every pin.
"""

import hashlib
import json

import oracle
from stablerank.verify import run_suite

GOLDEN = "golden_verify.json"
SEEDS = (0, 1)
CASES = 40
# seed -> sha256 of `digest`'s text of run_suite("all", seed, 200), 1,606 reports
FULL_SIZE_DIGESTS = {
    0: "eba188f8388c2c609652a7aa6c6fed9fbfe80279b0f86b6cd60e7ac12d1f3fd5",
    1: "4dddcad338958689758ad5b45e03fd1f14cd8a3a17b821495077954227f5e91c",
}


def reports() -> list[dict]:
    """Every report of both runs, in order, as JSON-ready records."""
    return [
        {
            "seed": seed,
            "check_name": r.check_name,
            "lhs": r.lhs,
            "rhs": r.rhs,
            "witness": None if r.witness is None else list(r.witness),
            "passed": r.passed,
            "instance": r.instance,
        }
        for seed in SEEDS
        for r in run_suite("all", seed, CASES)
    ]


def test_golden_covers_every_suite_and_seed():
    golden = oracle.golden(GOLDEN)
    assert {g["seed"] for g in golden} == set(SEEDS)
    suites = {g["check_name"].split("/")[0] for g in golden}
    assert suites == {"symm-multi", "semistable", "monomial-lct", "ideal-props", "lct-bound"}
    assert all(g["passed"] for g in golden)


def test_golden_reports():
    oracle.assert_golden(GOLDEN, reports())


def digest(seed: int, cases: int) -> tuple[int, str]:
    """(report count, sha256 of every report's fields as one compact JSON list)."""
    runs = run_suite("all", seed, cases)
    text = json.dumps(
        [[r.check_name, r.instance, r.passed, r.lhs, r.rhs,
          None if r.witness is None else list(r.witness)] for r in runs],
        separators=(",", ":"),
    )
    return len(runs), hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_full_size_reports_digest():
    for seed, expected in FULL_SIZE_DIGESTS.items():
        assert digest(seed, 200) == (1606, expected)


if __name__ == "__main__":
    oracle.write_golden(GOLDEN, reports())
    print("FULL_SIZE_DIGESTS = {")
    for seed in FULL_SIZE_DIGESTS:
        print(f'    {seed}: "{digest(seed, 200)[1]}",')
    print("}")
