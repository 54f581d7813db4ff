import dataclasses
from fractions import Fraction as F

import pytest

from stablerank.errors import InputError
from stablerank.fileformat import parse_input
from stablerank.verify import (
    SUITES,
    CheckReport,
    RandomInstanceConfig,
    check_ideal_props,
    check_lct_leq_rank_anchor,
    check_monomial_lct,
    check_semistable_iff_rank,
    check_symm_equals_multi,
    run_suite,
)

SMALL = RandomInstanceConfig(seed=7, cases=20)


def _assert_instance_parses(report):
    for chunk in report.instance.split("# ---\n"):
        parse_input(chunk)


class TestConfig:
    def test_defaults(self):
        cfg = RandomInstanceConfig(seed=42)
        assert cfg.cases == 200
        assert [f.name for f in dataclasses.fields(cfg)] == ["seed", "cases"]

    def test_validation(self):
        # the wordings of `rationals.integers`
        with pytest.raises(InputError, match="^cases: expected a value >= 1, got 0$"):
            RandomInstanceConfig(seed=1, cases=0)
        with pytest.raises(InputError, match="^seed: expected an integer, got 1.5$"):
            RandomInstanceConfig(seed=1.5)
        with pytest.raises(InputError, match="^seed: expected an integer, got True$"):
            RandomInstanceConfig(True)
        with pytest.raises(InputError, match="^cases: expected a value >= 1, got 0$"):
            RandomInstanceConfig(0, 0)

    def test_integral_fractions_are_stored_as_ints(self):
        cfg = RandomInstanceConfig(F(3), F(5))
        assert (cfg.seed, cfg.cases) == (3, 5)
        assert type(cfg.seed) is int and type(cfg.cases) is int


class TestAnchor:
    def test_lct_leq_rank_anchor(self):
        report = check_lct_leq_rank_anchor()
        assert isinstance(report, CheckReport)
        assert report.passed is True
        assert report.lhs == "1"
        assert report.rhs == "3/2"
        assert "recorded" in report.instance
        _assert_instance_parses(report)


class TestSuitesPass:
    def test_symm_equals_multi(self):
        reports = check_symm_equals_multi(SMALL)
        assert len(reports) == SMALL.cases
        assert all(r.passed for r in reports)
        for r in reports:
            assert r.lhs == r.rhs
            assert r.witness is not None
            _assert_instance_parses(r)

    def test_semistable_iff_rank(self):
        reports = check_semistable_iff_rank(SMALL)
        assert len(reports) == 2 * SMALL.cases
        assert all(r.passed for r in reports)
        kinds = {r.check_name for r in reports}
        assert kinds == {"semistable/tensor", "semistable/symm"}
        for r in reports:
            _assert_instance_parses(r)

    def test_monomial_lct(self):
        reports = check_monomial_lct(SMALL)
        assert len(reports) > SMALL.cases  # fixed anchors plus the random cases
        assert all(r.passed for r in reports)
        cyclic = [r for r in reports if "anchor-cyclic" in r.check_name]
        assert len(cyclic) == 1 and cyclic[0].lhs == "1" and cyclic[0].rhs == "1"
        diagonals = [r for r in reports if "anchor-diagonal" in r.check_name]
        assert diagonals
        random_cases = [r for r in reports if r.check_name == "monomial-lct/newton-agreement"]
        assert len(random_cases) == SMALL.cases
        for r in reports:
            _assert_instance_parses(r)

    def test_ideal_props(self):
        reports = check_ideal_props(SMALL)
        assert len(reports) == 4 * SMALL.cases
        assert all(r.passed for r in reports)
        names = {r.check_name for r in reports}
        assert names == {
            "ideal-props/power",
            "ideal-props/product",
            "ideal-props/monotone",
            "ideal-props/sum",
        }
        for r in reports:
            _assert_instance_parses(r)


class TestDeterminism:
    @pytest.mark.parametrize(
        "check",
        [check_symm_equals_multi, check_semistable_iff_rank, check_monomial_lct,
         check_ideal_props],
    )
    def test_identical_runs(self, check):
        cfg = RandomInstanceConfig(seed=42, cases=10)
        first = check(cfg)
        second = check(cfg)
        assert first == second
        assert [repr(r) for r in first] == [repr(r) for r in second]

    def test_seed_changes_instances(self):
        a = check_symm_equals_multi(RandomInstanceConfig(seed=1, cases=10))
        b = check_symm_equals_multi(RandomInstanceConfig(seed=2, cases=10))
        assert [r.instance for r in a] != [r.instance for r in b]


class TestFailureReporting:
    def test_failures_are_reported_not_thrown(self, monkeypatch):
        import stablerank.verify as verify_mod

        monkeypatch.setattr(
            verify_mod, "newton_threshold", lambda ideal: F(10_000_000)
        )
        reports = check_monomial_lct(RandomInstanceConfig(seed=7, cases=5))
        random_cases = [r for r in reports if r.check_name == "monomial-lct/newton-agreement"]
        assert random_cases and all(not r.passed for r in random_cases)
        for r in random_cases:
            _assert_instance_parses(r)  # reproducer survives the failure


class TestRegistry:
    def test_suite_names(self):
        assert set(SUITES) == {
            "symm-multi",
            "semistable",
            "monomial-lct",
            "ideal-props",
            "lct-bound",
        }

    def test_run_suite_matches_direct_call(self):
        cfg = RandomInstanceConfig(seed=3, cases=5)
        assert run_suite("symm-multi", cfg) == check_symm_equals_multi(cfg)
        assert run_suite("lct-bound", cfg) == [check_lct_leq_rank_anchor()]

    def test_run_all(self):
        cfg = RandomInstanceConfig(seed=3, cases=4)
        combined = run_suite("all", cfg)
        total = sum(len(run_suite(name, cfg)) for name in SUITES)
        assert len(combined) == total

    def test_unknown_suite(self):
        with pytest.raises(InputError):
            run_suite("nonsense", RandomInstanceConfig(seed=1))
