import random
from fractions import Fraction as F

import pytest

import oracle
from stablerank import tensors, verify
from stablerank.errors import InputError
from stablerank.fileformat import parse_input
from stablerank.verify import (
    SUITES,
    CheckReport,
    run_suite,
)

SEED, CASES = 7, 20


def _assert_instance_parses(report):
    for chunk in report.instance.split("# ---\n"):
        parse_input(chunk)


class TestConfig:
    """`run_suite`'s seed and case count."""

    def test_defaults(self):
        # the monomial-lct suite reports its five anchors, then one report per case
        assert len(run_suite("monomial-lct", 42)) == 5 + 200

    def test_validation(self):
        # the wordings of `rationals.integers`, checked before the suite's name
        with pytest.raises(InputError, match="^cases: expected a value >= 1, got 0$"):
            run_suite("lct-bound", seed=1, cases=0)
        with pytest.raises(InputError, match="^seed: expected an integer, got 1.5$"):
            run_suite("lct-bound", seed=1.5)
        with pytest.raises(InputError, match="^seed: expected an integer, got True$"):
            run_suite("lct-bound", True)
        with pytest.raises(InputError, match="^cases: expected a value >= 1, got 0$"):
            run_suite("nonsense", 0, 0)

    def test_integral_fractions_are_stored_as_ints(self):
        assert run_suite("symm-multi", F(3), F(5)) == run_suite("symm-multi", 3, 5)


class TestAnchor:
    def test_lct_leq_rank_anchor(self):
        (report,) = run_suite("lct-bound", SEED, CASES)
        assert isinstance(report, CheckReport)
        assert report.passed is True
        # the rank on the left, as every `_check` report has it
        assert report.lhs == "3/2"
        assert report.rhs == "1"
        assert "recorded" in report.instance
        _assert_instance_parses(report)


class TestSuitesPass:
    def test_symm_equals_multi(self):
        reports = run_suite("symm-multi", SEED, CASES)
        assert len(reports) == CASES
        assert all(r.passed for r in reports)
        for r in reports:
            assert r.lhs == r.rhs
            assert r.witness is not None
            _assert_instance_parses(r)

    def test_semistable_iff_rank(self):
        reports = run_suite("semistable", SEED, CASES)
        assert len(reports) == 3 * CASES
        assert all(r.passed for r in reports)
        kinds = {r.check_name for r in reports}
        assert kinds == {"semistable/tensor", "semistable/symm", "semistable/symm-expanded"}
        for r in reports:
            _assert_instance_parses(r)
        # each case's form is checked twice: against its rank, then against
        # its expanded tensor support, whose verdict must be the form's
        forms = [r for r in reports if r.check_name == "semistable/symm"]
        expanded = [r for r in reports if r.check_name == "semistable/symm-expanded"]
        assert [r.lhs for r in forms] == [r.lhs for r in expanded]
        assert [r.rhs.replace("expanded-", "") for r in expanded] == [r.lhs for r in expanded]
        assert {r.lhs for r in expanded} == {"semistable:0", "semistable:1"}

    def test_semistable_draws_reach_the_matching_search(self, monkeypatch):
        # The suite's tensors are small (n <= 3, at most 5 tuples), and the
        # search runs before any kill, so most draws reach it: a fault in
        # the search then shows in the comparison with rank = n.
        calls = oracle.calls(monkeypatch, (tensors, "_matching"))
        rng = random.Random(1)
        for _ in range(4000):
            tensors.is_torus_semistable(verify._random_tensor(rng))
        assert len(calls) >= 2000

    def test_monomial_lct(self):
        reports = run_suite("monomial-lct", SEED, CASES)
        assert len(reports) > CASES  # fixed anchors plus the random cases
        assert all(r.passed for r in reports)
        cyclic = [r for r in reports if "anchor-cyclic" in r.check_name]
        assert len(cyclic) == 1 and cyclic[0].lhs == "1" and cyclic[0].rhs == "1"
        diagonals = [r for r in reports if "anchor-diagonal" in r.check_name]
        assert diagonals
        random_cases = [r for r in reports if r.check_name == "monomial-lct/newton-agreement"]
        assert len(random_cases) == CASES
        for r in reports:
            _assert_instance_parses(r)

    def test_ideal_props(self):
        reports = run_suite("ideal-props", SEED, CASES)
        assert len(reports) == 4 * CASES
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
    @pytest.mark.parametrize("suite", ["symm-multi", "semistable", "monomial-lct", "ideal-props"])
    def test_identical_runs(self, suite):
        first = run_suite(suite, 42, 10)
        second = run_suite(suite, 42, 10)
        assert first == second
        assert [repr(r) for r in first] == [repr(r) for r in second]

    def test_seed_changes_instances(self):
        a = run_suite("symm-multi", 1, 10)
        b = run_suite("symm-multi", 2, 10)
        assert [r.instance for r in a] != [r.instance for r in b]


class TestFailureReporting:
    def test_failures_are_reported_not_thrown(self, monkeypatch):
        import stablerank.verify as verify_mod

        monkeypatch.setattr(
            verify_mod, "newton_threshold", lambda ideal: F(10_000_000)
        )
        reports = run_suite("monomial-lct", 7, 5)
        random_cases = [r for r in reports if r.check_name == "monomial-lct/newton-agreement"]
        assert random_cases and all(not r.passed for r in random_cases)
        for r in random_cases:
            _assert_instance_parses(r)  # reproducer survives the failure

    def test_an_expansion_that_disagrees_fails_its_report(self, monkeypatch):
        # one tuple on the diagonal leaves every other index unused, so each
        # expansion of a form in two or more variables reads unstable: every
        # semistable form of them fails its symm-expanded report, and only
        # those reports fail
        monkeypatch.setattr(verify, "expand_symmetric", lambda form: tensors.TensorSupport(
            form.degree, form.nvars, [(1,) * form.degree]))
        reports = run_suite("semistable", SEED, CASES)
        failed = [r for r in reports if not r.passed]
        assert failed and all(r.check_name == "semistable/symm-expanded" for r in failed)
        assert {(r.lhs, r.rhs) for r in failed} == {("semistable:1", "expanded-semistable:0")}


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
        assert run_suite("symm-multi", 3, 5) == SUITES["symm-multi"](3, 5)
        # the anchor depends on neither the seed nor the case count
        assert run_suite("lct-bound", 3, 5) == SUITES["lct-bound"](0, 200)

    def test_run_all(self):
        # `all` runs every suite in `SUITES` order, which `verify all` relies on
        assert run_suite("all", 3, 4) == [r for name in SUITES for r in run_suite(name, 3, 4)]

    def test_unknown_suite(self):
        with pytest.raises(InputError):
            run_suite("nonsense", 1)
