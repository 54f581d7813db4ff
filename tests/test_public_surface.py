"""The package's public names, pinned: adding or removing one is a change to
this list, made on purpose."""

import stablerank
from stablerank.rationals import Record

PUBLIC = [
    "CheckReport",
    "InputDocument",
    "InputError",
    "LinearChange",
    "LinearProgram",
    "LpOutcome",
    "MonomialIdeal",
    "ParseError",
    "PolyIdeal",
    "SUITES",
    "SlopeResult",
    "SparsePolynomial",
    "SymmetricSupport",
    "TensorSupport",
    "__version__",
    "apply_linear_change",
    "expand_symmetric",
    "ideal_order",
    "ideal_power",
    "ideal_product",
    "ideal_sum",
    "is_symm_torus_semistable",
    "is_torus_semistable",
    "lct_monomial",
    "lp_minimize",
    "newton_threshold",
    "parse_input",
    "run_suite",
    "serialize",
    "symm_torus_rank",
    "t_stable_rank",
    "torus_rank",
    "torus_valuation",
]


def test_all_is_the_pinned_list():
    assert sorted(stablerank.__all__) == PUBLIC
    assert len(PUBLIC) == 33


def test_every_public_name_is_bound():
    missing = [name for name in stablerank.__all__ if not hasattr(stablerank, name)]
    assert missing == []


def test_every_public_class_but_the_errors_and_reports_is_a_record():
    classes = {name for name in stablerank.__all__
               if isinstance(getattr(stablerank, name), type)}
    records = {name for name in classes if issubclass(getattr(stablerank, name), Record)}
    assert classes - records == {"InputError", "ParseError", "CheckReport"}
    assert len(records) == 10
