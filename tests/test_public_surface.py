"""The package's public names, pinned: adding or removing one is a change to
this list, made on purpose."""

import stablerank

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
    "RandomInstanceConfig",
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
    "minimize_slope",
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
    assert len(PUBLIC) == 35


def test_every_public_name_is_bound():
    missing = [name for name in stablerank.__all__ if not hasattr(stablerank, name)]
    assert missing == []
