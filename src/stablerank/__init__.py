"""Exact stable ranks for tensor supports, forms, and ideals at the origin.

Everything reduces to small linear programs solved in exact rational
arithmetic, so every returned value is a Fraction (or +infinity) and every
witness is an integer vector that attains it.
"""

from .errors import InputError, ParseError
from .exactlp import (
    LinearProgram,
    LpOutcome,
    SlopeResult,
    lp_feasible,
    lp_minimize,
    minimize_slope,
)
from .fileformat import InputDocument, parse_input, serialize
from .ideals import (
    LinearChange,
    MonomialIdeal,
    PolyIdeal,
    SparsePolynomial,
    apply_linear_change,
    ideal_order,
    ideal_power,
    ideal_product,
    ideal_sum,
    lct_monomial,
    newton_membership,
    newton_threshold,
    t_stable_rank,
    weighted_order,
)
from .tensors import (
    SymmetricSupport,
    TensorSupport,
    combine_one_ps,
    expand_symmetric,
    is_symm_torus_semistable,
    is_torus_semistable,
    symm_torus_rank,
    torus_rank,
    torus_valuation,
)
from .verify import (
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

__version__ = "0.1.0"

__all__ = [
    "InputError",
    "ParseError",
    "LinearProgram",
    "LpOutcome",
    "SlopeResult",
    "lp_feasible",
    "lp_minimize",
    "minimize_slope",
    "InputDocument",
    "parse_input",
    "serialize",
    "LinearChange",
    "MonomialIdeal",
    "PolyIdeal",
    "SparsePolynomial",
    "apply_linear_change",
    "ideal_order",
    "ideal_power",
    "ideal_product",
    "ideal_sum",
    "lct_monomial",
    "newton_membership",
    "newton_threshold",
    "t_stable_rank",
    "weighted_order",
    "SymmetricSupport",
    "TensorSupport",
    "combine_one_ps",
    "expand_symmetric",
    "is_symm_torus_semistable",
    "is_torus_semistable",
    "symm_torus_rank",
    "torus_rank",
    "torus_valuation",
    "SUITES",
    "CheckReport",
    "RandomInstanceConfig",
    "check_ideal_props",
    "check_lct_leq_rank_anchor",
    "check_monomial_lct",
    "check_semistable_iff_rank",
    "check_symm_equals_multi",
    "run_suite",
    "__version__",
]
