"""Randomized cross-checks between computation routes.

Each check draws random instances from a seeded generator, computes one
quantity two different ways (or tests a proved inequality), and returns a
CheckReport per comparison. Failures are reported, never raised: every
report carries a serialized reproducer in the input file format, so a
failing case can be replayed through the command line. Runs with the same
RandomInstanceConfig produce identical report lists.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .fileformat import InputDocument, serialize
from .ideals import (
    MonomialIdeal,
    PolyIdeal,
    SparsePolynomial,
    ideal_power,
    ideal_product,
    ideal_sum,
    newton_threshold,
    t_stable_rank,
)
from .rationals import fmt
from .tensors import (
    SymmetricSupport,
    TensorSupport,
    expand_symmetric,
    is_symm_torus_semistable,
    is_torus_semistable,
    symm_torus_rank,
    torus_rank,
)

__all__ = [
    "CheckReport",
    "RandomInstanceConfig",
    "check_symm_equals_multi",
    "check_semistable_iff_rank",
    "check_monomial_lct",
    "check_ideal_props",
    "check_lct_leq_rank_anchor",
    "SUITES",
    "run_suite",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one comparison on one instance.

    `instance` is input-file text (possibly several documents separated by
    '# ---' lines); parsing it back reproduces the exact objects checked.
    """

    check_name: str
    instance: str
    passed: bool
    lhs: str
    rhs: str
    witness: tuple | None = None


# Size bounds of the random instances: variables or dimensions, degree or
# order, support size and monomial exponent.
_MAX_N = 3
_MAX_D = 4
_MAX_SUPPORT = 5
_MAX_EXPONENT = 6


@dataclass(frozen=True)
class RandomInstanceConfig:
    """Seed and case count for the random instance generators."""

    seed: int
    cases: int = 200

    def __post_init__(self):
        for name in ("seed", "cases"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InputError(f"{name} must be an integer, got {value!r}")
        if self.cases < 1:
            raise InputError(f"cases must be >= 1, got {self.cases}")


_KIND_OF = {
    TensorSupport: "tensor",
    SymmetricSupport: "symm",
    MonomialIdeal: "mideal",
    PolyIdeal: "pideal",
}


def _doc_text(obj, *comments: str) -> str:
    text = serialize(InputDocument(_KIND_OF[type(obj)], obj))
    for c in comments:
        text += f"# {c}\n"
    return text


def _join(*texts: str) -> str:
    return "# ---\n".join(texts)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _random_symmetric(rng) -> SymmetricSupport:
    n = rng.randint(1, _MAX_N)
    d = rng.randint(1, _MAX_D)
    pool = sorted(_compositions(d, n))
    k = rng.randint(1, min(_MAX_SUPPORT, len(pool)))
    return SymmetricSupport(d, n, rng.sample(pool, k))


def _random_tensor(rng) -> TensorSupport:
    n = rng.randint(1, _MAX_N)
    d = rng.randint(1, _MAX_D)
    pool = [
        tuple(1 + (idx // n**i) % n for i in range(d)) for idx in range(n**d)
    ]
    pool = sorted(set(pool))
    k = rng.randint(1, min(_MAX_SUPPORT, len(pool)))
    return TensorSupport(d, n, rng.sample(pool, k))


def _random_monomial_ideal(rng, nvars: int | None = None) -> MonomialIdeal:
    n = nvars if nvars is not None else rng.randint(1, _MAX_N)
    gens = []
    for _ in range(rng.randint(1, _MAX_SUPPORT)):
        while True:
            g = tuple(rng.randint(0, _MAX_EXPONENT) for _ in range(n))
            if any(g):  # a constant generator makes the ideal trivial
                gens.append(g)
                break
    return MonomialIdeal(n, gens)


def _random_poly(rng, nvars: int) -> SparsePolynomial:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, 3) for _ in range(nvars))
        if exps in terms:
            continue
        terms[exps] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return SparsePolynomial(nvars, terms)


def _random_poly_ideal(rng, nvars: int) -> PolyIdeal:
    return PolyIdeal(nvars, [_random_poly(rng, nvars) for _ in range(rng.randint(1, 3))])


def check_symm_equals_multi(config: RandomInstanceConfig) -> list[CheckReport]:
    """Symmetric rank must agree with the rank of the expanded tensor support."""
    rng = random.Random(config.seed)
    reports = []
    for case in range(config.cases):
        form = _random_symmetric(rng)
        symm = symm_torus_rank(form)
        multi = torus_rank(expand_symmetric(form))
        reports.append(
            CheckReport(
                "symm-multi/rank-agreement",
                _doc_text(form, f"case {case}"),
                symm.value == multi.value,
                fmt(symm.value),
                fmt(multi.value),
                witness=symm.witness,
            )
        )
    return reports


def check_semistable_iff_rank(config: RandomInstanceConfig) -> list[CheckReport]:
    """Torus semistability must hold exactly when the rank equals the dimension."""
    rng = random.Random(config.seed)
    reports = []
    for case in range(config.cases):
        tensor = _random_tensor(rng)
        rank = torus_rank(tensor)
        stable = is_torus_semistable(tensor)
        rank_full = rank.value == tensor.dims
        reports.append(
            CheckReport(
                "semistable/tensor",
                _doc_text(tensor, f"case {case}", f"rank = {fmt(rank.value)}"),
                stable == rank_full,
                f"semistable:{int(stable)}",
                f"rank-equals-dims:{int(rank_full)}",
                witness=rank.witness,
            )
        )
        form = _random_symmetric(rng)
        srank = symm_torus_rank(form)
        sstable = is_symm_torus_semistable(form)
        srank_full = srank.value == form.nvars
        reports.append(
            CheckReport(
                "semistable/symm",
                _doc_text(form, f"case {case}", f"rank = {fmt(srank.value)}"),
                sstable == srank_full,
                f"semistable:{int(sstable)}",
                f"rank-equals-dims:{int(srank_full)}",
                witness=srank.witness,
            )
        )
    return reports


_CYCLIC_ANCHOR = MonomialIdeal(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
_DIAGONAL_ANCHORS = ((2, 2), (3, 4), (1, 1, 1), (2, 3, 7, 9))


def check_monomial_lct(config: RandomInstanceConfig) -> list[CheckReport]:
    """Rank-program lct must match the Newton polyhedron threshold.

    Fixed anchors pin absolute values (the cyclic ideal at 1 and diagonal
    ideals at the reciprocal sum); random cases compare the two solves.
    `newton_threshold` solves the LP dual of the monomial rank program
    (y = theta / t), so the agreement is a strong-duality check of the
    solver, on two programs and two routes (dual simplex for the rank,
    two-phase for the threshold), not an independent derivation of the lct.
    """
    reports = []
    rank = t_stable_rank(_CYCLIC_ANCHOR)
    reports.append(
        CheckReport(
            "monomial-lct/anchor-cyclic",
            _doc_text(_CYCLIC_ANCHOR, "expected lct 1"),
            rank.value == Fraction(1),
            fmt(rank.value),
            "1",
            witness=rank.witness,
        )
    )
    for exps in _DIAGONAL_ANCHORS:
        n = len(exps)
        diag = MonomialIdeal(
            n, [tuple(e if i == j else 0 for j in range(n)) for i, e in enumerate(exps)]
        )
        expected = sum(Fraction(1, e) for e in exps)
        rank = t_stable_rank(diag)
        reports.append(
            CheckReport(
                "monomial-lct/anchor-diagonal-" + "-".join(map(str, exps)),
                _doc_text(diag, f"expected lct {expected}"),
                rank.value == expected,
                fmt(rank.value),
                fmt(expected),
                witness=rank.witness,
            )
        )
    rng = random.Random(config.seed)
    for case in range(config.cases):
        ideal = _random_monomial_ideal(rng)
        rank = t_stable_rank(ideal)
        threshold = newton_threshold(ideal)
        reports.append(
            CheckReport(
                "monomial-lct/newton-agreement",
                _doc_text(ideal, f"case {case}"),
                rank.value == threshold,
                fmt(rank.value),
                fmt(threshold),
                witness=rank.witness,
            )
        )
    return reports


def _harmonic_bound(ra, rb):
    if ra == math.inf and rb == math.inf:
        return math.inf
    if ra == math.inf:
        return rb
    if rb == math.inf:
        return ra
    return (ra * rb) / (ra + rb)


def check_ideal_props(config: RandomInstanceConfig) -> list[CheckReport]:
    """Exact rank laws: power scaling, product bound, monotonicity, sum bound."""
    rng = random.Random(config.seed)
    reports = []
    for case in range(config.cases):
        n = rng.randint(1, _MAX_N)

        r = rng.randint(2, 3)
        base = (
            _random_monomial_ideal(rng, n)
            if case % 2 == 0
            else _random_poly_ideal(rng, n)
        )
        rank_base = t_stable_rank(base).value
        rank_power = t_stable_rank(ideal_power(base, r))
        expected = math.inf if rank_base == math.inf else rank_base / r
        reports.append(
            CheckReport(
                "ideal-props/power",
                _doc_text(base, f"case {case}", f"power exponent r = {r}"),
                rank_power.value == expected,
                fmt(rank_power.value),
                fmt(expected),
                witness=rank_power.witness,
            )
        )

        if case % 3 == 0:
            fa, fb = _random_monomial_ideal(rng, n), _random_monomial_ideal(rng, n)
        elif case % 3 == 1:
            fa, fb = _random_poly_ideal(rng, n), _random_monomial_ideal(rng, n)
        else:
            fa, fb = _random_poly_ideal(rng, n), _random_poly_ideal(rng, n)
        ra = t_stable_rank(fa).value
        rb = t_stable_rank(fb).value
        product = t_stable_rank(ideal_product(fa, fb))
        bound = _harmonic_bound(ra, rb)
        reports.append(
            CheckReport(
                "ideal-props/product",
                _join(_doc_text(fa, f"case {case}"), _doc_text(fb)),
                product.value >= bound,
                fmt(product.value),
                fmt(bound),
                witness=product.witness,
            )
        )

        big = (
            _random_monomial_ideal(rng, n)
            if case % 2 == 0
            else _random_poly_ideal(rng, n)
        )
        factor = _random_monomial_ideal(rng, n)
        small = ideal_product(big, factor)
        rank_small = t_stable_rank(small)
        rank_big = t_stable_rank(big).value
        reports.append(
            CheckReport(
                "ideal-props/monotone",
                _join(
                    _doc_text(big, f"case {case}", "contained ideal: product with the next document"),
                    _doc_text(factor),
                ),
                rank_small.value <= rank_big,
                fmt(rank_small.value),
                fmt(rank_big),
                witness=rank_small.witness,
            )
        )

        sa = _random_monomial_ideal(rng, n)
        sb = _random_monomial_ideal(rng, n)
        rank_sum = t_stable_rank(ideal_sum(sa, sb))
        total = t_stable_rank(sa).value + t_stable_rank(sb).value
        reports.append(
            CheckReport(
                "ideal-props/sum",
                _join(_doc_text(sa, f"case {case}"), _doc_text(sb)),
                rank_sum.value <= total,
                fmt(rank_sum.value),
                fmt(total),
                witness=rank_sum.witness,
            )
        )
    return reports


def check_lct_leq_rank_anchor() -> CheckReport:
    """Recorded lct of x1^2 + x2^2 + x3^2 stays below the computed rank.

    The threshold value 1 is a tabulated reference constant, not computed
    here; the rank of the principal ideal comes out of the usual program.
    """
    f = SparsePolynomial(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    ideal = PolyIdeal(3, [f])
    rank = t_stable_rank(ideal)
    recorded = Fraction(1)
    return CheckReport(
        "lct-bound/anchor",
        _doc_text(
            ideal,
            "recorded log canonical threshold: 1 (tabulated reference value, not computed here)",
        ),
        recorded <= rank.value,
        fmt(recorded),
        fmt(rank.value),
        witness=rank.witness,
    )


def _lct_bound_suite(config: RandomInstanceConfig) -> list[CheckReport]:
    return [check_lct_leq_rank_anchor()]


SUITES = {
    "symm-multi": check_symm_equals_multi,
    "semistable": check_semistable_iff_rank,
    "monomial-lct": check_monomial_lct,
    "ideal-props": check_ideal_props,
    "lct-bound": _lct_bound_suite,
}


def run_suite(name: str, config: RandomInstanceConfig) -> list[CheckReport]:
    """Run one registered suite, or every suite in order for name 'all'."""
    if name == "all":
        return [report for suite in SUITES.values() for report in suite(config)]
    if name not in SUITES:
        known = ", ".join([*SUITES, "all"])
        raise InputError(f"unknown suite {name!r} (known: {known})")
    return SUITES[name](config)
