"""Randomized cross-checks between computation routes.

Each check draws random instances from a seeded generator, computes one
quantity two different ways (or tests a proved inequality), and returns a
CheckReport per comparison. Failures are reported, never raised: every
report carries a serialized reproducer in the input file format, so a
failing case can be replayed through the command line. Runs with the same
seed and case count produce identical report lists. Suites are run by name
through `run_suite`; `SUITES` maps each name to its suite, a function of the
seed and the case count.

A check that compares a computed rank with a reference value reports through
`_check`: the rank on the left and the reference on the right, both printed
by `str` (p/q, an integer or "inf", as the command line prints answers), the
relation as the verdict and the rank's witness. Only `semistable` builds its
reports itself, since its two sides are verdicts, not a rank.
"""

from __future__ import annotations

import itertools
import math
import operator
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
from .rationals import integers
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


def _doc_text(obj, *comments: str) -> str:
    text = serialize(InputDocument(obj))
    for c in comments:
        text += f"# {c}\n"
    return text


def _join(*texts: str) -> str:
    return "# ---\n".join(texts)


def _check(name: str, instance: str, rank, holds, reference) -> CheckReport:
    """The report comparing a computed rank (a SlopeResult) with a reference
    value by `holds` (`operator.eq`, `ge` or `le`), rank on the left."""
    return CheckReport(name, instance, holds(rank.value, reference), str(rank.value),
                       str(reference), witness=rank.witness)


# `rng.sample` draws from each pool in lexicographic order, the order
# `itertools.product` makes
def _random_symmetric(rng) -> SymmetricSupport:
    n = rng.randint(1, _MAX_N)
    d = rng.randint(1, _MAX_D)
    pool = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]
    k = rng.randint(1, min(_MAX_SUPPORT, len(pool)))
    return SymmetricSupport(d, n, rng.sample(pool, k))


def _random_tensor(rng) -> TensorSupport:
    n = rng.randint(1, _MAX_N)
    d = rng.randint(1, _MAX_D)
    pool = list(itertools.product(range(1, n + 1), repeat=d))
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


def _random_ideal(rng, n: int, polynomial: bool):
    """A monomial ideal, or a polynomial ideal of one to three generators."""
    if not polynomial:
        return _random_monomial_ideal(rng, n)
    return PolyIdeal(n, [_random_poly(rng, n) for _ in range(rng.randint(1, 3))])


def _symm_equals_multi(seed: int, cases: int) -> list[CheckReport]:
    """Symmetric rank must agree with the rank of the expanded tensor support."""
    rng = random.Random(seed)
    reports = []
    for case in range(cases):
        form = _random_symmetric(rng)
        reports.append(_check(
            "symm-multi/rank-agreement", _doc_text(form, f"case {case}"),
            symm_torus_rank(form), operator.eq, torus_rank(expand_symmetric(form)).value,
        ))
    return reports


def _semistable_iff_rank(seed: int, cases: int) -> list[CheckReport]:
    """Torus semistability must hold exactly when the rank equals the
    dimension, and a form must be semistable exactly when its expanded
    tensor support is (the Comon analog for semistability)."""
    # one tensor, then one form, per case: (name, draw, rank, semistability,
    # dimension); built per call, so it reads the module's current bindings
    kinds = (
        ("tensor", _random_tensor, torus_rank, is_torus_semistable, "dims"),
        ("symm", _random_symmetric, symm_torus_rank, is_symm_torus_semistable, "nvars"),
    )
    rng = random.Random(seed)
    reports = []
    for case in range(cases):
        for name, draw, rank_of, semistable, dims in kinds:
            support = draw(rng)
            rank = rank_of(support)
            stable = semistable(support)
            rank_full = rank.value == getattr(support, dims)
            reports.append(
                CheckReport(
                    f"semistable/{name}",
                    _doc_text(support, f"case {case}", f"rank = {rank.value}"),
                    stable == rank_full,
                    f"semistable:{int(stable)}",
                    f"rank-equals-dims:{int(rank_full)}",
                    witness=rank.witness,
                )
            )
        # the last kind drawn is the form, `support`, with its verdict `stable`
        expanded = is_torus_semistable(expand_symmetric(support))
        reports.append(CheckReport(
            "semistable/symm-expanded", _doc_text(support, f"case {case}"),
            stable == expanded, f"semistable:{int(stable)}", f"expanded-semistable:{int(expanded)}",
        ))
    return reports


# (name, ideal, expected lct): the cyclic ideal, and the diagonal ideals
# (x_i^e_i) at the reciprocal sum of their exponents
_ANCHORS = [("cyclic", MonomialIdeal(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)]), Fraction(1))] + [
    ("diagonal-" + "-".join(map(str, exps)),
     MonomialIdeal(len(exps), [tuple(e if i == j else 0 for j in range(len(exps)))
                               for i, e in enumerate(exps)]),
     sum(Fraction(1, e) for e in exps))
    for exps in ((2, 2), (3, 4), (1, 1, 1), (2, 3, 7, 9))
]


def _monomial_lct(seed: int, cases: int) -> list[CheckReport]:
    """Rank-program lct must match the Newton polyhedron threshold.

    Fixed anchors pin absolute values (the cyclic ideal at 1 and diagonal
    ideals at the reciprocal sum); random cases compare the two solves.
    `newton_threshold` solves the LP dual of the monomial rank program
    (y = theta / t), so the agreement is a strong-duality check of the
    solver, on two programs and two routes (dual simplex for the rank,
    two-phase for the threshold), not an independent derivation of the lct.
    """
    reports = [
        _check(f"monomial-lct/anchor-{name}", _doc_text(ideal, f"expected lct {expected}"),
               t_stable_rank(ideal), operator.eq, expected)
        for name, ideal, expected in _ANCHORS
    ]
    rng = random.Random(seed)
    for case in range(cases):
        ideal = _random_monomial_ideal(rng)
        reports.append(_check(
            "monomial-lct/newton-agreement", _doc_text(ideal, f"case {case}"),
            t_stable_rank(ideal), operator.eq, newton_threshold(ideal),
        ))
    return reports


def _harmonic_bound(ra, rb):
    if math.inf in (ra, rb):
        return min(ra, rb)
    return (ra * rb) / (ra + rb)


def _ideal_props(seed: int, cases: int) -> list[CheckReport]:
    """Exact rank laws: power scaling, product bound, monotonicity, sum bound."""
    rng = random.Random(seed)
    reports = []
    for case in range(cases):
        n = rng.randint(1, _MAX_N)

        r = rng.randint(2, 3)
        base = _random_ideal(rng, n, case % 2 == 1)
        reports.append(_check(
            "ideal-props/power", _doc_text(base, f"case {case}", f"power exponent r = {r}"),
            t_stable_rank(ideal_power(base, r)), operator.eq, t_stable_rank(base).value / r,
        ))

        # both monomial, then polynomial and monomial, then both polynomial
        fa, fb = _random_ideal(rng, n, case % 3 > 0), _random_ideal(rng, n, case % 3 == 2)
        reports.append(_check(
            "ideal-props/product", _join(_doc_text(fa, f"case {case}"), _doc_text(fb)),
            t_stable_rank(ideal_product(fa, fb)), operator.ge,
            _harmonic_bound(t_stable_rank(fa).value, t_stable_rank(fb).value),
        ))

        big = _random_ideal(rng, n, case % 2 == 1)
        factor = _random_monomial_ideal(rng, n)
        reports.append(_check(
            "ideal-props/monotone",
            _join(_doc_text(big, f"case {case}", "contained ideal: product with the next document"),
                  _doc_text(factor)),
            t_stable_rank(ideal_product(big, factor)), operator.le, t_stable_rank(big).value,
        ))

        sa = _random_monomial_ideal(rng, n)
        sb = _random_monomial_ideal(rng, n)
        reports.append(_check(
            "ideal-props/sum", _join(_doc_text(sa, f"case {case}"), _doc_text(sb)),
            t_stable_rank(ideal_sum(sa, sb)), operator.le,
            t_stable_rank(sa).value + t_stable_rank(sb).value,
        ))
    return reports


def _lct_leq_rank_anchor(seed: int, cases: int) -> list[CheckReport]:
    """The computed rank of x1^2 + x2^2 + x3^2 stays at or above its recorded lct.

    The threshold value 1 is a tabulated reference constant, not computed
    here; the rank of the principal ideal comes out of the usual program.
    The one report is the same for every seed and case count.
    """
    ideal = PolyIdeal(3, [SparsePolynomial(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})])
    return [_check(
        "lct-bound/anchor",
        _doc_text(ideal, "recorded log canonical threshold: 1 "
                         "(tabulated reference value, not computed here)"),
        t_stable_rank(ideal), operator.ge, Fraction(1),
    )]


SUITES = {
    "symm-multi": _symm_equals_multi,
    "semistable": _semistable_iff_rank,
    "monomial-lct": _monomial_lct,
    "ideal-props": _ideal_props,
    "lct-bound": _lct_leq_rank_anchor,
}


def run_suite(name: str, seed: int, cases: int = 200) -> list[CheckReport]:
    """Run one registered suite, or every suite in order for name 'all', on
    `cases` random instances drawn from `seed`."""
    (seed,) = integers((seed,), "seed")
    (cases,) = integers((cases,), "cases", low=1)
    if name == "all":
        return [report for suite in SUITES.values() for report in suite(seed, cases)]
    if name not in SUITES:
        known = ", ".join([*SUITES, "all"])
        raise InputError(f"unknown suite {name!r} (known: {known})")
    return SUITES[name](seed, cases)
