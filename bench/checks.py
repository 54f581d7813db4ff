"""Answer checks that do not trust the solver.

Every witness is re-evaluated here with the benchmark's own valuation code,
and every value is compared with a second route or a closed form. A check
raises `CheckFailed`; the benchmark then reports `correct: false`.
"""

from __future__ import annotations

import math
from fractions import Fraction


class CheckFailed(AssertionError):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def tensor_slope(tuples, dims: int, order: int, alpha, witness) -> Fraction | float:
    """(sum_i alpha_i * sum_j w_i[j]) / min over tuples of sum_i w_i[t_i]."""
    groups = [witness[i * dims:(i + 1) * dims] for i in range(order)]
    num = sum(Fraction(a) * sum(g) for a, g in zip(alpha, groups))
    den = min(sum(groups[i][j - 1] for i, j in enumerate(t)) for t in tuples)
    return num / den if den > 0 else math.inf


def linear_slope(rows, cost, witness) -> Fraction | float:
    """(cost . w) / min over rows of (row . w), for forms and ideals."""
    num = sum(Fraction(c) * w for c, w in zip(cost, witness))
    den = min(sum(e * w for e, w in zip(row, witness)) for row in rows)
    return num / den if den > 0 else math.inf


def witness_attains(result, slope: Fraction | float, what: str) -> None:
    """A finite value carries a nonnegative integer witness of that slope."""
    if result.value == math.inf:
        expect(result.witness is None, f"{what}: infinite value with a witness")
        return
    w = result.witness
    expect(w is not None and all(isinstance(x, int) and x >= 0 for x in w),
           f"{what}: witness {w!r} is not a nonnegative integer vector")
    expect(slope == result.value, f"{what}: witness slope {slope} != value {result.value}")


def check_tensor_rank(support, alpha, result) -> None:
    alpha = alpha or (1,) * support.order
    tuples = support.sorted_tuples
    if result.witness is not None:
        slope = tensor_slope(tuples, support.dims, support.order, alpha, result.witness)
    else:
        slope = math.inf
    witness_attains(result, slope, "torus_rank")
    # lam_i = (1, ..., 1) on the cheapest factor has slope n * min(alpha)
    expect(result.value <= support.dims * min(Fraction(a) for a in alpha),
           f"torus_rank {result.value} above the one-factor bound")


def check_form_rank(form, result) -> None:
    cost = (form.degree,) * form.nvars
    rows = form.sorted_exponents
    slope = linear_slope(rows, cost, result.witness) if result.witness is not None else math.inf
    witness_attains(result, slope, "symm_torus_rank")


def check_ideal_rank(rows, result) -> None:
    rows = list(rows)
    cost = (1,) * len(rows[0])
    slope = linear_slope(rows, cost, result.witness) if result.witness is not None else math.inf
    witness_attains(result, slope, "t_stable_rank")


def ideal_rows(ideal) -> list[tuple[int, ...]]:
    if hasattr(ideal, "to_poly_ideal"):
        return list(ideal.generators)
    return sorted({e for g in ideal.generators for e in g.terms})


def evaluate(poly, point) -> Fraction:
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        term = coeff
        for x, e in zip(point, exps):
            term *= x ** e
        total += term
    return total


def check_change(original, moved, matrix, point) -> None:
    """moved(y) == original(x) with x_i = sum_j M[j][i] * y_j at one point."""
    n = len(point)
    x = [sum(matrix[j][i] * point[j] for j in range(n)) for i in range(n)]
    for f, g in zip(original.generators, moved.generators):
        expect(evaluate(g, point) == evaluate(f, x),
               "apply_linear_change disagrees with substitution at a point")


def fmt(value) -> str:
    return "inf" if value == math.inf else str(Fraction(value))
