"""Golden answers of the polynomial layer: every term of every result, bit for bit.

The property tests in `test_ideals.py` check laws (composition, inverse round
trip, evaluation at points), which a change to the arithmetic could satisfy
while storing its coefficients differently. `golden_poly.json` pins the
`sorted_terms()` of every result in a seeded family built by `golden_family`
below, with each coefficient written as p/q:

- `apply_linear_change` in 1 to 4 variables and degree up to 12, with
  rational coefficients and rational matrices whose entries have non-unit
  denominators, including the zero polynomial and n = 1;
- changes that cancel to fewer terms: f = h(A x) for a sparse h, expanded by
  the reference routine `_compose` below, changed back by the inverse of A,
  which `oracle.inverse` computes by its own Fraction elimination (the
  library only checks that a matrix is invertible);
- `SparsePolynomial` sums (some cancelling partly or to zero) and products
  (some with a zero or a constant factor);
- `ideal_power`, `ideal_product` (also with a monomial factor) and
  `ideal_sum` on `PolyIdeal`.

Every stored coefficient must be a nonzero `Fraction`. The file was written
from the answers of the `Fraction` product code before the integer kernel
replaced it; regenerating it is only right when an answer is meant to change:

    PYTHONPATH=src python tests/test_golden_poly.py
"""

import random
from fractions import Fraction

import oracle
from oracle import q
from stablerank.ideals import (
    LinearChange,
    MonomialIdeal,
    PolyIdeal,
    SparsePolynomial,
    apply_linear_change,
    ideal_power,
    ideal_product,
    ideal_sum,
)

GOLDEN = "golden_poly.json"
SEED = 20260512
COEFF_DENS = (1, 1, 2, 3, 5, 7)
MATRIX_DENS = (1, 2, 3, 4, 5)


def _rational(rng, lo, hi, dens):
    value = Fraction(0)
    while not value:
        value = Fraction(rng.randint(lo, hi), rng.choice(dens))
    return value


def _terms(rng, n, count, degree):
    """Up to `count` terms of total degree at most `degree`, as {exps: p/q};
    the first term has degree `degree` exactly."""
    terms = {}
    for k in range(count):
        exps = [0] * n
        for _ in range(degree if k == 0 else rng.randint(0, degree)):
            exps[rng.randrange(n)] += 1
        terms[tuple(exps)] = _rational(rng, -9, 9, COEFF_DENS)
    return terms


def _poly_json(n, terms) -> dict:
    return {"nvars": n, "terms": [[list(e), q(c)] for e, c in sorted(terms.items())]}


def _matrix(rng, n, zero_share=0.3):
    """A rational matrix that `LinearChange` accepts, with non-unit denominators."""
    while True:
        rows = [
            [Fraction(0) if rng.random() < zero_share else _rational(rng, -3, 3, MATRIX_DENS) for _ in range(n)]
            for _ in range(n)
        ]
        if any(v.denominator > 1 for row in rows for v in row):
            try:
                LinearChange(rows)
            except ValueError:
                continue
            return rows


def _compose(h: dict, a) -> dict:
    """h(x') with x'_i = sum_j a[j][i] * x_j, expanded by plain Fraction dicts."""
    n = len(a)
    total: dict = {}
    for exps, coeff in h.items():
        part = {(0,) * n: Fraction(coeff)}
        for i, e in enumerate(exps):
            for _ in range(e):
                step: dict = {}
                for u, cu in part.items():
                    for j in range(n):
                        if a[j][i]:
                            key = tuple(x + (k == j) for k, x in enumerate(u))
                            step[key] = step.get(key, 0) + cu * a[j][i]
                part = step
        for key, c in part.items():
            total[key] = total.get(key, 0) + c
    return {k: c for k, c in total.items() if c}


def golden_family() -> list[dict]:
    """The pinned inputs, in a fixed order; answers are filled in by `solve`."""
    rng = random.Random(SEED)
    cases = []
    for k in range(72):  # linear changes, n = 1..4, degree up to 12
        n = 1 + k % 4
        degree = rng.choice((2, 4, 6, 8, 12)) if n < 4 else rng.choice((2, 4, 6, 12))
        count = rng.randint(1, 4 if n < 4 else 2)
        cases.append({
            "family": "change",
            "f": _poly_json(n, _terms(rng, n, count, degree)),
            "matrix": [[q(v) for v in row] for row in _matrix(rng, n)],
        })
    for n in (1, 2, 4):  # the zero polynomial
        cases.append({
            "family": "change-zero",
            "f": _poly_json(n, {}),
            "matrix": [[q(v) for v in row] for row in _matrix(rng, n)],
        })
    for k in range(15):  # f = h(A x) changed back by A^-1: cancels to h's terms
        n = 2 + k % 3
        h = _terms(rng, n, rng.randint(1, 2), rng.choice((3, 5, 8) if n < 4 else (3, 5)))
        a = _matrix(rng, n, zero_share=0)
        inverse = oracle.inverse(a)
        cases.append({
            "family": "change-cancel",
            "f": _poly_json(n, _compose(h, a)),
            "matrix": [[q(v) for v in row] for row in inverse],
        })
    for k in range(30):  # sums: random, partial cancellation, full cancellation
        n = 1 + k % 4
        f = _terms(rng, n, rng.randint(0, 5), 6)
        if k % 3 == 0:
            g = {e: -c for e, c in f.items()}
        elif k % 3 == 1:
            g = {e: -c if rng.random() < 0.5 else c * 2 for e, c in f.items()}
            g.update(_terms(rng, n, 2, 6))
        else:
            g = _terms(rng, n, rng.randint(0, 5), 6)
        cases.append({"family": "add", "f": _poly_json(n, f), "g": _poly_json(n, g)})
    for k in range(30):  # products, some with a zero or a constant factor
        n = 1 + k % 4
        f = _terms(rng, n, rng.randint(1, 5), 6)
        if k % 10 == 3:
            g = {}
        elif k % 10 == 7:
            g = {(0,) * n: _rational(rng, -5, 5, COEFF_DENS)}
        else:
            g = _terms(rng, n, rng.randint(1, 5), 6)
        cases.append({"family": "mul", "f": _poly_json(n, f), "g": _poly_json(n, g)})
    for k in range(12):  # ideal powers
        n = 1 + k % 3
        gens = [_poly_json(n, _terms(rng, n, rng.randint(1, 3), 4)) for _ in range(rng.randint(1, 3))]
        cases.append({"family": "ideal_power", "nvars": n, "gens": gens, "exponent": rng.randint(1, 3)})
    for k in range(12):  # ideal products, every third with a monomial factor
        n = 1 + k % 3
        a = [_poly_json(n, _terms(rng, n, rng.randint(1, 3), 5)) for _ in range(rng.randint(1, 3))]
        b = [_poly_json(n, _terms(rng, n, rng.randint(1, 3), 5)) for _ in range(rng.randint(1, 3))]
        case = {"family": "ideal_product", "nvars": n, "a": a, "b": b}
        if k % 3 == 2:
            case["b_monomial"] = [[rng.randint(0, 3) for _ in range(n)] for _ in range(2)]
        cases.append(case)
    for k in range(6):  # ideal sums
        n = 1 + k % 3
        a = [_poly_json(n, _terms(rng, n, rng.randint(1, 3), 5)) for _ in range(rng.randint(1, 2))]
        b = [_poly_json(n, _terms(rng, n, rng.randint(1, 3), 5)) for _ in range(rng.randint(1, 2))]
        cases.append({"family": "ideal_sum", "nvars": n, "a": a, "b": b})
    return cases


def _poly(data) -> SparsePolynomial:
    return SparsePolynomial(data["nvars"], {tuple(e): Fraction(c) for e, c in data["terms"]})


def _ideal(n, gens) -> PolyIdeal:
    return PolyIdeal(n, [_poly(g) for g in gens])


def _results(case: dict) -> list[SparsePolynomial]:
    family = case["family"]
    if family.startswith("change"):
        return [apply_linear_change(_poly(case["f"]), LinearChange([[Fraction(v) for v in row] for row in case["matrix"]]))]
    if family == "add":
        return [_poly(case["f"]) + _poly(case["g"])]
    if family == "mul":
        return [_poly(case["f"]) * _poly(case["g"])]
    n = case["nvars"]
    if family == "ideal_power":
        return list(ideal_power(_ideal(n, case["gens"]), case["exponent"]).generators)
    b = MonomialIdeal(n, case["b_monomial"]) if "b_monomial" in case else _ideal(n, case["b"])
    if family == "ideal_product":
        return list(ideal_product(_ideal(n, case["a"]), b).generators)
    return list(ideal_sum(_ideal(n, case["a"]), b).generators)


def _sorted_terms(p: SparsePolynomial) -> list:
    return [[list(e), q(c)] for e, c in p.sorted_terms()]


def solve(case: dict) -> list:
    """The answer recorded for one case: each result's sorted terms, as p/q."""
    return [_sorted_terms(p) for p in _results(case)]


def test_golden_family_is_unchanged():
    # the file's inputs are the family the docstring describes
    assert [case["input"] for case in oracle.golden(GOLDEN)] == golden_family()


def test_golden_covers_the_edge_cases():
    cases = oracle.golden(GOLDEN)
    changes = [c for c in cases if c["input"]["family"].startswith("change")]
    assert {c["input"]["f"]["nvars"] for c in changes} == {1, 2, 3, 4}
    assert max(sum(e) for c in changes for e, _ in c["input"]["f"]["terms"]) == 12
    assert any("/" in v for c in changes for row in c["input"]["matrix"] for v in row)
    cancelled = [c for c in cases if c["input"]["family"] == "change-cancel"]
    assert all(len(c["answer"][0]) < len(c["input"]["f"]["terms"]) for c in cancelled)
    assert sum(c["answer"] == [[]] for c in cases if c["input"]["family"] == "add") >= 10
    assert any(c["answer"] == [[]] for c in cases if c["input"]["family"] == "mul")


def test_golden_answers():
    answered = []
    for case in oracle.golden(GOLDEN):
        results = _results(case["input"])
        # what is stored, not only what prints: a nonzero Fraction per term
        assert all(type(c) is Fraction and c != 0 for p in results for c in p.terms.values())
        answered.append({"input": case["input"], "answer": [_sorted_terms(p) for p in results]})
    oracle.assert_golden(GOLDEN, answered)


if __name__ == "__main__":
    oracle.write_golden(GOLDEN, [{"input": case, "answer": solve(case)} for case in golden_family()])
