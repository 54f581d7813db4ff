"""Torus rank of tensors: frozen examples and the structural invariants.

The W-tensor numbers (valuation 2, rank 3/2) and the diagonal-support rank 2
were derived by hand before implementation; the diagonal case is additionally
pinned against the brute-force vertex oracle.
"""

import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction as F

import pytest

import oracle
from oracle import (
    W,
    W_FORM,
    compositions,
    feasible,
    oracle_minimum_over_vertices,
    random_form,
    random_tensor,
)
from stablerank import exactlp, tensors, verify
from stablerank.errors import InputError
from stablerank.exactlp import LinearProgram
from stablerank.tensors import (
    SymmetricSupport,
    TensorSupport,
    expand_symmetric,
    is_symm_torus_semistable,
    is_torus_semistable,
    symm_torus_rank,
    torus_rank,
    torus_valuation,
)

class TestTorusValuation:
    def test_w_tensor(self):
        assert torus_valuation(W, ((1, 0), (1, 0), (1, 0))) == 2

    def test_w_tensor_other_weight(self):
        assert torus_valuation(W, ((0, 1), (0, 1), (0, 1))) == 1

    def test_zero_weights(self):
        assert torus_valuation(W, ((0, 0), (0, 0), (0, 0))) == 0

    def test_shape_validation(self):
        with pytest.raises(InputError):
            torus_valuation(W, ((1, 0), (1, 0)))
        with pytest.raises(InputError):
            torus_valuation(W, ((1, 0, 0), (1, 0, 0), (1, 0, 0)))
        with pytest.raises(InputError):
            torus_valuation(W, ((1, -1), (1, 0), (1, 0)))


class TestTorusRank:
    def test_w_tensor(self):
        res = torus_rank(W)
        assert res.value == F(3, 2)
        lam = res.witness
        assert len(lam) == 6
        assert all(isinstance(e, int) and e >= 0 for e in lam)

    def test_rank_one_support(self):
        v = TensorSupport(order=3, dims=2, tuples=[(1, 1, 1)])
        assert torus_rank(v).value == F(1)

    def test_diagonal_support(self):
        v = TensorSupport(order=3, dims=2, tuples=[(1, 1, 1), (2, 2, 2)])
        assert torus_rank(v).value == F(2)
        # independent route: the same program through the vertex oracle
        rows = [(1, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 1)]
        oracle = oracle_minimum_over_vertices(
            LinearProgram(objective=[1] * 6, constraint_rows=rows, rhs=[1, 1])
        )
        assert oracle.value == torus_rank(v).value

    def test_alpha_scaling(self):
        assert torus_rank(W, alpha=(2, 2, 2)).value == F(3)
        assert torus_rank(W, alpha=(F(1, 2),) * 3).value == F(3, 4)

    def test_alpha_against_oracle(self):
        alpha = (F(1), F(2), F(3))
        res = torus_rank(W, alpha=alpha)
        rows = [(0, 1, 1, 0, 1, 0), (1, 0, 0, 1, 1, 0), (1, 0, 1, 0, 0, 1)]
        cost = [F(1), F(1), F(2), F(2), F(3), F(3)]
        oracle = oracle_minimum_over_vertices(
            LinearProgram(objective=cost, constraint_rows=rows, rhs=[1, 1, 1])
        )
        assert res.value == oracle.value

    def test_unused_indices_are_no_variables(self, monkeypatch):
        # one tuple over dims 10**6: the program has one variable per factor,
        # and the witness is 0 at every other index
        solves = oracle.calls(monkeypatch, (exactlp, "lp_minimize"))
        n = 10 ** 6
        res = torus_rank(TensorSupport(2, n, [(3, n)]), alpha=(2, F(1, 2)))
        assert [(p.num_variables, len(p.constraint_rows)) for _, (p,), _, _ in solves] == [(2, 1)]
        assert res.value == F(1, 2)
        assert len(res.witness) == 2 * n
        assert {i: v for i, v in enumerate(res.witness) if v} == {2 * n - 1: 1}

    def test_witness_is_held_once(self):
        # the n * d witness is built once, as the result's tuple: the peak
        # stays below 1.5 times what the result holds, where filling a list
        # and copying it into the tuple took 2 times
        support = TensorSupport(1, 300_000, [(1,)])
        tracemalloc.start()
        try:
            res = torus_rank(support)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.witness == (1,) + (0,) * 299_999
        assert peak < 1.5 * sys.getsizeof(res.witness)

    def test_alpha_validation(self):
        with pytest.raises(InputError):
            torus_rank(W, alpha=(1, 1))
        with pytest.raises(InputError):
            torus_rank(W, alpha=(1, 1, 0))

    def test_upper_bound_is_dims(self):
        rng = random.Random(7)
        for _ in range(30):
            v = random_tensor(rng, 3, 3, 4)
            res = torus_rank(v)
            assert res.value <= v.dims
            # the witness lam_1 = (1,...,1), rest 0 always achieves dims
            lam = [[1] * v.dims] + [[0] * v.dims for _ in range(v.order - 1)]
            assert torus_valuation(v, lam) == 1

    def test_factor_permutation_invariance(self):
        rng = random.Random(11)
        for _ in range(20):
            v = random_tensor(rng, 3, 3, 4)
            perm = list(range(v.order))
            rng.shuffle(perm)
            permuted = TensorSupport(
                order=v.order,
                dims=v.dims,
                tuples=[tuple(t[perm[i]] for i in range(v.order)) for t in v.tuples],
            )
            alpha = [F(rng.randint(1, 3)) for _ in range(v.order)]
            moved = [alpha[perm[i]] for i in range(v.order)]
            assert torus_rank(v, alpha=moved).value == torus_rank(permuted, alpha=alpha).value

    def test_basis_relabel_invariance(self):
        rng = random.Random(13)
        for _ in range(20):
            v = random_tensor(rng, 3, 3, 4)
            relabel = list(range(1, v.dims + 1))
            rng.shuffle(relabel)
            moved = TensorSupport(
                order=v.order,
                dims=v.dims,
                tuples=[tuple(relabel[j - 1] for j in t) for t in v.tuples],
            )
            assert torus_rank(v).value == torus_rank(moved).value


class TestSymmetricRank:
    def test_w_form(self):
        res = symm_torus_rank(W_FORM)
        assert res.value == F(3, 2)
        assert res.witness == (1, 0)

    def test_single_variable_power(self):
        for d in (1, 2, 5):
            v = SymmetricSupport(degree=d, nvars=1, exponents=[(d,)])
            assert symm_torus_rank(v).value == F(1)

    def test_fermat_support_has_rank_n(self):
        # for sum of d-th powers the only torus weights with positive valuation
        # have every entry >= 1, so the slope d*sum/ (d*min) is at least n
        for n, d in [(2, 2), (2, 3), (3, 2), (3, 4)]:
            exps = [tuple(d if j == i else 0 for j in range(n)) for i in range(n)]
            v = SymmetricSupport(degree=d, nvars=n, exponents=exps)
            assert symm_torus_rank(v).value == F(n)

    def test_equals_multilinear_rank_of_expansion(self):
        rng = random.Random(17)
        for _ in range(25):
            v = random_form(rng, 3, 3, 4)
            assert symm_torus_rank(v).value == torus_rank(expand_symmetric(v)).value


class TestExpandSymmetric:
    def test_w_form(self):
        t = expand_symmetric(W_FORM)
        assert t == TensorSupport(order=3, dims=2, tuples=[(1, 1, 2), (1, 2, 1), (2, 1, 1)])

    def test_fermat_two_vars(self):
        v = SymmetricSupport(degree=2, nvars=2, exponents=[(2, 0), (0, 2)])
        assert expand_symmetric(v) == TensorSupport(order=2, dims=2, tuples=[(1, 1), (2, 2)])

    def test_orbit_sizes(self):
        v = SymmetricSupport(degree=3, nvars=3, exponents=[(1, 1, 1)])
        assert len(expand_symmetric(v).tuples) == 6

    def test_matches_deduplicated_permutations(self):
        rng = random.Random(29)
        repeated = 0
        for _ in range(40):
            v = random_form(rng, 4, 6, 6)
            reference = set()
            for m in v.exponents:
                base = [j for j, e in enumerate(m, start=1) for _ in range(e)]
                reference.update(itertools.permutations(base))
                repeated += max(m) > 1
            assert expand_symmetric(v).tuples == reference
        assert repeated > 20

    def test_count_is_sum_of_multinomials(self):
        # every composition of d = 7 into 3 parts: sum_m 7!/prod(m_j!) = 3^7
        v = SymmetricSupport(degree=7, nvars=3, exponents=compositions(7, 3))
        total = sum(
            math.factorial(7) // math.prod(math.factorial(e) for e in m) for m in v.exponents
        )
        assert total == 3 ** 7
        assert len(expand_symmetric(v).tuples) == total
        single = SymmetricSupport(degree=1200, nvars=1, exponents=[(1200,)])
        assert expand_symmetric(single).tuples == {(1,) * 1200}

    def test_unchecked_result_equals_validated(self):
        # expand_symmetric builds its support with `_record`, unchecked; it
        # must be the one the public constructor builds from the same tuples
        rng = random.Random(31)
        for _ in range(40):
            v = random_form(rng, 4, 6, 6)
            got = expand_symmetric(v)
            validated = TensorSupport(order=v.degree, dims=v.nvars, tuples=list(got.tuples))
            assert got == validated
            assert type(got.tuples) is frozenset
            assert all(type(j) is int for t in got.tuples for j in t)


class TestCombineOnePs:
    """The averaging step of the symmetric comparison: d one-parameter
    subgroups lam_1..lam_d, combined into their column sum gamma."""

    def test_valuation_inequality(self):
        # min_m <m, gamma> >= d * valuation of the expanded support under lam
        rng = random.Random(19)
        for _ in range(40):
            v = random_form(rng, 3, 3, 4)
            lam = tuple(
                tuple(rng.randint(0, 3) for _ in range(v.nvars)) for _ in range(v.degree)
            )
            gamma = [sum(column) for column in zip(*lam)]
            lhs = min(sum(m[j] * gamma[j] for j in range(v.nvars)) for m in v.exponents)
            rhs = v.degree * torus_valuation(expand_symmetric(v), lam)
            assert lhs >= rhs


class TestSemistability:
    def test_w_tensor_unstable(self):
        assert is_torus_semistable(W) is False

    def test_diagonal_semistable(self):
        v = TensorSupport(order=2, dims=2, tuples=[(1, 1), (2, 2)])
        assert is_torus_semistable(v) is True

    def test_simple_tensor_unstable(self):
        v = TensorSupport(order=2, dims=2, tuples=[(1, 1)])
        assert is_torus_semistable(v) is False

    def test_w_form_unstable(self):
        assert is_symm_torus_semistable(W_FORM) is False

    def test_fermat_semistable(self):
        for d in (2, 3, 4):
            v = SymmetricSupport(degree=d, nvars=2, exponents=[(d, 0), (0, d)])
            assert is_symm_torus_semistable(v) is True

    def test_single_variable_semistable(self):
        for d in (1, 3):
            v = SymmetricSupport(degree=d, nvars=1, exponents=[(d,)])
            assert is_symm_torus_semistable(v) is True

    def test_iff_rank_equals_dims(self):
        rng = random.Random(23)
        for _ in range(40):
            v = random_tensor(rng, 3, 3, 4)
            assert is_torus_semistable(v) == (torus_rank(v).value == v.dims)

    def test_symm_iff_rank_equals_nvars(self):
        rng = random.Random(29)
        for _ in range(40):
            v = random_form(rng, 3, 3, 4)
            assert is_symm_torus_semistable(v) == (symm_torus_rank(v).value == v.nvars)

    def test_symm_semistable_matches_expansion(self):
        rng = random.Random(31)
        for _ in range(25):
            v = random_form(rng, 3, 3, 4)
            assert is_symm_torus_semistable(v) == is_torus_semistable(expand_symmetric(v))


def no_program(*args):
    raise AssertionError("a program was built")


@pytest.fixture
def programs(monkeypatch):
    """Every call of `_feasible` by the semistability checks: its (rows,
    rhs) and verdict."""
    return oracle.calls(monkeypatch, (tensors, "_feasible"))


class TestUnusedCoordinate:
    """An unused index or variable decides instability with no program."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_tensor_without_its_last_index(self, d, monkeypatch):
        # The last factor never uses index n = 3. Its marginal row is the one
        # the program leaves out as implied, so every row of the full program
        # is nonzero and only the solve could tell.
        n = 3
        tuples = [(j,) * (d - 1) + (min(j, n - 1),) for j in range(1, n + 1)]
        v = TensorSupport(order=d, dims=n, tuples=tuples)
        rows, rhs = sorted_order_program(v)
        assert all(map(any, rows))
        assert not feasible((), (), rows, rhs)
        # the destabilizer the rule names: lam = 1 - n * e_n in the last factor
        lam = [[0] * n for _ in range(d - 1)] + [[1] * (n - 1) + [1 - n]]
        assert all(sum(row) == 0 for row in lam)
        assert all(sum(lam[i][j - 1] for i, j in enumerate(t)) == 1 for t in v.tuples)
        assert destabilizer_exists(v)
        monkeypatch.setattr(tensors, "_feasible", no_program)
        assert is_torus_semistable(v) is False

    @pytest.mark.parametrize("exponents", [
        [(3, 0, 0), (0, 3, 0), (1, 2, 0)],
        [(0, 3, 0), (0, 1, 2), (0, 2, 1), (0, 0, 3)],
        [(1, 1, 1, 0)] + [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0)],
    ])
    def test_form_without_a_variable(self, exponents, monkeypatch):
        n = len(exponents[0])
        v = SymmetricSupport(degree=3, nvars=n, exponents=exponents)
        j = next(j for j in range(n) if all(m[j] == 0 for m in exponents))
        rows = [tuple(m[k] for m in v.sorted_exponents) for k in range(n)]
        assert not feasible((), (), rows, (F(3, n),) * n)
        mu = [1 - n * (k == j) for k in range(n)]
        assert sum(mu) == 0
        assert all(sum(a * b for a, b in zip(m, mu)) == 3 for m in exponents)
        assert destabilizer_exists(v)
        monkeypatch.setattr(tensors, "_feasible", no_program)
        assert is_symm_torus_semistable(v) is False

    def test_every_coordinate_used_still_solves(self, programs):
        # W uses every index, but (2, 1, 1), its only tuple with index 2 in
        # factor 1, has index 1 in factors 2 and 3, so it kills the other
        # two and leaves index 1 of factor 1 with no live tuple
        assert is_torus_semistable(W) is False
        # every index of the full 2 x 2 support lies in two tuples that part
        # in the other factor, so no class lies inside another; but (1, 1)
        # and (2, 2) part in both factors, a perfect matching
        full = TensorSupport(order=2, dims=2, tuples=list(itertools.product((1, 2), repeat=2)))
        assert is_torus_semistable(full) is True
        assert programs == []
        # the same holds of every index of HALF, which has no perfect matching
        half = TensorSupport(order=3, dims=2, tuples=HALF)
        assert oracle.forced_zeros(half)[0] is None
        assert is_torus_semistable(half) is True
        assert is_symm_torus_semistable(W_FORM) is False
        assert len(programs) == 2


def destabilizer_exists(support):
    """Reference for the semistability programs: their Farkas dual, the search
    for a traceless weight assignment (one vector per factor for a tensor,
    a single vector for a form) pairing >= 1 with every support row.
    Entries of either sign are encoded as lam = p - q with p, q >= 0;
    rational feasibility suffices because denominators clear."""
    if isinstance(support, TensorSupport):
        n, d = support.dims, support.order
        _, rows = oracle.full_tensor_program(support, (1,) * d)
        blocks = [[int(c // n == i) for c in range(n * d)] for i in range(d)]
    else:
        n = support.nvars
        rows = support.sorted_exponents
        blocks = [[1] * n]
    return feasible(
        [(*row, *(-e for e in row)) for row in rows],
        [1] * len(rows),
        [b + [-e for e in b] for b in blocks],
        [0] * len(blocks),
    )


def design_tuples(rng, n, d):
    """n tuples whose every factor is a permutation of 1..n: theta = 1/n on
    them has uniform marginals, so any support containing them is
    semistable."""
    perms = [rng.sample(range(1, n + 1), n) for _ in range(d)]
    return [tuple(p[j] for p in perms) for j in range(n)]


class TestSemistabilityAgainstDestabilizerSearch:
    def test_tensors(self):
        rng = random.Random(37)
        verdicts = set()
        for n, d in itertools.product(range(1, 5), repeat=2):
            pool = sorted(itertools.product(range(1, n + 1), repeat=d))
            for case in range(8):
                tuples = rng.sample(pool, rng.randint(1, min(10, len(pool))))
                if case % 2:
                    tuples += design_tuples(rng, n, d)
                v = TensorSupport(order=d, dims=n, tuples=tuples)
                stable = is_torus_semistable(v)
                assert stable is not destabilizer_exists(v), v
                verdicts.add((n > 1, stable))
        assert verdicts == {(False, True), (True, True), (True, False)}

    def test_forms(self):
        rng = random.Random(41)
        verdicts = set()
        for n, d in itertools.product(range(1, 6), range(1, 7)):
            pool = sorted(compositions(d, n))
            for case in range(5):
                exps = rng.sample(pool, rng.randint(1, min(8, len(pool))))
                if case % 2:
                    exps += [tuple(d * (i == j) for i in range(n)) for j in range(n)]
                v = SymmetricSupport(degree=d, nvars=n, exponents=exps)
                stable = is_symm_torus_semistable(v)
                assert stable is not destabilizer_exists(v), v
                verdicts.add((n > 1, stable))
        assert verdicts == {(False, True), (True, True), (True, False)}

    def test_large_support_with_diagonal_is_semistable(self):
        # n = 6, d = 4, k = 120: the diagonal alone carries uniform marginals
        rng = random.Random(43)
        pool = [t for t in itertools.product(range(1, 7), repeat=4) if len(set(t)) > 1]
        tuples = [(j,) * 4 for j in range(1, 7)] + rng.sample(pool, 114)
        v = TensorSupport(order=4, dims=6, tuples=tuples)
        assert len(v.tuples) == 120
        assert is_torus_semistable(v) is True

    def test_large_support_missing_an_index_is_unstable(self):
        # n = 6, d = 4, k = 120: index 6 never occurs in the third factor, so
        # that marginal is 0, not 1/6, whatever theta is
        rng = random.Random(47)
        pool = [t for t in itertools.product(range(1, 7), repeat=4) if t[2] != 6]
        v = TensorSupport(order=4, dims=6, tuples=rng.sample(pool, 120))
        assert len(v.tuples) == 120
        assert is_torus_semistable(v) is False


def tensor_program(tuples, n):
    """(rows, rhs) of the tensor semistability program over `tuples` in the
    order given: sum(theta') = n and the marginals of j < n equal to 1."""
    rows = oracle.marginal_rows(tuples, n)
    return rows, (n,) + (1,) * (len(rows) - 1)


def sorted_order_program(support):
    """(rows, rhs) of a semistability program with its columns in
    lexicographic order, the tuples or exponent vectors as `sorted` leaves
    them, for `exactlp._feasible`."""
    if isinstance(support, TensorSupport):
        return tensor_program(support.sorted_tuples, support.dims)
    n, d = support.nvars, support.degree
    return tuple(zip(*support.sorted_exponents)), (d // math.gcd(n, d),) * n


def live_by_sets(support):
    """The tuples the kill rule leaves live, by sets: while every live tuple
    with index j in factor i has index j2 in factor i2, the other live
    tuples with index j2 in factor i2 die. Only for supports whose every
    live class stays nonempty, those left to the program."""
    n, d = support.dims, support.order
    classes = [(i, j) for i in range(d) for j in range(1, n + 1)]
    live = set(support.tuples)
    while True:
        dead = set()
        for i, j in classes:
            inside = [t for t in live if t[i] == j]
            for i2, j2 in classes:
                if all(t[i2] == j2 for t in inside):
                    dead.update(t for t in live if t[i2] == j2 and t[i] != j)
        if not dead:
            return live
        live -= dead


def direct_sum(a, b):
    """A + B with B's indices shifted past A's in every factor. Its marginal
    rows split into A's and B's, so it is semistable exactly when both are,
    and it has a perfect matching exactly when both have one."""
    return TensorSupport(a.order, a.dims + b.dims,
                         [*a.tuples, *(tuple(j + a.dims for j in t) for t in b.tuples)])


# Semistable, with theta' = 1/2 on every tuple the only feasible point: every
# index lies in two tuples that part in the other factors, so forced zeros
# kill nothing, and no two tuples part in every factor, so there is no
# perfect matching. Only the program finds it semistable.
HALF = [(1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 2)]

# Unstable supports that use every index and that forced zeros leave
# undecided, found by a seeded search over random supports: only the program
# tells them apart from semistable ones.
UNDECIDED_UNSTABLE = [
    [(1, 1, 1, 3), (1, 1, 2, 1), (1, 2, 2, 3), (1, 2, 3, 3), (2, 1, 1, 2), (2, 2, 2, 2),
     (2, 2, 3, 1), (2, 3, 1, 1), (2, 3, 1, 2), (3, 2, 1, 3), (3, 3, 3, 2)],
    [(1, 1, 3, 4), (1, 2, 4, 3), (1, 3, 4, 1), (2, 1, 1, 3), (2, 4, 4, 3), (2, 4, 4, 4),
     (3, 2, 1, 2), (3, 3, 2, 1), (3, 3, 3, 4), (3, 3, 4, 1), (3, 4, 2, 1), (4, 1, 2, 2),
     (4, 4, 3, 2), (4, 4, 3, 3), (4, 4, 4, 3)],
]


def large_undecided():
    """Two supports of 120 tuples that forced zeros and the matching search
    leave undecided: HALF plus 116 tuples over dims 5, semistable, and the
    second unstable support plus 105 tuples over dims 4, unstable."""
    for part, d, n, k in ((HALF, 3, 5, 116), (UNDECIDED_UNSTABLE[1], 4, 4, 105)):
        pool = list(itertools.product(range(1, n + 1), repeat=d))
        yield direct_sum(TensorSupport(d, max(map(max, part)), part),
                         TensorSupport(d, n, random.Random(0).sample(pool, k)))


class TestColumnOrder:
    """Both semistability checks order their columns for Bland's rule; the
    verdict must be the sorted order's, and the order must save pivots."""

    def test_verdicts_equal_the_sorted_orders(self, programs):
        verdicts, largest = {"tensor": set(), "form": set()}, 0

        def check(kind, v, verdict):
            """Checks the verdict against the sorted order's program and
            returns the width of the program built, 0 for none."""
            rows, rhs = sorted_order_program(v)
            assert verdict is exactlp._feasible(rows, rhs), v
            if not programs:
                return 0
            # the same program, its columns permuted
            (_, (ordered, ordered_rhs), _, _), = programs
            assert ordered_rhs == rhs and sorted(zip(*ordered)) == sorted(zip(*rows))
            verdicts[kind].add(verdict)
            programs.clear()
            return len(rows[0])

        rng = random.Random(29)
        cases = [("tensor", n, d) for n in range(1, 7) for d in range(1, 5) for _ in range(8)]
        cases += [("form", n, d) for n in range(1, 7) for d in range(1, 11) for _ in range(2)]
        for case, (kind, n, d) in enumerate(cases):
            # by case % 4: a full draw, a draw with a semistable part, a draw,
            # and a draw lopsided towards index 1 (unstable more often)
            if kind == "tensor":
                pool = sorted(itertools.product(range(1, n + 1), repeat=d))
                tuples = []
                if case % 4 == 3:
                    pool = [t for t in pool if sum(t) - d < n]
                    tuples = [tuple(j if i == f else 1 for i in range(d))
                              for f in range(d) for j in range(1, n + 1)]
                k = min(120, len(pool))
                tuples += rng.sample(pool, k if case % 4 == 0 else rng.randint(1, k))
                if case % 4 == 1:
                    tuples += design_tuples(rng, n, d)
                v = TensorSupport(order=d, dims=n, tuples=tuples)
                verdict = is_torus_semistable(v)
            else:
                pool = sorted(compositions(d, n))
                exps = []
                if case % 4 == 3:
                    pool = [m for m in pool if n * m[0] >= d]
                    exps = [tuple(d - 1 if i == 0 else int(i == j) for i in range(n))
                            for j in range(1, n)]
                k = min(30, len(pool))
                exps += rng.sample(pool, k if case % 4 == 0 else rng.randint(1, k))
                if case % 4 == 1:
                    exps += [tuple(d * (i == j) for i in range(n)) for j in range(n)]
                v = SymmetricSupport(degree=d, nvars=n, exponents=exps)
                verdict = is_symm_torus_semistable(v)
            largest = max(largest, check(kind, v, verdict))
        # forced zeros and the matching search decide every drawn tensor but
        # small ones, so supports they leave undecided take the program too
        for tuples in [HALF, *UNDECIDED_UNSTABLE]:
            v = TensorSupport(order=len(tuples[0]), dims=max(map(max, tuples)), tuples=tuples)
            verdict = is_torus_semistable(v)
            assert verdict is (tuples is HALF) and check("tensor", v, verdict)
        for v in large_undecided():
            largest = max(largest, check("tensor", v, is_torus_semistable(v)))
        assert largest >= 120
        assert verdicts == {"tensor": {True, False}, "form": {True, False}}

    def test_half_the_pivots_of_the_sorted_order(self, monkeypatch):
        # three 6x6x6x6 supports of 120 tuples: 159 phase-one pivots in the
        # difference-class order against 700 in the sorted order. Each has a
        # perfect matching, so the search is switched off to reach the program.
        monkeypatch.setattr(tensors, "_matching", lambda *a: None)
        pool = list(itertools.product(range(1, 7), repeat=4))
        ordered = sorted_order = 0
        for seed in range(3):
            v = TensorSupport(order=4, dims=6, tuples=random.Random(seed).sample(pool, 120))
            verdict, passes = oracle.simplex_passes(is_torus_semistable, v)
            ordered += sum(len(p["pivots"]) for p in passes)
            answer, passes = oracle.simplex_passes(exactlp._feasible, *sorted_order_program(v))
            assert answer is verdict
            sorted_order += sum(len(p["pivots"]) for p in passes)
        assert 0 < 2 * ordered <= sorted_order


def seeded_supports():
    """5,000 seeded tensor supports: half drawn as the `semistable` suite
    draws them, half full draws over n <= 5 and d <= 4 of up to 40 tuples."""
    rng = random.Random(30)
    for _ in range(2500):
        yield verify._random_tensor(rng)
    for _ in range(2500):
        yield random_tensor(rng, 5, 4, 40)


class TestForcedZeros:
    """Forced zeros and the matching search decide a tensor verdict only as
    the full program would, and every program still built is the one built
    before them, over the tuples the kills leave live."""

    @pytest.fixture
    def matchings(self, monkeypatch):
        """Every call of `tensors._matching`, its answer last."""
        return oracle.calls(monkeypatch, (tensors, "_matching"))

    def test_decisions_equal_the_full_program(self, matchings):
        # the search runs before any kill, and a kill never removes a
        # matching's tuples, so every True is a matching: n live tuples left
        # by the kills would be a matching the search, within its budget on
        # supports this small, found first
        decisions, shapes = {"matched": 0, False: 0, None: 0}, set()
        for v in seeded_supports():
            decided, _ = oracle.forced_zeros(v)
            assert decided in (None, exactlp._feasible(*sorted_order_program(v))), v
            matched = bool(matchings) and matchings.pop()[-1] is not None
            assert not matchings and (decided is True) is matched, v
            decisions["matched" if matched else decided] += 1
            shapes.add((v.dims == 1, v.order == 1))
        assert decisions["matched"] >= 2500 and all(decisions.values()), decisions
        assert shapes == {(True, True), (True, False), (False, True), (False, False)}

    def test_matchings_use_each_index_once(self, matchings):
        # the certificate of a matched verdict, checked by counting alone:
        # the n tuples found use each index of each factor exactly once, so
        # theta' = 1 on them meets every marginal
        found = 0
        for v in seeded_supports():
            if oracle.forced_zeros(v)[0] is True and matchings and matchings[-1][-1] is not None:
                n, chosen = v.dims, matchings[-1][-1]
                tuples = [t for c, t in enumerate(v.tuples) if chosen >> c & 1]
                assert chosen.bit_length() <= len(v.tuples), v
                for column in zip(*tuples):
                    assert sorted(column) == list(range(1, n + 1)), v
                found += 1
            matchings.clear()
        assert found >= 700

    def test_undecided_supports_build_the_same_program(self, programs):
        # the program is the parent's, built over the tuples the kill rule
        # leaves live, and it gives the full program's verdict
        built = shrunk = 0
        for v in seeded_supports():
            decided, _ = oracle.forced_zeros(v)
            verdict = is_torus_semistable(v)
            if decided is None:
                n, live = v.dims, live_by_sets(v)
                program = tensor_program(oracle.difference_class_order(live, n), n)
                assert programs == [("_feasible", program, {}, verdict)], v
                whole = tensor_program(oracle.difference_class_order(v.tuples, n), n)
                assert verdict is exactlp._feasible(*whole), v
                built += 1
                shrunk += live < v.tuples
            else:
                assert programs == [] and verdict is decided, v
            programs.clear()
        assert built > shrunk > 0

    def test_n_live_tuples_are_left_to_the_program(self, programs, monkeypatch):
        # with the search giving up, the kills leave (1, 1) and (2, 2), which
        # part in both factors; the kills decide nothing more, and one
        # program over the two live tuples finds the support semistable
        monkeypatch.setattr(tensors, "_matching", lambda *a: None)
        v = TensorSupport(2, 2, [(1, 1), (1, 2), (2, 2)])
        assert sorted(tensors._forced_zeros(tuple(v.tuples), 2)) == [(1, 1), (2, 2)]
        assert is_torus_semistable(v) is True
        assert programs == [("_feasible", tensor_program([(1, 1), (2, 2)], 2), {}, True)]

    def test_large_supports_are_matched(self, monkeypatch):
        # three 6x6x6x6 draws of 120 tuples: forced zeros stall on each, and
        # the search finds a perfect matching within 7, 30 and 7 choices
        nodes = oracle.calls(monkeypatch, (tensors, "_choose"))
        monkeypatch.setattr(tensors, "_feasible", no_program)
        pool = list(itertools.product(range(1, 7), repeat=4))
        for seed in range(3):
            v = TensorSupport(order=4, dims=6, tuples=random.Random(seed).sample(pool, 120))
            assert is_torus_semistable(v) is True
            assert 0 < len(nodes) <= 30
            nodes.clear()

    def test_large_supports_are_left_to_the_program(self, matchings, monkeypatch):
        nodes = oracle.calls(monkeypatch, (tensors, "_choose"))
        for v in large_undecided():
            assert oracle.forced_zeros(v)[0] is None and [m[-1] for m in matchings] == [None]
            matchings.clear()
        # the search gives up within its budget of one choice per tuple: in
        # lexicographic order it finds no matching of this support in 999
        # choices, and no tuple dies
        rng, tuples = random.Random(1), set()
        while len(tuples) < 999:
            tuples.add(tuple(rng.randint(1, 25) for _ in range(4)))
        nodes.clear()
        tuples = tuple(sorted(tuples))
        assert tensors._forced_zeros(tuples, 25) == list(tuples)
        assert [m[-1] for m in matchings] == [None] and len(nodes) == 999


@pytest.mark.parametrize("call, message", [
    (lambda: torus_rank(3), "not a tensor support: 3"),
    (lambda: torus_rank(W_FORM, [1, 1, 1]), f"not a tensor support: {W_FORM!r}"),
    (lambda: torus_valuation([(1, 1)], [[1, 1]]), "not a tensor support: [(1, 1)]"),
    (lambda: is_torus_semistable([1]), "not a tensor support: [1]"),
    (lambda: symm_torus_rank(W), f"not a symmetric support: {W!r}"),
    (lambda: expand_symmetric(None), "not a symmetric support: None"),
    (lambda: is_symm_torus_semistable("symm 3 2"), "not a symmetric support: 'symm 3 2'"),
])
def test_non_support_rejected(call, message):
    with pytest.raises(InputError) as caught:
        call()
    assert str(caught.value) == message


class TestSupportTypes:
    def test_tensor_support_validation(self):
        with pytest.raises(InputError, match="^tensor support must be nonempty$"):
            TensorSupport(order=2, dims=2, tuples=[])
        with pytest.raises(InputError, match=r"^tensor support tuple: expected a value in 1\.\.2, got 3$"):
            TensorSupport(order=2, dims=2, tuples=[(1, 3)])
        with pytest.raises(InputError, match=r"^tensor support tuple: expected a value in 1\.\.2, got 0$"):
            TensorSupport(order=2, dims=2, tuples=[(0, 1)])
        with pytest.raises(InputError, match="^tensor support tuple: expected 2 entries, got 3$"):
            TensorSupport(order=2, dims=2, tuples=[(1, 1, 1)])
        with pytest.raises(InputError, match="^tensor support tuple: expected an integer, got True$"):
            TensorSupport(order=2, dims=2, tuples=[(1, True)])

    def test_symmetric_support_validation(self):
        with pytest.raises(InputError):
            SymmetricSupport(degree=2, nvars=2, exponents=[])
        with pytest.raises(InputError):
            SymmetricSupport(degree=2, nvars=2, exponents=[(1, 0)])
        with pytest.raises(InputError):
            SymmetricSupport(degree=2, nvars=2, exponents=[(-1, 3)])

    def test_duplicates_collapse(self):
        v = TensorSupport(order=2, dims=2, tuples=[(1, 1), (1, 1), (2, 2)])
        assert len(v.tuples) == 2
