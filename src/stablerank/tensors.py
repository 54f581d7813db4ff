"""Torus-restricted stable ranks of tensors and symmetric tensors.

A tensor is given purely by its support: the set of basis tuples carrying a
nonzero coefficient (coefficient values are irrelevant to every quantity
computed here, which is why none are stored). Restricting the group to the
diagonal torus of the chosen basis turns each rank into the minimization of
an exact fractional linear program over the support, so every function below
reduces to the slope program `stablerank.exactlp._slope` solves or to a
feasibility program, a zero objective under `lp_minimize` (`_feasible`).
Their rows come from supports the constructors have checked, so they go to
those two solves unchecked, and every row entry and right side is an int: a
feasibility program with fractional right sides is handed over as its
all-integer twin over a multiple of theta (below), a positive scaling of its
variables that takes the pivots the fractional program would. `torus_rank`
passes its costs alpha as they are, and the solver clears their
denominators. Because only diagonal one-parameter subgroups are searched,
the returned ranks are upper bounds on the full group-stable rank; they are
exact whenever some optimal subgroup is diagonal in the given basis
(torus-optimal tensors).

Why semistability is equivalent to the rank hitting its ceiling: the rank
with unit weights never exceeds n (the assignment lam_1 = (1,...,1), other
factors zero, has slope exactly n). The tensor is torus-unstable exactly
when some integer assignment with every factor summing to zero pairs >= 1
with each support row. Given weights of slope < n, the shifted assignment
lam'_{i,j} = n*lam_{i,j} - sum_j lam_{i,j} is traceless and pairs
n*val - sum > 0 with every row, certifying instability; conversely a
traceless destabilizer shifted by c_i = -min_j lam_{i,j} per factor becomes
nonnegative with slope n*sum(c) / (val + sum(c)) < n. So semistable iff
rank = n, which the verification suites exercise on random supports. The
same shift argument with a single weight vector (and valuations scaled by
the degree) gives the symmetric statement with ceiling n.

Semistability itself is decided on the moment polytope, by the Farkas dual
of that destabilizing system: the tensor is semistable iff some convex
weights theta on the support tuples have every factor marginal equal to
(1/n, ..., 1/n). If theta exists, its average of the pairings of a traceless
lam with the rows is sum_{i,j} lam_{i,j} / n = 0, so lam cannot pair >= 1
with every row; if not, a hyperplane separates the uniform point from the
convex hull of the rows, and its normal, made traceless factor by factor
and scaled (rational suffices, denominators clear), is a destabilizer. For a
form the point is (d/n, ..., d/n) and the hull is that of the exponents.
Both programs are solved over a multiple of theta with integer marginals:
n * theta for a tensor, whose marginals are then 1, and (n / g) * theta for
a form, g = gcd(n, d), whose point is then (d / g, ..., d / g).

Most tensor verdicts are decided with no program, in three steps. An
index of some factor that no tuple uses has marginal 0, not 1: unstable
(lam_i = 1 - n * e_j, every other factor zero, is traceless and pairs
exactly 1 with every tuple); fewer tuples than n leave one unused. Then a
bounded depth-first search looks for n tuples that part in every factor,
a perfect d-dimensional matching (for d = 2, a permutation matrix inside
the support, as in Birkhoff-von Neumann). Such tuples use each index of
each factor once, so theta' = 1 on them meets every marginal: semistable.
The search gives up after one choice per support tuple. Only when it finds
none do forced zeros run. Call a tuple live while theta' may still be
positive on it. Every marginal row of a tensor is 0/1 with right side 1,
so if every live tuple with index j in factor i also has index j2 in
factor i2, the two marginals equal to 1 force theta' = 0 on every other
tuple with index j2 in factor i2. Each such kill follows from two
equalities and theta' >= 0, so it holds for every feasible theta', and
the rule runs until no kill is left. An index left with no live tuple is
unstable, as above; exactly n live tuples with no index left empty use
each index of each factor once, so theta' = 1 on them is feasible. A
perfect matching is itself a feasible theta', so no kill removes its
tuples: running the search first decides True wherever it would have
after the kills, and on a support the rest leave open the program is
built over the live tuples alone, since every feasible theta' is zero on
the dead ones. A support can be semistable with no perfect matching, its
theta' fractional; the program decides those. If no exponent vector uses
variable j of a form, mu = 1 - n * e_j is traceless and pairs d >= 1 with
every exponent, so that form is unstable with no program. Both first
steps read the support alone, so a header with a huge n and a short
support is decided at once.

Every public function that takes a support raises InputError
"not a tensor support: ..." or "not a symmetric support: ..." when handed
anything else.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from operator import mul

from .errors import InputError
from .exactlp import SlopeResult, _feasible, _slope
from .rationals import collection, expect, integers, rationals

__all__ = [
    "TensorSupport",
    "SymmetricSupport",
    "torus_valuation",
    "torus_rank",
    "symm_torus_rank",
    "expand_symmetric",
    "is_torus_semistable",
    "is_symm_torus_semistable",
]


@dataclass(frozen=True)
class TensorSupport:
    """Support of an order-d tensor on (k^n)^{tensor d}: 1-based index tuples."""

    order: int
    dims: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self):
        order, dims = integers((self.order, self.dims), "tensor order and dims", low=1)
        seen = frozenset(
            integers(t, "tensor support tuple", order, low=1, high=dims)
            for t in collection(self.tuples, "tensor support")
        )
        if not seen:
            raise InputError("tensor support must be nonempty")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "tuples", seen)

    @classmethod
    def _trusted(cls, order: int, dims: int, tuples: frozenset[tuple[int, ...]]) -> "TensorSupport":
        """The support with its fields kept as they are, unchecked: the caller
        guarantees a nonempty frozenset of int tuples of arity `order` with
        entries in 1..dims, as `__post_init__` would leave it."""
        support = object.__new__(cls)
        object.__setattr__(support, "order", order)
        object.__setattr__(support, "dims", dims)
        object.__setattr__(support, "tuples", tuples)
        return support

    @property
    def sorted_tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.tuples))


@dataclass(frozen=True)
class SymmetricSupport:
    """Support of a degree-d form in n variables: exponent vectors summing to d."""

    degree: int
    nvars: int
    exponents: frozenset[tuple[int, ...]]

    def __post_init__(self):
        degree, nvars = integers((self.degree, self.nvars), "form degree and nvars", low=1)
        exponents = tuple(integers(m, "exponent vector", nvars, low=0)
                          for m in collection(self.exponents, "symmetric support"))
        for m in exponents:
            if sum(m) != degree:
                raise InputError(
                    f"exponent vector {m} sums to {sum(m)}, expected degree {degree}"
                )
        if not exponents:
            raise InputError("symmetric support must be nonempty")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "exponents", frozenset(exponents))

    @property
    def sorted_exponents(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.exponents))


def torus_valuation(support: TensorSupport, weights) -> int:
    """min over support tuples of sum_i weights[i][j_i] for a diagonal subgroup."""
    expect(support, TensorSupport, "tensor support")
    rows = tuple(integers(w, "weight vector", support.dims, low=0)
                 for w in collection(weights, "weight assignment"))
    if len(rows) != support.order:
        raise InputError(
            f"weight assignment has {len(rows)} vectors, expected {support.order}"
        )
    return min(
        sum(rows[i][j - 1] for i, j in enumerate(t)) for t in support.sorted_tuples
    )


def _support_rows(support: TensorSupport) -> tuple[tuple[int, ...], ...]:
    n, d = support.dims, support.order
    rows = []
    for t in support.sorted_tuples:
        row = [0] * (n * d)
        for i, j in enumerate(t):
            row[i * n + (j - 1)] = 1
        rows.append(tuple(row))
    return tuple(rows)


def torus_rank(support: TensorSupport, alpha: Sequence | None = None) -> SlopeResult:
    """Stable rank of the tensor restricted to the diagonal torus.

    Upper bound on rk^G; exact for torus-optimal tensors. With weights
    alpha = (a_1, ..., a_d) the slope of a weight assignment lam is
    (sum_i a_i * sum_j lam_i[j]) / (min over tuples of sum_i lam_i[j_i]),
    and the infimum over integer assignments is attained by the exact LP
    minimum. The default alpha is all ones; entries must be positive. The
    cost of variable lam_i[j] is a_i.
    """
    expect(support, TensorSupport, "tensor support")
    n, d = support.dims, support.order
    avec = (1,) * d if alpha is None else rationals(alpha, "alpha", d)
    if any(a <= 0 for a in avec):
        raise InputError("alpha entries must be positive")
    return _slope(tuple(chain.from_iterable((a,) * n for a in avec)), _support_rows(support))


def symm_torus_rank(support: SymmetricSupport) -> SlopeResult:
    """Symmetric stable rank at the diagonal torus: inf over single integer
    weight vectors lam >= 0 of d * sum(lam) / min_m <m, lam>.

    Upper bound on the symmetric rk^G; exact for torus-optimal forms. Equals
    the multilinear torus rank of `expand_symmetric(support)` with unit
    alpha (tested as an invariant): one weight vector copied into every
    factor keeps its slope, and the column sum gamma_j = sum_i lam_i[j] of
    an assignment pairs with every exponent vector at least d times the
    assignment's valuation on the expanded support.
    """
    expect(support, SymmetricSupport, "symmetric support")
    return _slope((support.degree,) * support.nvars, support.sorted_exponents)


def expand_symmetric(support: SymmetricSupport) -> TensorSupport:
    """Support of the form viewed as a symmetric tensor: every arrangement
    (each exponent vector's full permutation orbit of index tuples)."""
    expect(support, SymmetricSupport, "symmetric support")
    tuples = []
    for m in support.sorted_exponents:
        tuples.extend(_arrangements(m))
    return TensorSupport._trusted(support.degree, support.nvars, frozenset(tuples))


def _arrangements(m: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The distinct index tuples holding index j exactly m[j-1] times, in
    lexicographic order, from the sorted one by the next-permutation step
    (Narayana Pandita): the rightmost entry below its right neighbour swaps
    with the rightmost larger entry after it, and the run after it reverses.
    Equal entries never swap, so no tuple repeats and the work is O(d) per
    tuple instead of d! per exponent vector."""
    a = [j for j, e in enumerate(m, start=1) for _ in range(e)]
    out = [tuple(a)]
    while True:
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return out
        k = len(a) - 1
        while a[k] <= a[i]:
            k -= 1
        a[i], a[k] = a[k], a[i]
        a[i + 1:] = a[:i:-1]
        out.append(tuple(a))


def _forced_zeros(tuples: tuple[tuple[int, ...], ...], n: int) -> bool | list[tuple[int, ...]]:
    """The semistability verdict of the support `tuples` over dims n when an
    unused index, a perfect matching or forced zeros decide it, else the
    live tuples, those whose theta' may still be positive.

    Fewer tuples than n are False, and bound the masks built. Bit c of
    every mask is tuple c, and class i * n + j - 1 is the mask of the tuples
    with index j in factor i, built factor by factor from the tuples as
    given, unsorted. An empty class is False, and a matching among all the
    tuples (`_matching`) is True. Only when the search finds none do the
    kills run: a live class inside another class kills that class's other
    tuples (module docstring), until no kill is left. An empty live class
    is then False, and n live tuples with none empty True.
    """
    if n > len(tuples):
        return False
    classes = []
    for column in zip(*tuples):
        masks, bit = [0] * n, 1
        for j in column:
            masks[j - 1] |= bit
            bit <<= 1
        classes += masks
    if not all(classes):
        return False
    if _matching(classes, len(tuples)) is not None:
        return True
    alive = (1 << len(tuples)) - 1
    while True:
        live = [m & alive for m in classes]
        if not all(live):
            return False
        if alive.bit_count() == n:
            return True
        before = alive
        for c in live:
            for other in classes:
                if c & other == c:
                    alive &= ~(other & ~c)
        if alive == before:
            return [t for c, t in enumerate(tuples) if alive >> c & 1]


def _matching(live: list[int], nodes: int) -> int | None:
    """The mask of live tuples that meet every class once, or None.

    `live` holds the live mask of every class. Depth first, the open class
    with the fewest live tuples is covered by each of its live tuples in
    turn, lowest first (`_choose`); the search ends when no class is open,
    at a dead end when an open class has no live tuple left, and gives up
    after `nodes` choices. Every tuple lies in one class of each factor,
    so the tuples found are n, and they use each index of each factor once.
    """
    frames = [(live, 0, min(live, key=int.bit_count))]
    while frames:
        classes, chosen, rest = frames.pop()
        if not rest:
            continue
        if not nodes:
            return None
        nodes -= 1
        bit = rest & -rest
        frames.append((classes, chosen, rest ^ bit))
        left = _choose(classes, bit)
        if not left:
            return chosen | bit
        frames.append((left, chosen | bit, min(left, key=int.bit_count)))
    return None


def _choose(classes: list[int], bit: int) -> list[int]:
    """The live masks of the classes left open once the tuple `bit` is
    chosen: every class that contains it closes, and its tuples die."""
    closed = 0
    for c in classes:
        if c & bit:
            closed |= c
    return [c & ~closed for c in classes if not c & bit]


def is_torus_semistable(support: TensorSupport) -> bool:
    """True when the uniform marginals lie in the moment polytope: some
    convex weights theta on the support tuples put mass 1/n on every index j
    of every factor i (torus semistability for the product of SL(n)'s).

    Decided with no program when an unused index, a perfect matching or
    forced zeros settle it (`_forced_zeros`): False when some factor i
    leaves an index j unused; True when the search (`_matching`) finds n
    tuples that part in every factor; else, after the kills, False when an
    index has no live tuple left and True when exactly n tuples stay live.
    On the benchmark's semistable pool at seed 1 that settles 322 of the
    336 tensor supports: 70 by an unused index, 174 by a matching and 78 by
    the kills. The 14 left are 11 semistable supports with no perfect
    matching and 3 unstable ones; the kills shrink 7 of them.

    Otherwise one exact feasibility program over theta' = n * theta, with a
    variable per live tuple, and the integer rows sum(theta') = n and, for
    every factor, the marginals of j = 1..n-1 equal to 1; the marginal of
    index n follows from those, and a row implied by the others would only
    leave an artificial to drive out after phase one. The 0/1 marginal rows
    are built one factor at a time, by setting the entry of each tuple's
    index. Neither n = 1 nor d = 1 is special: with n = 1 only
    sum(theta') = 1 remains, which every support meets (SL(1) is trivial),
    and with d = 1 a support that uses every index is all n basis vectors,
    which theta' = 1 meets (both are decided before any program).

    The columns are the tuples grouped by difference class, the tuple of
    (t_i - t_1) mod n, classes in order and each class by t_1. Two tuples
    of one class differ in every factor, so each run of columns is a
    partial matching of the marginal rows, and Bland's rule, which enters
    the least improving column, meets far fewer degenerate pivots than over
    the lexicographic order, whose neighbours share indices (on the
    benchmark's semistable pool at seed 1 before forced zeros, 3,116
    phase-one pivots against 4,348; on a 999-tuple support of order 4 over
    dims 25, 1,937 against 47,032). Only the verdict is returned, and
    feasibility does not depend on the order of the variables, so the order
    moves no answer. Only the live tuples are sorted, and only here.
    """
    expect(support, TensorSupport, "tensor support")
    n, d = support.dims, support.order
    live = _forced_zeros(tuple(support.tuples), n)
    if isinstance(live, bool):
        return live
    tuples = sorted(live, key=lambda t: ([(x - t[0]) % n for x in t], t))
    rows = [(1,) * len(tuples)]
    for i in range(d):
        marginals = [[0] * len(tuples) for _ in range(n - 1)]
        for c, t in enumerate(tuples):
            if t[i] < n:
                marginals[t[i] - 1][c] = 1
        rows += map(tuple, marginals)
    return _feasible(tuple(rows), (n,) + (1,) * (len(rows) - 1))


def is_symm_torus_semistable(support: SymmetricSupport) -> bool:
    """True when (d/n, ..., d/n) lies in the convex hull of the exponent
    vectors (torus semistability of the form for SL(n)).

    False, with no program built, when some variable j occurs in no
    exponent: mu = 1 - n * e_j is traceless and pairs d >= 1 with every
    exponent, so it destabilizes.

    Otherwise one exact feasibility program over theta' = (n / g) * theta,
    with g = gcd(n, d), a variable theta'_m per exponent vector and the n
    integer rows sum_m theta'_m * m_j = d / g; every m sums to d, so the
    rows already force sum(theta') = n / g. The right side d / g is the
    least integer multiple of d/n: a larger one would only widen the
    tableau. Neither n = 1 nor d = 1 is special: with n = 1 the one row
    reads d * sum(theta') = d, which every form meets, and with d = 1 a form
    that uses every variable has all n unit vectors as exponents, which
    theta' = 1 meets.

    The columns are the exponent vectors by sum(m_j^2) ascending, ties in
    lexicographic order: the balanced ones, nearest the point (d/n, ...,
    d/n), come first, so Bland's rule tries them before the extreme ones.
    Only the verdict is returned, and feasibility does not depend on the
    order of the variables, so the order moves no answer.
    """
    expect(support, SymmetricSupport, "symmetric support")
    rows = tuple(zip(*sorted(support.exponents, key=lambda m: (sum(map(mul, m, m)), m))))
    if not all(map(any, rows)):
        return False
    n, d = support.nvars, support.degree
    return _feasible(rows, (d // math.gcd(n, d),) * n)
