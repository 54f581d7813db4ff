"""Seeded inputs and operations for the three workloads.

A workload is a pool of rounds. Every round holds the same slots in the same
order (one operation per slot), with inputs drawn afresh from the seed; a run
is one pass over the pool, so every run attempts the same whole rounds of
the same operations. `rank_rounds`, `semistable_rounds` and `write_cli_files`
turn generated data into library objects or input files: the set-up the
benchmark times.

Each slot fixes the shape of its inputs (dimensions, order, tuple count) and
the seed only picks the entries, so a pass costs about the same whatever the
seed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks
from checks import expect

ROUNDS = {"rank": 72, "semistable": 48, "cli": 10}


@dataclass
class Op:
    """One timed call. `call` runs inside the timed region; `check` runs after
    it, outside, and raises CheckFailed. `failed` decides whether the result
    is a failed operation (a command that did not succeed). A failure is a
    wrong answer unless `expected_failure` marks the operation as one that
    fails every time because of a known fault in the library."""

    slot: str
    call: Callable[[], object]
    check: Callable[[object], None]
    failed: Callable[[object], bool] = lambda result: False
    expected_failure: bool = False


# ---------------------------------------------------------------- raw inputs

def tensor_tuples(rng, n, d, k, skew=False, missing=None):
    """k distinct index tuples in [n]^d. `skew` favours low indices; `missing`
    = (factor, index) keeps that index out of that factor."""
    weights = [n - j for j in range(n)] if skew else [1] * n
    k = min(k, (n ** d) // 2)
    seen = set()
    while len(seen) < k:
        t = rng.choices(range(1, n + 1), weights, k=d)
        if missing is not None and t[missing[0]] == missing[1]:
            continue
        seen.add(tuple(t))
    return sorted(seen)


def compositions(total, parts):
    if parts == 1:
        return [(total,)]
    return [(h,) + t for h in range(total + 1) for t in compositions(total - h, parts - 1)]


def form_exponents(rng, d, n, k):
    return sorted(rng.sample(compositions(d, n), k))


def poly_generators(rng, nvars, lo, hi, gens, terms):
    """`gens` generators of `terms` terms each, of total degree in [lo, hi]."""
    out = []
    for _ in range(gens):
        poly = {}
        while len(poly) < terms:
            deg = rng.randint(lo, hi)
            cut = sorted(rng.randint(0, deg) for _ in range(nvars - 1))
            exps = tuple(b - a for a, b in zip([0] + cut, cut + [deg]))
            poly[exps] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        out.append(poly)
    return out


def unipotent_matrix(rng, n):
    """An invertible change: a permuted unit upper-triangular matrix."""
    rows = [[Fraction(int(i == j)) if j <= i else Fraction(rng.randint(-2, 2))
             for j in range(n)] for i in range(n)]
    rows = [list(r) for r in zip(*rows)]  # upper triangular
    order = list(range(n))
    rng.shuffle(order)
    return [rows[i] for i in order]


def monomial_generators(rng, nvars, count, top):
    gens = set()
    while len(gens) < count:
        g = tuple(rng.randint(0, top) for _ in range(nvars))
        if any(g):
            gens.add(g)
    return sorted(gens)


def alpha_vector(rng, d):
    return tuple(Fraction(p, q) for p, q in
                 (rng.choice([(1, 2), (2, 3), (1, 1), (3, 2), (2, 1), (5, 2)]) for _ in range(d)))


# ---------------------------------------------------------- in-process ops

def _tensor_rank_op(sb, slot, support, alpha=None):
    return Op(slot, lambda: sb.torus_rank(support, alpha),
              lambda r: checks.check_tensor_rank(support, alpha, r))


def _closed_op(sb, rng, index):
    """Inputs whose rank or threshold is known in closed form."""
    kind = index % 5
    if kind == 0:  # the W state
        w = sb.TensorSupport(3, 2, [(2, 1, 1), (1, 2, 1), (1, 1, 2)])

        def check(r):
            checks.check_tensor_rank(w, None, r)
            expect(r.value == Fraction(3, 2), f"W state rank {r.value} != 3/2")
        return Op("closed_w", lambda: sb.torus_rank(w), check)
    if kind == 1:  # diagonal tensor support: rank n
        n = rng.randint(4, 6)
        diag = sb.TensorSupport(4, n, [(j,) * 4 for j in range(1, n + 1)])

        def check(r):
            checks.check_tensor_rank(diag, None, r)
            expect(r.value == n, f"diagonal support rank {r.value} != {n}")
        return Op("closed_diagonal", lambda: sb.torus_rank(diag), check)
    if kind == 2:  # single-exponent form m: rank d / max m_i
        n, d = rng.randint(3, 4), rng.randint(4, 8)
        m = rng.choice(compositions(d, n))
        form = sb.SymmetricSupport(d, n, [m])

        def check(r):
            checks.check_form_rank(form, r)
            expect(r.value == Fraction(d, max(m)), f"single form {m} rank {r.value}")
        return Op("closed_form", lambda: sb.symm_torus_rank(form), check)
    if kind == 3:  # diagonal ideal: lct = sum 1/e_i
        exps = [rng.randint(1, 9) for _ in range(rng.randint(4, 8))]
        n = len(exps)
        ideal = sb.MonomialIdeal(n, [tuple(e if i == j else 0 for j in range(n))
                                     for i, e in enumerate(exps)])
        expected = sum(Fraction(1, e) for e in exps)
        return Op("closed_diag_ideal", lambda: sb.lct_monomial(ideal),
                  lambda v: expect(v == expected, f"diagonal lct {v} != {expected}"))
    a = tuple(rng.randint(0, 9) for _ in range(rng.randint(4, 8)))
    a = a if any(a) else (1,) + a[1:]
    ideal = sb.MonomialIdeal(len(a), [a])
    expected = Fraction(1, max(a))
    return Op("closed_principal", lambda: sb.lct_monomial(ideal),
              lambda v: expect(v == expected, f"principal lct {v} != {expected}"))


SYMM_SHAPES = ((4, 3, 6), (4, 4, 5), (4, 3, 6), (5, 3, 5))  # (degree, nvars, monomials)


def _symm_compare_op(sb, rng, index):
    d, n, k = SYMM_SHAPES[index % len(SYMM_SHAPES)]
    form = sb.SymmetricSupport(d, n, form_exponents(rng, d, n, k))

    def call():
        return sb.symm_torus_rank(form), sb.torus_rank(sb.expand_symmetric(form))

    def check(pair):
        symm, multi = pair
        checks.check_form_rank(form, symm)
        expect(symm.value == multi.value,
               f"symmetric rank {symm.value} != expanded rank {multi.value}")
    return Op("symm_compare", call, check)


def _ideal_change_op(sb, rng):
    gens = poly_generators(rng, 3, 8, 12, rng.randint(2, 3), rng.randint(2, 3))
    ideal = sb.PolyIdeal(3, [sb.SparsePolynomial(3, g) for g in gens])
    change = sb.LinearChange(unipotent_matrix(rng, 3))
    point = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]

    def call():
        moved = sb.PolyIdeal(3, [sb.apply_linear_change(g, change) for g in ideal.generators])
        return moved, sb.t_stable_rank(moved)

    def check(pair):
        moved, result = pair
        checks.check_change(ideal, moved, change.matrix, point)
        checks.check_ideal_rank(checks.ideal_rows(moved), result)
    return Op("ideal_change", call, check)


def _lct_op(sb, rng):
    n = rng.randint(4, 8)
    ideal = sb.MonomialIdeal(n, monomial_generators(rng, n, rng.randint(4, 8), 6))

    def check(value):
        threshold = sb.newton_threshold(ideal)
        expect(value == threshold, f"lct {value} != Newton threshold {threshold}")
    return Op("lct", lambda: sb.lct_monomial(ideal), check)


def rank_rounds(sb, seed):
    rng = random.Random(f"rank:{seed}")
    rounds = []
    for index in range(ROUNDS["rank"]):
        n = 4 + index % 2
        rounds.append([
            _tensor_rank_op(sb, "tensor_uniform4", sb.TensorSupport(
                4, 4, tensor_tuples(rng, 4, 4, 30))),
            _tensor_rank_op(sb, "tensor_uniform5", sb.TensorSupport(
                4, 5, tensor_tuples(rng, 5, 4, 40))),
            _tensor_rank_op(sb, "tensor_skewed", sb.TensorSupport(
                4, 4, tensor_tuples(rng, 4, 4, 40, skew=True))),
            _tensor_rank_op(sb, "tensor_alpha", sb.TensorSupport(
                4, n, tensor_tuples(rng, n, 4, 85 - 10 * n)), alpha_vector(rng, 4)),
            _symm_compare_op(sb, rng, index),
            _ideal_change_op(sb, rng),
            _lct_op(sb, rng),
            _closed_op(sb, rng, index),
        ])
    return rounds


# ---------------------------------------------------------- semistable ops

def _tensor_ss_op(sb, slot, support, expected=None):
    reference: dict = {}  # the rank, computed on the first check only

    def check(flag):
        if reference.get("rank") is None:
            reference["rank"] = sb.torus_rank(support)
            checks.check_tensor_rank(support, None, reference["rank"])
        rank = reference["rank"].value
        expect(flag == (rank == support.dims),
               f"semistable verdict {flag} but torus rank {rank}, n = {support.dims}")
        if expected is not None:
            expect(flag == expected, f"semistable verdict {flag}, closed form says {expected}")
    return Op(slot, lambda: sb.is_torus_semistable(support), check)


def _form_ss_op(sb, rng, d, n, k):
    form = sb.SymmetricSupport(d, n, form_exponents(rng, d, n, k))
    reference: dict = {}

    def check(flag):
        if reference.get("rank") is None:
            reference["rank"] = sb.symm_torus_rank(form)
            checks.check_form_rank(form, reference["rank"])
        rank = reference["rank"].value
        expect(flag == (rank == n),
               f"form semistable verdict {flag} but symmetric rank {rank}, n = {n}")
    return Op("form", lambda: sb.is_symm_torus_semistable(form), check)


def semistable_rounds(sb, seed):
    rng = random.Random(f"semistable:{seed}")
    rounds = []
    diag = [(j,) * 4 for j in range(1, 4)]
    for _ in range(ROUNDS["semistable"]):
        missing = (rng.randrange(4), rng.randint(1, 3))
        rounds.append([
            _form_ss_op(sb, rng, 4, 4, 5),
            _form_ss_op(sb, rng, 3, 4, 5),
            _tensor_ss_op(sb, "uniform_n3_d3", sb.TensorSupport(3, 3, tensor_tuples(rng, 3, 3, 10))),
            _tensor_ss_op(sb, "uniform_n4_d3", sb.TensorSupport(3, 4, tensor_tuples(rng, 4, 3, 15))),
            _tensor_ss_op(sb, "skewed_n4_d3", sb.TensorSupport(
                3, 4, tensor_tuples(rng, 4, 3, 16, skew=True))),
            _tensor_ss_op(sb, "skewed_n3_d4", sb.TensorSupport(
                4, 3, tensor_tuples(rng, 3, 4, 16, skew=True))),
            _tensor_ss_op(sb, "with_diagonal", sb.TensorSupport(
                4, 3, sorted(set(diag) | set(tensor_tuples(rng, 3, 4, 17)))), expected=True),
            _tensor_ss_op(sb, "missing_index", sb.TensorSupport(
                4, 3, tensor_tuples(rng, 3, 4, 20, missing=missing)), expected=False),
            _tensor_ss_op(sb, "uniform_n4_d4", sb.TensorSupport(4, 4, tensor_tuples(rng, 4, 4, 20))),
        ])
    return rounds


# ---------------------------------------------------------------- cli ops

CLI_MAIN = "from stablerank.cli import main; main()"
# rank ideal of x1^1200 under any --change ends in a RecursionError today; the
# input does not depend on the seed, so the failure is the same in every run
DEEP_PIDEAL = "pideal 2\n1 : 1200 0\n1 : 0 1\n"
DIAGONAL_MATRIX = "matrix 2\n2 0\n0 3\n"
# The speed gauge for command-line calls: a child of the same interpreter, with
# the same environment, that imports standard modules from the bytecode prefix
# and does some Fraction arithmetic; it uses nothing of stablerank.
PROBE_CHILD = """\
import argparse, dataclasses, json, random
from fractions import Fraction
total = Fraction(0)
for i in range(1, 300):
    total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
"""
VERIFY_SUITES = ("symm-multi", "semistable", "monomial-lct", "ideal-props", "lct-bound", "all")


@dataclass
class Finished:
    returncode: int
    stdout: str
    stderr: str


class Cli:
    """Launches `python -S` children one at a time with the benchmark's
    bytecode cache; a traced launch goes through the span-recording shim.
    Output goes through files in `work_dir`, so that each child can be reaped
    with os.wait4 and its own peak memory read; `peak_kb` keeps the largest."""

    def __init__(self, src_dir, work_dir, shim=None):
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(PYTHONPATH=src_dir, PYTHONDONTWRITEBYTECODE="1",
                        PYTHONPYCACHEPREFIX=os.path.join(work_dir, "pycache"))
        self.work_dir, self.shim = work_dir, shim
        self.calls = self.peak_kb = 0

    def compile_bytecode(self):
        """Import the command line once with writing allowed, so that every
        standard module it imports has bytecode in the prefix (a prefix
        redirects the standard library's bytecode too). The package's own
        bytecode is compiled by the timed set-up."""
        env = {k: v for k, v in self.env.items() if k != "PYTHONDONTWRITEBYTECODE"}
        subprocess.run([sys.executable, "-S", "-c", "import stablerank.cli"], env=env,
                       check=True, timeout=120)

    def probe_s(self) -> float:
        """Wall time of the PROBE_CHILD gauge."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-S", "-c", PROBE_CHILD], env=self.env, check=True,
                       timeout=120)
        return time.perf_counter() - start

    def command(self, args):
        if self.shim is None:
            return [sys.executable, "-S", "-c", CLI_MAIN, *args]
        self.calls += 1
        spans = os.path.join(self.work_dir, "spans", f"{self.calls:05d}.json")
        return [sys.executable, "-S", self.shim, spans, *args]

    def __call__(self, args):
        out_path = os.path.join(self.work_dir, "stdout.txt")
        err_path = os.path.join(self.work_dir, "stderr.txt")
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            proc = subprocess.Popen(self.command(args), env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
            return Finished(proc.returncode, out.read().decode(), err.read().decode())


def parse_output(stdout, as_json):
    """(value, witness) from a command's output, in the JSON shape."""
    if as_json:
        data = json.loads(stdout)
        return data["value"], data["witness"]
    value, witness = None, []
    for line in stdout.splitlines():
        key, _, rest = line.partition(": ")
        if key == "value":
            value = rest
        elif key == "witness":
            groups = [[int(x) for x in g.split()] for g in rest.split(" / ")]
            witness = groups if " / " in rest else groups[0]
        elif key == "failures":
            value = rest
    return value, witness


def _expected(sb, argv, files):
    """The in-process result for one command line, in the command's shape."""
    cmd = argv[0]
    if cmd == "verify":
        return "0", []
    if cmd == "rank" and argv[1] == "tensor":
        support = files[argv[2]]
        alpha = None
        if "--alpha" in argv:
            alpha = tuple(Fraction(a) for a in argv[argv.index("--alpha") + 1].split(","))
        r = sb.torus_rank(support, alpha)
        checks.check_tensor_rank(support, alpha, r)
        n = support.dims
        return checks.fmt(r.value), [list(r.witness[i * n:(i + 1) * n])
                                     for i in range(support.order)]
    if cmd == "rank" and argv[1] == "symm":
        r = sb.symm_torus_rank(files[argv[2]])
        checks.check_form_rank(files[argv[2]], r)
        return checks.fmt(r.value), list(r.witness)
    if cmd == "rank":
        ideal = files[argv[2]]
        candidates = [sb.t_stable_rank(ideal)]
        if "--change" in argv:
            base = ideal.to_poly_ideal() if isinstance(ideal, sb.MonomialIdeal) else ideal
            change = files[argv[argv.index("--change") + 1]]
            moved = sb.PolyIdeal(base.nvars, [sb.apply_linear_change(g, change)
                                              for g in base.generators])
            candidates.append(sb.t_stable_rank(moved))
            checks.check_ideal_rank(checks.ideal_rows(moved), candidates[-1])
        checks.check_ideal_rank(checks.ideal_rows(ideal), candidates[0])
        best = min(candidates, key=lambda r: r.value)
        return checks.fmt(best.value), list(best.witness or [])
    if cmd == "lct":
        ideal = files[argv[1]]
        value = sb.lct_monomial(ideal)
        expect(value == sb.newton_threshold(ideal), "lct differs from the Newton threshold")
        return checks.fmt(value), list(sb.t_stable_rank(ideal).witness)
    payload = files[argv[1]]
    if isinstance(payload, sb.TensorSupport):
        flag = sb.is_torus_semistable(payload)
    else:
        flag = sb.is_symm_torus_semistable(payload)
    return ("1" if flag else "0"), []


def cli_op(sb, cli, slot, argv, paths, objects, cache):
    """One command line; its check compares the printed value and witness with
    the in-process result for the same files (computed once per command). A
    non-zero exit is a failure; only the `deep_change` slot is expected to
    fail (a `verify` call that finds failures exits 1, a wrong answer)."""
    def check(proc):
        key = tuple(argv)
        if key not in cache:
            cache[key] = _expected(sb, argv, objects)
        printed = parse_output(proc.stdout, "--json" in argv)
        expect(printed == cache[key],
               f"{' '.join(argv)}: printed {printed}, in-process {cache[key]}")
    return Op(slot, lambda: cli([paths.get(a, a) for a in argv]), check,
              lambda proc: proc.returncode != 0, expected_failure=slot == "deep_change")


def write_cli_files(sb, seed, directory):
    """Write every input file of the cli pool into `directory`. Returns the
    rounds as (slot, argv) lists naming files by their base name, the path of
    each file, and the parsed object of each file."""
    rng = random.Random(f"cli:{seed}")
    texts = {"deep.txt": DEEP_PIDEAL, "diag.txt": DIAGONAL_MATRIX}
    rounds = []
    for index in range(ROUNDS["cli"]):
        p = f"r{index}-"
        texts[p + "tensor.txt"] = "tensor 3 3\n" + "".join(
            " ".join(map(str, t)) + "\n" for t in tensor_tuples(rng, 3, 3, rng.randint(8, 12)))
        texts[p + "tensor4.txt"] = "tensor 4 3\n" + "".join(
            " ".join(map(str, t)) + "\n" for t in tensor_tuples(rng, 3, 4, rng.randint(10, 16)))
        d, n = rng.choice([(3, 3), (4, 3), (3, 4)])
        texts[p + "symm.txt"] = f"symm {d} {n}\n" + "".join(
            " ".join(map(str, m)) + "\n" for m in form_exponents(rng, d, n, rng.randint(3, 5)))
        n = rng.randint(3, 4)
        texts[p + "mideal.txt"] = f"mideal {n}\n" + "".join(
            " ".join(map(str, g)) + "\n" for g in monomial_generators(rng, n, rng.randint(3, 6), 5))
        gens = poly_generators(rng, 2, 2, 6, rng.randint(1, 3), rng.randint(1, 3))
        texts[p + "pideal.txt"] = "pideal 2\n" + "--\n".join(
            "".join(f"{c} : {' '.join(map(str, e))}\n" for e, c in sorted(g.items()))
            for g in gens)
        texts[p + "mideal3.txt"] = "mideal 3\n" + "".join(
            " ".join(map(str, g)) + "\n" for g in monomial_generators(rng, 3, 3, 3))
        texts[p + "matrix2.txt"] = "matrix 2\n" + "".join(
            " ".join(map(str, row)) + "\n" for row in unipotent_matrix(rng, 2))
        texts[p + "matrix3.txt"] = "matrix 3\n" + "".join(
            " ".join(map(str, row)) + "\n" for row in unipotent_matrix(rng, 3))
        alpha = ",".join(str(a) for a in alpha_vector(rng, 3))
        suite = VERIFY_SUITES[index % len(VERIFY_SUITES)]
        cases = str(10 + 2 * (index % 6))
        rounds.append([
            ("rank_tensor", ["rank", "tensor", p + "tensor.txt"]),
            ("rank_tensor_json", ["rank", "tensor", p + "tensor4.txt", "--json"]),
            ("rank_tensor_alpha", ["rank", "tensor", p + "tensor.txt", "--alpha", alpha]),
            ("rank_tensor_alpha_json", ["rank", "tensor", p + "tensor.txt", "--alpha", alpha,
                                        "--json"]),
            ("rank_symm", ["rank", "symm", p + "symm.txt"]),
            ("rank_symm_json", ["rank", "symm", p + "symm.txt", "--json"]),
            ("rank_ideal", ["rank", "ideal", p + "pideal.txt"]),
            ("rank_ideal_json", ["rank", "ideal", p + "mideal.txt", "--json"]),
            ("rank_ideal_change", ["rank", "ideal", p + "pideal.txt", "--change",
                                   p + "matrix2.txt"]),
            ("rank_ideal_change_json", ["rank", "ideal", p + "mideal3.txt", "--change",
                                        p + "matrix3.txt", "--json"]),
            ("lct", ["lct", p + "mideal.txt"]),
            ("lct_json", ["lct", p + "mideal.txt", "--json"]),
            ("semistable", ["semistable", p + "tensor4.txt"]),
            ("semistable_json", ["semistable", p + "symm.txt", "--json"]),
            ("verify", ["verify", suite, "--seed", str(rng.randint(0, 10 ** 6)), "--cases", cases]),
            ("verify_json", ["verify", VERIFY_SUITES[(index + 3) % len(VERIFY_SUITES)],
                             "--seed", str(rng.randint(0, 10 ** 6)), "--cases", cases, "--json"]),
            ("deep_change", ["rank", "ideal", "deep.txt", "--change", "diag.txt"]),
        ])
    paths, objects = {}, {}
    for name, text in texts.items():
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths[name] = path
        objects[name] = sb.parse_input(text).payload
    return rounds, paths, objects
