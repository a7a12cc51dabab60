"""Acceptance gate: twelve end-to-end criteria, one pass/fail line each.

Every criterion prints `PASS criterion NN: <name>` (or FAIL) so the suite
can be skimmed from the test log, and then asserts, so pytest stays the
source of truth.  All comparisons are exact unless a tolerance is stated
inline; criteria 1, 2, 3, and 5 also enforce their wall-clock budgets.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from diffcomp.chow import (
    compile_functional,
    degree2_chow_lower_bound,
    expand,
    functional_product_decomposition,
    homogenize,
    non_overlapping_rank,
    pm_polynomial,
    pm_relabelling,
    pm_restriction_to_p2,
    trivial_decomposition,
    verify,
    ChowDecomposition,
)
from diffcomp.cyclotomic import as_scalar, root_of_unity
from diffcomp.engine import (
    DifferentialComputer,
    count_eval,
    inverse_via_gradient,
    run_functional,
    run_matrix,
    run_vector,
)
from diffcomp.graphs import (
    Graph,
    graph_of_function,
    monomial_edge_listing,
    recovers_original,
    transform_T,
    transform_Tf,
    transform_set,
)
from diffcomp.listings import (
    FunctionTable,
    TruthTable,
    all_function_tables,
    lagrange_interpolant,
    lagrange_reduction,
    listing_constant_functions,
    listing_cyclic_group,
    listing_determinant,
    listing_functional_graphs,
    listing_from_truth_table,
    listing_graph_isomorphism,
    listing_permanent,
)
from diffcomp.multipoly import Monomial, MultiPoly, matrix_index


def report(num: int, name: str, failures: list[str]) -> None:
    print(f"{'FAIL' if failures else 'PASS'} criterion {num:02d}: {name}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures[:5])


def mono(*flat_vars: int) -> Monomial:
    return Monomial.of_vars(flat_vars)


def a(i: int, j: int, n: int) -> int:
    return matrix_index(n, i, j)


def test_criterion_01_functional_listing_reproduction():
    failures: list[str] = []
    start = time.perf_counter()
    p = listing_functional_graphs(2)
    expected = MultiPoly(4, {
        mono(a(0, 0, 2), a(1, 0, 2)): 1,
        mono(a(0, 0, 2), a(1, 1, 2)): 1,
        mono(a(0, 1, 2), a(1, 0, 2)): 1,
        mono(a(0, 1, 2), a(1, 1, 2)): 1,
    })
    if p != expected or len(p.terms) != 4:
        failures.append(f"listing is {p.terms}")
    step1 = p.partial_derivative(a(0, 1, 2))
    if step1 != MultiPoly.variable(a(1, 0, 2), 4) + MultiPoly.variable(a(1, 1, 2), 4):
        failures.append("d/d a01 did not give a10 + a11")
    step2 = step1.partial_derivative(a(0, 0, 2))
    if not step2.evaluate({}).is_zero():
        failures.append("second derivative at zero was nonzero")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    report(1, "four-term functional listing and its derivatives", failures)


def test_criterion_02_boolean_soundness_sweep():
    failures: list[str] = []
    start = time.perf_counter()

    def check_table(t: TruthTable) -> None:
        p = listing_from_truth_table(t)
        dc = DifferentialComputer(p, t.n, 1, "vector")
        for bits in itertools.product((0, 1), repeat=t.n):
            got = run_vector(dc, list(bits)).bit
            want = t.value(bits)
            if got != want:
                failures.append(f"n={t.n} yes={sorted(t.yes)} at {bits}: {got}!={want}")

    for n in range(3):  # exhaustive through n = 2
        cube = list(itertools.product((0, 1), repeat=n))
        for picks in itertools.product((0, 1), repeat=len(cube)):
            yes = [b for b, keep in zip(cube, picks) if keep]
            check_table(TruthTable.make(n, yes))
    rng = random.Random(2024)
    cube3 = list(itertools.product((0, 1), repeat=3))
    for _ in range(200):
        yes = [b for b in cube3 if rng.random() < 0.5]
        check_table(TruthTable.make(3, yes))
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s, budget 60s")
    report(2, "run_vector equals every sampled truth table", failures)


def test_criterion_03_permutation_predicate():
    failures: list[str] = []
    start = time.perf_counter()
    dc_det = DifferentialComputer(listing_determinant(3), 3, 2, "matrix")
    dc_per = DifferentialComputer(listing_permanent(3), 3, 1, "matrix")
    for cells in itertools.product((0, 1), repeat=9):
        B = [list(cells[r * 3:(r + 1) * 3]) for r in range(3)]
        is_perm = all(sum(row) == 1 for row in B) and all(
            sum(B[i][j] for i in range(3)) == 1 for j in range(3)
        )
        want = 1 if is_perm else 0
        for name, dc in (("Det", dc_det), ("Per", dc_per)):
            got = run_matrix(dc, B).bit
            if got != want:
                failures.append(f"{name} on {B}: {got} != {want}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, budget 10s")
    report(3, "Det/Per recognise permutation matrices on all 512 inputs", failures)


def test_criterion_04_counting_semantics():
    failures: list[str] = []
    n = 4
    k4 = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    cycles = set()
    for order in itertools.permutations(range(n)):
        edges = frozenset(
            (order[i], order[(i + 1) % n]) for i in range(n)
        )
        if all(k4[u][v] for u, v in edges):
            cycles.add(edges)
    oracle = len(cycles)
    p = listing_graph_isomorphism(Graph.cycle(4))
    counted = count_eval(p, k4)
    if counted != as_scalar(oracle):
        failures.append(f"C4 count {counted.to_text()} != oracle {oracle}")
    for size in range(1, 6):
        ones = [[1] * size for _ in range(size)]
        got = count_eval(listing_permanent(size), ones)
        if got != as_scalar(math.factorial(size)):
            failures.append(f"Per ones n={size}: {got.to_text()} != {size}!")
    report(4, "count_eval matches Hamiltonian-cycle and permanent counts", failures)


def test_criterion_05_rank_one_product_certificate():
    failures: list[str] = []
    start = time.perf_counter()
    for n in (2, 3, 4):
        cert = functional_product_decomposition(n)
        target = listing_functional_graphs(n)
        if cert.rho != 1:
            failures.append(f"n={n}: rho {cert.rho} != 1")
        if len(target.terms) != n ** n:
            failures.append(f"n={n}: listing has {len(target.terms)} terms")
        if not verify(cert, target):
            failures.append(f"n={n}: certificate rejected")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    report(5, "rho=1 product form expands to the n^n-term listing", failures)


def test_criterion_06_non_overlapping_rank():
    failures: list[str] = []
    for n in range(1, 6):
        for m in (2, 3, 4):
            p = pm_polynomial(n, m)
            triv = trivial_decomposition(p)
            if triv.rho != n or not verify(triv, p):
                failures.append(f"P_m n={n} m={m}: trivial decomposition broken")
            fixings, relabel, nvars = pm_restriction_to_p2(n, m)
            restricted = p.restrict_and_relabel(fixings, relabel, nvars)
            if degree2_chow_lower_bound(restricted) != n:
                failures.append(f"P_m n={n} m={m}: quadratic bound != {n}")
            count, cert = non_overlapping_rank(p), trivial_decomposition(p)
            if count != n or not verify(cert, p):
                failures.append(f"P_m n={n} m={m}: rank {count} != {n}")
    for builder in (listing_constant_functions, listing_cyclic_group):
        for n in range(1, 6):
            p = builder(n)
            triv = trivial_decomposition(p)
            if triv.rho != n or not verify(triv, p):
                failures.append(f"{builder.__name__} n={n}: trivial broken")
            if n < 2:
                continue  # degree-1 terms: the exact-rank rule needs degree >= 2
            count, cert = non_overlapping_rank(p), trivial_decomposition(p)
            if count != n or not verify(cert, p):
                failures.append(f"{builder.__name__} n={n}: rank {count} != {n}")
            witness = pm_relabelling(p)
            canonical = p.restrict_and_relabel(relabel=witness, nvars=n * n)
            if canonical != pm_polynomial(n, n):
                failures.append(f"{builder.__name__} n={n}: relabelling not canonical")
                continue
            fixings, relabel, nvars = pm_restriction_to_p2(n, n)
            restricted = canonical.restrict_and_relabel(fixings, relabel, nvars)
            if degree2_chow_lower_bound(restricted) != n:
                failures.append(f"{builder.__name__} n={n}: quadratic bound != {n}")
    report(6, "non-overlapping listings have Chow rank exactly n", failures)


def test_criterion_07_homogenization_preserves_verification():
    failures: list[str] = []
    rng = random.Random(1618)
    trials = 0
    while trials < 100:
        n = rng.randint(2, 4)
        d = rng.randint(2, 3)
        rho = rng.randint(1, 3)

        def linear_form(constant: int):
            row = [as_scalar(rng.randint(-2, 2)) for _ in range(n)]
            row.append(as_scalar(constant))
            return tuple(row)

        core = ChowDecomposition(rho, d, n, tuple(
            tuple(linear_form(0) for _ in range(d)) for _ in range(rho)
        ))
        target = expand(core)
        if not target.is_homogeneous(d):
            continue  # degenerate (zero) targets are still fine, but stay generic
        pad = tuple(linear_form(rng.randint(-2, 2)) for _ in range(d))
        negated = (tuple(-e for e in pad[0]),) + pad[1:]
        padded = ChowDecomposition(rho + 2, d, n, core.entries + (pad, negated))
        trials += 1
        if not verify(padded, target):
            failures.append(f"trial {trials}: padded certificate does not verify")
            continue
        h = homogenize(padded, target)
        if not h.is_homogeneous():
            failures.append(f"trial {trials}: result not homogeneous")
        if not verify(h, target):
            failures.append(f"trial {trials}: homogenized certificate rejected")
    report(7, "homogenize keeps 100 padded certificates valid", failures)


def test_criterion_08_compiled_functional_execution():
    failures: list[str] = []
    for builder in (listing_constant_functions, listing_cyclic_group):
        for n in (1, 2, 3):
            p = builder(n)
            cert = trivial_decomposition(p)
            dc = DifferentialComputer(p, n, 1, "functional")
            for g in all_function_tables(n):
                _, scalar = compile_functional(cert, g)
                run = run_functional(dc, g)
                if (not scalar.is_zero()) != (run.bit == 1):
                    failures.append(
                        f"{builder.__name__} n={n} g={g.images}: "
                        f"compiled {scalar.to_text()} vs bit {run.bit}"
                    )
    report(8, "compiled certificates match the differential computer", failures)


def test_criterion_09_transform_mechanics():
    failures: list[str] = []
    g = Graph.from_edges(2, [(0, 0), (0, 1)])  # monomial edge listing a00*a01
    if monomial_edge_listing(g) != MultiPoly(4, {mono(0, 1): 1}):
        failures.append("edge listing of the seed graph is wrong")
    t_image = transform_T(g)
    if t_image.images != (1, 1, 0, 0):
        failures.append(f"T(G) images {t_image.images}")
    expected_t = MultiPoly(16, {mono(
        a(0, 1, 4), a(1, 1, 4), a(2, 0, 4), a(3, 0, 4)
    ): 1})
    if monomial_edge_listing(graph_of_function(t_image)) != expected_t:
        failures.append("T(G) edge listing is not a01*a11*a20*a30")
    f0 = FunctionTable.constant(2, 0)  # M_f = a00*a10
    tf_image = transform_Tf(g, f0)
    expected_tf = MultiPoly(36, {mono(
        a(0, 0, 6), a(1, 0, 6), a(2, 1, 6), a(3, 1, 6), a(4, 0, 6), a(5, 0, 6)
    ): 1})
    if monomial_edge_listing(graph_of_function(tf_image)) != expected_tf:
        failures.append("T_f(G) edge listing is not a00*a10*a21*a31*a40*a50")

    rng = random.Random(909)
    for trial in range(50):
        n = rng.randint(1, 3)
        graph_count = rng.randint(1, 3)
        graph_set = []
        for _ in range(graph_count):
            edges = [
                (i, j)
                for i in range(n)
                for j in range(n)
                if rng.random() < 0.4
            ]
            graph_set.append(Graph.from_edges(n, edges))
        mode = rng.choice(["T", "Tf"]) if n >= 2 else "Tf"
        f = FunctionTable(2, (rng.randrange(2), rng.randrange(2))) \
            if mode == "Tf" else None
        result = transform_set(graph_set, f)
        if not recovers_original(result):
            failures.append(f"trial {trial}: recovery failed (n={n}, {mode})")
    report(9, "T and T_f reproduce the worked images and always restrict back", failures)


def test_criterion_10_lagrange_interpolation():
    failures: list[str] = []

    def check_table(t: TruthTable) -> None:
        L = lagrange_interpolant(t)
        for bits in itertools.product((0, 1), repeat=t.n):
            got = L.evaluate(dict(enumerate(bits)))
            if got != as_scalar(t.value(bits)):
                failures.append(f"L_F at {bits}: {got.to_text()}")
                return
        reduced = lagrange_reduction(t)
        p = listing_from_truth_table(t)
        if {m.support() for m in reduced.terms} != {m.support() for m in p.terms}:
            failures.append(f"reduction support mismatch for yes={sorted(t.yes)}")

    for n in range(3):
        cube = list(itertools.product((0, 1), repeat=n))
        for picks in itertools.product((0, 1), repeat=len(cube)):
            yes = [b for b, keep in zip(cube, picks) if keep]
            check_table(TruthTable.make(n, yes))
    rng = random.Random(515)
    cube3 = list(itertools.product((0, 1), repeat=3))
    for _ in range(200):
        yes = [b for b in cube3 if rng.random() < 0.5]
        check_table(TruthTable.make(3, yes))
    report(10, "Lagrange interpolants evaluate to F and reduce onto the listing", failures)


def test_criterion_11_inverse_via_gradient():
    failures: list[str] = []
    rng = random.Random(3141)

    def gauss_inverse(M):
        size = len(M)
        aug = [
            [Fraction(M[i][j]) for j in range(size)]
            + [Fraction(1 if j == i else 0) for j in range(size)]
            for i in range(size)
        ]
        for col in range(size):
            pivot = next(
                (r for r in range(col, size) if aug[r][col] != 0), None
            )
            if pivot is None:
                return None
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv_p = 1 / aug[col][col]
            aug[col] = [x * inv_p for x in aug[col]]
            for r in range(size):
                if r != col and aug[r][col]:
                    factor = aug[r][col]
                    aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
        return [row[size:] for row in aug]

    produced = 0
    while produced < 50:
        size = rng.randint(1, 4)
        M = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(size)]
            for _ in range(size)
        ]
        oracle = gauss_inverse(M)
        if oracle is None:
            continue
        produced += 1
        got = inverse_via_gradient(M)
        if got != oracle:
            failures.append(f"matrix {M}: gradient inverse disagrees")
    report(11, "gradient-of-determinant inverse matches Gaussian elimination", failures)


def test_criterion_12_numerical_derivative_check():
    failures: list[str] = []
    rng = random.Random(2718)

    def eval_complex(p: MultiPoly, xs: list[float]) -> complex:
        total = 0j
        for m, c in p.terms.items():
            value = c.to_complex()
            for v, e in m:
                value *= xs[v] ** e
            total += value
        return total

    points = 0
    while points < 100:
        nvars = rng.randint(2, 4)
        terms = {}
        for _ in range(rng.randint(2, 5)):
            monomial = Monomial.make(
                {v: rng.randint(0, 2) for v in range(nvars)}
            )
            coeff = root_of_unity(rng.choice([1, 2, 4]))
            coeff = coeff * as_scalar(
                Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            )
            terms[monomial] = coeff
        p = MultiPoly(nvars, terms)
        if p.is_zero():
            continue
        xs = [rng.uniform(-1.0, 1.0) for _ in range(nvars)]
        points += 1
        h = 1e-5
        for v in range(nvars):
            sym = eval_complex(p.partial_derivative(v), xs)
            up = xs.copy()
            down = xs.copy()
            up[v] += h
            down[v] -= h
            fd = (eval_complex(p, up) - eval_complex(p, down)) / (2 * h)
            scale = max(1.0, abs(sym), abs(fd))
            if abs(sym - fd) > 1e-6 * scale:
                failures.append(
                    f"point {points} var {v}: |{sym} - {fd}| > 1e-6 rel"
                )
    report(12, "symbolic derivatives match central finite differences", failures)
