"""Listing builders against hand computations and brute-force enumerations."""

from __future__ import annotations

import itertools
import math
import random
import re
import tracemalloc
from operator import add

import pytest

from diffcomp.cyclotomic import ONE, as_scalar, root_of_unity
from diffcomp.errors import DimensionError, FormatError, NotApplicableError, SizeCapError, charge
from diffcomp import graphs, listings
from diffcomp.graphs import Graph
from diffcomp.listings import (
    FACTORS_PER_TERM,
    FunctionTable,
    TruthTable,
    all_function_tables,
    lagrange_interpolant,
    lagrange_reduction,
    lex_index,
    listing_constant_functions,
    listing_cyclic_group,
    listing_determinant,
    listing_from_truth_table,
    listing_functional_graphs,
    listing_graph_isomorphism,
    listing_permanent,
)
from diffcomp.multipoly import Monomial, MultiPoly, matrix_index


def cube(n):
    return list(itertools.product((0, 1), repeat=n))


def mono_of_pairs(n, pairs):
    return Monomial.of_vars(matrix_index(n, i, j) for i, j in pairs)


def with_lex_phases(t):
    """The canonical phase choice: instance b gets exponent lex_index(b) mod m."""
    return TruthTable(t.n, t.m, t.yes, {b: lex_index(b) for b in t.yes})


def truth_table_from_listing(p, m=None, n=None):
    """Invert listing_from_truth_table: recover yes-instances and phases.

    Every coefficient must be a power of w_m; anything else means p is not
    an additive listing of order m.
    """
    m = p.coefficient_order() if m is None else m
    n = p.nvars if n is None else n
    phases = {}
    for mono, c in p.terms.items():
        if not mono.is_multilinear():
            raise DimensionError(f"non-multilinear monomial {mono} in a listing")
        b = tuple(1 if mono.exponent(i) else 0 for i in range(n))
        if (k := next((k for k in range(m) if c == root_of_unity(m, k)), None)) is None:
            raise DimensionError(f"coefficient {c} is not an order-{m} root of unity")
        phases[b] = k
    return TruthTable.make(n, phases, m, phases)


def monomial_support_equals(p, t):
    """Does p's monomial support enumerate exactly t's yes-instances?"""
    if not p.is_multilinear():
        raise DimensionError("support comparison needs a multilinear polynomial")
    instance_supports = {frozenset(i for i, bit in enumerate(b) if bit) for b in t.yes}
    return {m.support() for m in p.terms} == instance_supports


def test_lex_index_is_big_endian():
    assert lex_index((0, 0)) == 0
    assert lex_index((0, 1)) == 1
    assert lex_index((1, 0)) == 2
    assert lex_index((1, 0, 1)) == 5
    assert lex_index(()) == 0


def test_truth_table_normalizes_phases():
    t = TruthTable.make(2, [(1, 1), (0, 1)], m=3, phases={(1, 1): 5})
    assert t.phases[(1, 1)] == 2  # 5 mod 3
    assert t.phases[(0, 1)] == 0  # default
    assert t.value((1, 1)) == 1
    assert t.value((1, 0)) == 0


def test_truth_table_rejects_bad_input():
    with pytest.raises(ValueError):
        TruthTable.make(2, [(1, 1, 1)])
    with pytest.raises(ValueError):
        TruthTable.make(2, [(1, 2)])
    with pytest.raises(ValueError):
        TruthTable.make(2, [(1, 1)], m=0)
    with pytest.raises(ValueError):
        TruthTable(2, 2, frozenset([(1, 1)]), {(0, 0): 1})  # phase for a no-instance


@pytest.mark.parametrize("vector", [(1, 2), (0, -1), (1,), (0, 1, 1)])
def test_a_bad_bit_vector_is_named_in_a_dimension_error(vector):
    message = f"^{re.escape(f'expected a length-2 bit vector, got {vector}')}$"
    with pytest.raises(DimensionError, match=message):
        TruthTable.make(2, [vector])
    with pytest.raises(DimensionError, match=message):
        TruthTable.make(2, []).value(vector)


def test_true_and_the_digit_1_are_the_bit_1():
    t = TruthTable.make(3, [(True, "1", 0)])
    assert t.yes == {(1, 1, 0)}
    assert all(type(x) is int for b in t.yes for x in b)
    assert t.value(("1", True, False)) == 1


def test_truth_table_m1_forces_zero_phases():
    t = TruthTable.make(1, [(1,)], m=1, phases={(1,): 3})
    assert t.phases[(1,)] == 0


def test_with_lex_phases():
    t = with_lex_phases(TruthTable.make(2, cube(2), m=4))
    assert t.phases == {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}


def test_truth_table_text_round_trip():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(0, 3)
        m = rng.choice([1, 2, 3, 4])
        yes = [b for b in cube(n) if rng.random() < 0.6]
        t = TruthTable.make(n, yes, m, {b: rng.randrange(m) for b in yes})
        assert TruthTable.from_text(t.to_text()) == t


@pytest.mark.parametrize(
    "bad",
    ["", "2\n", "2 0\n", "2 1\n111 0\n", "2 1\n12 0\n", "2 1\n01 x\n",
     "2 1\n01 0\n01 0\n", "x 1\n"],
)
def test_truth_table_text_rejects_garbage(bad):
    with pytest.raises(FormatError):
        TruthTable.from_text(bad)


def test_function_table_validation():
    f = FunctionTable(3, (1, 2, 0))
    assert f(0) == 1 and f(2) == 0
    with pytest.raises(ValueError):
        FunctionTable(2, (0, 2))
    with pytest.raises(ValueError):
        FunctionTable(2, (0,))
    assert FunctionTable.constant(3, 2).images == (2, 2, 2)
    assert FunctionTable.identity(2).images == (0, 1)
    assert FunctionTable.shift(3, 1).images == (1, 2, 0)


def test_all_function_tables_count():
    for n in (1, 2, 3):
        assert sum(1 for _ in all_function_tables(n)) == n**n


# -- vector listings -----------------------------------------------------------


def test_and_listing_is_single_monomial():
    t = TruthTable.make(2, [(1, 1)])
    assert listing_from_truth_table(t) == MultiPoly(2, {Monomial.of_vars([0, 1]): 1})


def test_equals_S_listing_is_product_of_members():
    # yes instance = indicator of S = {0, 2} inside Z_3
    t = TruthTable.make(3, [(1, 0, 1)])
    p = listing_from_truth_table(t)
    assert p == MultiPoly(3, {Monomial.of_vars([0, 2]): 1})


def test_subset_listing_equals_expanded_product():
    # F_{<=S} for S = {0,1}: yes instances are the subsets of S
    t = TruthTable.make(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    p = listing_from_truth_table(t)
    x0, x1 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
    assert p == (1 + x0) * (1 + x1)


def test_all_zeros_instance_gives_constant_term():
    t = TruthTable.make(2, [(0, 0)], m=4, phases={(0, 0): 1})
    p = listing_from_truth_table(t)
    assert p.coefficient(Monomial()) == root_of_unity(4)


def test_listing_round_trip_recovers_table():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(0, 4)
        m = rng.choice([1, 2, 3, 4, 6])
        yes = [b for b in cube(n) if rng.random() < 0.5]
        t = TruthTable.make(n, yes, m, {b: rng.randrange(m) for b in yes})
        p = listing_from_truth_table(t)
        assert truth_table_from_listing(p, m, n) == t


def test_round_trip_rejects_non_root_coefficients():
    p = MultiPoly(1, {Monomial.of_vars([0]): 2})
    with pytest.raises(ValueError):
        truth_table_from_listing(p, 1, 1)


# -- matrix listings -----------------------------------------------------------


def test_functional_graph_listing_n2_matches_hand_expansion():
    p = listing_functional_graphs(2)
    expected = MultiPoly(
        4,
        {
            mono_of_pairs(2, [(0, 0), (1, 0)]): 1,
            mono_of_pairs(2, [(0, 0), (1, 1)]): 1,
            mono_of_pairs(2, [(0, 1), (1, 0)]): 1,
            mono_of_pairs(2, [(0, 1), (1, 1)]): 1,
        },
    )
    assert p == expected


def test_functional_graph_listing_n1():
    assert listing_functional_graphs(1) == MultiPoly(1, {Monomial.of_vars([0]): 1})


def test_functional_graph_listing_n3_term_census():
    p = listing_functional_graphs(3)
    assert len(p.terms) == 27
    assert all(m.degree() == 3 and m.is_multilinear() for m in p.terms)


def test_functional_listing_equals_row_sum_product():
    # the rho = 1 separation identity: sum over f = prod_i (sum_j a_{i,j})
    for n in (1, 2, 3, 4):
        rows = MultiPoly.constant(1, n * n)
        for i in range(n):
            row = MultiPoly(n * n)
            for j in range(n):
                row = row + MultiPoly.variable(matrix_index(n, i, j), n * n)
            rows = rows * row
        assert listing_functional_graphs(n) == rows


def test_functional_listing_size_cap(monkeypatch):
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "100")
    with pytest.raises(SizeCapError):
        listing_functional_graphs(4)  # 256 > 100
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "256")
    assert len(listing_functional_graphs(4).terms) == 256


def test_default_cap_stops_n7():
    with pytest.raises(SizeCapError):
        listing_functional_graphs(7)  # 7^7 = 823543 over the default cap


def test_permanent_and_determinant_n2():
    per = listing_permanent(2)
    det = listing_determinant(2)
    a00a11 = mono_of_pairs(2, [(0, 0), (1, 1)])
    a01a10 = mono_of_pairs(2, [(0, 1), (1, 0)])
    assert per == MultiPoly(4, {a00a11: 1, a01a10: 1})
    assert det == MultiPoly(4, {a00a11: 1, a01a10: -1})


def test_determinant_n3_sign_census():
    det = listing_determinant(3)
    assert len(det.terms) == 6
    minus = as_scalar(-1)
    negatives = sum(1 for c in det.terms.values() if c == minus)
    assert negatives == 3
    # spot-check: the 3-cycle sigma = (0 1 2) -> images (1, 2, 0) is even
    even_cycle = mono_of_pairs(3, [(0, 1), (1, 2), (2, 0)])
    assert det.coefficient(even_cycle) == ONE


def test_determinant_coefficients_live_in_order_two():
    assert listing_determinant(3).coefficient_order() == 2


def test_permanent_equals_permutation_predicate_listing():
    # Per = the binary listing of "is a permutation matrix" on n^2 inputs
    n = 3
    per = listing_permanent(n)
    yes = []
    for flat in cube(n * n):
        rows = [flat[n * i : n * i + n] for i in range(n)]
        if all(sum(r) == 1 for r in rows) and all(
            sum(rows[i][j] for i in range(n)) == 1 for j in range(n)
        ):
            yes.append(flat)
    t = TruthTable.make(n * n, yes)
    assert per == listing_from_truth_table(t)


def test_graph_isomorphism_single_edge():
    g = Graph.from_edges(2, [(0, 1)])
    p = listing_graph_isomorphism(g)
    assert p == MultiPoly(
        4, {mono_of_pairs(2, [(0, 1)]): 1, mono_of_pairs(2, [(1, 0)]): 1}
    )


def test_graph_isomorphism_directed_triangle():
    p = listing_graph_isomorphism(Graph.cycle(3))
    expected = MultiPoly(
        9,
        {
            mono_of_pairs(3, [(0, 1), (1, 2), (2, 0)]): 1,
            mono_of_pairs(3, [(0, 2), (2, 1), (1, 0)]): 1,
        },
    )
    assert p == expected  # 3!/|Aut(C3)| = 2 placements


def test_graph_isomorphism_empty_graph():
    p = listing_graph_isomorphism(Graph.empty(2))
    assert p == MultiPoly.constant(1, 4)


def test_graph_isomorphism_term_count_is_coset_count():
    # n! / |Aut(G)| distinct conjugates for a path 0 -> 1 -> 2: Aut is trivial
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert len(listing_graph_isomorphism(path).terms) == 6


def test_constants_and_cyclic_listings():
    assert listing_constant_functions(2) == MultiPoly(
        4,
        {mono_of_pairs(2, [(0, 0), (1, 0)]): 1, mono_of_pairs(2, [(0, 1), (1, 1)]): 1},
    )
    assert listing_cyclic_group(2) == MultiPoly(
        4,
        {mono_of_pairs(2, [(0, 0), (1, 1)]): 1, mono_of_pairs(2, [(0, 1), (1, 0)]): 1},
    )
    assert listing_cyclic_group(1) == MultiPoly(1, {Monomial.of_vars([0]): 1})


def test_small_function_family_listings_have_n_terms():
    for n in range(1, 6):
        assert len(listing_constant_functions(n).terms) == n
        assert len(listing_cyclic_group(n).terms) == n


def test_cyclic_listing_enumerates_the_shift_orbit():
    n = 4
    p = listing_cyclic_group(n)
    expected_monos = set()
    for j in range(n):
        f = FunctionTable.shift(n, j)
        expected_monos.add(mono_of_pairs(n, [(i, f(i)) for i in range(n)]))
    assert set(p.terms) == expected_monos


# -- Lagrange interpolation ------------------------------------------------------


def test_lagrange_and2():
    t = TruthTable.make(2, [(1, 1)])
    y0, y1 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
    assert lagrange_interpolant(t) == y0 * y1


def test_lagrange_or2():
    t = TruthTable.make(2, [(0, 1), (1, 0), (1, 1)])
    y0, y1 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
    assert lagrange_interpolant(t) == y0 + y1 - y0 * y1


def test_lagrange_of_constant_zero_is_zero():
    assert lagrange_interpolant(TruthTable.make(2, [])).is_zero()


def test_lagrange_evaluates_to_the_function():
    rng = random.Random(71)
    for _ in range(25):
        n = rng.randint(0, 3)
        yes = [b for b in cube(n) if rng.random() < 0.5]
        t = TruthTable.make(n, yes)
        L = lagrange_interpolant(t)
        for b in cube(n):
            want = as_scalar(t.value(b))
            assert L.evaluate(dict(enumerate(b))) == want


def test_lagrange_rejects_phased_tables():
    t = TruthTable.make(1, [(1,)], m=2)
    with pytest.raises(NotApplicableError):
        lagrange_interpolant(t)
    with pytest.raises(NotApplicableError):
        lagrange_reduction(t)


def test_binomial_reduction_gives_the_listing():
    rng = random.Random(97)
    for _ in range(25):
        n = rng.randint(0, 3)
        yes = [b for b in cube(n) if rng.random() < 0.5]
        t = TruthTable.make(n, yes)
        reduced = lagrange_reduction(t)
        assert reduced == listing_from_truth_table(t)
        assert monomial_support_equals(reduced, t)


def test_monomial_support_equals():
    t = TruthTable.make(2, [(0, 1), (1, 0), (1, 1)])
    p = listing_from_truth_table(t)
    assert monomial_support_equals(p, t)
    q = p + MultiPoly.constant(1, 2)  # adds the empty support
    assert not monomial_support_equals(q, t)
    with pytest.raises(ValueError):
        monomial_support_equals(MultiPoly.variable(0) * MultiPoly.variable(0), t)


def test_permanent_cap_allows_small_sizes():
    for n in range(1, 6):
        assert len(listing_permanent(n).terms) == math.factorial(n)



# -- the builders as they were before the one matrix-listing constructor, as references


def _product_monomial(n, pairs):
    return Monomial.of_vars(matrix_index(n, i, j) for i, j in pairs)


def _ref_functional(n):
    return MultiPoly(n * n, {_product_monomial(n, ((i, f(i)) for i in range(n))): 1
                             for f in all_function_tables(n)})


def _ref_permanent(n):
    return MultiPoly(n * n, {_product_monomial(n, enumerate(sigma)): 1
                             for sigma in itertools.permutations(range(n))})


def _ref_determinant(n):
    terms = {}
    for sigma in itertools.permutations(range(n)):
        inversions = sum(sigma[i] > sigma[j] for i in range(n) for j in range(i + 1, n))
        terms[_product_monomial(n, enumerate(sigma))] = root_of_unity(2, inversions)
    return MultiPoly(n * n, terms)


def _ref_constants(n):
    return MultiPoly(n * n, {_product_monomial(n, ((i, j) for i in range(n))): 1
                             for j in range(n)})


def _ref_cyclic(n):
    return MultiPoly(n * n, {_product_monomial(n, ((i, (i + j) % n) for i in range(n))): 1
                             for j in range(n)})


def _ref_isomorphism(g):
    n, edges = g.n, g.edges()
    seen, terms = set(), {}
    for sigma in itertools.permutations(range(n)):
        conj = frozenset((sigma[i], sigma[j]) for i, j in edges)
        if conj in seen:
            continue
        seen.add(conj)
        terms[_product_monomial(n, conj)] = ONE
    return MultiPoly(n * n, terms)


def _ref_membership_listing(gs):
    total = MultiPoly(0)
    for g in gs:
        total = total + MultiPoly(g.n * g.n, {_product_monomial(g.n, g.edges()): 1})
    return total


def _ref_transform(g, f):
    bits = tuple(1 if g.adj[i][j] else 0 for i in range(g.n) for j in range(g.n))
    seed = () if f is None else (f(0), f(1))
    return FunctionTable(len(seed) + g.n * g.n, seed + bits)


def assert_same_listing(got, want):
    """Equal terms with equal coefficient representations, and equal universes."""
    assert got.nvars == want.nvars
    assert all(type(mono) is Monomial for mono in got.terms)
    assert ({m: c.to_text() for m, c in got.terms.items()}
            == {m: c.to_text() for m, c in want.terms.items()})


def _random_graph(rng, n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(n) if rng.random() < 0.4])


def test_function_families_match_the_reference_builders():
    for n in range(1, 6):
        assert_same_listing(listing_functional_graphs(n), _ref_functional(n))
        assert_same_listing(listing_permanent(n), _ref_permanent(n))
        assert_same_listing(listing_determinant(n), _ref_determinant(n))
    for n in range(1, 9):
        assert_same_listing(listing_constant_functions(n), _ref_constants(n))
        assert_same_listing(listing_cyclic_group(n), _ref_cyclic(n))


def test_isomorphism_listing_matches_the_reference_builder():
    small = [Graph(n, [bits[n * i:n * i + n] for i in range(n)])
             for n in range(4) for bits in itertools.product((0, 1), repeat=n * n)]
    rng = random.Random(4)
    for g in small + [_random_graph(rng, 4) for _ in range(40)]:
        assert_same_listing(listing_graph_isomorphism(g), _ref_isomorphism(g))


def test_transform_listings_match_the_reference_builder():
    rng = random.Random(6)
    seeds = [None] + list(all_function_tables(2))
    for _ in range(40):
        f = rng.choice(seeds)
        n = rng.randint(2 if f is None else 0, 3)
        gs = [_random_graph(rng, n) for _ in range(rng.randint(1, 6))]
        result = graphs.transform_set(gs, f)
        images = [_ref_transform(g, f) for g in dict.fromkeys(gs)]
        assert result.functions == tuple(images)
        assert_same_listing(result.listing_before, _ref_membership_listing(dict.fromkeys(gs)))
        assert_same_listing(result.listing_after, _ref_membership_listing(
            [graphs.graph_of_function(ft) for ft in images]))


# -- signed permutations and the factor budget --------------------------------------


def test_signed_permutations_carry_the_inversion_parity():
    from diffcomp.listings import signed_permutations
    for n in range(1, 7):
        walked = list(signed_permutations(n))
        assert len(walked) == math.factorial(n)
        for (entries, parity), sigma in zip(walked, itertools.permutations(range(n))):
            assert entries == [n * i + sigma[i] for i in range(n)]
            inversions = sum(sigma[i] > sigma[j] for i in range(n) for j in range(i + 1, n))
            assert parity == inversions % 2
    with pytest.raises(ValueError):
        signed_permutations(0)


def test_matrix_listings_charge_their_factor_count(monkeypatch):
    # the budget is four factors per capped term: 400 under a cap of 100
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "100")
    assert len(listing_constant_functions(20).terms) == 20  # 400 factors
    for builder in (listing_constant_functions, listing_cyclic_group):
        with pytest.raises(SizeCapError, match="needs 441 factors, over the cap of 400"):
            builder(21)
    monkeypatch.delenv("DIFFCOMP_MAX_TERMS")
    with pytest.raises(SizeCapError, match="needs 9000000 factors, over the cap of 400000"):
        listing_constant_functions(3000)


def test_matrix_listings_charge_before_they_build_the_pair_table(monkeypatch):
    # a pair table built ahead of the charges would hold 90,000 pairs, about 7 MB
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "10")
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match="^constant-function listing on Z_300 needs 300 terms"):
            listing_constant_functions(300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_function_with_the_wrong_number_of_images_is_a_format_error():
    with pytest.raises(FormatError, match="^function '0,1' must list 3 images$"):
        FunctionTable.parse("0,1", 3)


@pytest.mark.parametrize("n", [-1, 0])
@pytest.mark.parametrize("builder", [listing_functional_graphs, listing_permanent,
                                     listing_determinant, listing_constant_functions,
                                     listing_cyclic_group])
def test_matrix_builders_refuse_n_below_one(builder, n):
    # n! is not taken before n is checked: -1 is a DimensionError, not factorial's ValueError
    with pytest.raises(DimensionError, match="^n must be positive$"):
        builder(n)


def test_out_of_range_tables_are_dimension_errors():
    with pytest.raises(DimensionError, match="^arity must be non-negative$"):
        TruthTable(-1, 1, frozenset(), {})
    squared = MultiPoly(1, {Monomial.make({0: 2}): 1})
    with pytest.raises(DimensionError, match="^non-multilinear monomial .* in a listing$"):
        truth_table_from_listing(squared)


# -- shared pieces: the builders as they were before pairs and scalars were shared, as oracles


def _oracle_matrix_listing(n, count, what, family):
    """The one constructor of matrix listings: sum of c * prod_{e in entries} a_e.

    Each member of `family` is a 0/1 n x n matrix, given as its set entries
    (ascending flat indices n*i + j) and a nonzero coefficient; a matrix listed
    twice is kept once.  The family's size `count` is charged to the cap first,
    then its projected factor count, count * n, to FACTORS_PER_TERM times it.
    """
    charge([count], what)
    charge([count * n], what, "factors", FACTORS_PER_TERM)
    ones = itertools.repeat(1)  # every exponent
    return MultiPoly._trusted(n * n, {Monomial(zip(entries, ones)): c for entries, c in family(range(n * n))})


def _oracle_functional_graphs(n):
    """Sum over all n^n functions f of prod_i a_{i, f(i)}."""
    rows = listings._rows(n)
    return _oracle_matrix_listing(n, n**n, f"functional-graph listing on Z_{n}", lambda _: (
        (map(add, rows, f), ONE) for f in itertools.product(range(n), repeat=n)))


def _oracle_from_truth_table(t):
    """One multilinear term per yes-instance, coefficient w_m^phase.  Each coefficient has
    phi(m) coordinates, at most m, so m is charged to the cap before the first is built."""
    # `t.coefficient(b)` was the method root_of_unity(t.m, t.phases[b]), inlined here
    charge([t.m], f"truth-table listing of order {t.m}", "coordinates")
    return MultiPoly(t.n, {Monomial.of_vars(i for i, bit in enumerate(b) if bit):
                           root_of_unity(t.m, t.phases[b]) for b in t.yes})


def test_a_truth_table_of_a_huge_order_is_refused_by_the_charge(monkeypatch):
    # 10^5000 has more than 4,300 digits: no message may turn it into text
    t = TruthTable.make(1, [(1,)], 10**5000)
    with pytest.raises(SizeCapError, match="^truth-table listing needs more than 100000 "
                                           "coordinates, over the cap of 100000$"):
        listings.listing_from_truth_table(t)
    # a whole count is written out up to 600 bits
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "10")
    with pytest.raises(SizeCapError, match=f"^x needs {2**600 - 1} terms, over the cap of 10$"):
        charge([2**600 - 1], "x")
    with pytest.raises(SizeCapError, match="^x needs more than 10 terms, over the cap of 10$"):
        charge([2**600], "x")


def _oracle_from_factors(n, factors, what, family):
    """The oracle constructor called as the builders call theirs: the count as its factors."""
    return _oracle_matrix_listing(n, math.prod(factors), what, family)


def _oracle(builder, *args):
    """What `builder` gave with the oracle constructor in place of the shared-pair one."""
    if builder is listing_functional_graphs:
        return _oracle_functional_graphs(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(listings, "_matrix_listing", _oracle_from_factors)
        mp.setattr(graphs, "_matrix_listing", _oracle_from_factors)
        return builder(*args)


def assert_oracle_listing(got, want):
    """Equal terms in the same order, and keys the checked constructor takes."""
    assert_same_listing(got, want)
    assert list(got.terms.items()) == list(want.terms.items())
    assert MultiPoly(got.nvars, got.terms) == got


def _matrix_builds(n, rng):
    """(builder, args) for each matrix-listing builder at side n."""
    g = _random_graph(rng, n)
    yield from ((b, (n,)) for b in (listing_functional_graphs, listing_permanent,
                                   listing_determinant, listing_constant_functions,
                                   listing_cyclic_group))
    yield listing_graph_isomorphism, (g,)
    yield graphs.monomial_edge_listing, (g,)
    gs = [g, _random_graph(rng, n), Graph.empty(n)]
    f = None if n > 1 else FunctionTable.shift(2, 1)  # T needs two vertices
    yield (lambda: graphs.transform_set(gs, f).listing_before), ()
    yield (lambda: graphs.transform_set(gs, f).listing_after), ()


def _random_table(rng, n, m):
    yes = [b for b in cube(n) if rng.random() < 0.5]
    return TruthTable.make(n, yes, m, {b: rng.randrange(2 * m) for b in yes})


def test_matrix_listings_equal_the_oracle_term_for_term_in_order():
    rng = random.Random(18)
    for n in range(1, 6):
        for builder, args in _matrix_builds(n, rng):
            assert_oracle_listing(builder(*args), _oracle(builder, *args))


def test_truth_table_listings_equal_the_oracle_term_for_term_in_order():
    rng = random.Random(18)
    for m in (1, 2, 3, 4, 6, 12):
        for n in (0, 1, 3, 6):
            t = _random_table(rng, n, m)
            assert_oracle_listing(listing_from_truth_table(t), _oracle_from_truth_table(t))
    t = _random_table(rng, 12, 6)  # the size the benchmark builds
    assert_oracle_listing(listing_from_truth_table(t), _oracle_from_truth_table(t))


def test_listings_share_one_pair_per_variable_and_one_scalar_per_phase():
    rng = random.Random(18)
    for n in range(1, 6):
        for builder, args in _matrix_builds(n, rng):
            p = builder(*args)
            assert len({id(pair) for mono in p.terms for pair in mono}) <= p.nvars
    for m in (1, 2, 3, 6, 12):
        t = _random_table(rng, 8, m)
        p = listing_from_truth_table(t)
        assert len({id(pair) for mono in p.terms for pair in mono}) <= t.n
        assert len({id(c) for c in p.terms.values()}) <= m


def test_a_truth_table_with_no_instance_builds_no_pair_table():
    # the n = 10^7 pair table alone would take about 1 GB
    t = TruthTable.from_text("10000000 1\n")
    tracemalloc.start()
    try:
        p = listing_from_truth_table(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.is_zero() and p.nvars == 10**7
    assert peak < 1 << 20
