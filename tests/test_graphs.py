"""Graph model, edge monomials, and the T / T_f transforms with recovery."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcomp.errors import DimensionError, FormatError
from diffcomp.graphs import (
    Graph,
    TransformSetResult,
    graph_of_function,
    graph_set_from_text,
    graph_set_to_text,
    monomial_edge_listing,
    recovers_original,
    recovery_restriction,
    transform_set,
    transform_T,
    transform_Tf,
)
from diffcomp.listings import FunctionTable, all_function_tables
from diffcomp.multipoly import Monomial, MultiPoly, matrix_index


def all_graphs(n):
    cells = list(itertools.product((0, 1), repeat=n * n))
    for flat in cells:
        yield Graph(n, tuple(tuple(flat[n * i : n * i + n]) for i in range(n)))


def totally_complete(n):
    """All n^2 ordered-pair edges, loops included."""
    return Graph(n, tuple((1,) * n for _ in range(n)))


def is_functional(g):
    """Does every vertex have out-degree exactly one?"""
    return all(sum(row) == 1 for row in g.adj)


def function_of_graph(g):
    """The inverse of graph_of_function."""
    if not is_functional(g):
        raise DimensionError("graph is not functional")
    return FunctionTable(g.n, tuple(row.index(1) for row in g.adj))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, ((0, 1),))
    with pytest.raises(ValueError):
        Graph(1, ((2,),))
    g = Graph.from_edges(3, [(0, 1), (2, 2)])
    assert g.edges() == [(0, 1), (2, 2)]
    assert g.adj[2][2] and not g.adj[1][0]


@pytest.mark.parametrize("edge", [(-1, 0), (0, -1), (2, 0), (0, 2), (5, 0)])
def test_from_edges_refuses_an_endpoint_outside_the_vertices(edge):
    # -1 once wrapped around to vertex 1, and 5 raised a bare IndexError
    with pytest.raises(DimensionError) as info:
        Graph.from_edges(2, [(0, 1), edge])
    assert str(info.value) == f"edge {edge} has an endpoint outside 0..1"


def test_constructors():
    assert Graph.empty(2).edges() == []
    assert len(totally_complete(3).edges()) == 9
    assert Graph.cycle(3).edges() == [(0, 1), (1, 2), (2, 0)]


def test_graph_text_round_trip():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(0, 4)
        g = Graph(
            n,
            tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n)),
        )
        assert Graph.from_text(g.to_text()) == g


@pytest.mark.parametrize("bad", ["", "x\n", "2\n0 1\n", "2\n0 1\n0 2\n", "1\n0 0\n"])
def test_graph_text_rejects_garbage(bad):
    with pytest.raises(FormatError):
        Graph.from_text(bad)


def test_monomial_edge_listing():
    g = Graph.from_edges(2, [(0, 0), (1, 0)])
    expected = Monomial.of_vars([matrix_index(2, 0, 0), matrix_index(2, 1, 0)])
    assert monomial_edge_listing(g) == MultiPoly(4, {expected: 1})
    assert monomial_edge_listing(Graph.empty(2)) == MultiPoly.constant(1, 4)


def test_is_functional():
    assert not is_functional(Graph.from_edges(2, [(0, 0), (0, 1)]))
    assert is_functional(Graph.from_edges(3, [(0, 0), (1, 1), (2, 2)]))
    assert is_functional(Graph.from_edges(2, [(0, 1), (1, 0)]))
    assert not is_functional(Graph.empty(1))


def test_function_graph_round_trip():
    for f in all_function_tables(3):
        g = graph_of_function(f)
        assert is_functional(g)
        assert function_of_graph(g) == f
    with pytest.raises(ValueError):
        function_of_graph(Graph.empty(2))


def test_transform_T_two_vertex_out_star():
    # M_G = a_{0,0} a_{0,1}: vertices 0 and 1 map to 1, vertices 2 and 3 to 0
    g = Graph.from_edges(2, [(0, 0), (0, 1)])
    ft = transform_T(g)
    assert ft.images == (1, 1, 0, 0)
    # so the edge monomial of T(G) is a_{0,1} a_{1,1} a_{2,0} a_{3,0}
    listing = monomial_edge_listing(graph_of_function(ft))
    n2 = 4
    expected = Monomial.of_vars(
        [
            matrix_index(n2, 0, 1),
            matrix_index(n2, 1, 1),
            matrix_index(n2, 2, 0),
            matrix_index(n2, 3, 0),
        ]
    )
    assert listing == MultiPoly(16, {expected: 1})


def test_transform_T_extremes():
    assert transform_T(Graph.empty(2)).images == (0, 0, 0, 0)
    assert transform_T(totally_complete(2)).images == (1, 1, 1, 1)


def test_transform_Tf_two_vertex_out_star():
    # f = constant 0 on Z_2 (M_f = a_{0,0} a_{1,0}), G as above:
    # a_{0,0} a_{1,0} a_{2,1} a_{3,1} a_{4,0} a_{5,0}
    g = Graph.from_edges(2, [(0, 0), (0, 1)])
    ft = transform_Tf(g, FunctionTable.constant(2, 0))
    assert ft.images == (0, 0, 1, 1, 0, 0)


def test_transform_Tf_single_loop():
    # n = 1 with a loop: three points, images (0, 0, 1)
    g = totally_complete(1)
    ft = transform_Tf(g, FunctionTable.constant(2, 0))
    assert ft.images == (0, 0, 1)


def test_transform_Tf_needs_a_z2_seed():
    with pytest.raises(ValueError):
        transform_Tf(Graph.empty(2), FunctionTable.identity(3))


def test_transforms_always_functional_and_injective():
    for n in (1, 2, 3):
        seen_T, seen_Tf = set(), set()
        f = FunctionTable(2, (1, 0))
        for g in all_graphs(n):
            if n >= 2:
                ft = transform_T(g)
                assert is_functional(graph_of_function(ft))
                seen_T.add(ft.images)
            ftf = transform_Tf(g, f)
            assert is_functional(graph_of_function(ftf))
            seen_Tf.add(ftf.images)
        if n >= 2:
            assert len(seen_T) == 2 ** (n * n)
        assert len(seen_Tf) == 2 ** (n * n)


def test_transform_T_rejects_single_vertex():
    with pytest.raises(ValueError):
        transform_T(totally_complete(1))
    with pytest.raises(ValueError):
        transform_T(Graph.empty(1))


def test_transform_set_recovers_functional_family():
    # all four functional graphs on Z_2; restriction gives back their listing
    gs = [graph_of_function(f) for f in all_function_tables(2)]
    result = transform_set(gs)
    assert len(result.functions) == 4
    assert recovers_original(result)
    # the before-listing is the 4-term functional listing
    from diffcomp.listings import listing_functional_graphs

    assert result.listing_before == listing_functional_graphs(2)


def test_transform_set_single_graph():
    g = Graph.from_edges(2, [(0, 1)])
    result = transform_set([g])
    assert result.listing_before == monomial_edge_listing(g)
    assert recovers_original(result)


def test_transform_set_constants_under_Tf():
    from diffcomp.listings import listing_constant_functions

    f = FunctionTable.constant(2, 0)
    gs = [graph_of_function(FunctionTable.constant(2, c)) for c in range(2)]
    result = transform_set(gs, f)
    assert recovers_original(result)
    assert result.listing_before == listing_constant_functions(2)


def test_transform_set_degree_check():
    gs = list(all_graphs(2))
    result = transform_set(gs)
    assert all(m.degree() == 4 for m in result.listing_after.terms)
    f = FunctionTable(2, (0, 1))
    result_f = transform_set(gs, f)
    assert all(m.degree() == 6 for m in result_f.listing_after.terms)


def test_transform_set_random_recovery():
    rng = random.Random(2718)
    for _ in range(20):
        n = rng.randint(1, 3)
        pool = list(all_graphs(n))
        gs = rng.sample(pool, rng.randint(1, min(5, len(pool))))
        mode = rng.choice(["T", "Tf"]) if n >= 2 else "Tf"
        f = FunctionTable(2, (rng.randint(0, 1), rng.randint(0, 1)))
        result = transform_set(gs, f if mode == "Tf" else None)
        assert recovers_original(result)


def test_transform_set_rejects_mixed_sizes_and_bad_mode():
    with pytest.raises(ValueError):
        transform_set([Graph.empty(2), Graph.empty(3)])
    with pytest.raises(ValueError):
        transform_set([Graph.empty(2)], "Q")
    with pytest.raises(ValueError):
        transform_set([Graph.empty(2)], "Tf")  # a mode name, not a seed
    with pytest.raises(ValueError):
        transform_set([])


def test_transform_set_dedupes():
    g = Graph.empty(2)
    result = transform_set([g, g])
    assert len(result.functions) == 1


def test_recovery_restriction_shape():
    fixings, relabel, nvars = recovery_restriction(2)
    assert nvars == 4
    assert len(fixings) == 4 and len(relabel) == 4
    f = FunctionTable.constant(2, 1)
    fixings_f, relabel_f, nvars_f = recovery_restriction(2, f)
    assert nvars_f == 4
    assert len(fixings_f) == 6  # 4 absent-edge pins + the two f variables


@st.composite
def graph_sets_and_seeds(draw):
    """A graph set on n = 0..3 vertices and a seed: None (T) when n >= 2, or a function on Z_2."""
    n = draw(st.integers(0, 3))
    seeds = ([None] if n >= 2 else []) + list(all_function_tables(2))
    adjacency = st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n)
    flats = draw(st.lists(adjacency, min_size=1, max_size=5))
    gs = [Graph(n, tuple(tuple(flat[n * i:n * i + n]) for i in range(n))) for flat in flats]
    return n, gs, draw(st.sampled_from(seeds))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graph_sets_and_seeds())
def test_a_transformed_set_restricts_itself_back(drawn):
    n, gs, f = drawn
    result = transform_set(gs, f)
    assert recovers_original(result)
    seed = () if f is None else (f(0), f(1))
    assert all(m.degree() == len(seed) + n * n for m in result.listing_after.terms)
    assert len(result.functions) == len(set(gs))


def test_a_given_seed_yields_T_f():
    g, f = Graph.from_edges(2, [(0, 1)]), FunctionTable.constant(2, 1)
    result = transform_set([g], f)
    assert result.functions == (transform_Tf(g, f),) and result.functions[0].n == 6
    assert (result.f, result.n) == (f, 2)
    assert transform_set([g]).functions == (transform_T(g),)


@pytest.mark.parametrize("seed", ["T", "Tf", (0, 1), FunctionTable.identity(3)])
def test_a_seed_that_is_not_a_function_on_z2_is_a_dimension_error(seed):
    with pytest.raises(DimensionError, match="^the seed function must be a FunctionTable on Z_2"):
        transform_set([Graph.empty(2)], seed)
    with pytest.raises(DimensionError, match="^the seed function must be a FunctionTable on Z_2"):
        recovery_restriction(2, seed)


def test_graph_set_text_round_trip():
    gs = [Graph.empty(2), totally_complete(2), Graph.from_edges(2, [(1, 0)])]
    text = graph_set_to_text(gs)
    assert graph_set_from_text(text) == gs
    with pytest.raises(FormatError):
        graph_set_from_text("# just a comment\n")


def test_a_negative_vertex_count_is_a_dimension_error():
    with pytest.raises(DimensionError, match="^vertex count must be non-negative$"):
        Graph(-1, ())
