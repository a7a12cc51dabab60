"""The shared text framing: headers and comments in every reader, and each
reader's contract on arbitrary text (parse or FormatError, exact round trips)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcomp import cli
from diffcomp.chow import ChowDecomposition
from diffcomp.cyclotomic import CycloRational, euler_phi
from diffcomp.errors import FormatError
from diffcomp.graphs import Graph, graph_set_from_text, graph_set_to_text
from diffcomp.listings import TruthTable
from diffcomp.multipoly import Monomial, MultiPoly, poly_from_text, poly_to_text

from test_graphs import totally_complete

# kind -> (reader, a body it accepts with no header)
READERS = {
    "poly": (poly_from_text, "4 2\n2:[-1/1] * a_{0,1} * a_{1,0}^2\n"),
    "chow": (ChowDecomposition.from_text, "1 1 1 1\n1:[1/2] 1:[0/1]\n"),
    "tt": (TruthTable.from_text, "2 3\n01 2\n"),
    "graph": (Graph.from_text, "2\n0 1\n1 0\n"),
    "graphset": (graph_set_from_text, "2\n0 1\n1 0\n\n1\n1\n"),
}
FOREIGN_HEADERS = [
    (kind, f"# diffcomp-{other} 1") for kind in READERS for other in READERS if other != kind
] + [(kind, f"# diffcomp-{kind} {version}") for kind in READERS for version in (0, 2, 7)]


@pytest.mark.parametrize("kind", sorted(READERS))
def test_reader_takes_its_own_header_or_none(kind):
    read, body = READERS[kind]
    assert read(f"# diffcomp-{kind} 1\n" + body) == read(body)
    assert read(f"\n  # diffcomp-{kind} 1  \n# a comment\n" + body) == read(body)


@pytest.mark.parametrize("kind, header", FOREIGN_HEADERS)
def test_reader_rejects_another_kind_or_version(kind, header):
    read, body = READERS[kind]
    with pytest.raises(FormatError, match=f"'{header}' found where '# diffcomp-{kind} 1'"):
        read(header + "\n" + body)


def test_poly_reader_rejects_a_decomposition_header():
    with pytest.raises(FormatError):
        poly_from_text("# diffcomp-chow 7\n1 1\n1:[1] * a_0\n")


def test_graph_set_blank_lines_are_optional():
    gs = [Graph.cycle(3), Graph.empty(3), totally_complete(3)]
    packed = "\n".join("\n".join([str(g.n)] + [" ".join(map(str, r)) for r in g.adj])
                       for g in gs)
    assert graph_set_from_text(packed) == graph_set_from_text(graph_set_to_text(gs)) == gs


def test_declared_universe_costs_nothing_until_used():
    parsed = poly_from_text("1000000000 1\n")
    assert parsed.poly.is_zero() and parsed.poly.nvars == 10**9
    assert parsed.table.name(10**9 - 1) == "a_999999999"
    assert poly_to_text(parsed.poly) == "# diffcomp-poly 1\n1000000000 1\n"
    sparse = MultiPoly(10**9, {Monomial.of_vars([10**9 - 1]): 2})
    assert str(sparse) == "(2)*a_999999999"
    assert poly_from_text(poly_to_text(sparse)).poly == sparse


# -- arbitrary text ------------------------------------------------------------------

FRAGMENTS = [
    "", "0", "1", "2", "12", "-", "/", ":", "[", "]", ",", " ", "\n", "\n\n", " * ", "a_", "{",
    "}", "^", "#", "# diffcomp-poly 1\n", "# diffcomp-tt 1\n", "# diffcomp-graph 1\n",
    "1:[1/1]", "2:[-1/1]", "4:[0/1,1/2]",
]
SEEDS = [body for _, body in READERS.values()] + [
    f"# diffcomp-{kind} 1\n{body}" for kind, (_, body) in READERS.items()
] + ["2 1\n1:[1/1] * a_0^2 * a_1\n", "4:[1/2,-1/3]", "0110\n", "01\n10\n", ""]
TEXT_READERS = [read for read, _ in READERS.values()] + [
    CycloRational.from_text, cli._parse_bits, cli._parse_bit_matrix,
]


@st.composite
def near_valid_texts(draw):
    """A valid file or value with a few spans replaced by fragments of the formats."""
    text = draw(st.sampled_from(SEEDS))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + draw(st.sampled_from(FRAGMENTS)) + text[j:]
    return text


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(near_valid_texts())
def test_every_reader_parses_or_raises_format_error(text):
    for read in TEXT_READERS:
        try:
            read(text)
        except FormatError:
            pass


fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def scalars(draw):
    m = draw(st.sampled_from((1, 2, 3, 4, 5, 12)))
    return CycloRational(m, draw(st.lists(fractions, min_size=euler_phi(m),
                                          max_size=euler_phi(m))))


def bit_rows(n):
    return st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n)


graphs = st.integers(0, 3).flatmap(lambda n: bit_rows(n).map(
    lambda rows: Graph(n, tuple(map(tuple, rows)))))


@st.composite
def round_trips(draw):
    """(value, value read back from its text) for one generated value of some kind."""
    kind = draw(st.sampled_from(("scalar", "poly", "tt", "graph", "graphset", "chow")))
    if kind == "scalar":
        x = draw(scalars())
        back = CycloRational.from_text(x.to_text())
        return (x.order, x.coeffs), (back.order, back.coeffs)
    if kind == "poly":
        nvars, terms = draw(st.integers(0, 4)), {}
        if nvars:
            exps = st.dictionaries(st.integers(0, nvars - 1), st.integers(1, 3))
            terms = draw(st.dictionaries(exps.map(Monomial.make), scalars(), max_size=4))
        p = MultiPoly(nvars, terms)
        back = poly_from_text(poly_to_text(p)).poly
        return (p, p.nvars), (back, back.nvars)
    if kind == "tt":
        n, m = draw(st.integers(0, 3)), draw(st.sampled_from((1, 2, 3, 4)))
        yes = draw(st.sets(st.tuples(*[st.integers(0, 1)] * n)))
        t = TruthTable.make(n, yes, m, {b: draw(st.integers(0, m - 1)) for b in yes})
        return t, TruthTable.from_text(t.to_text())
    if kind == "graph":
        g = draw(graphs)
        return g, Graph.from_text(g.to_text())
    if kind == "graphset":
        gs = draw(st.lists(graphs, min_size=1, max_size=3))
        return gs, graph_set_from_text(graph_set_to_text(gs))
    rho, d, n = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    entries = [[draw(st.lists(scalars(), min_size=n + 1, max_size=n + 1)) for _ in range(d)]
               for _ in range(rho)]
    c = ChowDecomposition(rho, d, n, entries)
    order = draw(st.sampled_from((1, 2, 60)))
    back = ChowDecomposition.from_text(c.to_text(order))
    return (c, math.lcm(c.coefficient_order(), order)), back


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(round_trips())
def test_generated_values_round_trip(case):
    value, back = case
    assert back == value


def test_a_refused_record_is_echoed_to_200_characters():
    from diffcomp import textfile
    with pytest.raises(FormatError, match=r"^bad header '1 x{198}'\.\.\.$"):
        textfile.ints("1 " + "x" * 500, "header", 0, 0)
    with pytest.raises(FormatError, match=r"^bad header 'x{200}'$"):
        textfile.ints("x" * 200, "header", 0)
