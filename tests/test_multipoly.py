"""Sparse polynomial arithmetic, derivatives, restriction, and the text format."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcomp.chow import _is_one
from diffcomp.cyclotomic import ONE, as_scalar, root_of_unity
from diffcomp.errors import DimensionError, FormatError, InvalidRelabellingError, charge, max_terms
from diffcomp.multipoly import (
    Monomial,
    MultiPoly,
    VarTable,
    matrix_index,
    poly_from_text,
    poly_to_text,
)


def x(v: int, n: int | None = None) -> MultiPoly:
    return MultiPoly.variable(v, n)


def rand_poly(rng: random.Random, nvars: int, nterms: int, maxdeg: int = 3) -> MultiPoly:
    terms = {}
    for _ in range(nterms):
        mono = Monomial.make(
            {v: rng.randint(0, maxdeg) for v in rng.sample(range(nvars), rng.randint(0, nvars))}
        )
        terms[mono] = as_scalar(Fraction(rng.randint(-5, 5)))
    return MultiPoly(nvars, terms)


def test_monomial_canonical_form():
    m = Monomial.make({3: 2, 1: 1, 5: 0})
    assert m == ((1, 1), (3, 2))
    assert m.degree() == 3
    assert m.support() == {1, 3}
    assert not m.is_multilinear()
    assert Monomial.of_vars([4, 2]) == ((2, 1), (4, 1))
    with pytest.raises(ValueError):
        Monomial.of_vars([1, 1])


# -- the monomial property: every operation against a dict-of-exponents reference ----

exponent_maps = st.dictionaries(st.integers(0, 12), st.integers(0, 4), max_size=6)


def assert_canonical_monomial(m, ref: dict[int, int]) -> None:
    """m is a Monomial of sorted, positive pairs that equals and hashes as ref's pairs."""
    pairs = tuple(sorted((v, e) for v, e in ref.items() if e))
    assert type(m) is Monomial
    assert all(type(p) is tuple and len(p) == 2 and p[1] > 0 for p in m)
    assert [v for v, _ in m] == sorted({v for v, _ in m})
    assert m == pairs and pairs == m and tuple(m) == pairs
    assert hash(m) == hash(pairs)
    assert (m == Monomial(pairs + ((99, 1),))) is False


def monomials_of(ref: dict[int, int]) -> list[Monomial]:
    """ref's monomial, built every way the API offers."""
    pairs = tuple(sorted((v, e) for v, e in ref.items() if e))
    built = [Monomial.make(ref), Monomial(pairs), Monomial(list(pairs))]
    by_product = Monomial()
    for v, e in pairs:
        by_product = by_product * Monomial(((v, e),))
    built.append(by_product)
    if all(e <= 1 for e in ref.values()):
        built.append(Monomial.of_vars(v for v, e in ref.items() if e))
    return built


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(exponent_maps, exponent_maps, st.integers(0, 13))
def test_monomial_agrees_with_dict_reference(a_ref, b_ref, v):
    a_live = {w: e for w, e in a_ref.items() if e}
    for a in monomials_of(a_ref):
        assert_canonical_monomial(a, a_live)
        assert a.degree() == sum(a_live.values())
        assert a.support() == frozenset(a_live)
        assert a.exponent(v) == a_live.get(v, 0)
        assert a.is_multilinear() is all(e == 1 for e in a_live.values())
        assert a.sort_key() == (a.degree(), tuple(sorted(a_live.items())))
        for b in monomials_of(b_ref):
            product = {w: a_live.get(w, 0) + b_ref.get(w, 0) for w in {*a_live, *b_ref}}
            assert_canonical_monomial(a * b, product)
            assert a * b == b * a
        d = a.diff(v)
        if v not in a_live:
            assert d is None
        else:
            mult, reduced = d
            assert mult == a_live[v]
            assert_canonical_monomial(reduced, {**a_live, v: a_live[v] - 1})


def test_monomial_is_not_a_tuple_to_add_or_repeat():
    m = Monomial.make({0: 1, 2: 3})
    for bad in (lambda: m + m, lambda: 2 * m, lambda: m * 2, lambda: m + ((5, 1),)):
        with pytest.raises(TypeError):
            bad()
    assert repr(m) == "Monomial(((0, 1), (2, 3)))"
    assert MultiPoly(3, {m: 1}).coefficient(((0, 1), (2, 3))) == ONE


def test_zero_coefficients_are_dropped():
    p = x(0) - x(0)
    assert p.is_zero()
    assert p.terms == {}
    assert p.degree() == -1


def test_small_expansion():
    # (x0 + x1)^2 = x0^2 + 2 x0 x1 + x1^2
    p = (x(0, 2) + x(1, 2)) * (x(0, 2) + x(1, 2))
    assert p.coefficient(Monomial.make({0: 2})) == ONE
    assert p.coefficient(Monomial.make({0: 1, 1: 1})) == as_scalar(2)
    assert len(p.terms) == 3
    assert p.is_homogeneous(2)
    assert not p.is_multilinear()


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(25):
        a = rand_poly(rng, 4, 3)
        b = rand_poly(rng, 4, 3)
        c = rand_poly(rng, 4, 2)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert (a - b) + b == a


def test_scalar_coercion():
    p = 2 * x(0) + 1
    assert p.coefficient(Monomial()) == ONE
    assert (p - p).is_zero()
    q = Fraction(1, 2) * x(0) + Fraction(1, 2) * x(0)
    assert q == x(0)


def test_partial_derivative_product_rule():
    rng = random.Random(5)
    for _ in range(20):
        a = rand_poly(rng, 3, 3)
        b = rand_poly(rng, 3, 3)
        v = rng.randrange(3)
        lhs = (a * b).partial_derivative(v)
        rhs = a.partial_derivative(v) * b + a * b.partial_derivative(v)
        assert lhs == rhs


def test_partial_derivative_power():
    p = x(0) * x(0) * x(0)  # x0^3
    d = p.partial_derivative(0)
    assert d.coefficient(Monomial.make({0: 2})) == as_scalar(3)
    assert p.partial_derivative(0).partial_derivative(0).coefficient(
        Monomial.make({0: 1})
    ) == as_scalar(6)


def test_derivative_outside_universe_rejected():
    with pytest.raises(ValueError):
        x(0, 1).partial_derivative(1)


def test_evaluate_defaults_missing_variables_to_zero():
    p = x(0, 3) * x(1, 3) + x(2, 3) + 1
    assert p.evaluate({}) == ONE
    assert p.evaluate({0: 2, 1: 3}) == as_scalar(7)
    w = root_of_unity(4)
    assert p.evaluate({2: w}) == ONE + w


def test_evaluate_agrees_with_substitution_random():
    rng = random.Random(31)
    for _ in range(15):
        p = rand_poly(rng, 3, 4, maxdeg=2)
        point = {v: Fraction(rng.randint(-3, 3)) for v in range(3)}
        # brute force: expand term by term with plain fractions
        total = Fraction(0)
        for mono, c in p.terms.items():
            val = c.to_fraction()
            for v, e in mono:
                val *= point[v] ** e
            total += val
        assert p.evaluate(point) == as_scalar(total)


def test_restrict_kills_terms_through_zero():
    p = x(0, 3) * x(1, 3) + x(2, 3)
    q = p.restrict_and_relabel(fixings={0: 0})
    assert q == x(2, 3)


def test_restrict_and_relabel_compacts_indices():
    # fix x1 := 1 in x0 x1 + x1 x2, then pull x2 down to slot 1
    p = x(0, 3) * x(1, 3) + x(1, 3) * x(2, 3)
    q = p.restrict_and_relabel(fixings={1: 1}, relabel={2: 1})
    assert q == x(0, 2) + x(1, 2)
    assert q.nvars == 2


def test_restrict_merges_colliding_monomials():
    # fixing both x1 and x2 collapses x0x1 + x0x2 onto the single monomial x0,
    # whose coefficients must add
    p = x(0, 3) * x(1, 3) + x(0, 3) * x(2, 3)
    q = p.restrict_and_relabel(fixings={1: 1, 2: 1})
    assert q == 2 * x(0)


def test_relabel_collision_rejected():
    p = x(0, 3) * x(1, 3) + x(2, 3)
    with pytest.raises(InvalidRelabellingError):
        p.restrict_and_relabel(relabel={2: 0})
    with pytest.raises(InvalidRelabellingError):
        p.restrict_and_relabel(fixings={0: 1}, relabel={0: 2})


def test_relabel_collision_with_identity_mapping():
    # relabelling 1 -> 0 collides with the untouched variable 0
    p = x(0, 2) * x(1, 2)
    with pytest.raises(InvalidRelabellingError):
        p.restrict_and_relabel(relabel={1: 0})


def test_equality_is_mathematical():
    a = MultiPoly(2, {Monomial.of_vars([0]): ONE})
    b = MultiPoly(5, {Monomial.of_vars([0]): ONE})
    assert a == b  # nvars is bookkeeping, not content
    assert a != "a_0" and a.__eq__(1) is NotImplemented  # only a polynomial compares


def test_matrix_index_row_major():
    assert matrix_index(3, 0, 0) == 0
    assert matrix_index(3, 1, 2) == 5
    assert matrix_index(3, 2, 0) == 6
    with pytest.raises(ValueError):
        matrix_index(3, 3, 0)


def test_var_tables():
    t = VarTable(3)
    assert t.name(2) == "a_2"
    assert t.index("a_0") == 0
    m = VarTable.matrix(2)
    assert m.name(matrix_index(2, 1, 0)) == "a_{1,0}"
    assert m.index("a_{0,1}") == 1
    with pytest.raises(FormatError):
        t.index("b_0")
    for outside in (-1, 3):
        with pytest.raises(IndexError, match=f"^variable {outside} outside universe of size 3$"):
            t.name(outside)


def test_sorted_terms_graded_lex():
    p = x(2, 3) + x(0, 3) * x(1, 3) + 1 + x(0, 3)
    degrees = [m.degree() for m, _ in p.sorted_terms()]
    assert degrees == sorted(degrees)
    # within degree 1: x0 before x2
    names = [m for m, _ in p.sorted_terms() if m.degree() == 1]
    assert names == [((0, 1),), ((2, 1),)]


def test_text_round_trip_vector_names():
    rng = random.Random(404)
    for _ in range(10):
        p = rand_poly(rng, 4, 5)
        parsed = poly_from_text(poly_to_text(p))
        assert parsed.poly == p
        assert parsed.poly.nvars == p.nvars


def test_text_round_trip_matrix_names():
    n = 2
    t = VarTable.matrix(n)
    p = x(matrix_index(n, 0, 0), 4) * x(matrix_index(n, 1, 1), 4) + x(
        matrix_index(n, 0, 1), 4
    ) * x(matrix_index(n, 1, 0), 4)
    text = poly_to_text(p, table=t)
    assert "a_{0,0}" in text and "a_{1,1}" in text
    parsed = poly_from_text(text)
    assert parsed.poly == p
    assert parsed.table.name(1) == "a_{0,1}"


def test_text_round_trip_cyclotomic_coefficients():
    w = root_of_unity(3)
    p = w * x(0, 2) + (w * w) * x(1, 2)
    parsed = poly_from_text(poly_to_text(p))
    assert parsed.poly == p
    assert parsed.order == 3


def test_text_header_carries_declared_order():
    p = x(0, 1)  # rational coefficients only
    text = poly_to_text(p, order=4)
    assert text.splitlines()[1] == "1 4"
    assert poly_from_text(text).order == 4


def test_text_zero_polynomial():
    parsed = poly_from_text(poly_to_text(MultiPoly(3)))
    assert parsed.poly.is_zero()
    assert parsed.poly.nvars == 3


def test_text_exponents_survive():
    p = x(0, 2) * x(0, 2) * x(1, 2)
    text = poly_to_text(p)
    assert "a_0^2" in text
    assert poly_from_text(text).poly == p


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "2\n",  # header too short
        "2 0\n1:[1] * a_0\n",  # order must be >= 1
        "2 1\n1:[1] * a_5\n",  # variable out of range
        "2 1\n1:[1] * b_{0,1}\n",  # matrix name in a non-square universe... 2 isn't square
        "4 1\n1:[1] * a_0 * a_{0,1}\n",  # mixed naming styles
        "2 1\n1:[1] * a_0^0\n",  # exponent must be positive
        "2 1\n1:[1] * a_0\n1:[2] * a_0\n",  # duplicate monomial
        "2 1\nnope * a_0\n",
    ],
)
def test_text_rejects_malformed_input(bad):
    with pytest.raises(FormatError):
        poly_from_text(bad)


def test_str_is_readable():
    p = 2 * x(0, 2) * x(1, 2) + 1
    s = str(p)
    assert "a_0" in s and "a_1" in s
    assert str(MultiPoly(2)) == "0"
    assert repr(p) == "<MultiPoly nvars=2 terms=2>"


def test_polynomials_are_immutable():
    p = x(0, 2) + 1
    for name in ("nvars", "terms", "other"):
        with pytest.raises(AttributeError, match="^MultiPoly is immutable$"):
            setattr(p, name, 3)
    assert p.nvars == 2 and p == x(0) + 1


# -- products: unit coefficients and cancelled sums --------------------------------


def test_product_with_unit_coefficients_matches_the_scalar_products():
    # the order-1 one passes the other factor through; the order-2 one must not,
    # since its products live in order 2
    coeffs = [ONE, root_of_unity(2, 0), root_of_unity(12, 5),
              as_scalar(Fraction(-2, 3)), root_of_unity(4)]
    p = MultiPoly(2, {Monomial.make({0: k}): c for k, c in enumerate(coeffs)})
    q = MultiPoly(2, {Monomial.make({1: k}): c for k, c in enumerate(reversed(coeffs))})
    for a, b in ((p, q), (q, p)):
        prod = a * b
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                got, want = prod.terms[m1 * m2], c1 * c2
                assert (got.order, got.num, got.den) == (want.order, want.num, want.den)


def test_product_and_sum_drop_only_cancelled_terms():
    one = MultiPoly.constant(1, 1)
    assert (x(0, 1) + one) * (x(0, 1) - one) == x(0, 1) * x(0, 1) - one
    assert ((x(0, 1) + one) * (x(0, 1) - one)).terms.keys() == {Monomial.make({0: 2}), Monomial()}
    assert ((x(0, 1) + one) + (one - x(0, 1))).terms == {Monomial(): as_scalar(2)}
    assert not ((x(0, 1) + one) - (x(0, 1) + one)).terms


# -- the product property: MultiPoly.__mul__ against the general merge loop ---------


def reference_mul(self, other):
    """MultiPoly.__mul__ before the order-disjoint path, kept verbatim."""
    other = self._coerce_poly(other)
    a, b = len(self.terms), len(other.terms)
    charge([a * b], f"multiplying {a}-term by {b}-term polynomials")
    out, met = {}, []  # met: the keys that met an earlier term, whose sums may be zero
    pairs = [(m2, c2, _is_one(c2)) for m2, c2 in other.terms.items()]
    for m1, c1 in self.terms.items():
        one = _is_one(c1)  # a unit factor passes the other one through
        for m2, c2, other_one in pairs:
            mono = m1 * m2
            c = c2 if one else c1 if other_one else c1 * c2
            if (acc := out.get(mono)) is not None:
                met.append(mono)
            out[mono] = c if acc is None else acc + c
    return MultiPoly._trusted(max(self.nvars, other.nvars), out, met)


# units of orders 1 and 12 and their negatives (sums cancel), and other order-12 values
PRODUCT_COEFFS = (ONE, -ONE, root_of_unity(12, 0),
                  -root_of_unity(12, 0), root_of_unity(12, 5), root_of_unity(12, 7),
                  root_of_unity(2, 0), as_scalar(Fraction(-2, 3)))

# the two operands' variables: order-disjoint, interleaved, overlapping, and
# disjoint with only a shared boundary variable possible
LAYOUTS = {"order-disjoint": (range(0, 4), range(4, 8)),
           "interleaved": (range(0, 8, 2), range(1, 8, 2)),
           "overlapping": (range(0, 5), range(2, 7)),
           "touching": (range(0, 4), range(3, 7))}


@st.composite
def polys_over(draw, variables):
    """A polynomial on some of `variables`: maybe empty or constant-only, maybe with
    a constant term, over a universe up to three wider than it needs."""
    if draw(st.booleans()):  # constant-only or empty
        variables = ()
    exps = st.dictionaries(st.sampled_from(variables), st.integers(1, 3), max_size=3) \
        if variables else st.just({})
    terms = draw(st.dictionaries(st.builds(Monomial.make, exps), st.sampled_from(PRODUCT_COEFFS),
                                 max_size=5))
    top = max((m[-1][0] for m in terms if m), default=-1)
    return MultiPoly(top + 1 + draw(st.integers(0, 3)), terms)


@st.composite
def product_operands(draw):
    left, right = LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))]
    p, q = draw(polys_over(left)), draw(polys_over(right))
    return (q, p) if draw(st.booleans()) else (p, q)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(product_operands())
def test_product_matches_the_general_merge_loop(operands):
    p, q = operands
    got, want = p * q, reference_mul(p, q)
    assert got.nvars == want.nvars
    assert list(got.terms) == list(want.terms)  # the same keys, inserted in the same order
    assert {m: (c.order, c.num, c.den) for m, c in got.terms.items()} == \
        {m: (c.order, c.num, c.den) for m, c in want.terms.items()}
    for mono, c in got.terms.items():
        assert c and type(mono) is Monomial
        assert all(type(pair) is tuple for pair in mono)
        assert all(v < w for (v, _), (w, _) in zip(mono, mono[1:]))


def test_product_on_named_boundary_cases():
    # a constant term on either side of an order-disjoint product, and a shared
    # boundary variable, which is not order-disjoint
    one = MultiPoly.constant(1, 4)
    for p, q in (((one + x(0, 4)), (one - x(3, 4))), (x(1, 4) + x(2, 4), x(2, 4) * x(3, 4)),
                 (MultiPoly(2), x(3, 4)), (one, MultiPoly.constant(root_of_unity(12), 0))):
        got, want = p * q, reference_mul(p, q)
        assert got.terms == want.terms and list(got.terms) == list(want.terms)
        assert got.nvars == want.nvars
    assert (x(1, 4) + x(2, 4)) * (x(2, 4) + x(3, 4)) == \
        MultiPoly(4, {Monomial.make(e): c for e, c in (({1: 1, 2: 1}, 1), ({1: 1, 3: 1}, 1),
                                                       ({2: 2}, 1), ({2: 1, 3: 1}, 1))})


def test_a_product_makes_one_monomial_product_per_term_pair(monkeypatch):
    # one path for every product: (x0 + x1)(x2 + x3), whose blocks are disjoint and in order,
    # and (x0 + x1)(x1 + x2), which shares x1, each take one Monomial * per pair of terms
    low, high, middle = x(0, 4) + x(1, 4), x(2, 4) + x(3, 4), x(1, 4) + x(2, 4)
    pairs = [(0, 2), (0, 3), (1, 2), (1, 3)]
    want_disjoint = MultiPoly(4, {Monomial.of_vars(vs): 1 for vs in pairs})
    want_shared = MultiPoly(4, {Monomial.make(e): 1 for e in [{0: 1, 1: 1}, {0: 1, 2: 1}, {1: 2},
                                                              {1: 1, 2: 1}]})
    calls = []
    real = Monomial.__mul__
    monkeypatch.setattr(Monomial, "__mul__", lambda a, b: calls.append((a, b)) or real(a, b))
    assert low * high == want_disjoint and len(calls) == 4
    assert low * middle == want_shared and len(calls) == 8


def test_a_cap_below_one_is_refused(monkeypatch):
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "0")
    with pytest.raises(FormatError, match="^DIFFCOMP_MAX_TERMS must be positive$"):
        max_terms()


LONG_KEY = Monomial([(v, 1) for v in range(3000, 0, -1)])  # variables descending


@pytest.mark.parametrize("make, args, message", [
    (MultiPoly, (1, {Monomial.of_vars([3]): 1}), "nvars=1 but a term uses variable 3"),
    (Monomial.make, ({-1: 1},), "variable indices must be non-negative"),
    (Monomial.make, ({0: -1},), "exponents must be non-negative"),
    (Monomial.of_vars, ([-1],), "variable indices must be non-negative"),
    (Monomial.of_vars, ([2, -3, 0],), "variable indices must be non-negative"),
    # a monomial built straight from its pairs is checked where a polynomial takes it
    (MultiPoly, (2, {Monomial([(-1, 1)]): 1}), "variable indices must be non-negative"),
    (MultiPoly, (2, {Monomial(): 1, Monomial([(-2, 1), (1, 1)]): 1}),
     "variable indices must be non-negative"),
    (poly_to_text, (x(3), VarTable(2)),
     "variable table smaller than the polynomial's universe"),
    # a key must be a canonical Monomial: variables strictly ascending, exponents at least 1
    pytest.param(MultiPoly, (2, {Monomial([(1, 1), (0, 1)]): 1}),
                 re.escape("Monomial(((1, 1), (0, 1))) is not canonical"), id="unsorted"),
    pytest.param(MultiPoly, (2, {Monomial([(0, 0)]): 1}),
                 re.escape("Monomial(((0, 0),)) is not canonical"), id="exponent-0"),
    pytest.param(MultiPoly, (2, {Monomial([(0, 1), (0, 1)]): 1}),
                 re.escape("Monomial(((0, 1), (0, 1))) is not canonical"), id="repeated"),
    pytest.param(MultiPoly, (2, {Monomial([(0, -1)]): 1}),
                 re.escape("Monomial(((0, -1),)) is not canonical"), id="exponent-negative"),
    pytest.param(MultiPoly, (2, {((0, 1),): 1}),
                 re.escape("term key ((0, 1),) is not a Monomial"), id="plain-tuple"),
    # a long key is quoted by the first 200 characters of its repr
    pytest.param(MultiPoly, (3001, {LONG_KEY: 1}),
                 re.escape(repr(LONG_KEY)[:200] + "... is not canonical"), id="long-unsorted"),
    # each pair two plain ints: what the writer prints, the reader reads back
    *(pytest.param(MultiPoly, (2, {Monomial([pair]): 1}), re.escape(
        f"{Monomial([pair])!r} is not canonical: {pair!r} is not a pair of ints"), id=name)
      for name, pair in [("float-exponent", (0, 1.5)), ("bool-variable", (True, 2)),
                         ("bool-exponent", (0, True)), ("float-variable", (1.0, 1)),
                         ("str-variable", ("a", 1)), ("short-pair", (0,)),
                         ("long-pair", (0, 1, 1)), ("not-a-pair", 5), ("str-pair", "01")]),
])
def test_out_of_range_construction_is_a_dimension_error(make, args, message):
    with pytest.raises(DimensionError, match=f"^{message}$"):
        make(*args)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 3)), max_size=4),
       st.integers(0, 5))
def test_a_key_is_refused_or_written_and_read_back_unchanged(pairs, nvars):
    try:
        p = MultiPoly(nvars, {Monomial(pairs): 1})
    except DimensionError:
        return
    parsed = poly_from_text(poly_to_text(p))
    assert parsed.poly == p and list(parsed.poly.terms) == list(p.terms)
    assert parsed.poly.nvars == p.nvars


_ATOMS = st.one_of(st.integers(-1, 3), st.booleans(), st.floats(0, 3), st.sampled_from(["0", None]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.tuples(_ATOMS, _ATOMS), st.lists(_ATOMS, max_size=3).map(tuple),
                          _ATOMS), max_size=3), st.integers(0, 5))
def test_a_key_of_any_pairs_is_a_dimension_error_or_written_and_read_back(pairs, nvars):
    try:
        p = MultiPoly(nvars, {Monomial(pairs): 1})
    except DimensionError:
        return
    assert all(type(v) is int is type(e) for v, e in pairs)
    parsed = poly_from_text(poly_to_text(p))
    assert parsed.poly == p and list(parsed.poly.terms) == list(p.terms)


def test_a_product_charges_its_pairs_unless_one_term_by_one(monkeypatch):
    # every cap of at least 1 admits one pair, so that product reads no cap at all
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "many")
    assert x(0, 2) * x(1, 2) == MultiPoly(2, {Monomial.of_vars([0, 1]): 1})
    for p, q in ((x(0, 2), MultiPoly(2)), (MultiPoly(2), x(0, 2)), (x(0, 2) + x(1, 2), x(1, 2))):
        with pytest.raises(FormatError, match="^DIFFCOMP_MAX_TERMS must be an integer"):
            p * q
