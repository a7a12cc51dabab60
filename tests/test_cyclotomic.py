"""Exact cyclotomic arithmetic: identities, inverses, embeddings, text format."""

from __future__ import annotations

import cmath
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffcomp import cyclotomic
from diffcomp.cyclotomic import (
    ONE,
    ZERO,
    CycloRational,
    as_scalar,
    cyclotomic_polynomial,
    euler_phi,
    root_of_unity,
)
from diffcomp.errors import DimensionError, FormatError


def brute_phi(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


# -- the dense reference: Fraction coefficient lists, constant term first ----------


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _poly_rem(p: list, mod: tuple[int, ...]) -> list:
    # mod is monic, so reduction needs no divisions.
    p = list(p)
    d = len(mod) - 1
    while len(p) > d:
        lead = p[-1]
        if lead != 0:
            off = len(p) - 1 - d
            for i in range(d):
                p[off + i] -= lead * mod[i]
        p.pop()
    return _trim(p)


def _coords(p: list, m: int) -> tuple:
    """A reduced dense polynomial as the phi(m) coordinates `coeffs` reports."""
    return tuple(Fraction(c) for c in p) + (Fraction(0),) * (euler_phi(m) - len(p))


def _ref_mul(m: int, a: tuple, b: tuple) -> tuple:
    return _coords(_poly_rem(_poly_mul(list(a), list(b)), cyclotomic_polynomial(m)), m)


def _ref_embed(x: CycloRational, target: int) -> tuple:
    step = target // x.order
    dense = [Fraction(0)] * ((len(x.coeffs) - 1) * step + 1)
    dense[::step] = x.coeffs
    return _coords(_poly_rem(dense, cyclotomic_polynomial(target)), target)


def assert_canonical(x: CycloRational) -> None:
    """Integer coordinates over one positive denominator in lowest terms; zero is 0/1."""
    assert len(x.num) == euler_phi(x.order)
    assert all(type(c) is int for c in x.num) and type(x.den) is int and x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    assert any(x.num) or x.den == 1
    assert x.coeffs == tuple(Fraction(c, x.den) for c in x.num)
    assert all(type(c) is Fraction for c in x.coeffs)


def test_cyclotomic_polynomial_small_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    # prime p: 1 + x + ... + x^(p-1)
    assert cyclotomic_polynomial(7) == (1,) * 7


def test_cyclotomic_degree_is_totient():
    for m in range(1, 40):
        assert len(cyclotomic_polynomial(m)) - 1 == brute_phi(m) == euler_phi(m)


def test_euler_phi_from_factorization():
    rng = random.Random(5)
    for m in [997, 1000, 1024, 3600, 40000] + [rng.randint(40, 5000) for _ in range(20)]:
        assert euler_phi(m) == brute_phi(m)
    with pytest.raises(ValueError):
        euler_phi(0)


def test_as_scalar_lifts_rationals_and_refuses_other_types():
    assert as_scalar(3) == CycloRational(1, [3])
    assert as_scalar(Fraction(1, 2)).coeffs == (Fraction(1, 2),)
    w = root_of_unity(4)
    assert as_scalar(w) is w
    for foreign in (0.5, "1", None):
        with pytest.raises(TypeError):
            as_scalar(foreign)
        # the operators defer instead, so Python reports the unsupported operand
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(w, foreign)
    assert w != "w" and 2 * w == w + w
    with pytest.raises(TypeError, match="^cannot use float as an exact rational$"):
        CycloRational(1, [0.5])


def test_the_constructor_takes_ints_and_fractions_as_they_are():
    x = CycloRational(4, [True, Fraction(-2, 6)])
    assert (x.num, x.den) == ((3, -1), 3)
    for foreign in (root_of_unity(4), 0.5, "1", None):
        with pytest.raises(TypeError,
                           match=f"^cannot use {type(foreign).__name__} as an exact rational$"):
            CycloRational(4, [1, foreign])
    with pytest.raises(TypeError, match="^cannot use float as an exact scalar$"):
        as_scalar(0.5)
    assert as_scalar(Fraction(1)) is ONE and as_scalar(Fraction(0)) is ZERO
    assert as_scalar(Fraction(-6, 4)).to_text() == "1:[-3/2]"


def test_product_of_cyclotomics_is_x_pow_m_minus_1():
    # prod_{d | m} Phi_d(x) = x^m - 1, which fixes every Phi_m given the smaller ones
    for m in list(range(1, 61)) + [64, 90, 105, 210, 720]:
        prod = [Fraction(1)]
        for d in range(1, m + 1):
            if m % d == 0:
                prod = _poly_mul(prod, list(cyclotomic_polynomial(d)))
        expected = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
        assert prod == expected


def test_cyclotomic_polynomial_of_a_large_order_is_a_spread_small_one():
    # Phi_m(x) = Phi_rad(m)(x^(m / rad(m))): Phi_16000 is Phi_10 in powers of x^1600
    big = cyclotomic_polynomial(16000)
    assert len(big) == euler_phi(16000) + 1 == 6401
    assert {i: c for i, c in enumerate(big) if c} == {
        1600 * i: c for i, c in enumerate(cyclotomic_polynomial(10))}
    assert cyclotomic_polynomial(10) == (1, -1, 1, -1, 1)
    w = root_of_unity(16000, 4000)  # i, a fourth root of unity
    assert w * w == -1 and (w**4).is_rational()


def test_root_of_unity_basics():
    w = root_of_unity(4)
    assert w * w == root_of_unity(4, 2)
    # omega_4^2 = -1, which in the power basis of Q(omega_4) is (-1, 0)
    assert root_of_unity(4, 2).coeffs == (Fraction(-1), Fraction(0))
    assert w**4 == ONE
    assert root_of_unity(1) == ONE
    assert root_of_unity(2) == as_scalar(-1)


def test_power_of_root_wraps_modulo_order():
    for m in (3, 5, 8, 12):
        w = root_of_unity(m)
        for k in range(2 * m):
            assert w**k == root_of_unity(m, k % m)


def test_geometric_sum_of_all_roots_is_zero():
    # 1 + w + w^2 + ... + w^(m-1) = 0 for m > 1
    for m in (2, 3, 4, 5, 6, 9, 10):
        total = ZERO
        for k in range(m):
            total = total + root_of_unity(m, k)
        assert total.is_zero()


def test_worked_product_in_fifth_roots():
    # (1 + w)(1 + w^4) with w = omega_5 reduces to 1 - w^2 - w^3.
    w = root_of_unity(5)
    lhs = (ONE + w) * (ONE + w**4)
    assert lhs.coeffs == (Fraction(1), Fraction(0), Fraction(-1), Fraction(-1))
    # sanity: numerically it's 2cos(pi/5)+1... check against complex arithmetic
    z = cmath.exp(2j * cmath.pi / 5)
    assert abs(lhs.to_complex() - (1 + z) * (1 + z**4)) < 1e-12


def test_mixed_order_arithmetic_embeds_into_lcm():
    a = root_of_unity(4)  # i
    b = root_of_unity(6)
    s = a + b
    assert s.order == 12
    z = s.to_complex()
    expected = cmath.exp(2j * cmath.pi / 4) + cmath.exp(2j * cmath.pi / 6)
    assert abs(z - expected) < 1e-12
    # and the embedding preserves equality
    assert a.embed(12) == a
    assert a == a.embed(24)


def test_rational_detection():
    w = root_of_unity(3)
    x = w + w * w  # = -1
    assert x.is_rational()
    assert x.to_fraction() == Fraction(-1)
    assert not w.is_rational()
    with pytest.raises(ValueError):
        w.to_fraction()


def test_inverse_and_division():
    rng = random.Random(7)
    for m in (1, 2, 3, 4, 5, 6, 8, 12):
        phi = euler_phi(m)
        for _ in range(12):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(phi)]
            x = CycloRational(m, coeffs)
            if x.is_zero():
                continue
            inv = x.inverse()
            assert x * inv == ONE
            assert (x / x) == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()



def test_inverse_in_wide_fields():
    # phi(30) = 8 and phi(105) = 48: the norm is a product of 7 and 47 conjugates
    rng = random.Random(3)
    for m, count in ((30, 6), (105, 2)):
        for _ in range(count):
            x = CycloRational(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                  for _ in range(euler_phi(m))])
            inv = x.inverse()
            assert_canonical(inv)
            assert x * inv == ONE

def test_negative_powers_use_inverse():
    w = root_of_unity(5)
    assert w**-1 == root_of_unity(5, 4)
    assert w**-7 == root_of_unity(5, (-7) % 5)


def test_field_axioms_random():
    rng = random.Random(2024)
    for _ in range(60):
        m = rng.choice([1, 2, 3, 4, 6, 8])
        phi = euler_phi(m)

        def rand_elt():
            return CycloRational(m, [Fraction(rng.randint(-3, 3)) for _ in range(phi)])

        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a + (b + c) == (a + b) + c
        assert a - a == ZERO


def test_arithmetic_with_plain_rationals():
    w = root_of_unity(4)
    assert 1 + w == ONE + w
    assert 2 * w == w + w
    assert (w - Fraction(1, 2)) + Fraction(1, 2) == w
    assert w / 2 + w / 2 == w
    assert 1 - w == -(w - 1) and Fraction(1, 2) - w + w == Fraction(1, 2)


def test_text_round_trip():
    rng = random.Random(99)
    for _ in range(40):
        m = rng.choice([1, 3, 4, 5, 12])
        phi = euler_phi(m)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(phi)]
        x = CycloRational(m, coeffs)
        again = CycloRational.from_text(x.to_text())
        assert again == x
        assert again.order == m


def test_text_format_examples():
    assert CycloRational.from_text("1:[5]") == as_scalar(5)
    assert CycloRational.from_text("4:[0,1]") == root_of_unity(4)
    assert CycloRational.from_text(" 4:[ 1/2 , -1/3 ]").coeffs == (
        Fraction(1, 2),
        Fraction(-1, 3),
    )


@pytest.mark.parametrize(
    "bad",
    ["", "4", "4:[1]", "0:[1]", "4:[1,2,3]", "4:(1,2)", "x:[1,0]", "4:[1,q]",
     "1:[1e20000000]", "1:[0.5]", "4:[1,]", "4:[1/0,1]", "40000:[1]", "12000:[1]"],
)
def test_text_format_rejects_garbage(bad):
    with pytest.raises(FormatError):
        CycloRational.from_text(bad)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([1, 2, 3, 4, 5, 7, 8, 12, 15]).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(st.tuples(st.integers(-40, 40), st.integers(0, 12), st.booleans()),
                         min_size=euler_phi(m), max_size=euler_phi(m)))))
def test_from_text_reads_integers_to_the_value_built_from_fractions(case):
    # each coordinate n/d, or n alone when d is 1 and the flag says so; a d of 0 is refused
    m, coords = case
    text = f"{m}:[" + ",".join(f"{n}" if d == 1 and bare else f"{n}/{d}"
                              for n, d, bare in coords) + "]"
    if any(d == 0 for _, d, _ in coords):
        with pytest.raises(FormatError, match="bad cyclotomic value"):
            CycloRational.from_text(text)
        return
    got = CycloRational.from_text(text)
    want = CycloRational(m, [Fraction(n, d) for n, d, _ in coords])
    assert (got.order, got.num, got.den) == (want.order, want.num, want.den)


@pytest.mark.parametrize("text, order, coords", [
    ("1:[2/4]", 1, [Fraction(1, 2)]),
    ("4:[-6/4,3/9]", 4, [Fraction(-3, 2), Fraction(1, 3)]),
    ("3:[0/5,-0/7]", 3, [0, 0]),
    ("12:[1/6,0,-5/4,2/3]", 12, [Fraction(1, 6), 0, Fraction(-5, 4), Fraction(2, 3)]),
])
def test_from_text_examples_against_fractions(text, order, coords):
    got, want = CycloRational.from_text(text), CycloRational(order, coords)
    assert (got.num, got.den) == (want.num, want.den) and got.coeffs == tuple(coords)


@pytest.mark.parametrize("bad", ["1:[3/0]", "4:[1/1,-2/0]", "1:[-12/-1]", "1:[0/0]"])
def test_from_text_refuses_a_zero_or_signed_denominator(bad):
    with pytest.raises(FormatError, match="bad cyclotomic value"):
        CycloRational.from_text(bad)


def test_to_complex_matches_unit_circle():
    for m in (1, 2, 3, 4, 5, 6, 7, 8, 12):
        for k in range(m):
            z = root_of_unity(m, k).to_complex()
            assert abs(z - cmath.exp(2j * cmath.pi * k / m)) < 1e-9


def test_equality_ignores_representation_order():
    # the same number written in Q(w_2) and Q(w_6)
    a = CycloRational(2, [Fraction(3)])
    b = as_scalar(3).embed(6)
    assert a == b
    assert not (a == root_of_unity(6))


def test_values_are_immutable_and_their_repr_evaluates_back():
    w = root_of_unity(12, 5) / 3 - Fraction(1, 2)
    for name in ("order", "num", "den", "other"):
        with pytest.raises(AttributeError, match="^CycloRational is immutable$"):
            setattr(w, name, 1)
    assert (w.order, w.num, w.den) == (12, (-3, -2, 0, 2), 6)
    back = eval(repr(w), {"CycloRational": CycloRational})
    assert back == w and back.to_text() == w.to_text()


def test_values_are_canonical_and_constants_are_shared():
    x = CycloRational(4, [Fraction(2, 6), Fraction(-4, 6)])
    assert (x.num, x.den) == ((1, -2), 3)
    zero = x - x
    assert (zero.num, zero.den) == ((0, 0), 1) and zero.to_text() == "4:[0/1,0/1]"
    assert CycloRational(12, [Fraction(1, 2), 0, Fraction(-3, 4), 2]).to_text() == \
        "12:[1/2,0/1,-3/4,2/1]"
    for value in (x, zero, x * x, x.inverse(), x + Fraction(1, 3), x.embed(12),
                  as_scalar(Fraction(-6, 4)), root_of_unity(12, 7)):
        assert_canonical(value)


# -- the property: every operation agrees with the dense reference -----------------

ORDERS = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 20)
small = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def elements(draw, order=None):
    """Field elements, biased to the cheap shapes listings use: rationals and +-w^k."""
    m = draw(st.sampled_from(ORDERS)) if order is None else order
    shape = draw(st.sampled_from(("dense", "sparse", "unit", "rational")))
    if shape == "rational":
        return as_scalar(draw(st.one_of(st.integers(-9, 9), small)))
    if shape == "unit":
        return draw(st.sampled_from((1, -1))) * root_of_unity(m, draw(st.integers(0, m - 1)))
    phi = euler_phi(m)
    coords = draw(st.lists(small if shape == "dense" else st.sampled_from((0, 0, 0, 1, -2)),
                           min_size=phi, max_size=phi))
    return CycloRational(m, coords)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(elements(), elements())
def test_arithmetic_agrees_with_dense_reference(a, b):
    lcm = math.lcm(a.order, b.order)
    ea, eb = _ref_embed(a, lcm), _ref_embed(b, lcm)
    for target in {a.order, lcm, 2 * lcm}:
        assert a.embed(target).coeffs == _ref_embed(a, target)
        assert_canonical(a.embed(target))
    total, prod = a + b, a * b
    assert total.order == prod.order == lcm
    assert total.coeffs == tuple(x + y for x, y in zip(ea, eb))
    assert prod.coeffs == _ref_mul(lcm, ea, eb)
    assert (a - b).coeffs == tuple(x - y for x, y in zip(ea, eb))
    assert (a == b) is (ea == eb) and (b == a) is (ea == eb)
    assert (a.embed(2 * lcm) == b) is (ea == eb)
    assert (a == a * Fraction(1, 2)) is a.is_zero() and (a == a.embed(lcm)) is True
    for value in (total, prod, a - b, -a):
        assert_canonical(value)
    if not a.is_zero():
        inv = a.inverse()
        assert_canonical(inv)
        assert inv.order == a.order
        assert _ref_mul(a.order, a.coeffs, inv.coeffs) == _coords([1], a.order)
        assert (b / a).coeffs == _ref_mul(lcm, eb, _ref_embed(inv, lcm))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(ORDERS), st.one_of(st.integers(-3, 3), small), elements(), st.booleans())
@example(1, Fraction(-3, 4), as_scalar(6).embed(2), True)  # two rationals, of orders (k, x.order)
@example(1, Fraction(-3, 4), as_scalar(6).embed(2), False)
@example(2, Fraction(5, 2), as_scalar(Fraction(2, 5)), True)
@example(2, Fraction(5, 2), as_scalar(Fraction(2, 5)), False)
@example(2, 3, as_scalar(Fraction(-1, 6)).embed(3), True)
@example(2, 3, as_scalar(Fraction(-1, 6)).embed(3), False)
@example(1, 2, as_scalar(Fraction(7, 4)).embed(12), True)
@example(1, 2, as_scalar(Fraction(7, 4)).embed(12), False)
def test_a_rational_in_a_wider_field_multiplies_like_the_dense_product(k, q, x, left):
    # q written in the order-k field (the 1 of order 12, say) scales the other factor, the
    # right one of two rationals: either way round, the product has order lcm(k, x.order) and
    # the dense product's coordinates
    r = as_scalar(q).embed(k)
    prod, lcm = (r * x if left else x * r), math.lcm(k, x.order)
    assert prod.order == lcm
    assert prod.coeffs == _ref_mul(lcm, _ref_embed(r, lcm), _ref_embed(x, lcm))
    assert_canonical(prod)


def test_a_one_of_any_order_passes_a_factor_of_a_multiple_order_through(monkeypatch):
    one12, w5, i = root_of_unity(12, 0), root_of_unity(12, 5), root_of_unity(4)
    assert (w5 * one12, one12 * w5, root_of_unity(4, 0) * w5) == (w5, w5, w5)
    assert (i * one12).order == 12 and i * one12 == root_of_unity(12, 3)  # embedded, as before
    monkeypatch.setattr(cyclotomic, "_reduce", lambda *a: pytest.fail("a full product"))
    assert w5 * one12 is w5 and one12 * w5 is w5 and (-one12 * w5) == -w5


# -- an outside oracle: sympy, when installed ---------------------------------------


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m in range(1, 201):
        expected = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert list(cyclotomic_polynomial(m)) == [int(c) for c in expected], m


def test_products_and_inverses_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(11)

    def as_sympy(value):
        return sum(sympy.Rational(c.numerator, c.denominator) * x**i
                   for i, c in enumerate(value.coeffs))

    def coords(expr, m):
        got = sympy.Poly(expr, x).all_coeffs()[::-1] if expr != 0 else []
        return _coords([Fraction(int(c.p), int(c.q)) for c in got], m)

    for m in (1, 2, 3, 4, 5, 8, 12, 15):
        phi_m = sympy.cyclotomic_poly(m, x)
        for _ in range(10):
            a, b = (CycloRational(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                      if rng.random() < 0.7 else 0 for _ in range(euler_phi(m))])
                    for _ in range(2))
            assert (a * b).coeffs == coords(sympy.rem(as_sympy(a) * as_sympy(b), phi_m, x), m)
            if not a.is_zero():
                assert a.inverse().coeffs == coords(sympy.invert(as_sympy(a), phi_m, x), m)


# -- equality -------------------------------------------------------------------------


def test_same_order_equality_compares_coordinates_without_embedding(monkeypatch):
    w = root_of_unity(12, 5)
    a, b, c = w + Fraction(1, 3), w + Fraction(2, 6), w + Fraction(4, 3)
    monkeypatch.setattr(CycloRational, "embed", lambda self, m: pytest.fail("embedded"))
    assert a == b and a is not b
    assert a != w and not a == c and a != 3 * a


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([1, 2, 3, 4, 6, 12]), st.sampled_from([1, 2, 3, 4, 6, 12]),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4), st.integers(1, 4))
def test_equality_agrees_across_orders(m1, m2, coords, den):
    # a value of order m1 and the same value built in order lcm(m1, m2): equal both ways,
    # and equal to itself seen from m2's side whenever it lives there too
    a = CycloRational(m1, [Fraction(c, den) for c in coords[:euler_phi(m1)]])
    lifted = a.embed(math.lcm(m1, m2))
    assert a == lifted and lifted == a
    assert (a == root_of_unity(m2)) == (lifted == root_of_unity(m2).embed(lifted.order))


def test_the_ints_zero_and_one_lift_to_the_shared_constants():
    assert as_scalar(0) is ZERO and as_scalar(1) is ONE
    assert as_scalar(True) is ONE and as_scalar(False) is ZERO
    w = root_of_unity(12)
    assert (w * 0).is_zero() and (w - w + 1) == ONE  # every operator lifts through as_scalar
    assert CycloRational(1, [1]) == ONE
    assert as_scalar(2) is not as_scalar(2) and as_scalar(-1) == -ONE


@pytest.mark.parametrize("make, args, message", [
    (CycloRational, (1, [1, 2]), "2 coordinates for order 1, expected 1"),
    (root_of_unity(4).embed, (6,), "cannot embed order 4 into order 6"),
    (cyclotomic_polynomial, (0,), "order must be a positive integer"),
    (root_of_unity, (0,), "order must be a positive integer"),
])
def test_out_of_range_arguments_are_dimension_errors(make, args, message):
    with pytest.raises(DimensionError, match=f"^{message}$"):
        make(*args)
