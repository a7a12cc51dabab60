"""Exact cyclotomic arithmetic: identities, inverses, embeddings, text format."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import pytest

from diffcomp.cyclotomic import (
    CycloRational,
    as_scalar,
    cyclotomic_polynomial,
    euler_phi,
    root_of_unity,
)
from diffcomp.errors import FormatError


def brute_phi(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


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
    assert as_scalar(3) == CycloRational.from_rational(3)
    assert as_scalar(Fraction(1, 2)).coeffs == (Fraction(1, 2),)
    w = root_of_unity(4)
    assert as_scalar(w) is w
    for foreign in (0.5, "1", None):
        with pytest.raises(TypeError):
            as_scalar(foreign)
        # the operators defer instead, so Python reports the unsupported operand
        with pytest.raises(TypeError):
            w * foreign
    assert w != "w" and 2 * w == w + w


def test_product_of_cyclotomics_is_x_pow_m_minus_1():
    # prod_{d | m} Phi_d(x) = x^m - 1
    for m in (1, 2, 6, 12, 30):
        prod = [Fraction(1)]
        for d in range(1, m + 1):
            if m % d == 0:
                phi_d = cyclotomic_polynomial(d)
                out = [Fraction(0)] * (len(prod) + len(phi_d) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi_d):
                        out[i + j] += a * b
                prod = out
        expected = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
        assert prod == expected


def test_root_of_unity_basics():
    w = root_of_unity(4)
    assert w * w == root_of_unity(4, 2)
    # omega_4^2 = -1, which in the power basis of Q(omega_4) is (-1, 0)
    assert root_of_unity(4, 2).coeffs == (Fraction(-1), Fraction(0))
    assert w**4 == CycloRational.one()
    assert root_of_unity(1) == CycloRational.one()
    assert root_of_unity(2) == CycloRational.from_rational(-1)


def test_power_of_root_wraps_modulo_order():
    for m in (3, 5, 8, 12):
        w = root_of_unity(m)
        for k in range(2 * m):
            assert w**k == root_of_unity(m, k % m)


def test_geometric_sum_of_all_roots_is_zero():
    # 1 + w + w^2 + ... + w^(m-1) = 0 for m > 1
    for m in (2, 3, 4, 5, 6, 9, 10):
        total = CycloRational.zero()
        for k in range(m):
            total = total + root_of_unity(m, k)
        assert total.is_zero()


def test_worked_product_in_fifth_roots():
    # (1 + w)(1 + w^4) with w = omega_5 reduces to 1 - w^2 - w^3.
    w = root_of_unity(5)
    lhs = (CycloRational.one() + w) * (CycloRational.one() + w**4)
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
            assert x * inv == CycloRational.one()
            assert (x / x) == CycloRational.one()
    with pytest.raises(ZeroDivisionError):
        CycloRational.zero().inverse()


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
        assert a - a == CycloRational.zero()


def test_arithmetic_with_plain_rationals():
    w = root_of_unity(4)
    assert 1 + w == CycloRational.one() + w
    assert 2 * w == w + w
    assert (w - Fraction(1, 2)) + Fraction(1, 2) == w
    assert w / 2 + w / 2 == w


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
    assert CycloRational.from_text("1:[5]") == CycloRational.from_rational(5)
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


def test_to_complex_matches_unit_circle():
    for m in (1, 2, 3, 4, 5, 6, 7, 8, 12):
        for k in range(m):
            z = root_of_unity(m, k).to_complex()
            assert abs(z - cmath.exp(2j * cmath.pi * k / m)) < 1e-9


def test_equality_ignores_representation_order():
    # the same number written in Q(w_2) and Q(w_6)
    a = CycloRational(2, [Fraction(3)])
    b = CycloRational.from_rational(3).embed(6)
    assert a == b
    assert not (a == root_of_unity(6))
