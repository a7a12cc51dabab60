"""Exact arithmetic in the field Q(w), where w is a primitive m-th root of unity.

An element is its coordinate vector in the power basis 1, w, ..., w^{phi(m)-1} of
Q[x]/(Phi_m(x)), stored as FLINT's fmpq_poly stores a polynomial: integer coordinates `num` over
one positive denominator `den`, in lowest terms (gcd(den, *num) == 1; zero is all-zero
coordinates over 1).  So equality of same-order elements compares integers.  Phi_m is monic, so
a product reduces modulo Phi_m in the integers, with one gcd at the end; for orders 1 and 2
(phi = 1, the rationals) every operation is a single integer operation.  Arithmetic between
orders first embeds both into the order lcm(m1, m2).  `coeffs` gives the coordinates as
Fractions, computed on read.  No floating point is used; `to_complex` is for display and
cross-checking only.
"""

from __future__ import annotations

import math
import re
import sys
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import DimensionError, FormatError, number, quoted

if TYPE_CHECKING:  # pragma: no cover
    from fractions import Fraction

_COORD = re.compile(r"\s*(-?[0-9]+)(?:/([0-9]+))?\s*")  # an exact coordinate: n or n/d
_gcd = math.gcd


def _prime_factors(m: int) -> list[int]:
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return out + [m] if m > 1 else out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """The m-th cyclotomic polynomial as an integer coefficient tuple.

    Phi_m(x) = Phi_r(x^(m/r)) for r = rad(m), and Phi_r is the Moebius product
    of (x^d - 1)^mu(r/d) over the divisors d of r; each factor is one sparse
    multiply or exact divide.  The result is monic.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(2)
    (1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    """
    euler_phi(m)  # refuses an order below 1
    primes = _prime_factors(m)
    poly, divisors = [1], []
    for mask in range(1 << len(primes)):
        d = math.prod(p for i, p in enumerate(primes) if mask >> i & 1)
        if (len(primes) - mask.bit_count()) % 2:
            divisors.append(d)
        else:  # times (x^d - 1)
            poly = [0] * d + poly
            for i in range(len(poly) - d):
                poly[i] -= poly[i + d]
    for d in divisors:  # exactly divided by (x^d - 1), in place
        for i in range(len(poly) - d):
            poly[i] = (poly[i - d] if i >= d else 0) - poly[i]
        del poly[len(poly) - d:]
    step = m // math.prod(primes)
    out = [0] * ((len(poly) - 1) * step + 1)
    out[::step] = poly
    return tuple(out)


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    """Euler's totient (the degree of Phi_m), from the factorization of m."""
    if m < 1:
        raise DimensionError("order must be a positive integer")
    phi = m
    for p in _prime_factors(m):
        phi -= phi // p
    return phi


@lru_cache(maxsize=None)
def _rule(m: int) -> tuple[tuple[int, int], ...]:
    # x^phi(m) == sum c * x^i mod Phi_m, as the nonzero (i, c) pairs
    return tuple((i, -c) for i, c in enumerate(cyclotomic_polynomial(m)[:-1]) if c)


def _reduce(p: list[int], m: int) -> tuple[int, ...]:
    """The integer polynomial p (constant term first) modulo Phi_m, as phi(m) coordinates."""
    phi, rule = euler_phi(m), _rule(m)
    for k in range(len(p) - 1, phi - 1, -1):
        lead = p[k]
        if lead:
            off = k - phi
            for i, c in rule:
                p[off + i] += lead * c
    return tuple(p[:phi]) + (0,) * (phi - len(p))


def _is_fraction(x) -> bool:  # a Fraction exists only once `fractions` is loaded: look, don't load
    return (f := sys.modules.get("fractions")) is not None and isinstance(x, f.Fraction)


def _make(order: int, num: tuple[int, ...], den: int) -> CycloRational:
    # the trusted constructor: phi(order) integer coordinates over a positive den
    g = _gcd(den, *num)
    if g != 1:
        num = tuple(c // g for c in num)
        den //= g
    x = _new(CycloRational)
    _set_order(x, order)
    _set_num(x, num)
    _set_den(x, den)
    return x


class CycloRational:
    """An exact element of the cyclotomic field of a given order.  `num` (phi(order) integer
    coordinates) over `den` (a positive integer) is the canonical form described in the module
    docstring.  Values are immutable; every operation returns a new value or a shared one, so
    instances are safe to share freely."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs) -> None:
        phi = euler_phi(order)
        cs = list(coeffs)
        for c in cs:  # an int or a Fraction: each has .numerator and .denominator
            if not (isinstance(c, int) or _is_fraction(c)):
                raise TypeError(f"cannot use {type(c).__name__} as an exact rational")
        if len(cs) > phi:
            raise DimensionError(f"{len(cs)} coordinates for order {order}, expected {phi}")
        den = math.lcm(*(c.denominator for c in cs))  # each c is in lowest terms, so is num/den
        num = tuple(c.numerator * (den // c.denominator) for c in cs) + (0,) * (phi - len(cs))
        _set_order(self, order)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("CycloRational is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions."""
        from fractions import Fraction
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- structure ----------------------------------------------------------

    def embed(self, target_order: int) -> CycloRational:
        """Reinterpret this element in the field of a multiple order."""
        m = self.order
        if target_order == m:
            return self
        if target_order % m != 0:
            raise DimensionError(f"cannot embed order {m} into order {number(target_order)}")
        return self._sigma(target_order // m, target_order)

    def _sigma(self, k: int, m: int) -> CycloRational:
        """w -> w_m^k into the order-m field, for w_m^k of an order dividing this one's (sigma_k
        when m is this order and k a unit): coordinate i moves to slot i*k mod m, then _reduce."""
        spread = [0] * m
        for i, c in enumerate(self.num):
            spread[i * k % m] = c
        return _make(m, _reduce(spread, m), self.den)

    @staticmethod
    def _unified(a: CycloRational, b: CycloRational):
        if a.order == b.order:
            return a, b
        m = math.lcm(a.order, b.order)
        return a.embed(m), b.embed(m)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise DimensionError(f"{self} is not rational")
        from fractions import Fraction
        return Fraction(self.num[0], self.den)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if (rhs := _lift(other)) is None:
            return NotImplemented
        a, b = self._unified(self, rhs)
        ad, bd = a.den, b.den
        return _make(a.order, tuple(x * bd + y * ad for x, y in zip(a.num, b.num)), ad * bd)

    __radd__ = __add__

    def __neg__(self) -> CycloRational:
        return _make(self.order, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        if (rhs := _lift(other)) is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if (rhs := _lift(other)) is None:
            return NotImplemented
        # a rational factor q (of any order: a 1 of order 12, say) scales the other one; of two,
        # q is the right one
        if not any(rhs.num[1:]):
            q, b = rhs, self
        elif not any(self.num[1:]):
            q, b = self, rhs
        else:
            a, b = self._unified(self, rhs)
            an, bn = a.num, b.num
            prod = [0] * (2 * len(an) - 1)
            for i, x in enumerate(an):
                if x:
                    for j, y in enumerate(bn, i):
                        if y:
                            prod[j] += x * y
            return _make(a.order, _reduce(prod, a.order), a.den * b.den)
        if b.order % q.order:
            b = b.embed(math.lcm(q.order, b.order))
        k, den, bn = q.num[0], q.den * b.den, b.num
        if k == 1 and den == 1:
            return b
        return _make(b.order, (k * bn[0],) if len(bn) == 1 else tuple(k * c for c in bn), den)

    __rmul__ = __mul__

    def inverse(self) -> CycloRational:
        """Multiplicative inverse; Phi_m is irreducible so any nonzero element has one."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        den, m, whole = self.den, self.order, _make(self.order, self.num, 1)  # whole = den * a
        # 1/a = den * c / N, c the product of sigma_k(whole) over units k != 1 mod m, N = whole * c
        cofactor = ONE
        for k in range(2, m):
            if _gcd(k, m) == 1:
                cofactor = cofactor * whole._sigma(k, m)
        norm = (whole * cofactor).num[0]
        scale = den if norm > 0 else -den
        return _make(m, tuple(scale * c for c in cofactor.num), abs(norm))

    def __truediv__(self, other):
        if (rhs := _lift(other)) is None:
            return NotImplemented
        return self * rhs.inverse()

    def __pow__(self, k: int) -> CycloRational:
        if k < 0:
            return self.inverse() ** (-k)
        out = _make(self.order, (1,) + (0,) * (len(self.num) - 1), 1)
        for bit in bin(k)[2:]:  # from the top bit down: square, and at each 1 multiply by self
            out = out * out * self if bit == "1" else out * out
        return out

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if other.__class__ is CycloRational and other.order == self.order:  # canonical form
            return self.num == other.num and self.den == other.den
        if (rhs := _lift(other)) is None:
            return NotImplemented
        a, b = self._unified(self, rhs)
        return a.num == b.num and a.den == b.den

    __hash__ = None  # == spans orders via embedding; a consistent hash isn't worth it

    def __bool__(self) -> bool:
        return any(self.num)

    # -- conversion and text format -------------------------------------------

    def to_complex(self) -> complex:
        """Float approximation for display / numeric cross-checks only."""
        import cmath

        w = cmath.exp(2j * cmath.pi / self.order)
        return sum(float(c) * w**i for i, c in enumerate(self.coeffs))

    def to_text(self) -> str:
        den = self.den
        body = (",".join(f"{c}/1" for c in self.num) if den == 1 else
                ",".join(f"{c // g}/{den // g}" for c in self.num for g in (_gcd(c, den),)))
        return f"{self.order}:[{body}]"

    @classmethod
    def from_text(cls, text: str) -> CycloRational:
        head, _, body = text.partition(":")
        parts = [_COORD.fullmatch(p) for p in body[1:-1].split(",")]
        try:  # each coordinate n/d, or n over 1
            order = int(head)
            nums, dens = [int(p[1]) for p in parts if p], [int(p[2] or 1) for p in parts if p]
        except ValueError as exc:
            raise FormatError(f"bad cyclotomic value {quoted(text)}") from exc
        # phi(m) >= sqrt(m/2), so a larger order cannot have this many coordinates
        if (body[:1] + body[-1:] != "[]" or len(nums) != len(parts) or 0 in dens
                or not 1 <= order <= 2 * len(nums) ** 2 or len(nums) != euler_phi(order)):
            raise FormatError(f"bad cyclotomic value {quoted(text)}")
        den = math.lcm(*dens)
        return _make(order, tuple(n * (den // d) for n, d in zip(nums, dens)), den)

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.to_fraction())
        parts = [str(c) if i == 0 else ("" if c == 1 else f"{c}*") + ("w" if i == 1 else f"w^{i}")
                 for i, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) + f" (order {self.order})"

    def __repr__(self) -> str:
        return f"CycloRational.from_text({self.to_text()!r})"


# the slots' own setters, which CycloRational.__setattr__ does not block
_new = object.__new__
_set_order, _set_num, _set_den = (vars(CycloRational)[k].__set__ for k in CycloRational.__slots__)


def _lift(x) -> CycloRational | None:
    # ints and Fractions are lifted to order 1 (0 and 1 to ZERO and ONE); None for other types
    if isinstance(x, CycloRational):
        return x
    if isinstance(x, int) or _is_fraction(x):
        return (ZERO, ONE)[x.numerator] if x in (0, 1) else _make(1, (x.numerator,), x.denominator)
    return None


def as_scalar(x) -> CycloRational:
    """x as a field element: ints and Fractions are lifted, other types are a TypeError."""
    if (c := _lift(x)) is None:
        raise TypeError(f"cannot use {type(x).__name__} as an exact scalar")
    return c


class ScalarReader(dict):
    """The one reader of scalar tokens in a file: reader[token] parses each distinct raw
    token once (stripped, as `CycloRational.from_text`), and remembers what it read."""

    def __missing__(self, token: str) -> CycloRational:
        self[token] = value = CycloRational.from_text(token.strip())
        return value


def root_of_unity(m: int, k: int = 1) -> CycloRational:
    """w^(k mod m) in the order-m field, in canonical reduced form.

    >>> root_of_unity(1, 0) == 1
    True
    >>> root_of_unity(2) == -1
    True
    """
    euler_phi(m)  # refuses an order below 1
    return _make(m, _reduce([0] * (k % m) + [1], m), 1)


ZERO = _make(1, (0,), 1)
ONE = _make(1, (1,), 1)
