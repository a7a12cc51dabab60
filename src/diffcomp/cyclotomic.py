"""Exact arithmetic in the field Q(w), where w is a primitive m-th root of unity.

An element is stored as its coordinate vector in the power basis
1, w, ..., w^{phi(m)-1} of Q[x]/(Phi_m(x)), with Fraction coordinates.
Representations are fully reduced modulo the m-th cyclotomic polynomial
Phi_m, so equality of same-order elements is coordinate-wise and
zero-testing is exact.  Arithmetic between elements of different orders
first embeds both into the field of order lcm(m1, m2).

No floating point is used in any computation; `complex()` conversion is
provided for display and cross-checking only and never feeds back into
exact values.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

from .errors import FormatError

_ZERO = Fraction(0)
_ONE = Fraction(1)
_COORD = re.compile(r"\s*(-?[0-9]+)(?:/([0-9]+))?\s*")  # an exact coordinate: n or n/d


# ---------------------------------------------------------------------------
# Dense univariate polynomial helpers (coefficient lists, constant term first).
# ---------------------------------------------------------------------------

def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _poly_rem(p: list[Fraction], mod: tuple[int, ...]) -> list[Fraction]:
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


def _poly_divexact_int(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Exact division of integer polynomials with monic divisor.
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    while len(num) >= len(den):
        lead = num[-1]
        k = len(num) - len(den)
        out[k] = lead
        if lead != 0:
            for i, c in enumerate(den):
                num[k + i] -= lead * c
        if num.pop() != 0:
            raise ArithmeticError("inexact polynomial division")
    if any(c != 0 for c in num):
        raise ArithmeticError("inexact polynomial division")
    return out


def _poly_xgcd(a: list, b: list) -> tuple[list, list, list]:
    """Extended Euclid over Q[x]: returns (g, u, v) with u*a + v*b = g."""
    r0, r1 = [Fraction(c) for c in a], [Fraction(c) for c in b]
    u0, u1 = [_ONE], []
    v0, v1 = [], [_ONE]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _trim([x - y for x, y in _zip_sub(u0, _poly_mul(q, u1))])
        v0, v1 = v1, _trim([x - y for x, y in _zip_sub(v0, _poly_mul(q, v1))])
    return r0, u0, v0


def _zip_sub(a: list, b: list):
    n = max(len(a), len(b))
    for i in range(n):
        yield (a[i] if i < len(a) else _ZERO), (b[i] if i < len(b) else _ZERO)


def _poly_divmod(n: list[Fraction], d: list[Fraction]) -> tuple[list, list]:
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    n = list(n)
    q = [_ZERO] * max(len(n) - len(d) + 1, 0)
    inv_lead = 1 / d[-1]
    while len(n) >= len(d):
        c = n[-1] * inv_lead
        k = len(n) - len(d)
        q[k] = c
        if c != 0:
            for i, dc in enumerate(d):
                n[k + i] -= c * dc
        n.pop()
    return _trim(q), _trim(n)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """The m-th cyclotomic polynomial as an integer coefficient tuple.

    Computed by the recurrence Phi_m(x) = (x^m - 1) / prod_{d|m, d<m} Phi_d(x),
    with exact integer polynomial division.  The result is monic.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(2)
    (1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    """
    if m < 1:
        raise ValueError("order must be a positive integer")
    if m == 1:
        return (-1, 1)
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num = _poly_divexact_int(num, cyclotomic_polynomial(d))
    return tuple(num)


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    """Euler's totient (the degree of Phi_m), from the factorization of m."""
    if m < 1:
        raise ValueError("order must be a positive integer")
    phi, rest, p = m, m, 2
    while p * p <= rest:
        if rest % p == 0:
            phi -= phi // p
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        phi -= phi // rest
    return phi


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} as an exact rational")


class CycloRational:
    """An exact element of the cyclotomic field of a given order.

    Values are immutable after construction; every operation returns a new
    value, so instances are safe to share freely.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        phi = euler_phi(order)
        cs = [_as_fraction(c) for c in coeffs]
        if len(cs) > phi:
            raise ValueError(f"{len(cs)} coordinates for order {order}, expected {phi}")
        cs.extend([_ZERO] * (phi - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("CycloRational is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> CycloRational:
        return cls(1, [_as_fraction(q)])

    @classmethod
    def zero(cls) -> CycloRational:
        return cls(1, [0])

    @classmethod
    def one(cls) -> CycloRational:
        return cls(1, [1])

    # -- structure ----------------------------------------------------------

    def embed(self, target_order: int) -> CycloRational:
        """Reinterpret this element in the field of a multiple order."""
        m = self.order
        if target_order == m:
            return self
        if target_order % m != 0:
            raise ValueError(f"cannot embed order {m} into order {target_order}")
        step = target_order // m
        dense: list[Fraction] = [_ZERO] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            dense[i * step] = c
        reduced = _poly_rem(dense, cyclotomic_polynomial(target_order))
        return CycloRational(target_order, reduced)

    @staticmethod
    def _unified(a: CycloRational, b: CycloRational):
        if a.order == b.order:
            return a, b
        m = math.lcm(a.order, b.order)
        return a.embed(m), b.embed(m)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        try:
            rhs = as_scalar(other)
        except TypeError:
            return NotImplemented
        a, b = self._unified(self, rhs)
        return CycloRational(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> CycloRational:
        return CycloRational(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        try:
            rhs = as_scalar(other)
        except TypeError:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            rhs = as_scalar(other)
        except TypeError:
            return NotImplemented
        a, b = self._unified(self, rhs)
        prod = _poly_mul(list(a.coeffs), list(b.coeffs))
        return CycloRational(a.order, _poly_rem(prod, cyclotomic_polynomial(a.order)))

    __rmul__ = __mul__

    def inverse(self) -> CycloRational:
        """Multiplicative inverse; Phi_m is irreducible so any nonzero element has one."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        g, u, _ = _poly_xgcd(list(self.coeffs), list(cyclotomic_polynomial(self.order)))
        if len(g) != 1:
            raise ArithmeticError("gcd with the cyclotomic polynomial is not constant")
        scaled = [c / g[0] for c in u]
        reduced = _poly_rem(scaled, cyclotomic_polynomial(self.order))
        return CycloRational(self.order, reduced)

    def __truediv__(self, other):
        try:
            rhs = as_scalar(other)
        except TypeError:
            return NotImplemented
        return self * rhs.inverse()

    def __pow__(self, k: int) -> CycloRational:
        if k < 0:
            return self.inverse() ** (-k)
        out = CycloRational(self.order, [1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        try:
            rhs = as_scalar(other)
        except TypeError:
            return NotImplemented
        a, b = self._unified(self, rhs)
        return a.coeffs == b.coeffs

    __hash__ = None  # == spans orders via embedding; a consistent hash isn't worth it

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- conversion and text format -------------------------------------------

    def to_complex(self) -> complex:
        """Float approximation for display / numeric cross-checks only."""
        import cmath

        w = cmath.exp(2j * cmath.pi / self.order)
        return sum(float(c) * w**i for i, c in enumerate(self.coeffs))

    def to_text(self) -> str:
        body = ",".join(f"{c.numerator}/{c.denominator}" for c in self.coeffs)
        return f"{self.order}:[{body}]"

    @classmethod
    def from_text(cls, text: str) -> CycloRational:
        try:
            head, _, body = text.partition(":")
            order = int(head)
            if not (body.startswith("[") and body.endswith("]")):
                raise ValueError(body)
            parts = [_COORD.fullmatch(p) for p in body[1:-1].split(",")]
            if not all(parts):
                raise ValueError(body)
            coeffs = [Fraction(int(p[1]), int(p[2] or 1)) for p in parts]
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad cyclotomic value {text!r}") from exc
        # phi(m) >= sqrt(m/2), so a larger order cannot have this many coordinates
        if not 1 <= order <= 2 * len(coeffs) ** 2 or len(coeffs) != euler_phi(order):
            raise FormatError(f"bad cyclotomic value {text!r}")
        return cls(order, coeffs)

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            base = "1" if i == 0 else ("w" if i == 1 else f"w^{i}")
            parts.append(base if c == 1 and i > 0 else f"{c}*{base}" if i > 0 else str(c))
        return " + ".join(parts) + f" (order {self.order})"

    def __repr__(self) -> str:
        return f"CycloRational.from_text({self.to_text()!r})"


def as_scalar(x) -> CycloRational:
    """x as a field element: ints and Fractions are lifted, other types are a TypeError."""
    if isinstance(x, CycloRational):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloRational(1, [x])
    raise TypeError(f"cannot use {type(x).__name__} as an exact scalar")


def root_of_unity(m: int, k: int = 1) -> CycloRational:
    """w^(k mod m) in the order-m field, in canonical reduced form.

    >>> root_of_unity(1, 0) == 1
    True
    >>> root_of_unity(2) == -1
    True
    """
    if m < 1:
        raise ValueError("order must be a positive integer")
    k %= m
    dense = [_ZERO] * k + [_ONE]
    return CycloRational(m, _poly_rem(dense, cyclotomic_polynomial(m)))


ZERO = CycloRational.zero()
ONE = CycloRational.one()
