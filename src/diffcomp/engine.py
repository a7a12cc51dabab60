"""Execution of Boolean functions by differentiating their listings.

To run input b against program P: differentiate P once with respect to a_i
for every set bit b_i, evaluate what's left at a = 0, and raise the scalar
to the m-th power.  Each variable of b's support S is differentiated once,
so the chain leaves exactly the coefficient of the multilinear monomial on
S (0 if P lacks it), multilinear P or not, and runs compute it by that one
lookup.  The m-th power then collapses any phase to 1; each computer stores which
distinct coefficients decided 1, so only the first run on a coefficient computes the
power, which pays off only when many runs share one listing.

The functional variant differentiates along a function's graph instead and
skips the evaluation at zero; only a term of degree > n containing the graph
leaves a non-constant remainder.  Either way, a post-power scalar outside
{0, 1} means the program was not an additive listing, and we refuse to guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, count
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

from .cyclotomic import ONE, ZERO, CycloRational
from .errors import (BOUND, DimensionError, ModelViolationError, SingularMatrixError, charge, fits,
                     number)
from .listings import FunctionTable
from .multipoly import Monomial, MultiPoly, VarTable

if TYPE_CHECKING:  # pragma: no cover
    from fractions import Fraction

_KINDS = ("vector", "matrix", "functional")


@dataclass(frozen=True)
class RunResult:
    """Decision bit plus the pre-power scalar, kept for diagnostics."""

    bit: int
    scalar: CycloRational


_NO = RunResult(0, ZERO)  # every run whose coefficient is 0 decides this one result


@dataclass(frozen=True)
class DifferentialComputer:
    program: MultiPoly
    arity: int
    order: int
    input_kind: str = "vector"
    # each coefficient, as (order, num, den), whose s^gcd(m, L) is 1, and its decision
    _units: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.input_kind not in _KINDS:
            raise DimensionError(f"input_kind must be one of {_KINDS}")
        if self.arity < 0:
            raise DimensionError("arity must be non-negative")
        if self.order < 1:
            raise DimensionError("order must be positive")
        universe = self.arity if self.input_kind == "vector" else self.arity**2
        if self.program.nvars > universe:
            raise DimensionError(f"program uses {number(self.program.nvars)} variables; "
                                 f"{self.input_kind} inputs of arity {self.arity} allow {universe}")
        if self.order % (cform := self.program.coefficient_order()):
            raise DimensionError(f"program coefficients live in order {cform}, which does not "
                                 f"divide the declared order {number(self.order)}")

    @cached_property
    def _tall_terms(self) -> tuple[Monomial, ...]:
        # the terms of degree > arity, found on the first functional run
        exponent, arity = itemgetter(1), self.arity
        return tuple(m for m in self.program.terms if sum(map(exponent, m)) > arity)

    def _show(self, mono: Monomial, room: int = BOUND) -> str:
        # past `room` characters: the whole factors in the first half of it, then the degree
        table = (VarTable if self.input_kind == "vector" else VarTable.matrix)(self.arity)
        if len(text := " * ".join(table.factor(v, e) for v, e in mono) or "1") <= room:
            return text
        head = text[:room // 2].rpartition(" * ")[0]
        return f"{head}{' * ' * bool(head)}... (degree {number(mono.degree())})"

    def _decide(self, scalar: CycloRational, mono: Monomial) -> RunResult:
        # s^m without the power: every root of unity in the field of s (order k)
        # has order dividing L = lcm(2, k), so s^m = 1 iff s^gcd(m, L) = 1
        if scalar.is_zero():
            return _NO
        if (known := self._units.get(key := (scalar.order, scalar.num, scalar.den))) is not None:
            return known
        if scalar ** math.gcd(self.order, math.lcm(2, scalar.order)) == ONE:
            return self._units.setdefault(key, RunResult(1, scalar))
        # name s and m, not s^m: that is a second power, with integers m times as long as s's.
        # s, m and the witness share BOUND - 7 characters: an `error:` line of at most 300 bytes
        named, order = f"<order-{scalar.order} coefficient>", number(self.order)
        whole = fits(*scalar.num, scalar.den) and len(text := str(scalar)) <= BOUND
        shown, witness = text if whole else named, self._show(mono)
        if len(shown) + len(order) + len(witness) > BOUND - 7:
            shown, witness = named, self._show(mono, max(0, BOUND - 7 - len(named) - len(order)))
            if len(named) + len(order) + len(witness) > BOUND - 7:  # no room left by the order
                order = f"over 2^{(self.order - 1).bit_length() - 1}"  # the largest 2^k below it
                witness = self._show(mono, max(0, BOUND - 7 - len(named) - len(order)))
        raise ModelViolationError(f"post-power scalar ({shown})^{order} is neither 0 nor 1 at "
                                  f"input monomial {witness}; the program is not an additive "
                                  "listing")


def _run(dc: DifferentialComputer, support: Sequence[int]) -> RunResult:
    """The one run path: d/da_S P at a = 0 is the coefficient of prod_S a_i, S ascending."""
    mono = Monomial([(v, 1) for v in support])
    return dc._decide(dc.program.coefficient(mono), mono)


def run_vector(dc: DifferentialComputer, b: Sequence[int]) -> RunResult:
    """Apply d/da_i per set bit, evaluate at zero, decide (by coefficient lookup)."""
    if dc.input_kind != "vector":
        raise DimensionError(f"run_vector on a {dc.input_kind}-input computer")
    bits = list(map(int, b))
    if len(bits) != dc.arity or not {*bits} <= {0, 1}:
        raise DimensionError(f"expected a length-{dc.arity} bit vector")
    return _run(dc, list(compress(count(), bits)))  # the indices of the set bits


def run_matrix(dc: DifferentialComputer, B: Sequence[Sequence[int]]) -> RunResult:
    """As run_vector, differentiating along the set entries of a square 0/1 matrix."""
    if dc.input_kind != "matrix":
        raise DimensionError(f"run_matrix on a {dc.input_kind}-input computer")
    n = dc.arity
    flat = list(map(int, chain.from_iterable(B)))  # row-major, as matrix_index numbers them
    if len(B) != n or {*map(len, B)} - {n}:
        raise DimensionError(f"expected a {n}x{n} matrix")
    if not {*flat} <= {0, 1}:
        raise DimensionError("matrix entries must be 0 or 1")
    return _run(dc, list(compress(count(), flat)))


def run_functional(dc: DifferentialComputer, g: FunctionTable) -> RunResult:
    """Differentiate along the graph of g, with no evaluation at zero.  A non-constant
    remainder is reported, naming one offending term."""
    if dc.input_kind != "functional":
        raise DimensionError(f"run_functional on a {dc.input_kind}-input computer")
    n = dc.arity
    if g.n != n:
        raise DimensionError(f"function acts on Z_{g.n}, computer expects Z_{n}")
    support = [n * i + j for i, j in enumerate(g.images)]  # a_{i,g(i)}, g checked its images
    for term in dc._tall_terms:
        if term.support() >= set(support):
            raise ModelViolationError(
                "differentiating along the function left a non-constant polynomial: term "
                f"{dc._show(term)} contains input monomial {dc._show(Monomial.of_vars(support))}")
    return _run(dc, support)


def count_eval(p: MultiPoly, B: Sequence[Sequence[int]]) -> CycloRational:
    """Plain evaluation of a matrix-variable listing at a 0/1 matrix.

    For binary listings this counts the enumerated objects inside B instead
    of deciding membership.
    """
    n = len(B)
    flat = list(map(int, chain.from_iterable(B)))
    if {*map(len, B)} - {n}:
        raise DimensionError("matrix must be square")
    if p.nvars > n * n:
        raise DimensionError(f"listing uses {p.nvars} variables, matrix provides {n * n}")
    return p.evaluate(dict.fromkeys(compress(count(), flat), 1))


def inverse_via_gradient(M: Sequence[Sequence[Fraction | int]]) -> list[list[Fraction]]:
    """Invert an exact rational matrix through the determinant listing's gradient.

    Entry (i, j) of the inverse is (d/da_{j,i} Det)(M) / Det(M).  Without building the
    listing (its n! terms are still charged), a forward pass over column subsets S as
    bitmasks finds each minor on rows 0..|S|-1 by Laplace along its last row, n 2^(n-1)
    products; a reverse pass as long gives the whole gradient (Baur and Strassen).  Both
    run in integers: with D the lcm of M's denominators, M^-1 = D grad Det(DM) / Det(DM).
    """
    from fractions import Fraction
    n = len(M)
    rows = [[Fraction(x) for x in row] for row in M]
    if n < 1 or any(len(r) != n for r in rows):
        raise DimensionError("matrix must be square" if n else "n must be positive")
    scale = math.lcm(*(x.denominator for r in rows for x in r))
    point = [[x.numerator * (scale // x.denominator) for x in r] for r in rows]
    charge(range(2, n + 1), f"determinant listing on {n}x{n}")
    full, grad, steps = (1 << n) - 1, [[0] * n for _ in rows], []
    minor, adj = [1] * (full + 1), [0] * full + [1]
    for S in range(1, full + 1):  # S - {j} < S, so every smaller minor is already found
        r, sign, total = S.bit_count() - 1, 1, 0
        for j in range(n - 1, -1, -1):  # along row r the sign flips at each column of S
            if S >> j & 1:
                steps.append((r, j, S, S ^ 1 << j, sign))
                total += sign * point[r][j] * minor[S ^ 1 << j]
                sign = -sign
        minor[S] = total
    if (det := minor[full]) == 0:
        raise SingularMatrixError("matrix is singular")
    for r, j, S, T, sign in reversed(steps):  # adj[S] is whole before S pushes it down
        grad[r][j] += sign * adj[S] * minor[T]
        adj[T] += sign * adj[S] * point[r][j]
    return [[Fraction(scale * grad[j][i], det) for j in range(n)] for i in range(n)]
