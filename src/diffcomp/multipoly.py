"""Sparse multivariate polynomials over exact cyclotomic-rational coefficients.

A monomial is a sparse map from variable index to a positive exponent; a
polynomial maps monomials to nonzero coefficients (canonical sparse form:
zero coefficients are never stored).  All operations are pure and exact, and a
product of more than one pair of terms charges its |A|*|B| pairs to the cap first.

Polynomial equality compares term maps only, i.e. it is mathematical
equality; the declared variable-universe size `nvars` is carried for
serialization and for dimension checks but does not affect `==`.

The canonical text format (kind `poly` in the framing of `textfile`) is:

    <nvars> <m>
    <coeff> * <var>[^e] * <var>[^e] ...

one term per line in graded-lexicographic order, where <coeff> is the
cyclotomic text format and <var> is either a flat vector name like `a_3`
or a row-major matrix name like `a_{1,2}` (index n*i+j with n the matrix
side).  Round-trips are bit-exact.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from . import textfile
from .cyclotomic import ONE, ZERO, CycloRational, ScalarReader, as_scalar
from .errors import DimensionError, FormatError, InvalidRelabellingError, charge, number, quoted


class Monomial(tuple):
    """Sparse exponent vector: a tuple of (variable, exponent) pairs sorted by variable.

    Hashing and equality are the tuple's, so a monomial equals the plain tuple
    of its pairs.  `*` multiplies monomials; tuple `+` and repetition raise.
    """

    __slots__ = ()

    @classmethod
    def make(cls, mapping: Mapping[int, int]) -> Monomial:
        items = sorted(mapping.items())
        if items and items[0][0] < 0:
            raise DimensionError("variable indices must be non-negative")
        if any(e < 0 for _, e in items):
            raise DimensionError("exponents must be non-negative")
        return cls([(v, e) for v, e in items if e])

    @classmethod
    def of_vars(cls, variables: Iterable[int]) -> Monomial:
        """Multilinear monomial on the given (distinct) variables."""
        vs = list(variables)
        if len(set(vs)) != len(vs):
            raise DimensionError("duplicate variable in multilinear monomial")
        return cls.make(dict.fromkeys(vs, 1))

    def degree(self) -> int:
        return sum([e for _, e in self])

    def support(self) -> frozenset[int]:
        return frozenset([v for v, _ in self])

    def is_multilinear(self) -> bool:
        return all(e == 1 for _, e in self)

    def exponent(self, v: int) -> int:
        return next((e for var, e in self if var == v), 0)

    def __mul__(self, other: Monomial) -> Monomial:
        if not isinstance(other, Monomial):
            return self._refuse(other)
        merged = dict(self)
        for v, e in other:
            merged[v] = merged.get(v, 0) + e
        return Monomial(sorted(merged.items()))

    def _refuse(self, other):
        raise TypeError("a Monomial supports only Monomial * Monomial, not tuple + or repetition")

    __add__ = __rmul__ = _refuse

    def __repr__(self) -> str:
        return f"Monomial({tuple(self)!r})"

    def diff(self, v: int) -> tuple[int, Monomial] | None:
        """(multiplier, reduced monomial) for d/dx_v, or None if v is absent."""
        for k, (var, e) in enumerate(self):
            if var == v:
                lower = ((v, e - 1),) if e > 1 else ()
                return e, Monomial(self[:k] + lower + self[k + 1:])
        return None

    def sort_key(self) -> tuple:
        # Graded lexicographic over variable index.
        return (self.degree(), self)


class MultiPoly:
    """Immutable sparse polynomial; `terms` maps Monomial -> nonzero CycloRational."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, object] | None = None) -> None:
        clean = {mono: c for mono, raw in (terms or {}).items() if (c := as_scalar(raw))}
        _check_universe(nvars, clean)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Monomial, CycloRational],
                 met: Iterable[Monomial] = ()) -> MultiPoly:
        """Internal: scalar terms over variables below nvars, nonzero but maybe at the
        keys in `met` (sums); zeros there are dropped, in place."""
        for mono in met:
            if not terms.get(mono, True):
                del terms[mono]
        p = object.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, c, nvars: int = 0) -> MultiPoly:
        return cls(nvars, {Monomial(): as_scalar(c)})

    @classmethod
    def variable(cls, v: int, nvars: int | None = None) -> MultiPoly:
        return cls(v + 1 if nvars is None else nvars, {Monomial.make({v: 1}): ONE})

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((m.degree() for m in self.terms), default=-1)

    def is_multilinear(self) -> bool:
        return all(m.is_multilinear() for m in self.terms)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = {m.degree() for m in self.terms}
        return len(degs) <= 1 and (degree is None or degs <= {degree})

    def coefficient(self, mono: Monomial) -> CycloRational:
        return self.terms.get(mono, ZERO)

    def sorted_terms(self) -> list[tuple[Monomial, CycloRational]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def coefficient_order(self) -> int:
        """lcm of the cyclotomic orders appearing among coefficients (1 if none)."""
        return math.lcm(*(c.order for c in self.terms.values()))

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> MultiPoly:
        other = self._coerce_poly(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = c if (acc := out.get(mono)) is None else acc + c
        return MultiPoly._trusted(max(self.nvars, other.nvars), out,
                                  self.terms.keys() & other.terms.keys())

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return MultiPoly._trusted(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> MultiPoly:
        return self + (-self._coerce_poly(other))

    def __rsub__(self, other) -> MultiPoly:
        return (-self) + other

    def __mul__(self, other) -> MultiPoly:
        other = self._coerce_poly(other)
        a, b = len(self.terms), len(other.terms)
        if a * b != 1:  # every cap of at least 1 admits one pair, so one term by one is free
            charge([a * b], f"multiplying {a}-term by {b}-term polynomials")
        out, met = {}, []  # met: the keys that met an earlier term, whose sums may be zero
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = m1 * m2
                c = c1 * c2
                if (acc := out.get(mono)) is not None:
                    met.append(mono)
                out[mono] = c if acc is None else acc + c
        return MultiPoly._trusted(max(self.nvars, other.nvars), out, met)

    __rmul__ = __mul__

    def _coerce_poly(self, x) -> MultiPoly:
        return x if isinstance(x, MultiPoly) else MultiPoly.constant(x)

    # -- calculus and substitution --------------------------------------------

    def partial_derivative(self, v: int) -> MultiPoly:
        """Formal d/dx_v; terms not containing x_v vanish.  Dividing by x_v is one to one on the
        terms that hold it, so no two of them meet, and e c is not 0 when c is not."""
        if not 0 <= v < self.nvars:
            raise DimensionError(
                f"variable {number(v)} outside universe of size {number(self.nvars)}")
        return MultiPoly._trusted(self.nvars, {d[1]: c * d[0] for mono, c in self.terms.items()
                                               if (d := mono.diff(v))})

    def evaluate(self, point: Mapping[int, object]) -> CycloRational:
        """Exact evaluation: the restriction fixing every variable, those not in `point` to 0."""
        fixings = {**dict.fromkeys({v for mono in self.terms for v, _ in mono}, 0), **point}
        return self.restrict_and_relabel(fixings, nvars=0).coefficient(Monomial())

    def restrict_and_relabel(self, fixings: Mapping[int, object] | None = None,
                             relabel: Mapping[int, int] | None = None,
                             nvars: int | None = None) -> MultiPoly:
        """Substitute constants for the fixed variables, then rename the rest.  Variables not
        mentioned in `relabel` keep their index; the map must be injective on the survivors."""
        fixings = {v: as_scalar(c) for v, c in (fixings or {}).items()}
        relabel = dict(relabel or {})
        if overlap := set(fixings) & set(relabel):
            raise InvalidRelabellingError(
                f"variables both fixed and relabelled: {quoted(sorted(overlap))}")

        survivors = {v for m in self.terms for v in m.support()} - set(fixings)
        image = {}
        for v in survivors:
            if (t := relabel.get(v, v)) in image:
                raise InvalidRelabellingError(
                    f"variables {number(image[t])} and {number(v)} both map to {number(t)}")
            image[t] = v

        out: dict[Monomial, CycloRational] = {}
        for mono, coeff in self.terms.items():
            kept: dict[int, int] = {}
            for v, e in mono:
                if v not in fixings:
                    kept[relabel.get(v, v)] = e
                elif (x := fixings[v]).is_zero():
                    break
                else:
                    coeff = coeff * x**e
            else:  # no fixed factor of the term is zero
                key = Monomial.make(kept)
                out[key] = coeff if (acc := out.get(key)) is None else acc + coeff
        return MultiPoly(max(image, default=-1) + 1 if nvars is None else nvars, out)

    # -- comparison and display ------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        table = VarTable(self.nvars)
        return " + ".join("*".join([f"({c})"] + [table.factor(v, e) for v, e in mono])
                          for mono, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"<MultiPoly nvars={self.nvars} terms={len(self.terms)}>"


def _check_universe(nvars: int, terms: Iterable[Monomial]) -> None:
    for mono in terms:  # each key a canonical Monomial over the variables 0..nvars-1
        if not isinstance(mono, Monomial):
            raise DimensionError(f"term key {quoted(mono)} is not a Monomial")
        top = -1
        for p in mono:  # canonical: plain int pairs, variables strictly ascending, exponent >= 1
            if type(p) is not tuple or len(p) != 2 or not type(v := p[0]) is int is type(e := p[1]):
                raise DimensionError(f"{quoted(mono)} is not canonical: {quoted(p)} is not a pair "
                                     "of ints")
            if v <= top or e < 1:
                raise DimensionError("variable indices must be non-negative" if v < 0 else
                                     f"{quoted(mono)} is not canonical")
            top = v
        if nvars <= top:
            raise DimensionError(f"nvars={number(nvars)} but a term uses variable {number(top)}")


# ---------------------------------------------------------------------------
# Variable naming and the canonical text format.
# ---------------------------------------------------------------------------

def matrix_index(n: int, i: int, j: int) -> int:
    """Row-major flat index of the matrix variable a_{i,j}."""
    if not (0 <= i < n and 0 <= j < n):
        raise DimensionError(f"({number(i)},{number(j)}) outside a {number(n)}x{number(n)} matrix")
    return n * i + j


@dataclass(frozen=True)
class VarTable:
    """Names of the variables 0..size-1, computed on demand.

    Vector naming writes variable i as `a_i`; matrix naming (side set, size
    side^2) writes the row-major index side*i + j as `a_{i,j}`.
    """

    size: int
    prefix: str = "a"
    side: int | None = None

    @classmethod
    def matrix(cls, n: int) -> VarTable:
        return cls(n * n, "a", n)

    @classmethod
    def naming(cls, name: str, size: int) -> VarTable:
        """The table over `size` variables that names its variables the way `name` is."""
        match = _NAME_RE.fullmatch(name)
        if match is None:
            raise FormatError(f"bad variable token {quoted(name)}")
        side = None if match[2] else math.isqrt(size)
        if side is not None and side * side != size:
            raise FormatError(f"matrix variable {quoted(name)} in a non-square universe")
        return cls(size, match[1], side)

    def name(self, index: int) -> str:
        if not 0 <= index < self.size:
            raise IndexError(
                f"variable {number(index)} outside universe of size {number(self.size)}")
        if self.side is None:
            return f"{self.prefix}_{index}"
        i, j = divmod(index, self.side)
        return f"{self.prefix}_{{{i},{j}}}"

    def index(self, name: str) -> int:
        """The index of the variable `name`; FormatError if this table does not name it."""
        match = _NAME_RE.fullmatch(name)
        if match is None or match[1] != self.prefix or (match[2] is None) == (self.side is None):
            raise FormatError(f"bad or inconsistently named variable {quoted(name)}")
        if self.side is None:
            (index,) = textfile.ints(match[2], "variable index", 0)
        else:
            i, j = textfile.ints(f"{match[3]} {match[4]}", "variable index", 0, 0)
            if i >= self.side or j >= self.side:
                side = number(self.side)
                raise FormatError(f"variable {quoted(name)} outside the {side}x{side} matrix")
            index = self.side * i + j
        if index >= self.size:
            raise FormatError(f"variable {quoted(name)} outside universe of size "
                              f"{number(self.size)}")
        return index

    def factor(self, v: int, e: int) -> str:
        """Variable v to the power e as written in the text format, e.g. 'a_0^2'."""
        return self.name(v) + (f"^{e}" if e > 1 else "")


_NAME_RE = re.compile(r"([A-Za-z]+)_(?:(\d+)|\{(\d+),(\d+)\})")  # a_7, or a_{1,2} for matrices


def poly_to_text(p: MultiPoly, table: VarTable | None = None, order: int | None = None) -> str:
    """Serialize in the canonical format; `order` defaults to the coefficient lcm."""
    table = VarTable(p.nvars) if table is None else table
    if table.size < p.nvars:
        raise DimensionError("variable table smaller than the polynomial's universe")
    m = math.lcm(p.coefficient_order(), 1 if order is None else order)
    # each distinct (variable, exponent) factor is formatted once per file
    tokens = {ve: table.factor(*ve) for ve in {ve for mono in p.terms for ve in mono}}
    # the declared universe is the table's, so sparse matrix listings keep
    # their square shape through a round trip
    return textfile.write("poly", [f"{table.size} {m}"] + [
        " * ".join([c.to_text()] + [tokens[ve] for ve in mono])
        for mono, c in p.sorted_terms()
    ])


@dataclass(frozen=True)
class ParsedPoly:
    poly: MultiPoly
    table: VarTable
    order: int


def poly_from_text(text: str) -> ParsedPoly:
    (nvars, order), lines = textfile.read(text, "poly", 0, 1)
    table: VarTable | None = None  # fixed by the first variable the file names
    # each distinct raw coefficient and factor token is parsed once per file
    coeffs = ScalarReader()
    factors: dict[str, tuple[int, int]] = {}  # token -> (variable, exponent)
    terms: dict[Monomial, CycloRational] = {}
    # a line's head is its coefficient and all factors but the last; one that repeats the head of
    # the last line read in full, if that line's pairs ascended, needs only its last factor parsed
    head_s, top = None, -1
    for line in lines:
        line_head, _, last = line.rpartition(" * ")  # no valid token holds a `*`
        if line_head == head_s and (pair := factors.get(last)) and pair[0] > top:
            pairs[-1] = pair  # coeff and the other pairs are still the head's
            mono = Monomial(pairs)
        else:
            coeff_s, *tokens = line.split(" * ")
            coeff, head_s = coeffs[coeff_s], None
            pairs = list(map(factors.get, tokens))
            if None in pairs:  # a token this file has not used before
                for k, token in enumerate(tokens):
                    if (factor := factors.get(token)) is None:
                        name, _, exp_s = token.strip().partition("^")
                        (e,) = textfile.ints(exp_s or "1", "exponent", 1)
                        if table is None:
                            table = VarTable.naming(name, nvars)
                        factor = factors[token] = (table.index(name), e)
                    pairs[k] = factor
            if len(dict(pairs)) == len(pairs) and pairs == sorted(pairs):  # already a Monomial
                mono, head_s = Monomial(pairs), line_head or None  # "": no factor, no head
                top = pairs[-2][0] if len(pairs) > 1 else -1
            else:  # repeated or unsorted variables: the product of the one-factor monomials
                mono = math.prod([Monomial([pair]) for pair in pairs], start=Monomial())
        if mono in terms:
            raise FormatError(f"duplicate monomial on line {quoted(line)}")
        terms[mono] = coeff
    # VarTable.index bounds every variable below nvars; zeros drop after the duplicate test
    poly = MultiPoly._trusted(nvars, terms, () if all(coeffs.values()) else list(terms))
    return ParsedPoly(poly, VarTable(nvars) if table is None else table, order)
