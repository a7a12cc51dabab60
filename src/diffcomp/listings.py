"""Builders for additive listings: polynomials whose monomials enumerate YES instances.

A Boolean function F on n bits becomes the polynomial

    sum over yes-instances b of  w^phase(b) * prod_{i : b_i = 1} a_i

with w a primitive m-th root of unity.  The all-zeros instance contributes a
constant term.  For m = 1 every coefficient is 1 (the binary listing).

Matrix-variable listings (functional graphs, permanent, determinant, graph
isomorphism, constant functions, cyclic group) live over n^2 variables indexed
row-major and enumerate families of 0/1 matrices.  One constructor builds them
all, and the transforms' membership listings too; it charges the family's size
to the term cap before it builds a term.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from . import textfile
from .cyclotomic import ONE, root_of_unity
from .errors import DimensionError, FormatError, NotApplicableError, charge, number, quoted
from .multipoly import Monomial, MultiPoly

FACTORS_PER_TERM = 4  # admits the densest listings under the default cap: 8! terms, 8 factors each

if TYPE_CHECKING:  # pragma: no cover
    from .graphs import Graph


def lex_index(bits: Sequence[int]) -> int:
    """Big-endian rank of a bit vector: lex_index((1,0,1)) == 5."""
    return sum(b << k for k, b in enumerate(reversed(bits)))


Bits = tuple[int, ...]


def _as_bits(b: Iterable[int], n: int) -> Bits:
    t = tuple(map(int, b))
    if len(t) != n or not {*t} <= {0, 1}:
        raise DimensionError(f"expected a length-{number(n)} bit vector, got {quoted(t)}")
    return t


@dataclass(frozen=True)
class TruthTable:
    """YES instances of an n-bit Boolean function plus a phase exponent per instance.

    The coefficient attached to instance b is w_m^phases[b].  Phases are
    normalized mod m on construction; m = 1 forces them all to zero.
    """

    n: int
    m: int
    yes: frozenset[Bits]
    phases: Mapping[Bits, int]

    def __post_init__(self):
        if self.n < 0:
            raise DimensionError("arity must be non-negative")
        if self.m < 1:
            raise DimensionError("order m must be at least 1")
        yes = frozenset(_as_bits(b, self.n) for b in self.yes)
        if stray := set(self.phases) - yes:
            raise DimensionError(f"phase given for non-yes instance {quoted(sorted(stray)[0])}")
        phases = {b: self.phases.get(b, 0) % self.m for b in yes}
        vars(self).update(yes=yes, phases=phases)

    @classmethod
    def make(cls, n: int, yes: Iterable[Iterable[int]], m: int = 1,
             phases: Mapping[Bits, int] | None = None) -> TruthTable:
        return cls(n, m, yes, phases or {})

    def value(self, b: Iterable[int]) -> int:
        return 1 if _as_bits(b, self.n) in self.yes else 0

    def sorted_yes(self) -> list[Bits]:
        return sorted(self.yes, key=lex_index)

    def to_text(self) -> str:
        lines = [f"{self.n} {self.m}"]
        for b in self.sorted_yes():
            bits = "".join(map(str, b)) or "-"  # arity 0: placeholder token
            lines.append(f"{bits} {self.phases[b]}")
        return textfile.write("tt", lines)

    @classmethod
    def from_text(cls, text: str) -> TruthTable:
        (n, m), lines = textfile.read(text, "tt", 0, 1)
        phases: dict[Bits, int] = {}
        for line in lines:
            if len(parts := line.split()) != 2:
                raise FormatError(f"bad truth-table line {quoted(line)}")
            bits_s, phase_s = parts
            if bits_s == "-" and n == 0:
                bits_s = ""
            if len(bits_s) != n or any(c not in "01" for c in bits_s):
                raise FormatError(f"bad bit vector {quoted(bits_s)} for arity {number(n)}")
            b = tuple(int(c) for c in bits_s)
            if b in phases:
                raise FormatError(f"duplicate yes-instance {quoted(bits_s)}")
            try:
                phases[b] = int(phase_s)
            except ValueError as exc:
                raise FormatError(f"bad phase {quoted(phase_s)}") from exc
        return cls.make(n, phases.keys(), m, phases)


@dataclass(frozen=True)
class FunctionTable:
    """A function g: Z_n -> Z_n as its image vector (g(0), ..., g(n-1))."""

    n: int
    images: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise DimensionError("domain size must be positive")
        images = tuple(int(x) for x in self.images)
        if len(images) != self.n:
            raise DimensionError(f"expected {number(self.n)} images, got {len(images)}")
        if bad := [x for x in images if not 0 <= x < self.n]:
            raise DimensionError(f"image {number(bad[0])} outside Z_{self.n}")
        object.__setattr__(self, "images", images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    @classmethod
    def parse(cls, spec: str, n: int) -> FunctionTable:
        """A function on Z_n written '0,1,0', or as one of 'id', 'const:<c>', 'shift:<j>'."""
        if spec == "id":
            return cls.identity(n)
        shorthand = spec.startswith(("const:", "shift:"))  # both prefixes are six characters
        try:
            images = (int(spec[6:]),) if shorthand else tuple(int(x) for x in spec.split(","))
        except ValueError as exc:
            raise FormatError(f"bad function {quoted(spec)}") from exc
        if shorthand:
            return (cls.constant if spec[0] == "c" else cls.shift)(n, images[0])
        if len(images) != n:
            raise FormatError(f"function {quoted(spec)} must list {number(n)} images")
        return cls(n, images)

    @classmethod
    def constant(cls, n: int, c: int) -> FunctionTable:
        return cls(n, (c,) * n)

    @classmethod
    def identity(cls, n: int) -> FunctionTable:
        return cls(n, tuple(range(n)))

    @classmethod
    def shift(cls, n: int, j: int) -> FunctionTable:
        """x -> x + j mod n."""
        return cls(n, tuple((i + j) % n for i in range(n)))


def all_function_tables(n: int) -> Iterator[FunctionTable]:
    return (FunctionTable(n, images) for images in itertools.product(range(n), repeat=n))


# ---------------------------------------------------------------------------
# Vector-variable listings.
# ---------------------------------------------------------------------------

def listing_from_truth_table(t: TruthTable) -> MultiPoly:
    """One multilinear term per yes-instance, coefficient w_m^phase.  Each coefficient has
    phi(m) coordinates, at most m, so m is charged to the cap before the first is built."""
    charge([t.m], "truth-table listing", "coordinates")
    pairs = [(i, 1) for i in range(t.n)] if t.phases else []  # each yes-instance holds n bits
    roots = {k: root_of_unity(t.m, k) for k in set(t.phases.values())}
    return MultiPoly._trusted(t.n, {Monomial(itertools.compress(pairs, b)): roots[k]
                                    for b, k in t.phases.items()})  # phases holds yes, in its order


def _yes_sum(t: TruthTable, what: str, factor) -> MultiPoly:
    """Expand sum over yes b (sorted) of prod_i factor(y_i, b_i); m=1 listings only."""
    if t.m != 1:
        raise NotApplicableError(f"{what} applies to m=1 listings only")
    total = MultiPoly(t.n)
    for b in t.sorted_yes():
        term = MultiPoly.constant(1, t.n)
        for i, bit in enumerate(b):
            term = term * factor(MultiPoly.variable(i, t.n), bit)
        total = total + term
    return total


def lagrange_interpolant(t: TruthTable) -> MultiPoly:
    """Expand sum over yes b of prod_i (y_i - (1 - b_i)) / (2 b_i - 1).

    Defined for binary listings only: the interpolant encodes F's 0/1 values,
    not phases.  b_i = 1 gives (y_i - 0)/1; b_i = 0 gives (y_i - 1)/(-1) = 1 - y_i.
    """
    return _yes_sum(t, "Lagrange interpolant", lambda y, bit: y if bit else 1 - y)


def lagrange_reduction(t: TruthTable) -> MultiPoly:
    """Binomial reduction of the factored interpolant to the binary listing.

    Each Lagrange factor (y_i-(1-b_i))/(2b_i-1) is replaced by a_i^{b_i}
    before expansion, moving truth-table data from evaluations into
    coefficients.
    """
    return _yes_sum(t, "binomial reduction", lambda a, bit: a if bit else 1)


# ---------------------------------------------------------------------------
# Matrix-variable listings.  Variables are a_{i,j} at flat index n*i + j.
# ---------------------------------------------------------------------------

def _matrix_listing(n: int, factors: Iterable[int], what: str,
                    family: Callable[[list], Iterable]) -> MultiPoly:
    """The one constructor of matrix listings: sum of c * prod_{e in entries} a_e.

    `family(pairs)` yields each member, a 0/1 n x n matrix, as the shared pairs pairs[w] ==
    (w, 1) of its set entries a_w, ascending, and a nonzero coefficient; a matrix listed twice
    is kept once.  prod(factors) terms, then n factors per term, are charged before `pairs`."""
    charge((charge(factors, what), n), what, "factors", FACTORS_PER_TERM)
    pairs = [(w, 1) for w in range(n * n)]  # one (variable, 1) pair per variable, shared
    return MultiPoly._trusted(n * n, {Monomial(e): c for e, c in family(pairs)})


def _rows(n: int) -> range:
    """The flat index n*i of each row's a_{i,0}; n*i + f(i) then grows with i."""
    if n < 1:
        raise DimensionError("n must be positive")
    return range(0, n * n, n)


def listing_functional_graphs(n: int) -> MultiPoly:
    """Sum over all n^n functions f of prod_i a_{i, f(i)}, over the rows' pair slices."""
    rows = _rows(n)
    return _matrix_listing(n, itertools.repeat(n, n), f"functional-graph listing on Z_{n}",
                           lambda pairs: zip(itertools.product(*(pairs[r:r + n] for r in rows)),
                                             itertools.repeat(ONE)))


def signed_permutations(n: int) -> Iterator[tuple[list[int], int]]:
    """Each permutation sigma of Z_n, in lexicographic order, as the set entries
    n*i + sigma(i) of its matrix and its inversion parity: the digit sum, mod 2,
    of its Lehmer code, which itertools.product yields in the same order."""
    rows, codes = _rows(n), itertools.product(*map(range, range(n, 0, -1)))
    return ((list(map(add, rows, sigma)), sum(code) & 1)
            for sigma, code in zip(itertools.permutations(range(n)), codes))


def listing_permanent(n: int) -> MultiPoly:
    """Sum over permutations of prod_i a_{i, sigma(i)}, all coefficients 1."""
    _rows(n)  # refuses n < 1 before the pair table is built
    return _matrix_listing(n, range(2, n + 1), f"permanent listing on {n}x{n}", lambda pairs: (
        (map(pairs.__getitem__, e), ONE) for e, _ in signed_permutations(n)))


def listing_determinant(n: int) -> MultiPoly:
    """Permanent's signed twin: coefficient sgn(sigma) as an order-2 root of unity."""
    signs = (root_of_unity(2, 0), root_of_unity(2, 1))
    _rows(n)  # refuses n < 1 before the pair table is built
    return _matrix_listing(n, range(2, n + 1), f"determinant listing on {n}x{n}", lambda pairs: (
        (map(pairs.__getitem__, e), signs[parity]) for e, parity in signed_permutations(n)))


def listing_graph_isomorphism(g: "Graph") -> MultiPoly:
    """Sum of monomial edge listings over all distinct relabellings of g.

    Conjugates the edge set by every permutation of the vertices; the
    constructor keeps each conjugate once, which quotients by the
    automorphism group without ever computing it.
    """
    n, edges = g.n, g.edges()
    return _matrix_listing(n, range(2, n + 1), f"isomorphism listing on {n} vertices",
                           lambda pairs: ((sorted(pairs[n * s[i] + s[j]] for i, j in edges), ONE)
                                          for s in itertools.permutations(range(n))))


def listing_constant_functions(n: int) -> MultiPoly:
    """sum_j prod_i a_{i,j}: the n constant functions on Z_n.  Column products."""
    rows = _rows(n)
    return _matrix_listing(n, [n], f"constant-function listing on Z_{n}", lambda pairs: (
        ([pairs[r + j] for r in rows], ONE) for j in range(n)))


def listing_cyclic_group(n: int) -> MultiPoly:
    """sum_j prod_i a_{i, i+j mod n}: the cyclic group generated by x -> x+1."""
    rows = _rows(n)
    return _matrix_listing(n, [n], f"cyclic-group listing on Z_{n}", lambda pairs: (
        ([pairs[r + (i + j) % n] for i, r in enumerate(rows)], ONE) for j in range(n)))
