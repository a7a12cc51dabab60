"""Chow decompositions: sums of products of non-homogeneous linear forms.

A decomposition with rho summands of degree d over n variables is a rho x d x (n+1) hypermatrix
H; entry H[u][v][w] is the coefficient of x_w in the v-th linear form of summand u, and slot n
holds the form's constant term.  The number of summands certifies an upper bound on the Chow rank
of the expanded polynomial; two lower-bound tools live here as well:

 * degree 2 — the first partials of P span at most 2 rho dimensions, so their rank, halved
   (rounding up), is a lower bound (Nisan and Wigderson's partial-derivative method);
 * totally non-overlapping polynomials — Chow rank equals the term count, so the expanded form
   itself is an optimal decomposition.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, chain, product, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from . import textfile
from .cyclotomic import ONE, ZERO, CycloRational, ScalarReader, as_scalar, cyclotomic_polynomial
from .errors import (DimensionError, FormatError, InternalInconsistencyError, NotApplicableError,
                     NotHomogeneousError, charge, max_terms, number, quoted)
from .multipoly import Monomial, MultiPoly, matrix_index

if TYPE_CHECKING:  # pragma: no cover
    from .listings import FunctionTable

@dataclass(frozen=True)
class ChowDecomposition:
    """rho summands, each a product of degree linear forms over nvars variables.  Each form of H
    is dense, its n + 1 entries, or sparse, {w: H[u][v][w]} with the constant under None; either
    way it keeps each form's nonzero entries in that sparse shape, in slot order."""

    rho: int
    degree: int
    nvars: int
    _sparse: tuple  # given H; kept as the sparse forms, so == ignores the order of a zero

    def __post_init__(self):
        if self.rho < 1 or self.degree < 1 or self.nvars < 0:
            raise DimensionError("need rho >= 1, degree >= 1, nvars >= 0")
        # one pass coerces every entry and builds the sparse forms, the lookup test, the term count
        # and the cap bound, the largest product of a summand's first k >= 2 forms' entry counts
        n, sparse, firsts, lookup, count, peak = self.nvars, [], [], True, 0, 0
        for summand in self._sparse:
            if len(summand) != self.degree:
                raise DimensionError(f"expected {self.degree} forms per summand")
            sparse.append([])
            for form in summand:
                if isinstance(form, dict):  # type(w) is int: a bool key would pass as 0 or 1
                    if not all(w is None or type(w) is int and 0 <= w < n for w in form):
                        raise DimensionError(f"sparse form keys are variables below {n} or None")
                    form = sorted(form.items(), key=lambda wh: n if wh[0] is None else wh[0])
                elif len(form := tuple(form)) != n + 1:
                    raise DimensionError(f"each form needs {n + 1} entries, got {len(form)}")
                else:
                    form = zip(chain(range(n), [None]), form)
                sparse[-1].append({w: h for w, x in form if (h := as_scalar(x))})
            sizes = list(accumulate(map(len, sparse[-1]), int.__mul__))  # of the first k forms
            peak, count = max([peak, *sizes[1:]]), count + sizes[-1]
            firsts += sparse[-1][0]
            lookup = (lookup and None not in (ws := [w for form in _cut(sparse[-1]) for w in form])
                      and all(map(int.__lt__, ws, ws[1:])))
        if len(sparse) != self.rho:
            raise DimensionError(f"expected {self.rho} summands, got {len(sparse)}")
        vars(self).update(_sparse=tuple(sparse), _lookup=lookup and len(firsts) == len(set(firsts)),
                          _count=count, _peak=peak)

    @property
    def entries(self) -> tuple:  # H, read back from the sparse forms with each zero as ZERO
        return tuple(tuple(tuple(f.get(w, ZERO) for w in [*range(self.nvars), None])
                           for f in summand) for summand in self._sparse)

    def is_homogeneous(self) -> bool:
        return all(None not in form for summand in self._sparse for form in summand)

    def coefficient(self, mono: Monomial) -> CycloRational:
        """d/dx_S at 0 on the certificate: the coefficient of x^mono in expand(self).

        Per summand, a pass over the forms keyed by the part of x^mono still to supply, each form
        taking its constant or d/dx_w of that part; a summand lacking a variable of mono gives 0."""
        parts = []  # each summand's share
        for summand in self._sparse:
            states = {mono: ONE}  # the part still to supply -> the share of the forms so far
            for form in summand:
                nxt: dict[Monomial, CycloRational] = {}
                for need, acc in states.items():
                    steps = [(need.diff(w)[1], form[w]) for w, _ in need if w in form]
                    for key, h in steps + ([(need, form[None])] if None in form else []):
                        nxt[key] = nxt[key] + acc * h if key in nxt else acc * h
                states = nxt
            parts.append(states.get(Monomial(), ZERO))
        return sum(parts[1:], parts[0])

    def coefficient_order(self) -> int:
        return math.lcm(*(h.order for summand in self._sparse for f in summand for h in f.values()))

    def to_text(self, order: int | None = None) -> str:
        n, m = self.nvars, math.lcm(self.coefficient_order(), 1 if order is None else order)
        zero, tokens, lines = f"{ZERO.to_text()} ", {}, [f"{self.rho} {self.degree} {n} {m}"]
        for form in chain.from_iterable(self._sparse):  # its entries, 1:[0/1] in each slot between
            line, at = [], 0  # at: the first slot not yet written
            for w, h in form.items():  # each scalar object is formatted once
                token = tokens.get(key := id(h)) or tokens.setdefault(key, f"{h.to_text()} ")
                line += [zero * ((s := n if w is None else w) - at), token]
                at = s + 1
            lines.append("".join(line + [zero * (n + 1 - at)])[:-1])
        return textfile.write("chow", lines)

    @classmethod
    def from_text(cls, text: str) -> tuple[ChowDecomposition, int]:
        """Parse into sparse forms; returns the decomposition and the declared coefficient order."""
        (rho, d, n, m), body = textfile.read(text, "chow", 1, 1, 0, 1)
        if len(body) != rho * d:
            raise FormatError(f"expected {number(rho * d)} form lines, found {len(body)}")
        forms, read, zeros = [], ScalarReader().__getitem__, set()
        for line in body:  # the slots stay a lazy range, as n may be huge; a zero is tested once
            if len(toks := line.split()) != n + 1:
                raise FormatError(f"expected {number(n + 1)} entries on line {quoted(line)}")
            forms.append({w: h for w, t in zip(chain(range(n), [None]), toks)
                          if t not in zeros and ((h := read(t)) or zeros.add(t))})
        return cls(rho, d, n, [forms[u * d:u * d + d] for u in range(rho)]), m


def _is_one(c: CycloRational) -> bool:  # ONE, which CycloRational.__mul__ passes through
    return c.order == 1 and c.den == 1 and c.num[0] == 1


def _cut(summand: list) -> list:  # its forms up to the first zero one, past which all is 0
    return summand[:next((k for k, form in enumerate(summand, 1) if not form), None)]


def _fold(summand: list) -> tuple[Iterator[tuple], list[CycloRational]]:
    """A summand that takes the lookup as one product over its `_cut` entries: its keys, plain
    tuples of one (w, 1) pair per form, and their coefficients, folded and charged as * would."""
    summand = _cut(summand)
    coeffs = list(summand[0].values())
    for form in summand[1:]:
        if (a := len(coeffs)) * (b := len(form)) != 1:  # as *: one term by one is free
            charge([a * b], f"multiplying {a}-term by {b}-term polynomials")
        pairs = [(h, _is_one(h)) for h in form.values()]  # a unit passes the other on
        coeffs = [h if one else g if h_one else g * h
                  for g in coeffs for one in [_is_one(g)] for h, h_one in pairs]
    return product(*[zip(f, repeat(1)) for f in summand]), coeffs


def expand(c: ChowDecomposition) -> MultiPoly:
    """Multiply out every summand, a MultiPoly * fold of its `_cut` forms, and add; the canonical
    polynomial."""
    out, met = {}, []  # met: the keys an earlier summand holds too, whose sums may be zero
    for summand in c._sparse:
        forms = (MultiPoly._trusted(c.nvars, {Monomial(() if w is None else ((w, 1),)): h
                                              for w, h in form.items()}) for form in _cut(summand))
        part = math.prod(forms, start=next(forms)).terms
        met += (sums := {mono: out[mono] + part[mono] for mono in out.keys() & part.keys()})
        out |= part | sums
    return MultiPoly._trusted(c.nvars, out, met)


def _probes(c: ChowDecomposition) -> Iterator[tuple[tuple, CycloRational]]:
    """Per summand with no zero form, if c takes the lookup: its lead key (each form picks its
    first variable) and the lead with one form's pick swapped, each with the product of picks."""
    for summand in filter(all, c._sparse):
        lead = [next(iter(form.items())) for form in summand]
        for picks in [lead] + [lead[:v] + [wh] + lead[v + 1:]
                               for v, form in enumerate(summand) for wh in list(form.items())[1:]]:
            yield tuple((w, 1) for w, _ in picks), math.prod(h for _, h in picks)


def verify(c: ChowDecomposition, target: MultiPoly) -> bool:
    """Exact certificate check: expand(c) == target, so rho bounds the Chow rank.

    A certificate takes the lookup (`_lookup`) when every summand, `_cut`, holds no constant and
    rises in its variables from form to form, and no two first forms share a variable.  Its
    expansion then has `_count` distinct keys, as a key's first pick is from its own first form,
    and no coefficient 0.  If the cap admits the whole fold, a term count other than `_count` or a
    probe that differs is a certain REJECT; else every summand is folded and each key looked up.
    Any other certificate is compared by its expansion."""
    if not c._lookup:
        return expand(c) == target
    if (not c._peak or c._peak <= max_terms()) and (len(target.terms) != c._count or any(
            target.terms.get(key, ZERO) != h for key, h in _probes(c))):
        return False
    folds = list(map(_fold, c._sparse))  # every summand, so one over the cap is refused
    return len(target.terms) == c._count and all(
        list(map(target.terms.get, keys)) == coeffs for keys, coeffs in folds)


def homogenize(c: ChowDecomposition, target: MultiPoly) -> ChowDecomposition:
    """Zero every constant slot; for homogeneous targets this cannot break it.  Terms of the
    expansion picking at least one constant slot have degree below d, and a homogeneous
    degree-d target forces them to cancel among themselves — so dropping the slots leaves the
    degree-d part untouched."""
    if not target.is_homogeneous(c.degree):
        raise NotHomogeneousError(f"target is not homogeneous of degree {c.degree}")
    if not verify(c, target):
        raise DimensionError("decomposition does not verify against the target")
    zeroed = ChowDecomposition(c.rho, c.degree, c.nvars, [[
        {w: h for w, h in f.items() if w is not None} for f in summand] for summand in c._sparse])
    if not verify(zeroed, target):
        raise InternalInconsistencyError("zeroing constant slots broke a homogeneous decomposition")
    return zeroed


# -- degree-2 lower bound via the first partials ------------------------------

def _eliminate(rows: Iterable[dict], invert: Callable, canon: Callable) -> int:
    """The rank of sparse rows {column: entry}, consumed.  Each row in turn loses its leading
    (smallest) column to the pivot row that leads there, until it leads where no pivot does; it
    then becomes a pivot, scaled once by invert(lead) = -1/lead.  A pivot's other columns lie
    beyond its lead, so each reduction moves the lead right.  canon(x) is x in canonical form,
    for each lead and pivot entry; a zero is dropped when it leads or its row becomes a pivot."""
    pivots: dict[int, dict] = {}  # lead -> the rest of its row, times -1/lead
    for row in rows:
        while row:
            if not (f := canon(row.pop(lead := min(row)))):
                continue
            if (pivot := pivots.get(lead)) is None:
                inv = invert(f)
                pivots[lead] = {j: canon(x * inv) for j, x in row.items() if x}
                break
            for j, y in pivot.items():
                row[j] = row[j] + f * y if j in row else f * y
    return len(pivots)


@lru_cache(maxsize=None)
def _modulus(m: int) -> tuple[int, int] | None:
    """(p, x): p = 1 (mod m) above 2^31 passes a Fermat test, x = a^((p-1)/m) with a in 2..33 has
    Phi_m(x) = 0 mod p, so w -> x is a ring map Z[w] -> Z/p, p prime or not; None after 1,000 p."""
    phi, start = cyclotomic_polynomial(m)[::-1], (2 ** 31 // m + 1) * m + 1
    for p in filter(lambda p: pow(2, p - 1, p) == 1, range(start, start + 1000 * m, m)):
        for x in (pow(a, (p - 1) // m, p) for a in range(2, 34)):
            if not reduce(lambda v, c: (v * x + c) % p, phi, 0):
                return p, x
    return None


def exact_rank(rows: Iterable[dict[int, CycloRational]]) -> int:
    """Rank over the field of sparse rows {column: entry}, with int columns.  If the largest entry
    order m is a multiple of the others (else Phi of their lcm would be built), the rows' image
    under w -> x mod p (`_modulus`) is eliminated first, with unit leads only: r pivots there show
    an r x r minor whose image is a unit, so that minor is not 0 over the field, and r = min(#rows,
    #columns) is the rank.  Otherwise copies of the rows are eliminated over the field.

    >>> exact_rank([{0: ONE, 2: -ONE}, {0: ONE, 2: -ONE}, {1: ONE / 3}])
    2
    """
    rows = list(rows)
    m = max(orders := {h.order for row in rows for h in row.values()}, default=1)
    if not any(m % k for k in orders) and (px := _modulus(m)):
        p, x = px
        powers = {k: [pow(x, m // k * i, p) for i in range(k)] for k in orders}
        with suppress(ValueError):  # pow(f, -1, p) refuses a denominator or lead not a unit mod p
            image = [{j: sum(map(int.__mul__, h.num, powers[h.order])) * pow(h.den, -1, p) % p
                      for j, h in row.items()} for row in rows]
            r = _eliminate(image, lambda f: -pow(f, -1, p), lambda v: v % p)
            if r == min(len(rows), len({j for row in rows for j in row})):
                return r
    return _eliminate(map(dict, rows), lambda f: -f.inverse(), lambda v: v)


def degree2_chow_lower_bound(p: MultiPoly) -> int:
    """ceil(r/2) <= Chow rank of p, for homogeneous degree-2 p, where r is the dimension of the
    span of the first partials dp/dx_v (Nisan and Wigderson's partial-derivative method).

    If p = sum over rho summands of l_u1 * l_u2, then dp/dx_v = sum_u dl_u1/dx_v * l_u2 +
    dl_u2/dx_v * l_u1 lies in the span of the 2 rho forms, so r <= 2 rho.  The partials are
    sparse rows {w: entry}, one per variable p's terms use: a term c x_v x_w gives row v the
    entry c at column w, a term c x_v^2 gives it 2c at column v, and no two terms meet in one slot.
    """
    if not p.is_homogeneous() or (not p.is_zero() and p.degree() != 2):
        raise NotHomogeneousError("need a homogeneous polynomial of degree 2")
    rows: dict[int, dict[int, CycloRational]] = {}
    for mono, c in p.terms.items():
        for v, e in mono:  # x^a is x_v x_w, or x_v^2 with w = v
            rows.setdefault(v, {})[mono[0][0] + mono[-1][0] - v] = c * e if e > 1 else c
    return (exact_rank(rows.values()) + 1) // 2


# -- totally non-overlapping polynomials: exact rank equals term count --------

def is_totally_non_overlapping(p: MultiPoly) -> bool:
    """Does every variable appear in at most one term?"""
    if not p.is_multilinear():
        raise DimensionError("the non-overlapping test applies to multilinear polynomials")
    used = [v for mono in p.terms for v, _ in mono]  # a multilinear term holds each variable once
    return len(used) == len(set(used))


def pm_polynomial(n: int, m: int, alphas: Sequence | None = None) -> MultiPoly:
    """The canonical non-overlapping benchmark: sum_i alpha_i x_{mi} ... x_{mi+m-1}."""
    if n < 1 or m < 2:
        raise DimensionError("need n >= 1 terms of degree m >= 2")
    alphas = [1] * n if alphas is None else alphas
    if len(alphas) != n:
        raise DimensionError(f"expected {n} coefficients")
    poly = MultiPoly(m * n, {Monomial.of_vars(range(m * i, m * i + m)): as_scalar(alphas[i])
                             for i in range(n)})
    if len(poly.terms) != n:
        raise DimensionError("coefficients must be nonzero")
    return poly


def pm_relabelling(p: MultiPoly) -> dict[int, int]:
    """Witness that p is P_m up to renaming: old variable -> canonical slot.  Term i (in
    graded-lex order) has its variables sent, in increasing order, to m*i, ..., m*i + m - 1."""
    if not is_totally_non_overlapping(p):
        raise NotApplicableError("polynomial has overlapping terms")
    degrees = {mono.degree() for mono in p.terms}
    if len(degrees) != 1 or min(degrees) < 2:
        raise NotApplicableError("terms must share a single degree m >= 2")
    m = degrees.pop()
    return {v: m * i + j for i, (mono, _) in enumerate(p.sorted_terms())
            for j, (v, _) in enumerate(mono)}


def pm_restriction_to_p2(n: int, m: int) -> tuple[dict[int, int], dict[int, int], int]:
    """(fixings, relabelling, nvars) turning canonical P_m into canonical P_2: fix all but the
    first two variables of each term to 1, then compact x_{mi} -> x_{2i}, x_{mi+1} -> x_{2i+1}."""
    if m < 2:
        raise DimensionError("P_m needs m >= 2")
    fixings = {m * i + j: 1 for i in range(n) for j in range(2, m)}
    return fixings, {m * i + j: 2 * i + j for i in range(n) for j in (0, 1)}, 2 * n


def trivial_decomposition(p: MultiPoly) -> ChowDecomposition:
    """The expanded form read as a decomposition: one summand per term, each variable occurrence
    a one-entry form, the first carrying the term's coefficient; constant-1 forms pad the rest."""
    d, terms = p.degree(), p.sorted_terms()
    if d < 1:
        raise NotApplicableError("need a polynomial of degree at least 1")
    return ChowDecomposition(len(terms), d, p.nvars, [
        [{w: ONE if k else coeff} for k, w in enumerate(
            [v for v, e in mono for _ in range(e)] + [None] * (d - mono.degree()))]
        for mono, coeff in terms])


def non_overlapping_rank(p: MultiPoly) -> int:
    """Exact Chow rank (= term count) of a totally non-overlapping polynomial.  The trivial
    decomposition gives the upper bound; optimality holds because restricting each term to two
    of its variables leaves a P_2 whose 2n first partials are independent."""
    if not is_totally_non_overlapping(p):
        raise NotApplicableError("polynomial has overlapping terms")
    if p.is_zero() or any(mono.degree() < 2 for mono in p.terms):
        raise NotApplicableError("every term must have degree at least 2")
    return len(p.terms)


# -- compiling functional computers to depth-2 formulas -----------------------

def compile_functional(c: ChowDecomposition,
                       g: FunctionTable) -> tuple[list[list[CycloRational]], CycloRational]:
    """Evaluate a functional computer as sum_u prod_v X[u][v].  Needs a homogeneous decomposition
    whose v-th form uses only the matrix variables of row v (a_{v,0}..a_{v,n-1}); then
    differentiating along g just picks X[u][v] = H[u][v][a_{v,g(v)}] out of each form."""
    n = g.n
    if c.degree != n:
        raise DimensionError(f"decomposition degree {c.degree} != domain size {n}")
    if c.nvars != n * n:
        raise DimensionError(f"decomposition is over {c.nvars} variables, need {n * n}")
    if not c.is_homogeneous():
        raise NotHomogeneousError("functional compilation needs a homogeneous decomposition")
    for u, summand in enumerate(c._sparse):
        for v, form in enumerate(summand):
            if (stray := next((w for w in form if w // n != v), None)) is not None:
                raise DimensionError(f"form {v} of summand {u} touches variable {stray}, "
                                 f"outside row {v}")
    X = [[form.get(matrix_index(n, v, g(v)), ZERO) for v, form in enumerate(summand)]
         for summand in c._sparse]
    return X, sum(map(math.prod, X))


def functional_product_decomposition(n: int) -> ChowDecomposition:
    """rho = 1 certificate for the n^n-term functional listing: prod_i sum_j a_{i,j}."""
    if n < 1:
        raise DimensionError("n must be positive")
    return ChowDecomposition(1, n, n * n, [[dict.fromkeys(range(v * n, v * n + n), ONE)
                                             for v in range(n)]])
