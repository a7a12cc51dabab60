"""Reference answers computed without the code under test.

Everything here is plain Python over ints and Fractions: cyclotomic
coordinates of roots of unity, permutation parity, bijection tests, exact
matrix products, a reader for the polynomial text format and the term sets
the listing builders must produce.  The benchmark checks every job against
these, never against another diffcomp call.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        q = num[k + len(den) - 1] // den[-1]
        out[k] = q
        for i, c in enumerate(den):
            num[k + i] -= q * c
    if any(num):
        raise ArithmeticError("inexact division")
    return out


def cyclotomic(m: int) -> list[int]:
    """Phi_m as integer coefficients, constant term first: prod (x^d - 1)^mu(m/d)."""
    num, den = [1], [1]
    for d in range(1, m + 1):
        if m % d:
            continue
        mu = _moebius(m // d)
        factor = [-1] + [0] * (d - 1) + [1]
        if mu == 1:
            num = _poly_mul(num, factor)
        elif mu == -1:
            den = _poly_mul(den, factor)
    return _poly_divexact(num, den)


def _moebius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def omega_power(m: int, k: int) -> tuple[Fraction, ...]:
    """Power-basis coordinates of w_m^k, reduced modulo Phi_m."""
    phi = cyclotomic(m)
    d = len(phi) - 1
    p = [0] * (k % m) + [1]
    while len(p) > d:
        lead = p.pop()
        off = len(p) - d
        for i in range(d):
            p[off + i] -= lead * phi[i]
    p += [0] * (d - len(p))
    return tuple(Fraction(c) for c in p)


def scalar_text(order: int, coords) -> str:
    """The `m:[c0/d0,...]` text of a scalar with the given coordinates."""
    body = ",".join(f"{Fraction(c).numerator}/{Fraction(c).denominator}" for c in coords)
    return f"{order}:[{body}]"


def parse_scalar(text: str) -> tuple[int, tuple[Fraction, ...]]:
    head, _, body = text.partition(":")
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"bad scalar {text!r}")
    return int(head), tuple(Fraction(p) for p in body[1:-1].split(","))


def permutation_parity(images) -> int:
    return sum(1 for i in range(len(images)) for j in range(i + 1, len(images))
               if images[i] > images[j]) & 1


def is_bijection(images) -> bool:
    return sorted(images) == list(range(len(images)))


def permutation_of_matrix(rows) -> tuple[int, ...] | None:
    """The permutation a 0/1 matrix is the matrix of, or None."""
    images = []
    for row in rows:
        if sum(row) != 1:
            return None
        images.append(row.index(1))
    return tuple(images) if is_bijection(images) else None


def matmul(a, b) -> list[list[Fraction]]:
    return [[sum((Fraction(a[i][k]) * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def is_identity(rows) -> bool:
    return all(rows[i][j] == (1 if i == j else 0)
               for i in range(len(rows)) for j in range(len(rows)))


def determinant(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    n, det = len(m), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    return det


# -- the polynomial text format ----------------------------------------------

def parse_listing(text: str) -> tuple[int, int, dict[frozenset, tuple]]:
    """(nvars, order, {variable-index set: (order, coords)}) of a multilinear listing."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "# diffcomp-poly 1":
        raise ValueError("missing polynomial header")
    nvars, order = (int(x) for x in lines[1].split())
    side = round(nvars ** 0.5)
    terms = {}
    for line in lines[2:]:
        scalar, *names = line.split(" * ")
        index = set()
        for name in names:
            if name.startswith("a_{"):
                i, j = name[3:-1].split(",")
                index.add(side * int(i) + int(j))
            else:
                index.add(int(name[2:]))
        key = frozenset(index)
        if key in terms or len(key) != len(names):
            raise ValueError(f"repeated monomial or variable on {line!r}")
        terms[key] = parse_scalar(scalar)
    return nvars, order, terms


def functional_terms(n: int) -> dict[frozenset, tuple]:
    one = (1, (Fraction(1),))
    return {frozenset(n * i + f[i] for i in range(n)): one
            for f in itertools.product(range(n), repeat=n)}


def determinant_terms(n: int) -> dict[frozenset, tuple]:
    return {frozenset(n * i + s[i] for i in range(n)):
            (2, (Fraction(-1 if permutation_parity(s) else 1),))
            for s in itertools.permutations(range(n))}


def truth_table_terms(m: int, phases: dict[tuple, int]) -> dict[frozenset, tuple]:
    return {frozenset(i for i, bit in enumerate(b) if bit): (m, omega_power(m, k))
            for b, k in phases.items()}


# -- input files written by the benchmark itself --------------------------------

def truth_table_text(n: int, m: int, phases: dict[tuple, int]) -> str:
    lines = ["# diffcomp-tt 1", f"{n} {m}"]
    lines += [f"{''.join(map(str, b))} {k}" for b, k in sorted(phases.items())]
    return "\n".join(lines) + "\n"


def decomposition_text(order: int, nvars: int, summands) -> str:
    """Certificate text; `summands` is a list of summands, each a list of forms,
    each form a list of nvars + 1 coordinate tuples."""
    degree = len(summands[0])
    lines = ["# diffcomp-chow 1", f"{len(summands)} {degree} {nvars} {order}"]
    for summand in summands:
        for form in summand:
            lines.append(" ".join(scalar_text(order, c) for c in form))
    return "\n".join(lines) + "\n"


def graph_set_text(graphs) -> str:
    blocks = ["\n".join([str(len(adj))] + [" ".join(map(str, row)) for row in adj])
              for adj in graphs]
    return "# diffcomp-graphset 1\n" + "\n\n".join(blocks) + "\n"
