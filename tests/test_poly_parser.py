"""The one-pass polynomial reader against the readers it replaced.

`reference_poly_from_text` is the two-pass `poly_from_text`, and
`per_line_poly_from_text` the one-pass reader that parsed every line in full,
before lines could share a parsed head; both are kept verbatim as oracles.
On every file, the readers return the same terms (in the same order), table
and order, or all raise the same error with the same message.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcomp import textfile
from diffcomp.cyclotomic import CycloRational, ScalarReader
from diffcomp.errors import FormatError
from diffcomp.listings import listing_determinant
from diffcomp.multipoly import (Monomial, MultiPoly, ParsedPoly, VarTable, poly_from_text,
                                poly_to_text)


def reference_poly_from_text(text: str) -> ParsedPoly:
    (nvars, order), lines = textfile.read(text, "poly", 0, 1)
    table: VarTable | None = None  # fixed by the first variable the file names
    # each distinct coefficient and factor token is parsed once per file
    coeffs: dict[str, CycloRational] = {}
    factors: dict[str, tuple[int, int]] = {}  # token -> (variable, exponent)
    terms: dict[Monomial, CycloRational] = {}
    for line in lines:
        pieces = [piece.strip() for piece in line.split(" * ")]
        coeff = coeffs.get(pieces[0])
        if coeff is None:
            coeff = coeffs[pieces[0]] = CycloRational.from_text(pieces[0])
        exps: dict[int, int] = {}
        for token in pieces[1:]:
            factor = factors.get(token)
            if factor is None:
                name, _, exp_s = token.partition("^")
                (e,) = textfile.ints(exp_s or "1", "exponent", 1)
                if table is None:
                    table = VarTable.naming(name, nvars)
                factor = factors[token] = (table.index(name), e)
            v, e = factor
            exps[v] = exps.get(v, 0) + e
        mono = Monomial.make(exps)
        if mono in terms:
            raise FormatError(f"duplicate monomial on line {line!r}")
        terms[mono] = coeff
    if table is None:
        table = VarTable(nvars)
    return ParsedPoly(MultiPoly(nvars, terms), table, order)


def per_line_poly_from_text(text: str) -> ParsedPoly:
    (nvars, order), lines = textfile.read(text, "poly", 0, 1)
    table: VarTable | None = None  # fixed by the first variable the file names
    # each distinct raw coefficient and factor token is parsed once per file
    coeffs = ScalarReader()
    factors: dict[str, tuple[int, int]] = {}  # token -> (variable, exponent)
    terms: dict[Monomial, CycloRational] = {}
    for line in lines:
        coeff_s, *tokens = line.split(" * ")
        coeff = coeffs[coeff_s]
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
            mono = Monomial(pairs)
        else:  # repeated or unsorted variables: the product of the one-factor monomials
            mono = math.prod([Monomial([pair]) for pair in pairs], start=Monomial())
        if mono in terms:
            raise FormatError(f"duplicate monomial on line {line!r}")
        terms[mono] = coeff
    # VarTable.index bounds every variable below nvars; zeros drop after the duplicate test
    poly = MultiPoly._trusted(nvars, terms, () if all(coeffs.values()) else list(terms))
    return ParsedPoly(poly, VarTable(nvars) if table is None else table, order)


def outcome(read, text: str):
    try:
        parsed = read(text)
    except Exception as exc:  # the same type and message from both readers
        return type(exc).__name__, str(exc)
    return list(parsed.poly.terms.items()), parsed.poly.nvars, parsed.table, parsed.order


# nonzero, zero (spelled two ways), of orders 1 to 4; the malformed ones turn up rarely
COEFFICIENTS = ["1:[1/1]", "1:[-3/2]", "1:[0/1]", "1:[0]", "2:[1/1]", "3:[0/1,1/1]",
                "4:[1/2,-1/1]"]
BAD_COEFFICIENTS = ["1:[1/0]", "nope", "1:1"]
SEPARATORS = [" * ", "  *  ", " *  ", "  * "]
BAD_SEPARATORS = ["*", " * * "]
EXPONENTS = ["", "", "", "^1", "^2", "^3"]
BAD_EXPONENTS = ["^0", "^x", "^"]
RARELY = [False] * 29 + [True]


@st.composite
def poly_files(draw):
    def pick(good, bad):  # a bad token one time in about thirty
        return draw(st.sampled_from(bad if draw(st.sampled_from(RARELY)) else good))

    side = draw(st.integers(0, 3))
    naming = draw(st.sampled_from(["vector", "matrix", "mixed", "other prefix"]))
    nvars = side * side if naming != "vector" else draw(st.integers(0, 5))
    top = nvars + draw(st.sampled_from(RARELY))  # sometimes one past the universe

    def factor(v: int) -> str:
        style = naming if naming != "mixed" else draw(st.sampled_from(["vector", "matrix"]))
        if style == "matrix" and side:
            name = f"a_{{{v // side},{v % side}}}" if v < nvars else f"a_{{{side},0}}"
        else:
            name = f"{'b' if style == 'other prefix' else 'a'}_{v}"
        return name + pick(EXPONENTS, BAD_EXPONENTS)

    # a few monomials in any order, each with its factors shuffled and maybe one repeated;
    # now and then one monomial is written twice
    pool = draw(st.lists(st.lists(st.integers(0, max(top - 1, 0)), max_size=4), max_size=7))
    if pool and draw(st.sampled_from([False] * 3 + [True])):
        pool.append(draw(st.sampled_from(pool)))
    lines = []
    for variables in draw(st.permutations(pool)):
        variables = draw(st.permutations(variables))
        if variables and draw(st.booleans()):
            variables = variables + [variables[0]]  # a_i * ... * a_i
        lines.append(pick(COEFFICIENTS, BAD_COEFFICIENTS) + "".join(
            pick(SEPARATORS, BAD_SEPARATORS) + factor(v) for v in variables))
    order = draw(st.sampled_from([1, 2, 4, 12]))
    header = pick([f"{nvars} {order}"], ["2 0", "two 1", f"{nvars}"])
    return "\n".join(["# diffcomp-poly 1", header, *lines]) + "\n"


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(poly_files())
def test_the_one_pass_reader_agrees_with_the_reference(text):
    assert outcome(poly_from_text, text) == outcome(reference_poly_from_text, text)


def test_the_property_reaches_every_branch():
    # the cases the property above must cover, checked once each by hand
    cases = {
        "unsorted factors": "3 1\n1:[1/1] * a_2 * a_0\n",
        "a repeated variable": "2 1\n1:[1/1] * a_0 * a_1 * a_0\n",
        "explicit exponents": "2 1\n1:[1/1] * a_0^1 * a_1^3\n",
        "stray spaces": "2 1\n1:[1/1]  *  a_0 *  a_1\n",
        "a zero coefficient": "2 1\n1:[0/1] * a_0\n1:[1/1] * a_1\n",
        "a zero duplicate": "2 1\n1:[0/1] * a_0\n1:[0] * a_0\n",
        "a duplicate after merging": "2 1\n1:[1/1] * a_0 * a_1\n1:[2/1] * a_1 * a_0\n",
        "matrix naming": "4 1\n1:[1/1] * a_{1,0} * a_{0,1}^2\n",
        "mixed naming": "4 1\n1:[1/1] * a_0 * a_{0,1}\n",
    }
    for what, text in cases.items():
        assert outcome(poly_from_text, text) == outcome(reference_poly_from_text, text), what
    errors = {what for what, text in cases.items()
              if outcome(poly_from_text, text)[0] == "FormatError"}
    assert errors == {"a zero duplicate", "a duplicate after merging", "mixed naming"}
    parsed = poly_from_text(cases["a zero coefficient"]).poly
    assert list(parsed.terms) == [Monomial(((1, 1),))]


@st.composite
def shared_head_files(draw):
    """Files whose lines come in runs that share a head (the coefficient and every factor but
    the last), as diffcomp writes them.  A head's variables mostly ascend, but may come in any
    order or repeat; coefficients may be zero; now and then a line has no factor, a line is
    written again next to itself or later on, or one line ends in a bad token."""
    matrix = draw(st.booleans())
    side = draw(st.integers(2, 3)) if matrix else 0
    nvars = side * side if matrix else draw(st.integers(3, 9))

    def factor(v: int) -> str:
        name = f"a_{{{v // side},{v % side}}}" if matrix else f"a_{v}"
        return name + draw(st.sampled_from(EXPONENTS))

    variables = st.integers(0, nvars - 1)
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        head_vars = draw(st.lists(variables, max_size=3))
        if draw(st.sampled_from([True, True, True, False])):
            head_vars = sorted(set(head_vars))
        head = draw(st.sampled_from(COEFFICIENTS)) + "".join(
            draw(st.sampled_from(SEPARATORS)) + factor(v) for v in head_vars)
        if draw(st.sampled_from([False] * 5 + [True])):
            lines.append(head)  # a line with no last factor
        for v in draw(st.lists(variables, min_size=1, max_size=4, unique=True)):
            lines.append(head + draw(st.sampled_from(SEPARATORS)) + factor(v))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):  # a line again, next to it or later
        if lines:
            at = draw(st.integers(0, len(lines) - 1))
            lines.insert(draw(st.integers(at + 1, len(lines))), lines[at])
    if lines and draw(st.sampled_from([False] * 4 + [True])):  # one line ends in a bad token
        outside = f"a_{{{side},0}}" if matrix else f"a_{nvars}"
        lines[draw(st.integers(0, len(lines) - 1))] += " * " + draw(st.sampled_from(
            [outside, "a_1^0", "a_1^x", "b_1", "* a_0", "a_"]))
    return "\n".join(["# diffcomp-poly 1", f"{nvars} {draw(st.sampled_from([1, 4, 12]))}",
                      *lines]) + "\n"


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.one_of(shared_head_files(), poly_files()))
def test_the_reader_agrees_with_the_per_line_reader(text):
    assert outcome(poly_from_text, text) == outcome(per_line_poly_from_text, text)


@pytest.mark.parametrize("text, keys", [
    # a shared head, then a last factor below the head's top variable: merged, not appended;
    # the second time with a_1 already known, so only the variable order can send it the long way
    ("6 1\n1:[1/1] * a_2 * a_5\n1:[1/1] * a_2 * a_1\n", [((2, 1), (5, 1)), ((1, 1), (2, 1))]),
    ("6 1\n1:[1/1] * a_1\n1:[1/1] * a_2 * a_5\n1:[1/1] * a_2 * a_1\n",
     [((1, 1),), ((2, 1), (5, 1)), ((1, 1), (2, 1))]),
    # the last factor equal to the head's top variable: a square
    ("3 1\n1:[1/1] * a_0 * a_1\n1:[1/1] * a_0 * a_0\n", [((0, 1), (1, 1)), ((0, 2),)]),
    # a head that is only a coefficient, and a zero coefficient among lines that share it
    ("3 1\n1:[0/1] * a_0\n1:[0/1] * a_2\n1:[2/1] * a_1\n", [((1, 1),)]),
    # a head whose own pairs do not ascend is never shared
    ("4 1\n1:[1/1] * a_2 * a_0 * a_3\n1:[1/1] * a_2 * a_0 * a_1\n",
     [((0, 1), (2, 1), (3, 1)), ((0, 1), (1, 1), (2, 1))]),
])
def test_lines_that_share_a_head(text, keys):
    assert outcome(poly_from_text, text) == outcome(per_line_poly_from_text, text)
    assert list(poly_from_text(text).poly.terms) == keys


@pytest.mark.parametrize("text, message", [
    ("3 1\n1:[1/1] * a_0 * a_1\n1:[1/1] * a_0 * a_2\n1:[1/1] * a_0 * a_1\n",
     "duplicate monomial on line '1:[1/1] * a_0 * a_1'"),
    ("3 1\n1:[1/1] * a_0 * a_1\n1:[1/1] * a_0 * a_9\n",
     "variable 'a_9' outside universe of size 3"),
    ("3 1\n1:[1/1] * a_0 * a_1\n1:[1/1] * a_0 * b_2\n",
     "bad or inconsistently named variable 'b_2'"),
    ("3 1\n1:[1/1] * a_0 * a_1\n1:[1/1] * a_0 * a_2^0\n", "bad exponent '0'"),
    ("3 1\n1:[1/1] * a_0 * a_1\n1:[1/1] * a_0 * * a_2\n", "bad or inconsistently named "
     "variable '* a_2'"),
    # a line with no factor leaves no head: a later bare token is read as a coefficient
    ("2 1\n1:[1/1] * a_0\n1:[1/1]\na_0\n", "bad cyclotomic value 'a_0'"),
])
def test_a_line_after_a_shared_head_fails_as_the_per_line_reader_does(text, message):
    assert outcome(poly_from_text, text) == ("FormatError", message)
    assert outcome(per_line_poly_from_text, text) == ("FormatError", message)


def test_the_reader_parses_each_distinct_coefficient_token_once(monkeypatch):
    # cost contract: no two lines of the n = 4 determinant listing share a head, so each is read
    # in full, and its 24 lines hold 2 distinct coefficient tokens
    det = listing_determinant(4)
    text = poly_to_text(det)
    calls = []
    real = CycloRational.from_text.__func__
    monkeypatch.setattr(CycloRational, "from_text",
                        classmethod(lambda cls, token: calls.append(token) or real(cls, token)))
    assert poly_from_text(text).poly == det
    assert sorted(calls) == ["2:[-1/1]", "2:[1/1]"]
