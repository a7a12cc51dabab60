"""The one-pass polynomial reader against the two-pass reader it replaced.

`reference_poly_from_text` is the earlier `poly_from_text`, kept verbatim as
the oracle: on every file, both readers return the same terms (in the same
order), table and order, or both raise the same error with the same message.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from diffcomp import textfile
from diffcomp.cyclotomic import CycloRational
from diffcomp.errors import FormatError
from diffcomp.multipoly import Monomial, MultiPoly, ParsedPoly, VarTable, poly_from_text


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
