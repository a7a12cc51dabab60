"""Chow decompositions: expansion, certificates, rank bounds, compilation."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcomp import chow, errors, textfile
from diffcomp.chow import (
    ChowDecomposition,
    compile_functional,
    degree2_chow_lower_bound,
    exact_rank,
    expand,
    functional_product_decomposition,
    homogenize,
    is_totally_non_overlapping,
    non_overlapping_rank,
    pm_polynomial,
    pm_relabelling,
    pm_restriction_to_p2,
    trivial_decomposition,
    verify,
)
from diffcomp.cyclotomic import ONE, ZERO, CycloRational, as_scalar, root_of_unity
from diffcomp.engine import DifferentialComputer, run_functional
from diffcomp.errors import (
    DimensionError,
    FormatError,
    InternalInconsistencyError,
    NotApplicableError,
    NotHomogeneousError,
)
from diffcomp.listings import (
    FunctionTable,
    all_function_tables,
    listing_constant_functions,
    listing_cyclic_group,
    listing_functional_graphs,
)
from diffcomp.multipoly import Monomial, MultiPoly


def x(v, n=None):
    return MultiPoly.variable(v, n)


def form(n, coeffs, const=0):
    """Entry row for a linear form given {var: coeff} plus a constant."""
    row = [ZERO] * (n + 1)
    for v, c in coeffs.items():
        row[v] = as_scalar(c)
    row[n] = as_scalar(const)
    return tuple(row)


def test_shape_validation():
    with pytest.raises(ValueError):
        ChowDecomposition(1, 1, 1, ())  # no summands
    with pytest.raises(ValueError):
        ChowDecomposition(1, 2, 1, ((form(1, {0: 1}),),))  # one form, degree 2
    with pytest.raises(ValueError):
        ChowDecomposition(1, 1, 2, ((form(1, {0: 1}),),))  # short row
    c = ChowDecomposition(1, 1, 1, ((form(1, {0: 1}),),))
    assert c.is_homogeneous()


def test_expand_subset_product():
    # (1 + a0)(1 + a1) -> 1 + a0 + a1 + a0 a1
    c = ChowDecomposition(
        1, 2, 2, ((form(2, {0: 1}, const=1), form(2, {1: 1}, const=1)),)
    )
    got = expand(c)
    assert got == (1 + x(0, 2)) * (1 + x(1, 2))
    assert not c.is_homogeneous()


def test_expand_row_sum_product_is_functional_listing():
    c = functional_product_decomposition(2)
    assert expand(c) == listing_functional_graphs(2)
    assert c.rho == 1 and c.degree == 2 and c.nvars == 4


def test_expand_zero_hypermatrix():
    c = ChowDecomposition(2, 2, 3, tuple(
        (form(3, {}), form(3, {})) for _ in range(2)
    ))
    assert expand(c).is_zero()


def test_verify_accepts_and_rejects():
    target = listing_functional_graphs(3)
    cert = functional_product_decomposition(3)
    assert verify(cert, target)
    # corrupt one entry
    bad_entries = [list(map(list, summand)) for summand in cert.entries]
    bad_entries[0][1][2] = as_scalar(5)
    bad = ChowDecomposition(
        cert.rho, cert.degree, cert.nvars,
        tuple(tuple(tuple(f) for f in s) for s in bad_entries),
    )
    assert not verify(bad, target)


# -- the zero-start expansion and the set-then-values equality, as references ------


def _expand_from_zero(c: ChowDecomposition) -> MultiPoly:
    total = MultiPoly(c.nvars)
    for u in range(c.rho):
        prod = MultiPoly.constant(1, c.nvars)
        for v in range(c.degree):
            prod = prod * MultiPoly(c.nvars, {Monomial.of_vars([w] if w < c.nvars else []): h
                                              for w, h in enumerate(c.entries[u][v])})
            if prod.is_zero():
                break
        total = total + prod
    return total


def _equal_by_sets(p: MultiPoly, q: MultiPoly) -> bool:
    if set(p.terms) != set(q.terms):
        return False
    return all(c == q.terms[m] for m, c in p.terms.items())


# zero-heavy, with rationals and roots of unity of mixed orders
ENTRIES = (ZERO, ZERO, ZERO, ONE, -ONE, as_scalar(Fraction(1, 2)),
           root_of_unity(3), root_of_unity(4), root_of_unity(12, 3), root_of_unity(12, 8),
           root_of_unity(6) + 1)


@st.composite
def decompositions(draw):
    """rho 1..3, degree 1..3, nvars 0..3, some summands forced to zero, constant slots kept."""
    rho, d, n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    entry = st.sampled_from(ENTRIES)
    summands = []
    for _ in range(rho):
        forms = [draw(st.lists(entry, min_size=n + 1, max_size=n + 1)) for _ in range(d)]
        if draw(st.integers(0, 3)) == 0:
            forms[draw(st.integers(0, d - 1))] = [ZERO] * (n + 1)
        summands.append(tuple(map(tuple, forms)))
    return ChowDecomposition(rho, d, n, tuple(summands))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(decompositions(), decompositions())
def test_expand_and_equality_agree_with_references(c, other):
    got, want = expand(c), _expand_from_zero(c)
    assert got.nvars == want.nvars
    assert _equal_by_sets(got, want) and got == want
    other_poly = expand(other)
    assert (got == other_poly) is _equal_by_sets(got, other_poly)
    assert (other_poly == got) is _equal_by_sets(other_poly, got)
    assert verify(c, want) and verify(other, got) is _equal_by_sets(other_poly, got)


def test_equality_spans_coefficient_orders():
    mono = Monomial.of_vars([0, 1])
    p = MultiPoly(2, {mono: root_of_unity(4)})
    q = MultiPoly(2, {mono: root_of_unity(12, 3)})  # the same i, written in order 12
    r = MultiPoly(2, {mono: root_of_unity(12, 4)})
    assert p == q and q == p and _equal_by_sets(p, q)
    assert p != r and not _equal_by_sets(p, r)
    assert MultiPoly(2, {mono: 1}) != MultiPoly(2, {mono: 1, Monomial(): 1})


def test_order12_units_in_a_certificate_keep_each_product_as_it_was():
    # P_4 with order-12 phases and its trivial certificate written with the order-12 1,
    # as the benchmark builds it, plus summands whose other factor has order 4, 3 or 1:
    # each coefficient of the expansion has the order and coordinates of the full
    # product, which embeds both factors into the lcm of their orders
    one12, d = root_of_unity(12, 0), 4
    firsts = [root_of_unity(12, k) for k in (0, 5, 7, 11)] + [
        root_of_unity(4, 1), -root_of_unity(3, 1), as_scalar(Fraction(2, 3)),
        root_of_unity(24, 5)]
    nvars = d * len(firsts)
    summands = []
    for i, first in enumerate(firsts):
        forms = [[ZERO] * (nvars + 1) for _ in range(d)]
        for j, f in enumerate(forms):
            f[d * i + j] = first if j == 0 else one12
        summands.append(forms)
    got = expand(ChowDecomposition(len(firsts), d, nvars, summands))
    for i, first in enumerate(firsts):
        c = got.terms[Monomial.of_vars(range(d * i, d * i + d))]
        full = first.embed(math.lcm(12, first.order))
        assert (c.order, c.num, c.den) == (full.order, full.num, full.den)
    assert len(got.terms) == len(firsts)


def test_expand_charges_every_product_but_one_term_by_one_term(monkeypatch):
    from diffcomp import multipoly
    from diffcomp.errors import SizeCapError

    charges = []
    charge = multipoly.charge
    monkeypatch.setattr(multipoly, "charge", lambda *a: charges.append(a) or charge(*a))
    c = ChowDecomposition(1, 3, 4, [[[ONE] * 5] * 3])  # its peak bound is 25 x 5 = 125
    got = expand(c)  # charged 5 x 5, then 15 x 5: the first product's terms met in 15 keys
    assert len(got.terms) == 35 and [pairs for pairs, _ in charges] == [[25], [75]]
    p = pm_polynomial(3, 4)  # its trivial certificate multiplies one-entry forms only
    assert expand(trivial_decomposition(p)) == p and len(charges) == 2
    charges.clear()
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "124")  # the bound fails: every product charges
    assert expand(c) == got and len(charges) == 2
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "24")
    with pytest.raises(SizeCapError, match="^multiplying 5-term by 5-term polynomials needs "
                                           "25 terms, over the cap of 24$"):
        expand(c)
    # a product by a zero form still reads the cap, so a malformed one is still refused
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "many")
    zeroed = ChowDecomposition(1, 2, 4, [[[ONE] * 5, [ZERO] * 5]])
    with pytest.raises(FormatError, match="^DIFFCOMP_MAX_TERMS must be an integer, got 'many'$"):
        expand(zeroed)
    assert expand(ChowDecomposition(1, 2, 4, [[[ZERO] * 5, [ONE] * 5]])).is_zero()


def test_expand_scales_linearly_in_one_form():
    rng = random.Random(8)
    for _ in range(10):
        n = 3
        c = ChowDecomposition(
            2,
            2,
            n,
            tuple(
                tuple(
                    form(
                        n,
                        {v: rng.randint(-2, 2) for v in range(n)},
                        const=rng.randint(-1, 1),
                    )
                    for _ in range(2)
                )
                for _ in range(2)
            ),
        )
        lam = Fraction(rng.randint(2, 5))
        scaled_entries = [list(map(tuple, summand)) for summand in c.entries]
        scaled_entries[0][0] = tuple(
            e * as_scalar(lam) for e in scaled_entries[0][0]
        )
        scaled = ChowDecomposition(
            2, 2, n, tuple(tuple(s) for s in scaled_entries)
        )
        # summand 0 scales by lambda, summand 1 unchanged
        s0 = ChowDecomposition(1, 2, n, (c.entries[0],))
        s1 = ChowDecomposition(1, 2, n, (c.entries[1],))
        assert expand(scaled) == lam * expand(s0) + expand(s1)


# -- a summand of ordered, disjoint forms: one product over its entries --------------------

NONZERO = tuple(h for h in ENTRIES if h)


@st.composite
def summand_mixes(draw):
    """rho 1..4 summands of degree d in 1..4 over 3d to 3d + 2 variables, each cut from a run
    of ascending variables into forms of 0 to 3 entries: left as it is (ordered and disjoint,
    with one-entry and zero forms among them), with its forms reversed, with one variable given
    to two forms, or with a constant slot; or an earlier summand with one form negated, so that
    the two cancel."""
    d = draw(st.integers(1, 4))
    n = 3 * d + draw(st.integers(0, 2))  # room for every block
    entry = st.sampled_from(NONZERO)
    summands = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["ordered", "ordered", "reversed", "shared", "constant",
                                     "cancel"]))
        if kind == "cancel" and summands:
            forms = [dict(f) for f in draw(st.sampled_from(summands))]
            k = draw(st.integers(0, d - 1))
            forms[k] = {w: -h for w, h in forms[k].items()}
            summands.append(forms)
            continue
        sizes = [draw(st.sampled_from([0, 1, 1, 2, 2, 3, 3, 3, 3, 3])) for _ in range(d)]
        used = sorted(draw(st.sets(st.integers(0, n - 1), min_size=sum(sizes),
                                   max_size=sum(sizes))))
        blocks = [used[end - size:end] for size, end in zip(sizes, accumulate(sizes))]
        if kind == "reversed":
            blocks.reverse()
        elif kind == "shared" and used:
            blocks[draw(st.integers(0, d - 1))].append(draw(st.sampled_from(used)))
        forms = [{w: draw(entry) for w in block} for block in blocks]
        if kind == "constant":
            forms[draw(st.integers(0, d - 1))][None] = draw(entry)
        summands.append(forms)
    return ChowDecomposition(len(summands), d, n, summands)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(summand_mixes())
def test_expand_of_ordered_disjoint_and_other_summands_equals_the_reference(c):
    got, want = expand(c), _expand_from_zero(c)
    assert got.nvars == want.nvars and _equal_by_sets(got, want) and got == want
    assert MultiPoly(got.nvars, got.terms).terms == got.terms  # canonical keys, no zero kept


def _count_products(monkeypatch) -> dict:
    """Count the calls of MultiPoly, Monomial and CycloRational `*` from here on."""
    calls = {}
    for cls in (MultiPoly, Monomial, CycloRational):
        def counted(self, other, _mul=cls.__mul__, _name=cls.__name__):
            calls[_name] = calls.get(_name, 0) + 1
            return _mul(self, other)
        monkeypatch.setattr(cls, "__mul__", counted)
    return calls


def test_an_ordered_disjoint_summand_is_verified_without_a_product(monkeypatch):
    fg, p = functional_product_decomposition(4), pm_polynomial(3, 4)
    want_fg, trivial = listing_functional_graphs(4), trivial_decomposition(p)
    # a constant slot sends its summand through the pairwise MultiPoly * fold
    constant = ChowDecomposition(1, 2, 2, [[{0: 1, None: 1}, {1: 1}]])
    want_constant = (1 + x(0)) * x(1, 2)
    monkeypatch.setattr(chow, "_probes", lambda c: iter(()))  # the lookup alone
    calls = _count_products(monkeypatch)
    assert verify(fg, want_fg) and verify(trivial, p)
    assert calls == {}  # all-ONE coefficients pass through, and keys are joined, not multiplied
    assert expand(constant) == want_constant and calls == {"MultiPoly": 1, "Monomial": 2,
                                                           "CycloRational": 2}


def test_expand_is_charged_as_the_pairwise_multipoly_fold(monkeypatch):
    from diffcomp import multipoly
    from diffcomp.errors import SizeCapError

    c = ChowDecomposition(3, 3, 9, [[{0: 2, 1: 1}, {2: 1, 3: 1, 4: -1}, {5: 1, 8: ONE / 2}],
                                    [{0: 1}, {1: 1}, {2: root_of_unity(12)}],
                                    [{3: 1}, {4: 1, 5: 1}, {}]])
    reference, charges = _expand_from_zero(c), []  # charges: each one, whichever module makes it
    for module in (chow, multipoly):
        monkeypatch.setattr(module, "charge", lambda *a: charges.append(a) or errors.charge(*a))
    for summand in c._sparse:  # the pairwise MultiPoly * fold, up to the first zero product
        forms = [MultiPoly(9, {Monomial.of_vars([w]): h for w, h in f.items()}) for f in summand]
        prod = forms[0]
        for form in forms[1:]:
            prod = prod * form if prod.terms else prod
    want, charges[:] = charges[:], []
    assert expand(c) == reference and charges == want
    assert [pairs for pairs, _ in charges] == [[6], [12], [2], [0]]
    # a cap below a product stops at that product with MultiPoly *'s own message
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "24")
    with pytest.raises(SizeCapError, match="^multiplying 5-term by 5-term polynomials needs "
                                           "25 terms, over the cap of 24$"):
        expand(functional_product_decomposition(5))


def test_a_zero_form_in_an_ordered_disjoint_summand_still_reads_the_cap(monkeypatch):
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "many")
    with pytest.raises(FormatError, match="^DIFFCOMP_MAX_TERMS must be an integer, got 'many'$"):
        expand(ChowDecomposition(1, 3, 6, [[{0: 1, 1: 1}, {}, {4: 1, 5: 1}]]))
    # a zero first form: the product is 0 before any form is multiplied, so nothing is charged
    assert expand(ChowDecomposition(1, 2, 4, [[{}, {2: 1, 3: 1}]])).is_zero()


# -- verify: an ordered certificate's terms looked up in the target ------------------------

LOOKUP_ENTRIES = (ONE, -ONE, as_scalar(Fraction(1, 2)), as_scalar(Fraction(-2, 3)), as_scalar(3),
                  root_of_unity(12), root_of_unity(12, 5), root_of_unity(12, 7) * 2)


@st.composite
def lookup_cases(draw):
    """A certificate and a target.  rho 1..3, degree 1..3, over 16 variables; each summand cut
    from ascending variables into forms of 0 to 3 entries (a zero form anywhere), sometimes
    given a constant slot or a variable twice.  The first forms are kept disjoint, or drawn
    freely, so that some share a variable.  The target is the certificate's expansion, as it is,
    with one coefficient changed, one term dropped or one term added; or the expansion of the
    certificate with every variable moved up by one, which has as many terms."""
    n, d, disjoint = 16, draw(st.integers(1, 3)), draw(st.booleans())
    entry, summands, taken = st.sampled_from(LOOKUP_ENTRIES), [], set()
    for _ in range(draw(st.integers(1, 3))):
        sizes = [draw(st.sampled_from([0, 1, 1, 2, 2, 3, 3, 3])) for _ in range(d)]
        pool = sorted(set(range(n)) - taken) if disjoint else list(range(n))
        used = sorted(draw(st.sets(st.sampled_from(pool), min_size=sum(sizes),
                                   max_size=sum(sizes))))
        blocks = [used[end - size:end] for size, end in zip(sizes, accumulate(sizes))]
        taken.update(blocks[0])
        kind = draw(st.sampled_from(["ordered"] * 6 + ["constant", "shared"]))
        if kind == "shared" and used:
            blocks[draw(st.integers(0, d - 1))].append(draw(st.sampled_from(used)))
        forms = [{w: draw(entry) for w in block} for block in blocks]
        if kind == "constant":
            forms[draw(st.integers(0, d - 1))][None] = draw(entry)
        summands.append(forms)
    c = ChowDecomposition(len(summands), d, n, summands)
    terms = dict(_expand_from_zero(c).terms)
    change = draw(st.sampled_from(["none", "coefficient", "drop", "add", "shifted"]))
    if change == "shifted":
        return c, _expand_from_zero(ChowDecomposition(c.rho, d, n + 1, [
            [{w if w is None else w + 1: h for w, h in f.items()} for f in summand]
            for summand in c._sparse]))
    if change in ("coefficient", "drop") and terms:
        mono = draw(st.sampled_from(sorted(terms)))
        if change == "drop":
            del terms[mono]
        else:
            terms[mono] = terms[mono] * draw(st.sampled_from([2, -1, root_of_unity(12)]))
    if change == "add":  # degree 4, above any term of a degree-3 product
        terms[Monomial.of_vars(draw(st.sets(st.integers(0, n - 1), min_size=4, max_size=4)))] = ONE
    return c, MultiPoly(n, terms)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(lookup_cases())
def test_verify_agrees_with_the_pairwise_expansion(case):
    c, target = case
    assert verify(c, target) is (_expand_from_zero(c) == target)


def test_an_ordered_accept_neither_expands_nor_builds_a_polynomial(monkeypatch):
    fg, p = functional_product_decomposition(4), pm_polynomial(3, 4)
    targets = [(fg, listing_functional_graphs(4)), (trivial_decomposition(p), p)]
    # a constant slot sends the check to `expand`
    constant = ChowDecomposition(1, 2, 2, [[{0: 1, None: 1}, {1: 1}]])
    targets.append((constant, (1 + x(0)) * x(1, 2)))
    calls = []
    real_expand, real_init, real_trusted = chow.expand, MultiPoly.__init__, MultiPoly._trusted
    monkeypatch.setattr(chow, "expand", lambda c: calls.append("expand") or real_expand(c))
    monkeypatch.setattr(MultiPoly, "__init__", lambda self, *a: calls.append("MultiPoly")
                        or real_init(self, *a))
    monkeypatch.setattr(MultiPoly, "_trusted", classmethod(
        lambda cls, *a: calls.append("MultiPoly") or real_trusted(*a)))
    for cert, target in targets[:2]:
        assert verify(cert, target) and calls == []
    assert verify(*targets[2]) and calls[0] == "expand" and "MultiPoly" in calls


# -- homogenization -----------------------------------------------------------


def test_homogenize_fixed_point():
    c = functional_product_decomposition(2)
    assert homogenize(c, expand(c)) == c


def test_homogenize_checks_its_own_result(monkeypatch):
    # the post-condition cannot fail on a correct verify; make the second verdict a REJECT
    verdicts = iter([True, False])
    monkeypatch.setattr(chow, "verify", lambda *args: next(verdicts))
    c = functional_product_decomposition(2)
    with pytest.raises(InternalInconsistencyError, match="zeroing constant slots broke"):
        homogenize(c, expand(c))


def test_homogenize_hand_built_inhomogeneous():
    # a0 a1 = (1 + a0) a1 + (-1) a1 ... as two summands with constant slots
    target = x(0, 2) * x(1, 2)
    c = ChowDecomposition(
        2,
        2,
        2,
        (
            (form(2, {0: 1}, const=1), form(2, {1: 1})),
            (form(2, {}, const=-1), form(2, {1: 1})),
        ),
    )
    assert verify(c, target)
    h = homogenize(c, target)
    assert h.is_homogeneous()
    assert verify(h, target)


def test_homogenize_random_cancelling_paddings():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(2, 4)
        d = rng.randint(2, 3)
        rho = rng.randint(1, 3)
        # random homogeneous decomposition defines the target
        core = ChowDecomposition(
            rho,
            d,
            n,
            tuple(
                tuple(
                    form(n, {v: rng.randint(-2, 2) for v in range(n)})
                    for _ in range(d)
                )
                for _ in range(rho)
            ),
        )
        target = expand(core)
        if not target.is_homogeneous(d):
            continue
        # pad with cancelling inhomogeneous pairs: s and s with one form negated
        pad = tuple(
            form(n, {v: rng.randint(-2, 2) for v in range(n)}, const=rng.randint(-2, 2))
            for _ in range(d)
        )
        negated = (tuple(-e for e in pad[0]),) + pad[1:]
        padded = ChowDecomposition(
            rho + 2, d, n, core.entries + (pad, negated)
        )
        assert verify(padded, target)
        h = homogenize(padded, target)
        assert h.is_homogeneous()
        assert verify(h, target)


def test_homogenize_rejects_inhomogeneous_target():
    target = 1 + x(0, 1)
    c = ChowDecomposition(1, 1, 1, ((form(1, {0: 1}, const=1),),))
    with pytest.raises(NotHomogeneousError):
        homogenize(c, target)


def test_homogenize_rejects_non_verifying_decomposition():
    c = ChowDecomposition(1, 2, 2, ((form(2, {0: 1}), form(2, {1: 1})),))
    with pytest.raises(ValueError):
        homogenize(c, 2 * x(0, 2) * x(1, 2))


# -- the degree-2 bound ---------------------------------------------------------


def _rows(M):
    """Dense rows as the sparse {column: entry} rows `exact_rank` takes, zeros kept."""
    return [dict(enumerate(row)) for row in M]


def _dense_rank(rows):
    """Rank by Gaussian elimination over the field: each pivot is inverted once, its row's
    nonzero tail scaled by that inverse, and each row below with a nonzero entry under the
    pivot takes one multiply and one add per entry of that tail."""
    m = [list(r) for r in rows]
    r = 0  # the rank so far; rows r.. are still to reduce
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        tail = [(j, x * inv) for j, x in enumerate(m[r][c + 1:], c + 1) if x]
        for row in m[r + 1:]:
            if f := row[c]:  # column c is never read again, so it is left as it is
                f = -f
                for j, y in tail:
                    row[j] = row[j] + f * y
        r += 1
    return r


def _oracle_symmetric_matrix_of(p: MultiPoly) -> dict[int, dict[int, CycloRational]]:
    """The unique symmetric A with p = x^T A x, for homogeneous degree-2 p, as sparse rows
    {variable: {variable: nonzero entry}}, one per variable p's terms use, in increasing
    order: the other variables only add zero rows and columns, which change no rank."""
    if not p.is_homogeneous() or (not p.is_zero() and p.degree() != 2):
        raise NotHomogeneousError("need a homogeneous polynomial of degree 2")
    A = {v: {} for v in sorted({v for mono in p.terms for v, _ in mono})}
    half = ONE / 2
    for mono, c in p.terms.items():
        (i, e), *rest = mono  # x_i^2, or x_i x_j with the entry split over A[i][j] and A[j][i]
        j = rest[0][0] if rest else i
        A[i][j] = A[j][i] = c if e == 2 else c * half
    return A


def test_symmetric_matrix_examples():
    A = _oracle_symmetric_matrix_of(x(0, 2) * x(1, 2))
    half = as_scalar(Fraction(1, 2))
    assert A == {0: {1: half}, 1: {0: half}}
    sq = MultiPoly(1, {Monomial.make({0: 2}): 1})
    assert _oracle_symmetric_matrix_of(sq) == {0: {0: ONE}}
    p = 2 * x(0, 4) * x(1, 4) + 3 * x(2, 4) * x(3, 4)
    A = _oracle_symmetric_matrix_of(p)
    th = as_scalar(Fraction(3, 2))
    assert A[0][1] == ONE and A[1][0] == ONE
    assert A[2][3] == th and A[3][2] == th
    assert 2 not in A[0]


def test_symmetric_matrix_covers_only_the_variables_in_use():
    # x_3 * x_7 over 10 variables: the zero rows and columns of x_0.. are left out
    p = MultiPoly(10, {Monomial.make({3: 1, 7: 1}): 4, Monomial.make({7: 2}): 1})
    two = as_scalar(2)
    assert _oracle_symmetric_matrix_of(p) == {3: {7: two}, 7: {3: two, 7: ONE}}
    assert _oracle_symmetric_matrix_of(MultiPoly(10)) == {}
    assert degree2_chow_lower_bound(p) == 1


def test_symmetric_matrix_rejects_wrong_degrees():
    with pytest.raises(NotHomogeneousError):
        degree2_chow_lower_bound(x(0, 1))
    with pytest.raises(NotHomogeneousError):
        degree2_chow_lower_bound(1 + x(0, 2) * x(1, 2))
    with pytest.raises(NotHomogeneousError):
        degree2_chow_lower_bound(MultiPoly(1, {Monomial.make({0: 3}): 1}))


def test_exact_rank_small_cases():
    one = ONE
    assert exact_rank([]) == 0
    assert exact_rank(_rows([[ZERO, ZERO], [ZERO, ZERO]])) == 0
    assert exact_rank(_rows([[one, one], [one, one]])) == 1
    assert exact_rank(_rows([[one, ZERO], [ZERO, one]])) == 2
    # rank needs column pivoting past a zero column
    assert exact_rank(_rows([[ZERO, one], [ZERO, ZERO]])) == 1


def test_exact_rank_matches_known_values_random():
    # build matrices of known rank r as products of random r-column factors
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(2, 5)
        r = rng.randint(0, n)
        # generic rank-r: sum of r outer products; repeat until generic
        while True:
            u = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(r)]
            v = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(r)]
            M = [
                [
                    as_scalar(
                        sum(u[k][i] * v[k][j] for k in range(r))
                    )
                    for j in range(n)
                ]
                for i in range(n)
            ]
            got = exact_rank(_rows(M))
            assert got <= r
            if got == r:
                break
    # cyclotomic entries too: [[1, w], [w, w^2]] has rank 1
    w = root_of_unity(5)
    assert exact_rank(_rows([[ONE, w], [w, w * w]])) == 1


# zero-heavy, with entries of orders 1, 3, 4 and 12
RANK_ENTRIES = (ZERO, ZERO, ZERO, ONE, -ONE, as_scalar(Fraction(1, 3)),
                root_of_unity(3), root_of_unity(4), root_of_unity(12, 5),
                ONE + root_of_unity(12))


@st.composite
def matrices_of_rank_at_most(draw):
    """(M, r, generic): M = sum of r outer products u_k v_k^T, with a zero column and a
    zero row inserted.  When generic, r rows of U and r rows of V are pinned to the unit
    vectors, so both factors, and M, have rank exactly r; the pinned rows also give M
    rows with zeros under a pivot, which the elimination skips."""
    r = draw(st.integers(0, 3))
    nr, nc = draw(st.integers(r, 5)), draw(st.integers(r, 5))
    entry = st.sampled_from(RANK_ENTRIES)
    U = [[draw(entry) for _ in range(r)] for _ in range(nr)]
    V = [[draw(entry) for _ in range(r)] for _ in range(nc)]
    generic = draw(st.booleans())
    if generic:
        for rows in (U, V):
            for k, i in enumerate(draw(st.permutations(range(len(rows))))[:r]):
                rows[i] = [ONE if j == k else ZERO for j in range(r)]
    M = [[sum((a * b for a, b in zip(u, v)), ZERO) for v in V] for u in U]
    col = draw(st.integers(0, nc))
    M = [row[:col] + [ZERO] + row[col:] for row in M]
    M.insert(draw(st.integers(0, nr)), [ZERO] * (nc + 1))
    return M, r, generic


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(matrices_of_rank_at_most())
def test_exact_rank_of_a_sum_of_outer_products(case):
    M, r, generic = case
    rows = _rows(M)
    before = [dict(row) for row in rows]
    rank = exact_rank(rows)
    assert rank == exact_rank(_rows(zip(*M))) <= r
    if generic:
        assert rank == r
    assert rows == before  # the elimination works on a copy


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(matrices_of_rank_at_most())
def test_sparse_rank_agrees_with_the_dense_elimination(case):
    M, _, _ = case
    for dense in (M, [list(col) for col in zip(*M)]):
        sparse = [{j: x for j, x in enumerate(row) if x} for row in dense]
        assert exact_rank(sparse) == _dense_rank(dense)


def test_sparse_rank_keeps_the_fill_in_a_pivot_creates():
    # row 1 reduced by row 0 leaves -w in column 1, which it did not hold; row 2 then
    # reduces to zero by it
    w = root_of_unity(12)
    assert exact_rank([{0: ONE, 1: w}, {0: ONE, 2: ONE}, {1: -w, 2: ONE}]) == 2
    assert exact_rank([{0: ONE, 1: w}, {0: ONE}]) == 2


def test_exact_rank_inverts_once_per_pivot(monkeypatch):
    # cost contract: sum_i w^k_i l_2i l_2i+1 over order 12 with dense forms l_j, the last summand
    # w^7 l_4^2, so the first partials have rank 5 and the modular pass hands them to the exact
    # elimination; each of its five pivot rows holds several entries, and only its lead is inverted
    w, u = root_of_unity(12), [[1, 2, 0, -1, 3, 1], [0, 1, 1, 2, -1, 2], [2, 0, 1, 1, 1, -1],
                               [1, -1, 2, 0, 1, 3], [3, 1, -1, 1, 0, 2], [3, 1, -1, 1, 0, 2]]
    forms = [sum((c * x(v, 6) for v, c in enumerate(row)), MultiPoly(6)) for row in u]
    quad = sum((w ** k * forms[2 * i] * forms[2 * i + 1] for i, k in enumerate([1, 5, 7])),
               MultiPoly(6))
    calls = []
    real = CycloRational.inverse
    monkeypatch.setattr(CycloRational, "inverse", lambda self: calls.append(self) or real(self))
    assert degree2_chow_lower_bound(quad) == 3 and len(calls) == 5


def _order12_quadratic(u, phases):
    """sum_i w^k_i l_2i l_2i+1 over order 12, with l_j the form whose coefficients are u[j]."""
    n, w = len(u[0]), root_of_unity(12)
    forms = [sum((c * x(v, n) for v, c in enumerate(row)), MultiPoly(n)) for row in u]
    return sum((w ** k * forms[2 * i] * forms[2 * i + 1] for i, k in enumerate(phases)),
               MultiPoly(n))


def _count_inversions(monkeypatch) -> list:
    calls = []
    real = CycloRational.inverse
    monkeypatch.setattr(CycloRational, "inverse", lambda self: calls.append(self) or real(self))
    return calls


def test_a_full_rank_quadratic_bound_makes_no_inversion(monkeypatch):
    # cost contract: the modular pass proves a full rank, so neither the six-variable quadratic
    # of rank 6 nor a certify-shaped one (P_2 on 10 variables under unimodular transvections, rank
    # 10) reaches the exact elimination
    u = [[1, 2, 0, -1, 3, 1], [0, 1, 1, 2, -1, 2], [2, 0, 1, 1, 1, -1],
         [1, -1, 2, 0, 1, 3], [3, 1, -1, 1, 0, 2], [1, 1, 1, -2, 2, 1]]
    rng, t = random.Random(38), [[int(i == j) for j in range(10)] for i in range(10)]
    for _ in range(20):
        a, b = rng.sample(range(10), 2)
        t[a] = [p + rng.choice((1, -1)) * q for p, q in zip(t[a], t[b])]
    quads = [_order12_quadratic(u, [1, 5, 7]), _order12_quadratic(t, [3, 0, 11, 4, 7])]
    calls = _count_inversions(monkeypatch)
    assert [degree2_chow_lower_bound(q) for q in quads] == [3, 5] and calls == []


@pytest.mark.parametrize("modulus, rows, rank", [
    ((2, 1), [{0: as_scalar(2)}, {1: ONE}], 2),  # 2 maps to 0 mod 2: the image drops the rank
    ((2, 1), [{0: ONE / 2}, {1: ONE}], 2),  # the denominator 2 is not a unit mod 2
    ((4, 1), [{0: as_scalar(2)}, {1: ONE}], 2),  # the lead 2 is not a unit mod 4
    ((4, 1), [{0: ONE, 1: ONE}, {0: ONE, 1: as_scalar(3)}], 2),  # a lead 2 left by a unit pivot
])
def test_a_planted_modulus_that_proves_nothing_ends_on_the_exact_elimination(
        monkeypatch, modulus, rows, rank):
    # w -> 1 is a ring map onto Z/p for order 1 whatever p is; each modulus here shows no full
    # rank, so the answer, and the inversions, come from the exact elimination
    monkeypatch.setattr(chow, "_modulus", lambda m: modulus)
    calls = _count_inversions(monkeypatch)
    assert exact_rank(rows) == rank and len(calls) == rank


def test_the_modular_pass_builds_no_cyclotomic_polynomial_of_the_orders_lcm(monkeypatch):
    # one-term pairs of coprime orders: no order is a multiple of the others, so the pass is
    # skipped before it asks for Phi of their lcm (4,849,845 here), and the exact
    # elimination, which inverts each entry in its own field, finds the rank
    from diffcomp import cyclotomic
    orders, built = (3, 5, 7, 11, 13, 17, 19), []
    real = cyclotomic.cyclotomic_polynomial
    for module in (cyclotomic, chow):
        monkeypatch.setattr(module, "cyclotomic_polynomial", lambda m: built.append(m) or real(m))
    quad = MultiPoly(14, {Monomial.make({2 * i: 1, 2 * i + 1: 1}): root_of_unity(k) + 2
                          for i, k in enumerate(orders)})
    start = time.perf_counter()
    assert degree2_chow_lower_bound(quad) == 7
    assert time.perf_counter() - start < 0.5
    assert set(built) <= set(orders)


def test_rows_whose_largest_order_is_not_a_multiple_of_the_others_are_ranked_exactly():
    # orders 4 and 6: no modulus for order 6 maps w_4 into Z/p, so the rows go to the exact
    # elimination; row 1 is w_4 times row 0, and mapping w_4 as if it were w_6 would hide that
    w4, w6 = root_of_unity(4), root_of_unity(6)
    assert exact_rank([{0: w4, 1: ONE}, {0: w4 * w4, 1: w4}, {2: w6}]) == 2


def _entries_of(order: int):
    """Entries a + b w_d^k over Q(w_d), for d = order or one of its divisors, with denominators."""
    divisors = [d for d in range(1, order + 1) if order % d == 0]
    small = st.fractions(-3, 3, max_denominator=3)
    return st.builds(lambda d, k, a, b: as_scalar(a) + root_of_unity(d, k) * b,
                     st.sampled_from(divisors), st.integers(0, order - 1), small, small)


@st.composite
def rows_over_an_order(draw):
    """Dense rows over Q(w_m), m in 1..60, with zeros: free rows no more than the columns, then,
    when deficient, rows that are combinations of two earlier ones, so the rank is below both
    the row count and, mostly, the column count."""
    entry = _entries_of(draw(st.integers(1, 60)))
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(nrows, 5))
    M = [[draw(st.one_of(st.just(ZERO), entry, entry)) for _ in range(ncols)] for _ in range(nrows)]
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 2))):
            a, b = draw(entry), draw(entry)
            i, j = draw(st.tuples(*[st.integers(0, len(M) - 1)] * 2))
            M.insert(draw(st.integers(0, len(M))), [a * p + b * q for p, q in zip(M[i], M[j])])
    return M


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows_over_an_order())
def test_exact_rank_equals_the_dense_elimination_over_orders_up_to_60(M):
    sparse = [{j: h for j, h in enumerate(row) if h} for row in M]
    assert exact_rank(sparse) == exact_rank(_rows(M)) == _dense_rank(M)


def test_symmetric_matrix_of_p2_stores_two_entries_per_term(monkeypatch):
    rows = []
    monkeypatch.setattr(chow, "exact_rank", lambda given: rows.extend(given) or 0)
    degree2_chow_lower_bound(pm_polynomial(3000, 2))
    assert len(rows) == 6000 and sum(map(len, rows)) == 6000


def test_exact_rank_skips_a_zero_pivot_column_and_rows_with_zero_under_the_pivot():
    w = root_of_unity(12)
    # column 0 is zero; under the first pivot (row 0, column 1) row 1 has a zero and is
    # left alone, row 2 is reduced; row 3 repeats row 1
    M = [[ZERO, w, ONE, ZERO], [ZERO, ZERO, w, ONE], [ZERO, w * w, ONE, ZERO],
         [ZERO, ZERO, w, ONE]]
    assert exact_rank(_rows(M)) == 3
    M[2][2] = w  # now w times row 0
    assert exact_rank(_rows(M)) == 2


def test_degree2_bound_examples():
    assert degree2_chow_lower_bound(x(0, 2) * x(1, 2)) == 1
    # triangle x0x1 + x0x2 + x1x2: symmetric matrix has rank 3 -> bound 2
    tri = x(0, 3) * x(1, 3) + x(0, 3) * x(2, 3) + x(1, 3) * x(2, 3)
    assert degree2_chow_lower_bound(tri) == 2
    for n in range(1, 6):
        assert degree2_chow_lower_bound(pm_polynomial(n, 2)) == n


# nonzero, rational and of order 12
QUADRATIC_ENTRIES = (ONE, -ONE, as_scalar(2), as_scalar(Fraction(1, 3)), root_of_unity(12),
                     root_of_unity(12, 5), ONE + root_of_unity(12))


@st.composite
def quadratics(draw):
    """A homogeneous quadratic of up to 12 terms, squares among them, over up to 7 variables,
    in a universe up to 3 wider than that; no terms drawn gives the zero polynomial."""
    n = draw(st.integers(1, 7))
    pairs = st.lists(st.integers(0, n - 1), min_size=2, max_size=2).map(sorted).map(tuple)
    terms = draw(st.dictionaries(pairs, st.sampled_from(QUADRATIC_ENTRIES), max_size=12))
    return MultiPoly(n + draw(st.integers(0, 3)), {
        Monomial.make({i: 2} if i == j else {i: 1, j: 1}): c for (i, j), c in terms.items()})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(quadratics())
def test_the_partials_bound_is_half_the_rank_of_the_symmetric_matrix(p):
    A = _oracle_symmetric_matrix_of(p)
    rank = _dense_rank([[A[i].get(j, ZERO) for j in A] for i in A])
    assert degree2_chow_lower_bound(p) == (rank + 1) // 2


def test_the_square_of_a_form_has_lower_bound_one():
    # every partial of (x0 + x1 + x2)^2 is 2 (x0 + x1 + x2); a square's partial that lost its
    # exponent would leave rows of rank 3, and a bound of 2
    s = x(0, 3) + x(1, 3) + x(2, 3)
    assert degree2_chow_lower_bound(s * s) == 1


# -- totally non-overlapping machinery -----------------------------------------


def test_is_totally_non_overlapping():
    assert is_totally_non_overlapping(listing_constant_functions(3))
    assert is_totally_non_overlapping(listing_cyclic_group(3))
    assert not is_totally_non_overlapping(listing_functional_graphs(2))
    assert is_totally_non_overlapping(MultiPoly(2))
    with pytest.raises(ValueError):
        is_totally_non_overlapping(MultiPoly(1, {Monomial.make({0: 2}): 1}))


def test_pm_polynomial_shape():
    p = pm_polynomial(3, 3)
    assert p == (
        x(0, 9) * x(1, 9) * x(2, 9)
        + x(3, 9) * x(4, 9) * x(5, 9)
        + x(6, 9) * x(7, 9) * x(8, 9)
    )
    withcoeffs = pm_polynomial(2, 2, alphas=[2, rootish := Fraction(1, 3)])
    assert withcoeffs.coefficient(Monomial.of_vars([0, 1])) == as_scalar(2)
    assert withcoeffs.coefficient(Monomial.of_vars([2, 3])) == as_scalar(rootish)
    with pytest.raises(ValueError):
        pm_polynomial(2, 1)
    with pytest.raises(ValueError):
        pm_polynomial(2, 2, alphas=[1, 0])


def test_pm_relabelling_recovers_canonical_form():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = rng.randint(2, 4)
        # scramble the canonical P_m through a random permutation of variables
        perm = list(range(m * n))
        rng.shuffle(perm)
        scrambled = pm_polynomial(n, m).restrict_and_relabel(
            relabel=dict(enumerate(perm)), nvars=m * n
        )
        witness = pm_relabelling(scrambled)
        back = scrambled.restrict_and_relabel(relabel=witness, nvars=m * n)
        # coefficients may land on different terms, but the support is canonical
        assert {mono.support() for mono in back.terms} == \
            {mono.support() for mono in pm_polynomial(n, m).terms}


def test_pm_relabelling_rejections():
    with pytest.raises(NotApplicableError):
        pm_relabelling(listing_functional_graphs(2))  # overlapping
    mixed = x(0, 5) * x(1, 5) + x(2, 5) * x(3, 5) * x(4, 5)
    with pytest.raises(NotApplicableError):
        pm_relabelling(mixed)  # degrees differ
    with pytest.raises(NotApplicableError):
        pm_relabelling(x(0, 2) + x(1, 2))  # degree 1


def test_pm_restriction_reaches_p2():
    for n in range(1, 5):
        for m in (2, 3, 4):
            fixings, relabel, nvars = pm_restriction_to_p2(n, m)
            restricted = pm_polynomial(n, m).restrict_and_relabel(
                fixings, relabel, nvars
            )
            assert restricted == pm_polynomial(n, 2)
            assert degree2_chow_lower_bound(restricted) == n


def test_trivial_decomposition_round_trip():
    rng = random.Random(404)
    for _ in range(15):
        nvars = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = Monomial.make(
                {v: rng.randint(0, 2) for v in range(nvars)}
            )
            terms[mono] = as_scalar(rng.randint(-3, 3))
        p = MultiPoly(nvars, terms)
        if p.is_zero() or p.degree() < 1:
            continue
        c = trivial_decomposition(p)
        assert c.rho == len(p.terms)
        assert verify(c, p)


def test_trivial_decomposition_needs_degree_one():
    with pytest.raises(NotApplicableError):
        trivial_decomposition(MultiPoly.constant(3, 1))


def test_chow_rank_non_overlapping_examples():
    p = pm_polynomial(3, 3)
    count, cert = non_overlapping_rank(p), trivial_decomposition(p)
    assert count == 3
    assert verify(cert, p)
    count = non_overlapping_rank(x(0, 2) * x(1, 2))
    assert count == 1
    p = listing_cyclic_group(4)
    count, cert = non_overlapping_rank(p), trivial_decomposition(p)
    assert count == 4
    assert verify(cert, p)


def test_chow_rank_non_overlapping_rejections():
    with pytest.raises(NotApplicableError):
        non_overlapping_rank(listing_functional_graphs(2))
    with pytest.raises(NotApplicableError):
        non_overlapping_rank(x(0, 2) + x(1, 2))  # degree-1 terms
    with pytest.raises(NotApplicableError):
        non_overlapping_rank(MultiPoly(2))


def test_sandwich_for_degree_two_non_overlapping():
    rng = random.Random(77)
    for _ in range(10):
        n = rng.randint(1, 5)
        alphas = [rng.choice([1, 2, -1, Fraction(1, 2)]) for _ in range(n)]
        p = pm_polynomial(n, 2, alphas)
        count, cert = non_overlapping_rank(p), trivial_decomposition(p)
        assert count == n == cert.rho
        assert degree2_chow_lower_bound(p) == n


# -- functional compilation -------------------------------------------------------


def test_compile_functional_constants():
    p = listing_constant_functions(2)
    _, cert = non_overlapping_rank(p), trivial_decomposition(p)
    X, scalar = compile_functional(cert, FunctionTable.constant(2, 0))
    assert scalar == ONE
    _, scalar_id = compile_functional(cert, FunctionTable.identity(2))
    assert scalar_id == ZERO


def test_compile_functional_product_form():
    cert = functional_product_decomposition(2)
    for g in all_function_tables(2):
        _, scalar = compile_functional(cert, g)
        assert scalar == ONE  # every g is functional


def test_compile_agrees_with_run_functional():
    for n in (1, 2, 3):
        for listing in (listing_constant_functions(n), listing_cyclic_group(n)):
            if n == 1:
                cert = trivial_decomposition(listing)
            else:
                _, cert = non_overlapping_rank(listing), trivial_decomposition(listing)
            dc = DifferentialComputer(listing, n, 1, "functional")
            for g in all_function_tables(n):
                _, scalar = compile_functional(cert, g)
                bit = run_functional(dc, g).bit
                assert (not scalar.is_zero()) == (bit == 1)
                # stronger: the compiled scalar IS the pre-power scalar
                assert scalar == run_functional(dc, g).scalar


def test_compile_functional_rejections():
    cert = functional_product_decomposition(2)
    with pytest.raises(ValueError):
        compile_functional(cert, FunctionTable.constant(3, 0))  # degree mismatch
    inhomog = ChowDecomposition(
        1, 2, 4, ((form(4, {0: 1}, const=1), form(4, {2: 1})),)
    )
    with pytest.raises(NotHomogeneousError):
        compile_functional(inhomog, FunctionTable.constant(2, 0))
    # row misalignment: form 0 touching row-1 variables
    misaligned = ChowDecomposition(
        1, 2, 4, ((form(4, {2: 1}), form(4, {0: 1})),)
    )
    with pytest.raises(ValueError):
        compile_functional(misaligned, FunctionTable.constant(2, 0))


# -- serialization ------------------------------------------------------------------


def test_chow_text_round_trip():
    rng = random.Random(2020)
    for _ in range(10):
        rho, d, n = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3)
        entries = tuple(
            tuple(
                tuple(
                    as_scalar(
                        Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    )
                    for _ in range(n + 1)
                )
                for _ in range(d)
            )
            for _ in range(rho)
        )
        c = ChowDecomposition(rho, d, n, entries)
        parsed, order = ChowDecomposition.from_text(c.to_text())
        assert parsed == c
        assert order >= 1


def test_chow_text_with_cyclotomic_entries():
    w = root_of_unity(3)
    c = ChowDecomposition(1, 1, 1, (((w, w * w),),))
    parsed, order = ChowDecomposition.from_text(c.to_text())
    assert parsed == c
    assert order == 3


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "1 1\n",
        "1 1 1 0\n1:[0] 1:[0]\n",
        "1 1 1 1\n1:[0]\n",  # short line
        "2 1 1 1\n1:[0] 1:[0]\n",  # missing lines
        "1 1 1 1\n1:[0] nope\n",
    ],
)
def test_chow_text_rejects_garbage(bad):
    with pytest.raises(FormatError):
        ChowDecomposition.from_text(bad)


@pytest.mark.parametrize("make, args, message", [
    (ChowDecomposition, (0, 1, 1, ()), "need rho >= 1, degree >= 1, nvars >= 0"),
    (pm_polynomial, (2, 2, [1]), "expected 2 coefficients"),
    (pm_restriction_to_p2, (1, 1), "P_m needs m >= 2"),
    (functional_product_decomposition, (0,), "n must be positive"),
    (compile_functional, (ChowDecomposition(1, 2, 3, [[[ZERO] * 4] * 2]),
                          FunctionTable.identity(2)), "decomposition is over 3 variables, need 4"),
])
def test_out_of_range_arguments_are_dimension_errors(make, args, message):
    with pytest.raises(DimensionError, match=f"^{message}$"):
        make(*args)


def test_a_certificate_keeps_only_its_sparse_forms():
    w = root_of_unity(12)
    dense = ((form(3, {0: w, 2: 2}, const=0), form(3, {1: 1})),
             (form(3, {}, const=Fraction(1, 2)), form(3, {0: -1, 1: w * w})))
    zero12 = CycloRational(12, [0])
    dense += (tuple(tuple(zero12 if not h else h for h in f) for f in dense[0]),)
    c = ChowDecomposition(3, 2, 3, dense)
    assert c.entries == dense and all(  # entry by entry, each zero given back as ZERO
        got == want and (want or got is ZERO) for s, t in zip(c.entries, dense)
        for f, g in zip(s, t) for got, want in zip(f, g))
    assert ChowDecomposition(c.rho, c.degree, c.nvars, c.entries) == c
    held = [value for value in vars(c).values() if isinstance(value, (list, tuple, dict))]
    assert not any(h is ZERO or h is zero12 for value in held for h in _leaves(value))
    # an order-12 zero is written 1:[0/1], and the header order comes from nonzero entries
    only_zero12 = ChowDecomposition(1, 1, 1, (((ONE, zero12),),))
    assert only_zero12.to_text().splitlines()[1:] == ["1 1 1 1", "1:[1/1] 1:[0/1]"]
    assert only_zero12.to_text(order=4).splitlines()[1] == "1 1 1 4"
    assert ChowDecomposition(1, 1, 1, (((w, zero12),),)).to_text().splitlines()[1] == "1 1 1 12"


def _leaves(value):
    """The values nested in lists, tuples and dicts."""
    for item in value.values() if isinstance(value, dict) else value:
        if isinstance(item, (list, tuple, dict)):
            yield from _leaves(item)
        else:
            yield item


# -- sparse forms in, sparse forms out ---------------------------------------------


def _dense_text(self, order: int | None = None) -> str:
    """The dense writer, every slot of `entries` formatted: the oracle for `to_text`."""
    m = math.lcm(self.coefficient_order(), 1 if order is None else order)
    return textfile.write("chow", [f"{self.rho} {self.degree} {self.nvars} {m}"] + [
        " ".join(h.to_text() for h in form) for summand in self.entries for form in summand])


# order-1, 4 and 12 entries, zeros of orders 1, 4 and 12
SPARSE_ENTRIES = (ZERO, CycloRational(4, [0]), CycloRational(12, [0]), ONE, -ONE, ONE / 3,
                  root_of_unity(4), -root_of_unity(4), root_of_unity(12), root_of_unity(12, 5),
                  root_of_unity(12, 3) + ONE / 2)


@st.composite
def dense_and_sparse(draw):
    """(rho, degree, nvars, H, the same H as sparse dicts): each dict holds every nonzero entry
    and some of the zeros, its keys in a drawn order; the constant slot is drawn as any other."""
    rho, d, n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 5))
    slots = [*range(n), None]
    dense = [[tuple(draw(st.lists(st.sampled_from(SPARSE_ENTRIES), min_size=n + 1,
                                  max_size=n + 1))) for _ in range(d)] for _ in range(rho)]
    sparse = [[{slots[k]: form[k] for k in draw(st.permutations(range(n + 1)))
                if form[k] or draw(st.booleans())} for form in summand] for summand in dense]
    return rho, d, n, dense, sparse


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(dense_and_sparse(), st.sampled_from((None, 1, 3, 4)))
def test_to_text_writes_the_dense_bytes_from_the_sparse_forms(case, order):
    rho, d, n, dense, sparse = case
    c = ChowDecomposition(rho, d, n, dense)
    assert c.to_text(order) == _dense_text(c, order)
    assert ChowDecomposition.from_text(c.to_text())[0] == c
    from_sparse = ChowDecomposition(rho, d, n, sparse)
    assert from_sparse == c and from_sparse.to_text(order) == _dense_text(c, order)


@pytest.mark.parametrize("form, error", [
    ({3: ONE}, DimensionError), ({-1: ONE}, DimensionError), ({True: ONE}, DimensionError),
    ({"a": ONE}, DimensionError), ({1.0: ONE}, DimensionError), ({0: 1.5}, TypeError),
], ids=["n", "-1", "True", "str", "float-key", "float-value"])
def test_a_bad_sparse_form_is_a_typed_error(form, error):
    with pytest.raises(error) as sparse:
        ChowDecomposition(1, 2, 3, [[{0: ONE, None: ONE}, form]])
    with pytest.raises(TypeError) as dense:  # a non-exact value fails as on the dense path
        ChowDecomposition(1, 2, 3, [[(ONE, 0, 0, ONE), (1.5, 0, 0, 0)]])
    assert error is DimensionError or str(sparse.value) == str(dense.value)


def test_the_trivial_p2_certificate_costs_its_nonzero_entries():
    p = pm_polynomial(3000, 2)
    start = time.perf_counter()
    c = trivial_decomposition(p)
    # padding each of its 6,000 forms to 6,001 slots took about 10 s (2-CPU host)
    assert time.perf_counter() - start < 1.0
    assert sum(len(form) for summand in c._sparse for form in summand) == 6000
    assert verify(c, p)
    assert homogenize(c, p) == c


def test_from_text_checks_each_line_before_it_builds_anything_sized_by_n():
    # a slot list over n = 10^7 variables would take about 400 MB
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=r"^expected 10000001 entries on line '1:\[1\] 1:\[0\]'$"):
            ChowDecomposition.from_text("# diffcomp-chow 1\n1 1 10000000 1\n1:[1] 1:[0]\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
