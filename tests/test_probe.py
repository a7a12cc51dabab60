"""The paper's d_S at 0 on a certificate, and verify's two paths: a certificate that takes the
lookup is checked against its own keys, probes first, and any other by its expansion."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcomp import chow
from diffcomp.chow import (
    ChowDecomposition,
    compile_functional,
    expand,
    functional_product_decomposition,
    pm_polynomial,
    trivial_decomposition,
    verify,
)
from diffcomp.cyclotomic import ONE, ZERO, as_scalar, root_of_unity
from diffcomp.errors import SizeCapError
from diffcomp.listings import all_function_tables, listing_functional_graphs
from diffcomp.multipoly import Monomial, matrix_index

# zero-heavy, with entries of orders 1, 3, 4 and 12
ENTRIES = (ZERO, ZERO, ZERO, ONE, -ONE, as_scalar(Fraction(1, 3)),
           root_of_unity(3), root_of_unity(4, 3), root_of_unity(12), root_of_unity(12, 7))


@st.composite
def certificates_and_monomials(draw):
    """rho 1..3, degree 1..4, nvars 0..3 (so forms share variables and squares
    appear), constant slots kept; monomials of the expansion and others, some
    over variables outside the certificate."""
    rho, d, n = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    entry = st.sampled_from(ENTRIES)
    summands = [[draw(st.lists(entry, min_size=n + 1, max_size=n + 1)) for _ in range(d)]
                for _ in range(rho)]
    c = ChowDecomposition(rho, d, n, summands)
    others = draw(st.lists(st.dictionaries(st.integers(0, n + 1), st.integers(1, 4), max_size=3),
                           max_size=6))
    return c, [Monomial.make(exps) for exps in others]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(certificates_and_monomials())
def test_coefficient_is_the_coefficient_of_the_expansion(case):
    c, others = case
    expanded = expand(c)
    for mono in [*expanded.terms, *others, Monomial()]:
        assert c.coefficient(mono) == expanded.coefficient(mono), mono
    assert verify(c, expanded)


@st.composite
def row_aligned_certificates(draw):
    """rho 1..3 homogeneous certificates of degree n over the n x n matrix variables, n 1..3,
    whose v-th form holds only the variables of row v: the certificates compile_functional takes."""
    rho, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    row = st.lists(st.sampled_from(ENTRIES), min_size=n, max_size=n)
    return ChowDecomposition(rho, n, n * n, [
        [dict(zip(range(v * n, v * n + n), draw(row))) for v in range(n)] for _ in range(rho)])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(row_aligned_certificates())
def test_compile_functional_is_the_coefficient_of_its_monomial(c):
    n, expanded = c.degree, expand(c)
    for g in all_function_tables(n):
        mono = Monomial.of_vars(matrix_index(n, v, g(v)) for v in range(n))
        X, scalar = compile_functional(c, g)
        assert scalar == c.coefficient(mono) == expanded.coefficient(mono), (g, X)


def test_coefficient_of_a_square_and_of_the_constant():
    # (1 + 2 x0)(3 + x0) = 3 + 7 x0 + 2 x0^2
    c = ChowDecomposition(1, 2, 1, [[[2, 1], [1, 3]]])
    assert c.coefficient(Monomial.make({0: 2})) == 2
    assert c.coefficient(Monomial.make({0: 1})) == 7
    assert c.coefficient(Monomial()) == 3
    assert c.coefficient(Monomial.make({0: 3})) == 0
    assert c.coefficient(Monomial.make({5: 1})) == 0  # outside the certificate


def _linear_forms(*forms):
    """A one-summand certificate over x0..x2 from (x0, x1, x2, constant) rows."""
    return ChowDecomposition(1, len(forms), 3, [list(forms)])


@pytest.mark.parametrize("c, mono, want", [
    # (1 + x0)(1 + x0) x1: x0 is held by two forms, so x0 x1 comes from the pass (2)
    (_linear_forms([1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 0]), {0: 1, 1: 1}, 2),
    # (x0 + x1)^2: one form holds both variables of x0 x1
    (_linear_forms([1, 1, 0, 0], [1, 1, 0, 0]), {0: 1, 1: 1}, 2),
    # 2 x0 * x1 * x2: the form x2 holds no variable of x0 x1 and has no constant
    (_linear_forms([2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]), {0: 1, 1: 1}, 0),
    # 2 x0 * x1 * (3 + x2): the product rule, the third form giving its constant
    (_linear_forms([2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 3]), {0: 1, 1: 1}, 6),
    # x0 (1 + x1): x0^2 is not multilinear, though x0 has a form of its own
    (_linear_forms([1, 0, 0, 0], [0, 1, 0, 1]), {0: 2}, 0),
    # (1 + x0)(2 + x0) x1: x0^2 x1 is not multilinear
    (_linear_forms([1, 0, 0, 1], [1, 0, 0, 2], [0, 1, 0, 0]), {0: 2, 1: 1}, 1),
    # (1 + x0)(1 + x1)(x0 + x1): each variable has two holders with constants, so the
    # pass branches, and the part left at x0 x1 by two constants dies at the last form
    (_linear_forms([1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 0, 0]), {0: 1, 1: 1}, 2),
], ids=["shared-variable", "two-variables-in-one-form", "zero-constant", "constant",
        "square-own-form", "square-shared", "two-holders-with-constants"])
def test_the_product_rule_and_its_edges_agree_with_the_expansion(c, mono, want):
    m = Monomial.make(mono)
    assert c.coefficient(m) == expand(c).coefficient(m) == want


def test_summands_mixing_the_product_rule_and_the_pass_agree_with_the_expansion():
    # x0 x1 + (1 + x0)(x0 + x1) + x0 (x1 + 1): the middle summand needs the pass
    c = ChowDecomposition(3, 2, 3, [[[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 0, 0, 1], [1, 1, 0, 0]],
                                    [[1, 0, 0, 0], [0, 1, 0, 1]]])
    expanded = expand(c)
    for mono in [*expanded.terms, Monomial.make({0: 1, 1: 1}), Monomial()]:
        assert c.coefficient(mono) == expanded.coefficient(mono), mono


# -- the lookup test, made once when a certificate is built ---------------------------


def _takes_lookup(c: ChowDecomposition) -> bool:
    """The lookup test, worked out from the sparse forms on demand: every summand, cut at its
    first zero form, holds no constant and rises in its variables from form to form, and no two
    first forms share a variable."""
    firsts = [w for summand in c._sparse for w in summand[0]]
    return len(firsts) == len(set(firsts)) and all(
        None not in (ws := [w for form in chow._cut(summand) for w in form])
        and all(map(int.__lt__, ws, ws[1:])) for summand in c._sparse)


@st.composite
def sparse_certificates(draw):
    """rho 1..3, degree 1..3, nvars 1..6, sparse forms of up to 3 entries from ENTRIES (a ZERO
    entry is dropped, so whole forms can be zero).  Half draw each form's variables from its own
    block, rising from form to form, all first forms from one block; half from every slot."""
    rho, d, n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 6))
    ordered, size = draw(st.booleans()), -(-n // d)
    def keys(v):
        pool = [*range(v * size, min(v * size + size, n))] if ordered else [*range(n)]
        return st.sampled_from(pool + [None] * draw(st.booleans())) if pool else st.just(None)
    return ChowDecomposition(rho, d, n, [
        [draw(st.dictionaries(keys(v), st.sampled_from(ENTRIES), max_size=3)) for v in range(d)]
        for _ in range(rho)])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sparse_certificates())
def test_the_stored_lookup_test_is_the_one_verify_made(c):
    assert c._lookup == _takes_lookup(c)
    if c._lookup:  # the stored count is the expansion's, and its keys are all distinct
        assert c._count == len(expand(c).terms)


@pytest.mark.parametrize("summands, want", [
    ([[{0: 1}, {1: 2}]], True),  # x0 * 2 x1
    ([[{0: 1, None: 1}, {1: 1}]], False),  # a constant
    ([[{0: 1}, {}, {1: 1, None: 3}]], True),  # past a zero form, a constant plays no part
    ([[{}, {1: 1}, {0: 1}]], True),  # a zero first form
    ([[{1: 1}, {0: 1}]], False),  # falling variables
    ([[{0: 1, 1: 1}, {1: 1}]], False),  # x1 in two forms
    ([[{0: 1}, {1: 1}], [{0: 1}, {2: 1}]], False),  # shared first forms
    ([[{0: 1}, {2: 1}], [{1: 1}, {2: 1}]], True),  # shared later forms
], ids=["ordered", "constant", "constant-past-a-zero-form", "zero-first-form", "falling",
        "shared-in-a-summand", "shared-first-forms", "shared-later-forms"])
def test_the_lookup_test_on_its_edges(summands, want):
    c = ChowDecomposition(len(summands), len(summands[0]), 3, summands)
    assert c._lookup == _takes_lookup(c) == want
    assert c._count == sum(math.prod(map(len, summand)) for summand in c._sparse)


# -- planted mutants ----------------------------------------------------------------


def _constant_slot_certificate() -> ChowDecomposition:
    # (1 + x0 - x1)(2 + w x2) + (x3 - 3)(x4 + w^5 x5 + 1/2), w of order 12
    w, w5 = root_of_unity(12), root_of_unity(12, 5)
    half = as_scalar(Fraction(1, 2))
    row = [ZERO] * 7
    return ChowDecomposition(2, 2, 6, [
        [[ONE, -ONE] + row[2:6] + [ONE], row[:2] + [w] + row[3:6] + [2]],
        [row[:3] + [ONE] + row[4:6] + [-3], row[:4] + [ONE, w5] + [half]],
    ])


def _pm_certificate() -> ChowDecomposition:
    alphas = [root_of_unity(12, 5), -1, root_of_unity(3)]
    return trivial_decomposition(pm_polynomial(3, 3, alphas))


def _mutants(c: ChowDecomposition):
    """Every certificate with one entry changed, and whether the entry was nonzero."""
    for u in range(c.rho):
        for v in range(c.degree):
            for w in range(c.nvars + 1):
                entries = [[list(form) for form in summand] for summand in c.entries]
                old = entries[u][v][w]
                entries[u][v][w] = old * root_of_unity(4) + 1 if old else ONE
                yield ChowDecomposition(c.rho, c.degree, c.nvars, entries), bool(old)


@pytest.fixture
def expand_calls(monkeypatch):
    """The certificates `chow.expand` is called on, which `verify` calls by name."""
    calls = []
    real_expand = chow.expand
    monkeypatch.setattr(chow, "expand", lambda c: calls.append(c) or real_expand(c))
    return calls


@pytest.mark.parametrize("certificate", [
    functional_product_decomposition(3), _pm_certificate(), _constant_slot_certificate()],
    ids=["functional", "pm", "constant-slots"])
def test_a_changed_entry_is_rejected_without_expanding(certificate, expand_calls):
    target = expand(certificate)
    # an ACCEPT looks up an ordered certificate's terms, and expands one with a constant once
    assert verify(certificate, target) and len(expand_calls) == (not certificate.is_homogeneous())
    checked = 0
    for mutant, was_nonzero in _mutants(certificate):
        expand_calls.clear()
        assert not verify(mutant, target)
        assert len(expand_calls) == (not mutant._lookup)
        checked += was_nonzero
    assert checked == sum(1 for s in certificate.entries for f in s for x in f if x)


def test_a_zeroed_entry_is_still_rejected_by_the_expansion():
    # zeroing a form's first variable moves its lead off the target's terms:
    # every probe agrees, and the exact comparison rejects
    c = functional_product_decomposition(3)
    entries = [[list(form) for form in summand] for summand in c.entries]
    entries[0][1][3] = ZERO
    assert not verify(ChowDecomposition(1, 3, 9, entries), listing_functional_graphs(3))


def test_the_targets_first_term_rejects_a_zeroed_entry_without_expanding(expand_calls):
    # the case above: every lead probe agrees, but the target's 27 terms are not the changed
    # certificate's 18, and its first term a_0*a_3*a_6 has coefficient 0 there, against 1
    c = functional_product_decomposition(3)
    entries = [[list(form) for form in summand] for summand in c.entries]
    entries[0][1][3] = ZERO
    changed, target = ChowDecomposition(1, 3, 9, entries), listing_functional_graphs(3)
    assert next(iter(target.terms)) == Monomial.of_vars([0, 3, 6])
    assert changed.coefficient(Monomial.of_vars([0, 3, 6])) == 0
    assert not verify(changed, target)
    assert not expand_calls


def _zeroed(c: ChowDecomposition):
    """Every certificate with one nonzero entry zeroed."""
    for u, summand in enumerate(c._sparse):
        for v, form in enumerate(summand):
            for w in form:
                forms = [[dict(f) for f in s] for s in c._sparse]
                del forms[u][v][w]
                yield ChowDecomposition(c.rho, c.degree, c.nvars, forms)


@pytest.fixture
def fold_calls(monkeypatch):
    """The summands `chow._fold` folds for `verify`."""
    calls = []
    real_fold = chow._fold
    monkeypatch.setattr(chow, "_fold", lambda summand: calls.append(summand)
                        or real_fold(summand))
    return calls


@pytest.mark.parametrize("certificate", [functional_product_decomposition(3), _pm_certificate()],
                         ids=["functional", "pm"])
def test_a_probe_rejects_a_changed_ordered_certificate_before_any_fold(certificate, fold_calls,
                                                                        expand_calls):
    # the lookup comparison would reject these too without `expand`; the probes come first
    target = expand(certificate)
    fold_calls.clear()
    for mutant in (mutant for mutant, _ in _mutants(certificate) if mutant._lookup):
        assert not verify(mutant, target)
        assert not fold_calls and not expand_calls
    entries = [[list(form) for form in summand] for summand in certificate.entries]
    entries[0][1][next(iter(certificate._sparse[0][1]))] = ZERO  # the second form's first entry
    zeroed = ChowDecomposition(certificate.rho, certificate.degree, certificate.nvars, entries)
    assert not verify(zeroed, target)
    assert not fold_calls and not expand_calls


def test_the_cap_bound_comes_before_any_probe(monkeypatch, expand_calls, fold_calls):
    # three forms over x0..x4, x5..x9 and x10..x14: the fold charges 5 x 5, then 25 x 5 = 125
    # pairs, the cap bound, as no two terms of a summand that takes the lookup meet
    forms = [dict.fromkeys(range(5 * v, 5 * v + 5), ONE) for v in range(3)]
    c = ChowDecomposition(1, 3, 15, [forms])
    wrong = expand(ChowDecomposition(1, 3, 15, [[{**forms[0], 0: as_scalar(2)}, *forms[1:]]]))
    assert c._lookup and len(wrong.terms) == 125
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "24")
    with pytest.raises(SizeCapError, match="5-term by 5-term"):
        verify(c, wrong)
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "124")  # over the bound: no probe, the fold refuses
    with pytest.raises(SizeCapError, match="25-term by 5-term"):
        verify(c, wrong)
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "125")  # within it: a probe rejects
    fold_calls.clear()
    assert not verify(c, wrong) and not fold_calls and not expand_calls
    assert verify(c, expand(c)) and len(fold_calls) == 1 and not expand_calls


@pytest.mark.parametrize("certificate", [functional_product_decomposition(3), _pm_certificate()],
                         ids=["functional", "pm"])
def test_a_one_entry_change_that_takes_the_lookup_is_rejected_before_any_fold(
        certificate, fold_calls, expand_calls):
    # a nonzero value changed keeps the term count, and a probe rejects it; an entry zeroed (the
    # lead of a second form too) or made nonzero changes the count, which the target does not have
    target = expand(certificate)
    second_lead = next(iter(certificate._sparse[0][1]))
    changes = [mutant for mutant, _ in _mutants(certificate)] + list(_zeroed(certificate))
    taken = [mutant for mutant in changes if mutant._lookup]
    nonzero = sum(map(len, chain.from_iterable(certificate._sparse)))
    assert len(taken) >= 2 * nonzero and any(second_lead not in m._sparse[0][1] for m in taken)
    for mutant in taken:
        assert not verify(mutant, target)
        assert not fold_calls and not expand_calls


@pytest.mark.parametrize("certificate", [
    functional_product_decomposition(3), _pm_certificate(), _constant_slot_certificate()],
    ids=["functional", "pm", "constant-slots"])
def test_verify_calls_no_coefficient(certificate, monkeypatch):
    calls = []
    monkeypatch.setattr(ChowDecomposition, "coefficient", lambda c, mono: calls.append(mono))
    target = expand(certificate)
    changes = [mutant for mutant, _ in _mutants(certificate)] + list(_zeroed(certificate))
    assert verify(certificate, target) and not any(verify(m, target) for m in changes)
    assert not calls


def test_a_constant_slot_reject_expands_once(expand_calls, fold_calls):
    c = _constant_slot_certificate()
    target = expand(c)
    for mutant in [mutant for mutant, _ in _mutants(c)] + list(_zeroed(c)):
        expand_calls.clear()
        assert not verify(mutant, target)
        assert expand_calls == [mutant] and not fold_calls


@pytest.mark.parametrize("certificate", [functional_product_decomposition(3), _pm_certificate()],
                         ids=["functional", "pm"])
def test_a_reject_by_the_count_or_a_probe_makes_no_structural_scan(certificate, monkeypatch,
                                                                    fold_calls):
    # the lookup test and the term count are made when a certificate is built, so a REJECT that
    # no fold decides cuts no summand
    target = expand(certificate)
    changes = [mutant for mutant, _ in _mutants(certificate) if mutant._lookup]
    cuts = []
    real_cut = chow._cut
    monkeypatch.setattr(chow, "_cut", lambda summand: cuts.append(summand) or real_cut(summand))
    assert changes and not any(verify(mutant, target) for mutant in changes)
    assert not fold_calls and not cuts
