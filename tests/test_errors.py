"""The one rule for numbers in a refusal: written whole up to 3 * BOUND bits."""

from __future__ import annotations

from fractions import Fraction

import pytest

from diffcomp.chow import ChowDecomposition, pm_polynomial
from diffcomp.cyclotomic import CycloRational, root_of_unity
from diffcomp.engine import DifferentialComputer, count_eval, run_matrix, run_vector
from diffcomp.errors import (BOUND, DiffcompError, DimensionError, SizeCapError, charge, fits,
                             number, quoted)
from diffcomp.graphs import Graph, transform_Tf
from diffcomp.listings import FunctionTable, TruthTable, _as_bits
from diffcomp.multipoly import Monomial, MultiPoly, VarTable, matrix_index

N = 10**5000  # past the 4,300 digits str() writes


def test_a_number_is_written_whole_up_to_600_bits():
    assert 3 * BOUND == 600
    assert number(2**600 - 1) == str(2**600 - 1) and number(0) == "0"
    assert number(2**600) == str(2**600) and number(2**600 + 1) == number(10**4000) == "over 2^600"
    assert number(10**180) == "1" + "0" * 180 and number(10**181) == "over 2^600"  # 598, 602 bits


def test_a_negative_number_is_written_whole_up_to_600_bits_of_size():
    assert number(-1) == "-1" and number(-(2**600)) == str(-(2**600))
    assert number(-(2**600) - 1) == number(-(10**4000)) == "under -2^600"


def test_fits_counts_the_bits_of_all_its_integers():
    assert fits() and fits(2**599 - 1, 1) and fits(2**300 - 1, 2**300 - 1)
    assert not fits(2**300, 2**299) and not fits(2**600)


def test_a_charge_past_600_bits_names_no_count(monkeypatch):
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "10")
    with pytest.raises(SizeCapError, match="^x needs 11 terms, over the cap of 10$"):
        charge([11], "x")
    with pytest.raises(SizeCapError, match="^x needs more than 10 terms, over the cap of 10$"):
        charge([2**600], "x")
    with pytest.raises(SizeCapError, match="^x needs more than 10 terms, over the cap of 10$"):
        charge([11, 2], "x")


def test_an_int_too_long_to_print_is_quoted_through_number():
    assert quoted(10**5000) == "over 2^600" and quoted((10**5000,)) == "(over 2^600,)"
    assert quoted((0, 1, (2, "a"))) == repr((0, 1, (2, "a"))) and quoted(()) == "()"
    assert quoted(tuple(range(10**6))) == repr(tuple(range(10**6)))[:BOUND] + "..."


@pytest.mark.parametrize("make", [lambda: _as_bits([10**5000], 1),
                                  lambda: TruthTable.make(1, [(10**5000,)])],
                         ids=["as-bits", "truth-table"])
def test_a_bit_vector_holding_an_int_too_long_to_print_is_a_short_dimension_error(make):
    with pytest.raises(DimensionError) as info:
        make()
    assert str(info.value) == "expected a length-1 bit vector, got (over 2^600,)"
    assert len(str(info.value).encode()) <= 300


@pytest.mark.parametrize("seed, shown", [([10**5000], "[over 2^600]"), ({10**5000}, "{over 2^600}"),
                                         ({1: 10**5000}, "{1: over 2^600}")],
                         ids=["list", "set", "dict"])
def test_a_seed_holding_an_int_too_long_to_print_is_a_short_dimension_error(seed, shown):
    with pytest.raises(DimensionError) as info:
        transform_Tf(Graph.cycle(2), seed)
    assert str(info.value) == f"the seed function must be a FunctionTable on Z_2, not {shown}"


def test_a_list_set_or_dict_is_quoted_as_repr_writes_it():
    values = [[], [0, "a", (1,)], set(), {2}, {}, {0: [1], "b": {3}}, list(range(10**6)),
              dict.fromkeys(range(10**6)), set(range(10**6)), ["x" * 300]]
    for value in values:
        text = repr(value)
        assert quoted(value) == text[:BOUND] + "..." * (len(text) > BOUND)


def test_a_list_or_dict_inside_itself_is_quoted_once():
    inside, keyed = [0], {}
    inside.append(inside)
    keyed[1] = (keyed,)
    assert quoted(inside) == "[0, ...]" and quoted(keyed) == "{1: (...,)}"
    with pytest.raises(DimensionError, match=r"not \[0, \.\.\.\]$"):
        transform_Tf(Graph.cycle(2), inside)


CALLS = {
    "graph": lambda: Graph(N, ()),
    "graph-edge": lambda: Graph.from_edges(2, [(N, 0)]),
    "function-table": lambda: FunctionTable(N, ()),
    "truth-table-phase": lambda: TruthTable.make(1, [], 2, {(N,): 1}),
    "multipoly-variable": lambda: MultiPoly(1, {Monomial([(N, 1)]): 1}),
    "matrix-index": lambda: matrix_index(2, N, 0),
    "partial-derivative": lambda: MultiPoly(1).partial_derivative(N),
    "relabel-collision": lambda: MultiPoly(2, {Monomial([(0, 1)]): 1, Monomial([(1, 1)]): 1})
    .restrict_and_relabel(relabel={0: N, 1: N}),
    "chow-rho": lambda: ChowDecomposition(N, 1, 1, []),
    "chow-degree": lambda: ChowDecomposition(1, N, 1, [[]]),
    "chow-nvars": lambda: ChowDecomposition(1, 1, N, [[[1]]]),
    "pm-polynomial": lambda: pm_polynomial(N, 2, [1]),
    "run-vector": lambda: run_vector(DifferentialComputer(MultiPoly(0), N, 1), [1]),
    "bits-length": lambda: _as_bits([1], N),
    "truth-table-arity": lambda: TruthTable.make(N, [(1,)]),
    "run-matrix": lambda: run_matrix(DifferentialComputer(MultiPoly(0), N, 1, "matrix"), [[1]]),
    "count-eval": lambda: count_eval(MultiPoly(N), [[1]]),
    "embed": lambda: root_of_unity(2).embed(N + 1),
    "var-table-name": lambda: VarTable(2).name(N),
    "seed-fraction": lambda: transform_Tf(Graph.cycle(2), Fraction(N)),
    "seed-cyclorational": lambda: transform_Tf(Graph.cycle(2), CycloRational(1, [N])),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_a_refusal_of_an_int_too_long_to_print_is_typed_and_short(name):
    # each refusal writes the caller's int through `number` and a container through `quoted`
    with pytest.raises(IndexError if name == "var-table-name" else DiffcompError) as info:
        CALLS[name]()
    assert len(str(info.value).encode()) <= 300


def test_a_value_whose_repr_raises_is_quoted_by_its_type_name():
    assert quoted(Fraction(N)) == "<Fraction>" and quoted((Fraction(N), 1)) == "(<Fraction>, 1)"
    assert quoted(CycloRational(1, [N])) == "<CycloRational>"
    assert quoted(Fraction(1, 3)) == "Fraction(1, 3)"
