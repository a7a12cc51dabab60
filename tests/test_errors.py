"""The one rule for numbers in a refusal: written whole up to 3 * BOUND bits."""

from __future__ import annotations

import pytest

from diffcomp.errors import BOUND, DimensionError, SizeCapError, charge, fits, number, quoted
from diffcomp.graphs import Graph, transform_Tf
from diffcomp.listings import TruthTable, _as_bits


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
