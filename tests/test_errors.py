"""The one rule for numbers in a refusal: written whole up to 3 * BOUND bits."""

from __future__ import annotations

import pytest

from diffcomp.errors import BOUND, SizeCapError, charge, fits, number


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
