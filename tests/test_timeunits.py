"""Exact duration parsing and canonical formatting."""

from fractions import Fraction

import pytest

from psmsynth.timeunits import duration_from_decimal, format_duration


def test_parse_is_exact():
    assert duration_from_decimal("500", "ms") == Fraction(1, 2)
    assert duration_from_decimal("0.1", "s") == Fraction(1, 10)
    assert duration_from_decimal("3", "us") == Fraction(3, 10**6)
    assert duration_from_decimal("7", "ns") == Fraction(7, 10**9)


def test_unknown_unit_rejected():
    with pytest.raises(ValueError):
        duration_from_decimal("1", "min")


def test_format_picks_largest_integral_unit():
    assert format_duration(Fraction(1, 2)) == "500 ms"
    assert format_duration(Fraction(2)) == "2 s"
    assert format_duration(Fraction(1, 10**6)) == "1 us"
    assert format_duration(Fraction(1, 10**9)) == "1 ns"
    assert format_duration(Fraction(-5, 1000)) == "-5 ms"


def test_format_decimal_fallback():
    assert format_duration(Fraction(15, 10**10)) == "1.5 ns"
    assert format_duration(Fraction(1, 5 * 10**9)) == "0.2 ns"
    assert format_duration(Fraction(0)) == "0 s"


def test_format_irrational_denominator():
    assert format_duration(Fraction(1, 3)) == "1/3 s"


def test_round_trip_through_text():
    for text, unit in [("500", "ms"), ("0.25", "s"), ("12", "us"), ("999", "ns")]:
        d = duration_from_decimal(text, unit)
        rendered = format_duration(d)
        num, ru = rendered.split()
        assert duration_from_decimal(num, ru) == d
