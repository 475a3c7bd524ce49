"""Exact duration handling.

Durations are kept as rational seconds (fractions.Fraction) end to end so
converting model time to clock cycles never picks up binary-float drift.
"""

from __future__ import annotations

from fractions import Fraction

UNITS = {
    "s": Fraction(1),
    "ms": Fraction(1, 10**3),
    "us": Fraction(1, 10**6),
    "ns": Fraction(1, 10**9),
}

# Largest unit first, for canonical printing.
_UNIT_ORDER = ("s", "ms", "us", "ns")


def duration_from_decimal(text: str, unit: str) -> Fraction:
    if unit not in UNITS:
        raise ValueError(f"unknown time unit '{unit}'")
    return Fraction(text) * UNITS[unit]


def _as_exact_decimal(value: Fraction) -> str | None:
    """Finite decimal representation of a fraction that is not whole, or None."""
    den = value.denominator
    two = 0
    while den % 2 == 0:
        den //= 2
        two += 1
    five = 0
    while den % 5 == 0:
        den //= 5
        five += 1
    if den != 1:
        return None
    digits = max(two, five)
    scaled = value * 10**digits
    whole = scaled.numerator  # exact by construction
    text = str(whole).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}".rstrip("0").rstrip(".")


def format_duration(seconds: Fraction) -> str:
    """Canonical rendering: the largest unit in which the value is an integer,
    falling back to a decimal in the smallest unit that prints exactly."""
    if seconds < 0:
        return "-" + format_duration(-seconds)
    for unit in _UNIT_ORDER:
        scaled = seconds / UNITS[unit]
        if scaled.denominator == 1:
            return f"{scaled.numerator} {unit}"
    for unit in reversed(_UNIT_ORDER):
        text = _as_exact_decimal(seconds / UNITS[unit])
        if text is not None:
            return f"{text} {unit}"
    # Irreducible rational (cannot arise from parsed decimals): seconds fraction.
    return f"{seconds.numerator}/{seconds.denominator} s"
