"""Coin amount arithmetic.

All ledger values are integers in micro-coin base units so escrow accounting
closes bit-exactly. Rates (deposit, fee) are exact fractions; products are
floored to base units.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache

UNIT = 1_000_000  # base units per coin


def coins(amount: int | float | str) -> int:
    """Parse a coin-denominated amount into base units (exact)."""
    value = _base_units(str(amount))
    if value.denominator != 1:
        raise ValueError(f"amount {amount!r} is finer than one base unit")
    if value.numerator < 0:
        raise ValueError(f"amount {amount!r} is negative")
    return value.numerator


@cache
def _base_units(text: str) -> Fraction:
    """``text`` as a coin amount in base units, possibly fractional.

    A scenario repeats a few prices over thousands of owners, and
    ``Fraction(str)`` is the costly step. The key is the text, never the raw
    value: a list is unhashable, and ``True == 1.0`` would share an entry.
    An invalid text raises each time, since a cache keeps no exception."""
    return Fraction(text) * UNIT


def rate(value: int | float | str) -> Fraction:
    """Parse a dimensionless rate (e.g. '0.1') exactly."""
    parsed = Fraction(str(value))
    if parsed < 0:
        raise ValueError(f"rate {value!r} is negative")
    return parsed


def rate_floor(r: Fraction, amount: int) -> int:
    """floor(r * amount) in base units."""
    return int(r * amount // 1)


def fmt(units: int) -> str:
    """Base units rendered as a decimal coin string (exact, no trailing zeros)."""
    sign = "-" if units < 0 else ""
    units = abs(units)
    whole, frac = divmod(units, UNIT)
    if frac == 0:
        return f"{sign}{whole}"
    digits = f"{frac:06d}".rstrip("0")
    return f"{sign}{whole}.{digits}"
