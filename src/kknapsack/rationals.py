"""Exact-rational plumbing shared across the package.

Profits, weights and budgets are fractions.Fraction end to end; this module
adds the pieces the standard library lacks: a saturating infinity sentinel
for "no feasible packing" table cells, an exact sum that normalises once,
and the string forms used by the instance file formats ("num/den", plain
integers, or decimal strings).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union


class _SaturatingInfinity:
    """Dedicated +infinity sentinel.

    Addition saturates (INF + x == INF), comparisons place it above every
    finite rational, and it never compares equal to anything but itself.
    Kept deliberately minimal: subtraction/multiplication are undefined so
    accidental arithmetic on infeasible cells fails loudly.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __ne__(self, other):
        return other is not self

    def __hash__(self):
        return hash("saturating-infinity")

    def __repr__(self):
        return "INF"

    def __reduce__(self):
        # Pickle back to the singleton so identity checks survive processes.
        return (_SaturatingInfinity, ())


INF = _SaturatingInfinity()

ExtendedRational = Union[Fraction, _SaturatingInfinity]


def is_finite(value: ExtendedRational) -> bool:
    return value is not INF


def exact_sum(values: Iterable[Fraction]) -> Fraction:
    """Exact sum, as sum(values, Fraction(0)) but with one gcd instead of
    one per term: the numerators are added over the lcm of the
    denominators."""
    values = list(values)
    den = math.lcm(*{v.denominator for v in values})
    if den == 1:
        return Fraction(sum(v.numerator for v in values))
    return Fraction(sum(v.numerator * (den // v.denominator) for v in values), den)


def parse_rational(text) -> Fraction:
    """Parse "3/4", "0.25", "7", or a plain int into an exact Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        # Fraction(float) would convert the binary expansion exactly, which
        # is almost never what a file author meant. Require strings.
        raise TypeError("rational values must be int or string, not float")
    return Fraction(str(text).strip())


def format_rational(value: Fraction) -> str:
    """Inverse of parse_rational: "num/den", or "num" for integers."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
