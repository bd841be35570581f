"""Exact rational arithmetic helpers.

Every inequality in this package is decided over the rationals; floats never
enter a comparison.  Square roots are compared by squaring both sides;
fourth roots enter through rational enclosures with denominator at most
``ENCLOSURE_DEN``.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

ENCLOSURE_DEN = 10**6


def as_fraction(x) -> Fraction:
    """Coerce an int/Fraction/str like ``"1/3"`` to an exact Fraction."""
    if isinstance(x, float):
        raise TypeError("refusing float input; pass a Fraction, int or string")
    return Fraction(x)


def fourth_root_enclosure(x: Fraction) -> tuple[Fraction, Fraction]:
    """Return rationals ``lo <= x**(1/4) <= hi`` with denominators <= ENCLOSURE_DEN."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("fourth root of negative rational")
    m, rem = divmod(x.numerator * ENCLOSURE_DEN**4, x.denominator)
    r = isqrt(isqrt(m))  # floor of the integer fourth root
    lo = Fraction(r, ENCLOSURE_DEN)
    if rem == 0 and r**4 == m:
        return lo, lo
    return lo, Fraction(r + 1, ENCLOSURE_DEN)


def cmp_to_scaled_sqrt(s, c, n: int) -> int:
    """Sign of ``s - c*sqrt(n)`` for rationals s, c and integer n >= 0.

    Decided exactly by squaring; no enclosures involved.
    """
    s = Fraction(s)
    c = Fraction(c)
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0 or c == 0:
        return (s > 0) - (s < 0)
    if s == 0:
        return -1 if c > 0 else 1
    if s > 0 and c < 0:
        return 1
    if s < 0 and c > 0:
        return -1
    # s and c share a strict sign
    lhs = s * s
    rhs = c * c * n
    if lhs == rhs:
        return 0
    bigger = 1 if lhs > rhs else -1
    return bigger if s > 0 else -bigger


def at_least_scaled_sqrt(s, c, n: int) -> bool:
    """Exact test of ``s >= c*sqrt(n)``."""
    return cmp_to_scaled_sqrt(s, c, n) >= 0
