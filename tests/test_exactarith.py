from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperchrom.exactarith import (
    ENCLOSURE_DEN,
    as_fraction,
    at_least_scaled_sqrt,
    cmp_to_scaled_sqrt,
    fourth_root_enclosure,
)


def test_as_fraction_accepts_int_str_fraction():
    assert as_fraction(3) == 3
    assert as_fraction("1/2") == Fraction(1, 2)
    assert as_fraction("0.3") == Fraction(3, 10)
    assert as_fraction(Fraction(7, 5)) == Fraction(7, 5)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.3)


def test_fourth_root_enclosure():
    assert fourth_root_enclosure(Fraction(16)) == (2, 2)
    lo, hi = fourth_root_enclosure(Fraction(1, 2))
    assert lo < hi
    assert lo**4 <= Fraction(1, 2) <= hi**4
    assert hi - lo <= Fraction(2, ENCLOSURE_DEN)


def test_cmp_to_scaled_sqrt_exact_hits():
    # 3 == 1 * sqrt(9)
    assert cmp_to_scaled_sqrt(3, 1, 9) == 0
    assert cmp_to_scaled_sqrt(2, 1, 9) == -1
    assert cmp_to_scaled_sqrt(4, 1, 9) == 1
    # sign handling when the scaled side is negative or zero
    assert cmp_to_scaled_sqrt(1, -1, 4) == 1
    assert cmp_to_scaled_sqrt(-1, 1, 4) == -1
    assert cmp_to_scaled_sqrt(0, 0, 5) == 0


def test_cmp_to_scaled_sqrt_irrational_threshold():
    # 2 < 11/5 < sqrt(5) < 9/4 < 3
    assert cmp_to_scaled_sqrt(2, 1, 5) == -1
    assert cmp_to_scaled_sqrt(3, 1, 5) == 1
    assert cmp_to_scaled_sqrt(Fraction(9, 4), 1, 5) == 1
    assert cmp_to_scaled_sqrt(Fraction(11, 5), 1, 5) == -1


def test_at_least_scaled_sqrt_is_inclusive():
    assert at_least_scaled_sqrt(3, 1, 9)
    assert at_least_scaled_sqrt(3, Fraction(3, 2), 4)
    assert not at_least_scaled_sqrt(2, 1, 5)


@given(
    s=st.integers(min_value=-50, max_value=50),
    c_num=st.integers(min_value=-20, max_value=20),
    c_den=st.integers(min_value=1, max_value=20),
    n=st.integers(min_value=0, max_value=400),
)
def test_cmp_matches_sign_case_analysis(s, c_num, c_den, n):
    """The exact sign agrees with an independent case analysis of s - c*sqrt(n)."""
    c = Fraction(c_num, c_den)
    got = cmp_to_scaled_sqrt(s, c, n)
    if c == 0 or n == 0:
        expect = (s > 0) - (s < 0)
    elif c > 0:
        # rhs strictly positive
        expect = -1 if s <= 0 else (s * s > c * c * n) - (s * s < c * c * n)
    else:
        # rhs strictly negative
        expect = 1 if s >= 0 else (c * c * n > s * s) - (c * c * n < s * s)
    assert got == expect


@given(x_num=st.integers(min_value=0, max_value=10**6), x_den=st.integers(min_value=1, max_value=1000))
def test_enclosures_always_bracket(x_num, x_den):
    x = Fraction(x_num, x_den)
    lo4, hi4 = fourth_root_enclosure(x)
    assert lo4**4 <= x <= hi4**4
