from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qconic.rationals import (QQ, rational, format_rational, parse_rational,
                              is_square, rational_sqrt_exact, sqrt_upper,
                              simplest_in_interval,
                              clear_denominators)


def test_lowest_terms_positive_denominator():
    q = QQ(-6, -4)
    assert q.numerator == 3 and q.denominator == 2
    q = QQ(6, -4)
    assert q.numerator == -3 and q.denominator == 2


def test_serialization_round_trip():
    for text in ["3", "-3/2", "0", "7/2", "-1"]:
        assert format_rational(parse_rational(text)) == text


def test_rational_refuses_floats():
    with pytest.raises(TypeError):
        rational(0.5)


def test_rational_accepts_fraction_and_string():
    assert rational(Fraction(3, 4)) == QQ(3, 4)
    assert rational("3/4") == QQ(3, 4)
    assert rational(5) == QQ(5)


@given(st.fractions(max_denominator=200))
def test_exactness_inverse(q):
    if q:
        r = QQ(q.numerator, q.denominator)
        assert r * (1 / r) == 1


def test_is_square():
    assert is_square(QQ(9, 4))
    assert not is_square(QQ(2))
    assert not is_square(QQ(-4))
    assert rational_sqrt_exact(QQ(9, 4)) == QQ(3, 2)


@given(st.fractions(min_value=0, max_value=1000, max_denominator=100))
def test_sqrt_bounds(q):
    r = QQ(q.numerator, q.denominator)
    up = sqrt_upper(r)
    assert 0 <= up and r <= up * up


@given(st.fractions(max_denominator=500), st.fractions(min_value=0, max_value=1, max_denominator=500))
def test_simplest_in_interval_is_inside_and_minimal(a, width):
    lo = QQ(a.numerator, a.denominator)
    hi = lo + QQ(width.numerator, width.denominator)
    s = simplest_in_interval(lo, hi)
    assert lo <= s <= hi
    # nothing with a smaller denominator fits in the interval
    for den in range(1, s.denominator):
        lo_num = -(-lo.numerator * den // lo.denominator)  # ceil(lo*den)
        assert QQ(lo_num, den) > hi or QQ(lo_num, den) < lo


def test_clear_denominators():
    ints, mult = clear_denominators([QQ(1, 2), QQ(1, 3), QQ(0)])
    assert ints == [3, 2, 0]
    assert mult == 6
    assert all(QQ(i) == v * mult for i, v in zip(ints, [QQ(1, 2), QQ(1, 3), QQ(0)]))
