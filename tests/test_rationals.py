import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qconic.rationals import (QQ, rational, format_rational, parse_rational,
                              is_square, rational_sqrt_exact, sqrt_upper,
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


def test_rational_and_conic_refuse_bools():
    # bool is an int subclass: JSON true must not read as the coefficient 1
    from qconic.arrangement import Conic
    with pytest.raises(TypeError, match="bool"):
        rational(True)
    with pytest.raises(TypeError, match="bool"):
        Conic((True, 1, -1, 0, 0, 0))


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


def test_clear_denominators():
    ints, mult = clear_denominators([QQ(1, 2), QQ(1, 3), QQ(0)])
    assert ints == [3, 2, 0]
    assert mult == 6
    assert all(QQ(i) == v * mult for i, v in zip(ints, [QQ(1, 2), QQ(1, 3), QQ(0)]))


def test_clear_denominators_rejects_float():
    with pytest.raises(TypeError):
        clear_denominators([QQ(1, 2), 0.1])
    with pytest.raises(TypeError):
        clear_denominators([1, 2.0])


def _clear_denominators_reference(values):
    # the plain Fraction computation: multiply every entry by the lcm of
    # the denominators, then divide by the gcd of the products
    fracs = [Fraction(v) for v in values]
    mult = 1
    for v in fracs:
        mult = mult * v.denominator // math.gcd(mult, v.denominator)
    ints = [int(v * mult) for v in fracs]
    g = 0
    for n in ints:
        g = math.gcd(g, n)
    if g > 1:
        return [n // g for n in ints], Fraction(mult, g)
    return ints, Fraction(mult)


_int_lists = st.lists(st.integers(-10**12, 10**12), max_size=8)
_qq_lists = st.lists(st.fractions(max_denominator=60).map(
    lambda q: QQ(q.numerator, q.denominator)), max_size=8)


@settings(max_examples=20, deadline=None)
@given(st.one_of(_int_lists, _qq_lists))
def test_clear_denominators_matches_fraction_reference(values):
    ints, mult = clear_denominators(values)
    assert all(type(n) is int for n in ints)
    assert all(n == v * mult for n, v in zip(ints, values))
    assert math.gcd(*ints) in (0, 1)
    ref_ints, ref_mult = _clear_denominators_reference(values)
    assert ints == ref_ints and mult == ref_mult
