import pytest

from qconic.rationals import QQ
from qconic.parsing import parse_polynomial, parse_homogeneous_form, parse_conic
from qconic.errors import ParseError, NotHomogeneousError


def test_basic_literals():
    assert parse_polynomial("3") == {(0, 0, 0): QQ(3)}
    assert parse_polynomial("x") == {(1, 0, 0): QQ(1)}
    assert parse_polynomial("x^2 + y*z") == {(2, 0, 0): QQ(1), (0, 1, 1): QQ(1)}
    assert parse_polynomial("1/2*x - x") == {(1, 0, 0): QQ(-1, 2)}
    assert parse_polynomial("-(x - y)") == {(1, 0, 0): QQ(-1), (0, 1, 0): QQ(1)}
    assert parse_polynomial("(x+y)^2") == {(2, 0, 0): QQ(1), (1, 1, 0): QQ(2),
                                           (0, 2, 0): QQ(1)}
    assert parse_polynomial("x^0") == {(0, 0, 0): QQ(1)}


def test_products_require_explicit_star():
    with pytest.raises(ParseError):
        parse_polynomial("2x")
    with pytest.raises(ParseError):
        parse_polynomial("x y")


def test_error_positions():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x +\n* y")
    assert err.value.line == 2 and err.value.column == 1
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^2 + w")
    assert err.value.line == 1 and err.value.column == 7
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^(2)")
    assert err.value.line == 1


def test_zero_denominator_is_a_parse_error():
    with pytest.raises(ParseError, match="zero denominator") as err:
        parse_polynomial("x^2 + 1/0*y^2 + z^2")
    assert err.value.line == 1 and err.value.column == 7
    with pytest.raises(ParseError, match="zero denominator") as err:
        parse_conic("x^2\n - 3/00*y^2")
    assert err.value.line == 2 and err.value.column == 4


def test_homogeneous_form_parsing():
    f = parse_homogeneous_form("x^4 - y^2*z^2")
    assert f.degree == 4
    with pytest.raises(NotHomogeneousError):
        parse_homogeneous_form("x^2 + y")


def test_conic_parsing():
    c = parse_conic("x^2 + y^2 - 2*z^2")
    assert c.coefficients == (QQ(1), QQ(1), QQ(-2), QQ(0), QQ(0), QQ(0))
    c = parse_conic("3*x*y - z^2 + x*z")
    assert c.coefficients == (QQ(0), QQ(0), QQ(-1), QQ(3), QQ(1), QQ(0))
    with pytest.raises(ParseError):
        parse_conic("x^3")
    with pytest.raises(ParseError):
        parse_conic("")
