import random
from functools import reduce

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from qconic import unipoly as up
from qconic.rationals import QQ
from qconic.arrangement import Conic
from qconic.multipoly import (HomogeneousForm, monomial_basis, monomial_count,
                              is_reduced, _restrict_to_line)
from qconic.factorint import factor
from qconic.numberfield import field_for_root
from qconic.singular import _bezout, _try_frame
from qconic.errors import NotHomogeneousError


def test_derivative_examples():
    f = HomogeneousForm(2, {(2, 0, 0): 1, (0, 1, 1): 1})  # x^2 + yz
    assert f.derivative(0).terms == {(1, 0, 0): QQ(2)}
    assert f.derivative(2).terms == {(0, 1, 0): QQ(1)}
    assert HomogeneousForm(3, {(3, 0, 0): 1}).derivative(1).is_zero()


def test_monomial_basis():
    assert monomial_basis(0) == [(0, 0, 0)]
    assert len(monomial_basis(1)) == 3
    assert len(monomial_basis(5)) == 21 == monomial_count(5)
    # documented order: x-exponent descending, then y-exponent descending
    assert monomial_basis(2)[:3] == [(2, 0, 0), (1, 1, 0), (1, 0, 1)]
    for t in range(7):
        b = monomial_basis(t)
        assert len(set(b)) == len(b) == (t + 1) * (t + 2) // 2
        assert all(sum(m) == t for m in b)


def test_homogeneity_enforced():
    try:
        HomogeneousForm.from_dict({(1, 0, 0): QQ(1), (2, 0, 0): QQ(1)})
    except NotHomogeneousError:
        pass
    else:
        raise AssertionError("mixed degrees must be rejected")


def _sympy_rational(v):
    return sympy.Rational(int(v.numerator), int(v.denominator))


def _sympy_conic(conic, x, y):
    """conic(x, y, 1) as a sympy expression."""
    a, b, c, d, e, f = (_sympy_rational(v) for v in conic.coefficients)
    return a * x**2 + b * y**2 + c + d * x * y + e * x + f * y


def _sympy_resultant(c1, c2):
    """Res_y of c1(x, y, 1) and c2(x, y, 1) by sympy, as ascending QQ
    coefficients in x."""
    x, y = sympy.symbols("x y")
    res = sympy.Poly(sympy.resultant(_sympy_conic(c1, x, y),
                                     _sympy_conic(c2, x, y), y), x)
    coeffs = [QQ(int(v.p), int(v.q)) for v in reversed(res.all_coeffs())]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def test_resultant_spec_examples():
    # the y-resultant of a conic pair is P^2 + L M (qconic.singular)
    c1 = Conic((1, 1, -1, 0, 0, 0))      # x^2 + y^2 - z^2
    c2 = Conic((1, 2, -1, 0, 0, 0))      # x^2 + 2y^2 - z^2
    assert _bezout(c1, c2)[0] == [1, 0, -2, 0, 1]   # (x^2 - 1)^2
    # L = 0: over x = 1 both restrictions are multiples of y^2 (the
    # tacnode (1 : 0 : 1) is a double point of the fiber), so gcd(Res, L)
    # is not constant and the frame is refused
    res, _, l = _bezout(c1, c2)
    assert l == [] and up.degree(up.gcd(res, l)) == 4
    assert _try_frame(c1, c2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) is None
    c3 = Conic((0, 1, 0, 0, -1, 0))      # y^2 - xz
    c4 = Conic((0, 1, -1, 1, 0, 0))      # y^2 + xy - z^2
    assert _bezout(c3, c4)[0] == [1, -2, 1, -1]     # sign kept
    c5 = Conic((1, -2, -1, 1, 0, 0))     # x^2 - 2y^2 + xy - z^2
    c6 = Conic((0, 3, 0, 0, -1, 2))      # 3y^2 - xz + 2yz
    assert _bezout(c5, c6)[0] == [17, 18, -26, -21, 9]


def _smooth_conics():
    return st.tuples(*[st.integers(-3, 3)] * 6).map(Conic).filter(
        lambda c: c.is_smooth())


def _frames():
    return st.lists(st.integers(-3, 3), min_size=9, max_size=9).map(
        lambda v: [v[0:3], v[3:6], v[6:9]])


@settings(max_examples=60, deadline=None)
@given(_smooth_conics(), _smooth_conics(), _frames())
def test_resultant_matches_sympy(c1, c2, frame):
    assume(c1.coefficients != c2.coefficients)
    det = (frame[0][0] * (frame[1][1] * frame[2][2] - frame[1][2] * frame[2][1])
           - frame[0][1] * (frame[1][0] * frame[2][2] - frame[1][2] * frame[2][0])
           + frame[0][2] * (frame[1][0] * frame[2][1] - frame[1][1] * frame[2][0]))
    assume(det)
    d1, d2 = c1.transform(frame), c2.transform(frame)
    # the frames singular accepts: both y^2 coefficients nonzero, so the
    # Sylvester matrix has its formal size
    assume(d1.coefficients[1] and d2.coefficients[1])
    res, p, l = _bezout(d1, d2)
    assert res == _sympy_resultant(d1, d2)
    # the frame test over Q against the per-factor decision it replaced:
    # gcd(Res, L) is not constant iff L vanishes at the generator of
    # Q[t]/(q) for some irreducible factor q of Res
    if res:
        per_factor = any(not up.evaluate(l, field_for_root(q).generator())
                         for q, _ in factor(res)[1])
        assert (up.degree(up.gcd(res, l)) > 0) == per_factor
    # b2 s - a2 t = L y - P, which puts the fiber point at y = P / L
    x, y = sympy.symbols("x y")
    s, t = (_sympy_conic(c, x, y) for c in (d1, d2))
    poly = lambda coeffs: sum(_sympy_rational(c) * x**i
                              for i, c in enumerate(coeffs))
    assert sympy.expand(_sympy_rational(d2.coefficients[1]) * s
                        - _sympy_rational(d1.coefficients[1]) * t
                        - (poly(l) * y - poly(p))) == 0


def test_resultant_vanishes_exactly_on_projections():
    # both conics pass through (x, y) = (2, 3) in the chart z = 1
    c1 = Conic((1, 1, -13, 0, 0, 0))     # x^2 + y^2 - 13 z^2
    c2 = Conic((1, 0, -1, 0, 0, -1))     # x^2 - yz - z^2
    res, p, l = _bezout(c1, c2)
    assert up.evaluate(res, QQ(2)) == 0
    assert up.evaluate(res, QQ(3)) != 0
    # the fiber point over x = 2 is y = P(2) / L(2)
    assert up.evaluate(p, QQ(2)) / up.evaluate(l, QQ(2)) == 3


def _is_squarefree_sympy(form):
    x, y, z = sympy.symbols("x y z")
    expr = sum(sympy.Rational(int(c.numerator), int(c.denominator))
               * x**m[0] * y**m[1] * z**m[2] for m, c in form.terms.items())
    return all(mult == 1 for _, mult in sympy.sqf_list(expr)[1])


def _product(conics):
    return reduce(HomogeneousForm.mul, (c.form() for c in conics))


def test_gcd_and_reducedness():
    x2_yz = HomogeneousForm(2, {(2, 0, 0): 1, (0, 1, 1): -1})
    other = HomogeneousForm(2, {(2, 0, 0): 1, (0, 1, 1): 1})
    square = x2_yz.mul(x2_yz)
    cases = [(square, False), (x2_yz.mul(other), True),
             (square.mul(other), False),
             # P = (1 : 0 : 0) and the first line z = 0 is tangent to
             # x^2 = yz at (0 : 1 : 0), so a second line decides
             (x2_yz, True)]
    # four random integer conics (coefficients in [-3, 3], seed 3): a
    # reduced degree-8 curve, and degree 10 with one member repeated
    rng = random.Random(3)
    conics = [Conic(tuple(rng.randint(-3, 3) for _ in range(6)))
              for _ in range(4)]
    cases += [(_product(conics), True), (_product(conics + conics[:1]), False)]
    for form, expected in cases:
        assert is_reduced(form) is expected
        assert _is_squarefree_sympy(form) is expected
    g = _restrict_to_line(x2_yz, (1, 0, 0), (0, 1, 0))
    assert g == [0, 0, 1]  # s^2: a double root on the first line tried
    with pytest.raises(ValueError):
        is_reduced(HomogeneousForm(0, {}))


def test_reducedness_z_factors():
    z2x = HomogeneousForm(3, {(1, 0, 2): 1})  # x z^2
    assert not is_reduced(z2x) and not _is_squarefree_sympy(z2x)
    zx = HomogeneousForm(2, {(1, 0, 1): 1})   # x z
    assert is_reduced(zx) and _is_squarefree_sympy(zx)
    # linear forms and nonzero constants are reduced
    assert is_reduced(HomogeneousForm(1, {(0, 0, 1): 1}))
    assert is_reduced(HomogeneousForm(0, {(0, 0, 0): 5}))


@st.composite
def _products_of_small_forms(draw):
    """Products of one to three random forms of degree 1 or 2, with
    coefficients in [-2, 2], one of them possibly squared."""
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 2))
        basis = monomial_basis(d)
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(basis),
                               max_size=len(basis)))
        form = HomogeneousForm(d, dict(zip(basis, coeffs)))
        assume(not form.is_zero())
        factors.append(form)
    if draw(st.booleans()):
        factors.append(factors[0])
    return reduce(HomogeneousForm.mul, factors)


@settings(max_examples=60, deadline=None)
@given(_products_of_small_forms())
def test_reducedness_matches_sympy(form):
    assert is_reduced(form) is _is_squarefree_sympy(form)


def test_transform_is_substitution():
    f = HomogeneousForm(2, {(2, 0, 0): 1})     # x^2
    T = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]      # x -> x + y
    g = f.transform(T)
    assert g.terms == {(2, 0, 0): QQ(1), (1, 1, 0): QQ(2), (0, 2, 0): QQ(1)}


def test_evaluate():
    f = HomogeneousForm(2, {(1, 1, 0): QQ(3)})
    assert f.evaluate((QQ(2), QQ(5), QQ(0))) == 30
