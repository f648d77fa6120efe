"""Factorization and certified root isolation, with sympy as the
independent factorization oracle."""

import warnings
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from qconic.rationals import QQ, is_square
from qconic import unipoly as up
from qconic.factorint import factor, is_irreducible
from qconic import roots as rootmod
from qconic.intervals import Box, evaluate_poly_on_box
from qconic.roots import isolate_all_roots, refine_box

import fraction_reference as ref
from qconic.numberfield import roots_of_irreducible


def isolate_roots(coeffs):
    """(root, multiplicity) pairs of a rational polynomial of degree at
    most four: one element per root, each non-rational root in its own
    embedding (the composition of :func:`factor` and
    :func:`roots_of_irreducible` that the pipeline runs per pair)."""
    return [(root, mult) for q, mult in factor(coeffs)[1]
            for root in roots_of_irreducible(q)]


def _sympy_factor(coeffs):
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(int(c.numerator), int(c.denominator)) * x**i
               for i, c in enumerate(coeffs))
    _, factors = sympy.factor_list(expr)
    out = []
    for fac, mult in factors:
        poly = sympy.Poly(fac, x)
        cs = [QQ(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
        out.append((tuple(up.monic(up.from_coeffs(cs))), mult))
    return sorted(out)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=60),
                          st.integers(min_value=-200, max_value=200)), max_size=4),
       st.tuples(st.integers(min_value=1, max_value=60),
                 st.integers(min_value=-60, max_value=60),
                 st.integers(min_value=-60, max_value=60)))
def test_rational_roots_match_sympy(linear, quadratic):
    # (u x - v) factors, repeats allowed, times an irreducible a x^2 + b x + c
    a, b, c = quadratic
    assume(not is_square(b * b - 4 * a * c))
    p = up.from_coeffs([c, b, a])
    for u, v in linear:
        p = up.mul(p, up.from_coeffs([-v, u]))
    expected = sorted(-f[0] for f, _ in _sympy_factor(p) if len(f) == 2)
    assert up.rational_roots(p) == expected
    assert expected == sorted({QQ(v, u) for u, v in linear})


def _mine(coeffs):
    _, factors = factor(up.from_coeffs(coeffs))
    return sorted((tuple(f), m) for f, m in factors)


def test_factor_spec_example():
    # (y-1)^2 (y^2+1)
    p = [QQ(1), QQ(-2), QQ(2), QQ(-2), QQ(1)]
    assert _mine(p) == _sympy_factor(p)
    factors = dict(_mine(p))
    assert factors[(QQ(-1), QQ(1))] == 2
    assert factors[(QQ(1), QQ(0), QQ(1))] == 1


def test_quartic_splits():
    cases = [
        [4, 0, 0, 0, 1],        # x^4 + 4 = (x^2-2x+2)(x^2+2x+2)
        [6, 0, -5, 0, 1],       # (x^2-2)(x^2-3)
        [2, 0, 4, 0, 1],        # irreducible
        [1, 0, 0, 0, 1],        # irreducible
        [1, 4, 8, 4, 1],        # palindromic quartic
        [-15, 8, 14, -8, 1],    # mixed factors
    ]
    for c in cases:
        coeffs = [QQ(v) for v in c]
        assert _mine(coeffs) == _sympy_factor(coeffs), c


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=5))
def test_factor_matches_sympy(ints):
    p = up.from_coeffs(ints)
    if up.degree(p) < 1:
        return
    coeffs = list(p)
    assert _mine(coeffs) == _sympy_factor(coeffs)


def test_is_irreducible():
    assert is_irreducible([QQ(-2), QQ(0), QQ(1)])
    assert not is_irreducible([QQ(-1), QQ(0), QQ(1)])


# ------------------------------------------------------------- isolation

def test_isolate_roots_y4():
    roots = isolate_roots([0, 0, 0, 0, 1])
    assert len(roots) == 1
    elem, mult = roots[0]
    assert mult == 4 and elem.is_rational() and elem == 0


def test_isolate_roots_y2_minus_2():
    roots = isolate_roots([-2, 0, 1])
    assert len(roots) == 2
    assert all(m == 1 for _, m in roots)
    fields = {e.field for e, _ in roots}
    assert len(fields) == 2
    assert all(tuple(f.min_poly) == (QQ(-2), QQ(0), QQ(1)) for f in fields)


def test_isolate_roots_mixed():
    # (y-1)^2 (y^2+1): rational root 1 twice, conjugate pair once each
    roots = isolate_roots([1, -2, 2, -2, 1])
    mults = sorted(m for _, m in roots)
    assert mults == [1, 1, 2]
    # one entry per root: multiplicities alone sum to the degree
    assert sum(m for _, m in roots) == 4


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=5))
def test_multiplicities_sum_to_degree(ints):
    p = up.from_coeffs(ints)
    if up.degree(p) < 1:
        return
    roots = isolate_roots(list(p))
    assert sum(m for _, m in roots) == up.degree(p)


def test_degree_five_is_refused():
    # factoring stops at the quartics conic pairs produce
    p = [QQ(-1), QQ(-1), QQ(0), QQ(0), QQ(0), QQ(1)]  # x^5 - x - 1
    with pytest.raises(ValueError):
        factor(p)
    with pytest.raises(ValueError):
        isolate_roots(p)


def test_boxes_pairwise_disjoint_and_refine():
    p = up.from_coeffs([QQ(-1), QQ(0), QQ(0), QQ(0), QQ(0), QQ(1)])  # x^5 = 1
    boxes = isolate_all_roots(list(p))
    assert len(boxes) == 5
    for i in range(5):
        for j in range(i + 1, 5):
            assert boxes[i].disjoint(boxes[j])
    smaller = refine_box(list(p), boxes[1])
    assert boxes[1].contains_box(smaller)
    assert smaller.width() <= boxes[1].width() / 2


# --------------------------------------------- seeded numeric candidates

_small_int = st.integers(min_value=-20, max_value=20)


@settings(max_examples=40, deadline=None)
@given(st.lists(_small_int, min_size=2, max_size=5),
       _small_int.filter(lambda c: c != 0))
def test_seeded_candidates_match_cold_polyroots(lower, lead):
    # a squarefree integer polynomial of degree 2 to 5: the double-precision
    # seeds move where Durand-Kerner starts, not the dyadic candidates it
    # ends at
    p = up.from_coeffs([*lower, lead])
    assume(up.degree(up.gcd(p, up.derivative(p))) == 0)
    for dps in (40, 80):
        seeded = rootmod._approximate_roots(p, dps)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(rootmod, "_float_seeds", lambda _p: None)
            cold = rootmod._approximate_roots(p, dps)
        assert seeded is not None and sorted(seeded) == sorted(cold)


def test_coefficients_beyond_a_double_are_seeded():
    # 10^400 (x^2 + 1) has coefficients beyond a double, and roots +-i;
    # wide = 10^300 + 10^-300 x^2 has coefficients that fit doubles, a
    # companion matrix that overflows, and roots +-10^300 i; huge =
    # 10^400 + x^2 has roots +-10^200 i, which a cold start does not reach
    p = up.from_coeffs([QQ(10 ** 400), QQ(0), QQ(10 ** 400)])
    wide = up.from_coeffs([QQ(10 ** 300), QQ(0), QQ(1, 10 ** 300)])
    huge = up.from_coeffs([QQ(10 ** 400), QQ(0), QQ(1)])
    for q, root in ((p, 1), (wide, 10 ** 300), (huge, 10 ** 200)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seeds = rootmod._float_seeds(q)
        assert len(seeds) == 2 and all(
            abs(abs(z.imag) / root - 1) < 1e-9 and abs(z.real) < 1e-9 * root
            for z in seeds)
        boxes = isolate_all_roots(q)
        assert len(boxes) == 2 and boxes[0].disjoint(boxes[1])
        for box, sign in zip(boxes, (-1, 1)):
            assert box.re_lo <= 0 <= box.re_hi
            assert box.im_lo <= sign * root <= box.im_hi


def test_seeded_call_that_cannot_converge_is_retried_cold(monkeypatch):
    # seeds near 10^300 shrink by a bounded factor per step, so 400 steps
    # do not bring them back: the seeded polyroots call raises
    # NoConvergence and the cold call gives the same candidates
    p = up.from_coeffs([QQ(c) for c in (4, -10, 9, -7, 7)])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(rootmod, "_float_seeds", lambda _p: None)
        cold = rootmod._approximate_roots(p, 40)
    calls = []
    polyroots = mpmath.polyroots

    def recording(*args, **kwargs):
        calls.append("seeded" if "roots_init" in kwargs else "cold")
        return polyroots(*args, **kwargs)

    monkeypatch.setattr(rootmod, "_float_seeds", lambda q: [
        1e300 * (0.4 + 0.9j) ** k for k in range(up.degree(q))])
    monkeypatch.setattr(mpmath, "polyroots", recording)
    assert rootmod._approximate_roots(p, 40) == cold
    assert calls == ["seeded", "cold"]
    boxes = isolate_all_roots(p)
    assert len(boxes) == 4 and all(
        a.disjoint(b) for i, a in enumerate(boxes) for b in boxes[i + 1:])
    monkeypatch.undo()
    assert boxes == isolate_all_roots(p)


# ------------------------------------- int kernels against QQ arithmetic

def _reference_isolation(p):
    """isolate_all_roots and one refinement of each box, run on the QQ
    Horner references (mpmath candidates are the same on both routes)."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(up, "isolate_real_roots", ref.isolate_real_roots)
        m.setattr(up, "refine_root_interval", ref.refine_root_interval)
        m.setattr(up, "bisection", ref.bisection)
        m.setattr(rootmod, "_nearest_root_radius", ref.nearest_root_radius)
        boxes = isolate_all_roots(p)
        return boxes, [refine_box(p, b) for b in boxes]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=5),
                min_size=2, max_size=5).filter(lambda c: c[-1]))
def test_isolation_matches_fraction_reference(coeffs):
    p = up.squarefree_part(up.from_coeffs([QQ(c.numerator, c.denominator) for c in coeffs]))
    if up.degree(p) < 1:
        return
    boxes = isolate_all_roots(p)
    assert (boxes, [refine_box(p, b) for b in boxes]) == _reference_isolation(p)


def test_isolation_of_non_integral_quartic_matches_reference():
    # two real roots, one conjugate pair, a non-integral minimal polynomial
    p = up.from_coeffs([QQ(-1, 3), QQ(0), QQ(1, 4), QQ(1, 2), QQ(1)])
    boxes = isolate_all_roots(p)
    assert sum(b.im_lo == b.im_hi == 0 for b in boxes) == 2 and len(boxes) == 4
    assert (boxes, [refine_box(p, b) for b in boxes]) == _reference_isolation(p)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=5),
                min_size=2, max_size=5).filter(lambda c: c[-1]))
@example([Fraction(-1, 3), 0, Fraction(1, 4), Fraction(1, 2), 1])
@example([-6, 11, -6, 1])        # (t - 1)(t - 2)(t - 3): shared endpoints
def test_sturm_real_boxes_are_the_real_part_of_the_isolation(coeffs):
    # the real boxes from Sturm alone are those of the full isolation and
    # of the QQ steps; the deleted disc loop would never move one
    p = up.squarefree_part(up.from_coeffs([QQ(c.numerator, c.denominator)
                                           for c in map(Fraction, coeffs)]))
    if up.degree(p) < 1:
        return
    real = rootmod.real_root_boxes(p)
    boxes = isolate_all_roots(p)
    assert real == boxes[:len(real)] == ref.real_root_boxes(p)
    discs = boxes[len(real):]
    assert all(d.im_lo > 0 or d.im_hi < 0 for d in discs)
    assert ref.tighten_real(p, real, discs) == real
    assert all(a.re_hi < b.re_lo for a, b in zip(real, real[1:]))
    assert all(b.width() <= QQ(1, 16) for b in real)


_corner = st.fractions(min_value=-5, max_value=5, max_denominator=12).map(
    lambda f: QQ(f.numerator, f.denominator))


@settings(max_examples=100, deadline=None)
@given(st.lists(_corner, max_size=6), _corner, _corner, _corner, _corner,
       st.integers(1, 9), st.booleans())
def test_box_horner_matches_box_arithmetic(coeffs, a, b, c, d, den, real):
    box = Box(min(a, b), max(a, b), 0, 0) if real else Box(min(a, b), max(a, b),
                                                          min(c, d), max(c, d))
    assert evaluate_poly_on_box(coeffs, box, den) == ref.box_horner(coeffs, box, den)
    ints = [int(c * 27720) for c in coeffs]   # lcm(1, ..., 12): int coefficients
    assert evaluate_poly_on_box(ints, box) == ref.box_horner(ints, box)
