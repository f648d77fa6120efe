"""Field axioms hold exactly on number-field elements, and the int
arithmetic matches a rational-coordinate reference."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qconic.rationals import QQ
from qconic import numberfield, unipoly as up
from qconic import roots as rootmod
from qconic.factorint import is_irreducible
from qconic.errors import QConicError
from qconic.intervals import Box, evaluate_poly_on_box
from qconic.numberfield import (RATIONAL_FIELD, FieldElement, field_for_root,
                                fields_for_polynomial, power_basis_solve,
                                roots_of_irreducible)

import fraction_reference as ref

SAMPLE_MIN_POLYS = [
    (QQ(1), QQ(0), QQ(1)),                  # t^2 + 1
    (QQ(-2), QQ(0), QQ(1)),                 # t^2 - 2
    (QQ(-2), QQ(0), QQ(0), QQ(1)),          # t^3 - 2
    (QQ(2), QQ(0), QQ(4), QQ(0), QQ(1)),    # t^4 + 4t^2 + 2
]


@st.composite
def field_elements(draw):
    mp = draw(st.sampled_from(SAMPLE_MIN_POLYS))
    field = field_for_root(mp, 0)
    coords = draw(st.lists(
        st.fractions(max_denominator=8).map(lambda f: QQ(f.numerator, f.denominator)),
        min_size=field.degree, max_size=field.degree))
    return field.element(coords)


@settings(max_examples=60, deadline=None)
@given(field_elements())
def test_additive_and_multiplicative_identities(a):
    f = a.field
    assert a + f.zero() == a
    assert a * f.one() == a
    assert a - a == f.zero()


@settings(max_examples=40, deadline=None)
@given(field_elements())
def test_inverse_of_nonzero(a):
    if a:
        assert a * a.inverse() == a.field.one()
        assert (a / a) == a.field.one()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_associativity_distributivity(data):
    mp = data.draw(st.sampled_from(SAMPLE_MIN_POLYS))
    field = field_for_root(mp, 0)
    rat = st.fractions(max_denominator=6).map(lambda f: QQ(f.numerator, f.denominator))
    coords = st.lists(rat, min_size=field.degree, max_size=field.degree)
    a = field.element(data.draw(coords))
    b = field.element(data.draw(coords))
    c = field.element(data.draw(coords))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_generator_satisfies_minimal_polynomial():
    for mp in SAMPLE_MIN_POLYS:
        field = field_for_root(mp, 0)
        t = field.generator()
        acc = field.zero()
        for i, c in enumerate(mp):
            acc = acc + t**i * c
        assert acc == field.zero()


def test_roots_of_irreducible():
    # the rational root of a linear polynomial, not the generator 0 of Q
    assert roots_of_irreducible((QQ(3), QQ(1))) == [RATIONAL_FIELD.rational(-3)]
    assert roots_of_irreducible((QQ(6), QQ(2))) == [RATIONAL_FIELD.rational(-3)]
    # one root per embedding of Q(sqrt 2), in embedding order
    roots = roots_of_irreducible((QQ(-2), QQ(0), QQ(1)))
    fields = fields_for_polynomial((QQ(-2), QQ(0), QQ(1)))
    assert [r.field for r in roots] == fields
    for r in roots:
        assert r * r == 2 and r == r.field.generator()
    assert roots[0].enclosure().re_hi < 0 < roots[1].enclosure().re_lo
    # a field for a linear polynomial has that root as its generator
    assert field_for_root((QQ(3), QQ(1))).generator() == -3
    assert field_for_root((QQ(-5), QQ(2))).generator() == QQ(5, 2)
    assert RATIONAL_FIELD.generator() == 0  # the root of t


def test_rational_field_embedding():
    half = RATIONAL_FIELD.rational(QQ(1, 2))
    assert half + half == RATIONAL_FIELD.one()
    assert half.is_rational() and half == QQ(1, 2)
    K = field_for_root((QQ(-2), QQ(0), QQ(1)), 0)
    mixed = K.generator() * half          # sqrt(2)/2
    assert (mixed * mixed).coords == (QQ(1, 2), QQ(0))


def multiplication_matrix(elem):
    """Matrix of multiplication by elem on the power basis (columns)."""
    n = elem.field.degree
    cols = []
    basis_elem = elem.field.one()
    gen = elem.field.generator()
    for _ in range(n):
        cols.append((elem * basis_elem).coords)
        basis_elem = basis_elem * gen
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _charpoly_oracle(elem):
    """det(T*I - M) by Laplace expansion over polynomial entries, M the
    multiplication matrix of elem: the route power_basis_solve replaced."""
    m = multiplication_matrix(elem)
    n = len(m)
    return _poly_det([[up.from_coeffs([-m[i][j]] if i != j else [-m[i][j], 1])
                       for j in range(n)] for i in range(n)])


def _poly_det(entries):
    n = len(entries)
    if n == 1:
        return entries[0][0]
    det = []
    for j in range(n):
        minor = [[entries[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = up.mul(entries[0][j], _poly_det(minor))
        det = up.add(det, term) if j % 2 == 0 else up.sub(det, term)
    return det


def test_power_basis_solve_spec_cases():
    K = field_for_root((QQ(-2), QQ(0), QQ(0), QQ(0), QQ(1)), 0)  # t^4 = 2
    t = K.generator()
    mu, (rep,) = power_basis_solve(t, [t**3 + t])
    assert list(mu) == up.from_coeffs([-2, 0, 0, 0, 1])
    assert list(rep) == [QQ(0), QQ(1), QQ(0), QQ(1)]
    # t^2 has minimal polynomial T^2 - 2 of degree 2 < 4: not primitive
    assert power_basis_solve(t * t, []) is None
    # t is not in Q(t^2): that right-hand side takes a pivot
    assert power_basis_solve(t * t, [t]) is None


ORACLE_MIN_POLYS = [
    (QQ(-2), QQ(0), QQ(0), QQ(0), QQ(1)),   # Q(2^(1/4))
    (QQ(1), QQ(0), QQ(1)),                  # Q(i)
    (QQ(1), QQ(-3), QQ(0), QQ(1)),          # cubic field t^3 - 3t + 1
]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_power_basis_solve_matches_charpoly_oracle(data):
    field = field_for_root(data.draw(st.sampled_from(ORACLE_MIN_POLYS)), 0)
    small = st.integers(min_value=-3, max_value=3).map(QQ)
    # sparse coordinates, so non-primitive elements (in a subfield) are drawn too
    sparse = st.lists(st.sampled_from([QQ(0), QQ(0), QQ(1), QQ(-1), QQ(2), QQ(1, 2)]),
                      min_size=field.degree, max_size=field.degree)
    gamma = field.element(data.draw(sparse))
    targets = [field.element(data.draw(st.lists(
        small, min_size=field.degree, max_size=field.degree))) for _ in range(2)]
    chi = _charpoly_oracle(gamma)
    squarefree = up.degree(up.gcd(chi, up.derivative(chi))) == 0
    solved = power_basis_solve(gamma, targets)
    assert (solved is None) == (not squarefree)
    if solved is None:
        return
    mu, reps = solved
    assert list(mu) == chi
    for target, rep in zip(targets, reps):
        acc = field.zero()
        for j, c in enumerate(rep):
            acc = acc + gamma**j * c
        assert acc == target


def test_unipoly_gcd_over_number_field():
    K = field_for_root((QQ(-2), QQ(0), QQ(1)), 0)   # Q(sqrt 2)
    r = K.generator()
    one = K.one()
    lin = [-r, one]                                 # x - sqrt 2
    p = up.mul(lin, [-one, one])                    # (x - sqrt 2)(x - 1)
    q = up.mul(lin, [K.rational(3), one])           # (x - sqrt 2)(x + 3)
    assert up.gcd(p, q) == lin
    coprime = up.gcd(up.mul([-one, one], [K.rational(2), one]),
                     up.mul(lin, [K.rational(3), one]))
    assert coprime == [one]


def test_distinct_embeddings_of_one_polynomial():
    fields = fields_for_polynomial((QQ(-2), QQ(0), QQ(1)))
    assert len(fields) == 2
    assert fields[0] != fields[1]
    assert fields[0].box.disjoint(fields[1].box)
    # both boxes honest: sqrt(2) is in exactly one of them
    lo, hi = fields[1].box.re_lo, fields[1].box.re_hi
    assert lo * lo <= 2 <= hi * hi or (lo <= 0 and fields[0].box.re_lo ** 2 >= 2)


def test_enclosure_refinement():
    K = field_for_root((QQ(-2), QQ(0), QQ(1)), 1)  # positive sqrt(2)
    e = K.generator() + 1
    box = e.enclosure(QQ(1, 10**9))
    assert box.width() <= QQ(1, 10**9)
    # 1 + sqrt(2) = 2.4142135623...
    assert box.re_lo <= QQ(2414213563, 10**9)
    assert box.re_hi >= QQ(2414213562, 10**9)
    # the field's own box never moves, so an enclosure does not depend on
    # the ones taken before it; and it is the first refinement level that
    # is narrow enough, the oracle being a walk over the levels
    for mp, root in (((-2, 0, 1), 1), ((2, 0, 4, 0, 1), 0)):
        K = field_for_root(tuple(QQ(c) for c in mp), root)
        e = K.generator() * 3 + QQ(1, 2)
        start = K.box
        coarse = e.enclosure(QQ(1, 10**3))
        assert e.enclosure(QQ(1, 10**12)).width() <= QQ(1, 10**12)
        assert K.box == start and e.enclosure(QQ(1, 10**3)) == coarse
        for width in (QQ(1, 10**3), QQ(1, 10**12)):
            level = 0
            while evaluate_poly_on_box(e.coords, K.root_box(level)).width() > width:
                level += 1
            assert e.enclosure(width) == evaluate_poly_on_box(
                e.coords, K.root_box(level))


def test_complex_enclosure_refines_by_certified_discs(monkeypatch):
    # the level-0 box of a root of t^2 + t + 1 is about 2^-100 wide, so a
    # 2^-400 enclosure walks several complex refinement levels
    def walk():
        K = next(F for F in fields_for_polynomial((1, 1, 1)) if F.box.im_lo > 0)
        box = K.generator().enclosure(QQ(1, 2**400))
        levels = K._levels
        assert box.width() <= QQ(1, 2**400) and len(levels) >= 3
        for outer, inner in zip(levels, levels[1:]):
            assert outer.contains_box(inner)
            assert inner.width() <= outer.width() / 2
            assert inner.im_lo > 0
        return box, levels

    monkeypatch.setattr(numberfield, "_FIELD_CACHE", {})
    first = walk()
    numberfield._FIELD_CACHE.clear()
    assert walk() == first


def test_enclosure_builds_no_level_past_the_one_returned(monkeypatch):
    monkeypatch.setattr(numberfield, "_FIELD_CACHE", {})
    upper = next(F for F in fields_for_polynomial((1, 1, 1)) if F.box.im_lo > 0)
    sqrt2 = field_for_root((-2, 0, 1), 1)
    for K, width in ((upper, QQ(1, 2**400)), (sqrt2, QQ(1, 10**12))):
        e = K.generator() * 3 + QQ(1, 2)
        box = e.enclosure(width)
        built = len(K._levels)
        level = 0
        while evaluate_poly_on_box(e.coords, K.root_box(level)).width() > width:
            level += 1
        assert box == evaluate_poly_on_box(e.coords, K.root_box(level))
        assert built == level + 1 == len(K._levels) and level >= 3



def test_enclosure_that_never_narrows_raises(monkeypatch):
    # a root box that never shrinks: after 257 levels the enclosure is
    # still too wide, which is an error, not a silently wider box
    K = field_for_root((QQ(-2), QQ(0), QQ(1)), 1)
    e = K.generator() * 3 + QQ(1, 2)
    stuck = K.box
    reads = []
    monkeypatch.setattr(numberfield.NumberField, "root_box",
                        lambda self, level: reads.append(level) or stuck)
    assert e.enclosure(stuck.width() * 4) == evaluate_poly_on_box(e.coords, stuck)
    with pytest.raises(QConicError, match="not reached in 257"):
        e.enclosure(QQ(1, 10**12))
    assert reads == [0] + list(range(257))

def _enclosure_and_levels(poly, index, coords, width, enclose):
    """``enclose(element, width)`` on a cold field, and the levels built."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(numberfield, "_FIELD_CACHE", {})
        K = field_for_root(poly, index)
        box = enclose(K.element(coords), width)
        return box, len(K._levels), K.box.im_lo == 0 == K.box.im_hi


_small_qq = st.fractions(min_value=-9, max_value=9, max_denominator=5).map(
    lambda f: QQ(f.numerator, f.denominator))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=2, max_size=4).map(
           lambda c: tuple(map(QQ, c)) + (QQ(1),)),
       st.integers(0, 3), st.lists(_small_qq, min_size=1, max_size=4),
       st.integers(2, 40))
@example((QQ(-2), QQ(0), QQ(1)), 1, [QQ(1, 2), QQ(3)], 40)           # real
@example((QQ(1), QQ(1), QQ(1)), 1, [QQ(0), QQ(-7, 3)], 40)           # non-real
@example((QQ(-2), QQ(0), QQ(0), QQ(0), QQ(1)), 3, [QQ(1), QQ(0), QQ(2)], 12)
@example((QQ(-3), QQ(1), QQ(0), QQ(1)), 0, [QQ(5, 3)], 30)           # rational
def test_enclosure_equals_the_level_walk(poly, index, coords, exponent):
    # the slope rule skips only levels the walk rejects: the same box and
    # the same levels built, over real and non-real embeddings
    assume(is_irreducible(list(poly)))
    index %= len(poly) - 1
    width = QQ(1, 10 ** exponent)
    new = _enclosure_and_levels(poly, index, coords, width,
                                lambda e, w: e.enclosure(w))
    assert new == _enclosure_and_levels(poly, index, coords, width,
                                        ref.enclosure_walk)
    assert new[0].width() <= width


def test_real_embeddings_are_boxed_without_mpmath(monkeypatch):
    # t^4 - 2 has two real roots, first in the canonical order: their
    # boxes and enclosures come from Sturm counts and bisection alone
    def no_mpmath(p, dps):
        raise AssertionError("complex root candidates computed")

    monkeypatch.setattr(numberfield, "_FIELD_CACHE", {})
    monkeypatch.setattr(rootmod, "_approximate_roots", no_mpmath)
    fields = fields_for_polynomial((-2, 0, 0, 0, 1))
    for K in fields[:2]:
        box = (K.generator() ** 2).enclosure(QQ(1, 10 ** 20))   # sqrt 2
        assert box.im_lo == 0 == box.im_hi and box.width() <= QQ(1, 10 ** 20)
        assert 0 < box.re_lo and box.re_lo ** 2 <= 2 <= box.re_hi ** 2
    assert [K.box for K in fields[:2]] == rootmod.real_root_boxes((-2, 0, 0, 0, 1))
    assert not fields[2]._levels and not fields[3]._levels
    with pytest.raises(AssertionError, match="candidates computed"):
        fields[2].box
    monkeypatch.undo()
    numberfield._FIELD_CACHE.clear()
    assert [K.box for K in fields_for_polynomial((-2, 0, 0, 0, 1))][:2] == [
        K.box for K in fields[:2]]


_qq = st.fractions(min_value=-9, max_value=9, max_denominator=7).map(
    lambda f: QQ(f.numerator, f.denominator))


@settings(max_examples=60, deadline=None)
@given(st.lists(_qq, min_size=1, max_size=5), _qq, _qq)
def test_real_horner_equals_box_horner(coeffs, a, b):
    # the oracle: complex box arithmetic, whose imaginary parts stay 0
    box = Box.real_interval(min(a, b), max(a, b))
    assert evaluate_poly_on_box(coeffs, box) == ref.box_horner(coeffs, box)


def test_rational_elements_hash_by_value():
    a = RATIONAL_FIELD.rational(-3)
    b = field_for_root((-2, 0, 1)).rational(-3)
    assert a == b == -3 and hash(a) == hash(b) == hash(-3)
    assert len({a, b}) == 1


def test_serialization_shape():
    K = field_for_root((QQ(1), QQ(0), QQ(1)), 0)
    doc = K.to_json()
    assert doc["minimal_polynomial"] == ["1", "0", "1"]
    assert len(doc["box"]) == 4
    elem = K.element([QQ(1, 2), QQ(-3)])
    assert elem.to_json() == ["1/2", "-3"]


def test_mixed_field_operations_raise():
    a = field_for_root((QQ(-2), QQ(0), QQ(1)), 0).generator()
    b = field_for_root((QQ(-3), QQ(0), QQ(1)), 0).generator()
    with pytest.raises(QConicError):
        _ = a + b


def test_integral_multiplication_matrix_is_a_positive_multiple():
    # D^(n-1) times the rational matrix, D the minimal polynomial's denominator
    for mp in NON_INTEGRAL_MIN_POLYS + SAMPLE_MIN_POLYS:
        K = field_for_root(mp, 0)
        scale = K._red_den ** (K.degree - 1)
        for coords in ([1] + [0] * (K.degree - 1), [QQ(1, 3), -2, 5, 7][:K.degree]):
            e = K.element(coords)
            ints = K.integral_multiplication_matrix(e.num)
            rational = multiplication_matrix(e)
            assert [[QQ(x, scale * e.den) for x in row] for row in ints] == rational


# ------------------------------------------- rational-coordinate reference

#: monic minimal polynomials with non-integral coefficients, degrees 2..4
NON_INTEGRAL_MIN_POLYS = [
    (QQ(-1, 2), QQ(0), QQ(1)),                         # t^2 - 1/2
    (QQ(1, 5), QQ(1, 3), QQ(1)),                       # t^2 + t/3 + 1/5
    (QQ(1, 3), QQ(-1, 2), QQ(0), QQ(1)),               # t^3 - t/2 + 1/3
    (QQ(-1, 3), QQ(0), QQ(1, 4), QQ(1, 2), QQ(1)),     # t^4 + t^3/2 + t^2/4 - 1/3
]


def _ref_reduce(min_poly, coords):
    """Reduction modulo the minimal polynomial on rational coordinates:
    rows of t^(n+k) built by overflow from t^n = -sum m_i t^i."""
    n = len(min_poly) - 1
    rows = [[-c / min_poly[n] for c in min_poly[:n]]]
    while len(rows) < len(coords) - n:
        cur = rows[-1]
        hi = cur[-1]
        cur = [QQ(0)] + cur[:-1]
        if hi:
            cur = [a + hi * b for a, b in zip(cur, rows[0])]
        rows.append(cur)
    out = list(coords[:n]) + [QQ(0)] * (n - len(coords[:n]))
    for k, c in enumerate(coords[n:]):
        if c:
            out = [a + c * b for a, b in zip(out, rows[k])]
    return tuple(out)


def _ref_mul(min_poly, a, b):
    n = len(min_poly) - 1
    prod = [QQ(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(min_poly, prod)


def _ref_inverse(min_poly, a):
    """Extended Euclid over Q: s * a + t * m = 1."""
    n = len(min_poly) - 1
    if n == 1:
        return (QQ(1) / a[0],)
    s0, s1 = [QQ(1)], []
    r0, r1 = up.strip(list(a)), list(min_poly)
    while r1:
        q, r = up.divmod_poly(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, up.sub(s0, up.mul(q, s1))
    assert up.degree(r0) == 0
    return _ref_reduce(min_poly, up.scale(s0, QQ(1) / r0[0]))


def _ref_pow(min_poly, a, k):
    if k < 0:
        return _ref_pow(min_poly, _ref_inverse(min_poly, a), -k)
    out = (QQ(1),) + (QQ(0),) * (len(a) - 1)
    for _ in range(k):
        out = _ref_mul(min_poly, out, a)
    return out


def _assert_matches(elem, coords):
    """elem equals, and hashes like, the element of the reference coords;
    its int form is in lowest terms over a positive denominator."""
    other = elem.field.element(coords)
    assert elem.coords == tuple(coords)
    assert elem == other and hash(elem) == hash(other)
    assert elem.den > 0 and all(type(a) is int for a in elem.num)
    assert gcd(elem.den, *elem.num) == 1
    if not any(coords[1:]):
        assert elem == coords[0] and hash(elem) == hash(coords[0])


_small = st.fractions(min_value=-7, max_value=7, max_denominator=9).map(
    lambda f: QQ(f.numerator, f.denominator))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_int_arithmetic_matches_rational_reference(data):
    mp = data.draw(st.sampled_from(
        NON_INTEGRAL_MIN_POLYS + SAMPLE_MIN_POLYS + [RATIONAL_FIELD.min_poly]))
    K = RATIONAL_FIELD if mp == RATIONAL_FIELD.min_poly else field_for_root(mp, 0)
    n = K.degree
    # sparse coordinates too, so rational elements and zero are drawn
    coord = st.one_of(_small, st.just(QQ(0)))
    a_c, b_c = (tuple(data.draw(st.lists(coord, min_size=n, max_size=n)))
                for _ in range(2))
    a, b = K.element(a_c), K.element(b_c)
    q = data.draw(st.one_of(_small, st.integers(-5, 5)))
    _assert_matches(a + b, tuple(x + y for x, y in zip(a_c, b_c)))
    _assert_matches(a - b, tuple(x - y for x, y in zip(a_c, b_c)))
    _assert_matches(-a, tuple(-x for x in a_c))
    _assert_matches(a * b, _ref_mul(mp, a_c, b_c))
    _assert_matches(a * q, tuple(x * q for x in a_c))
    _assert_matches(q * a, tuple(x * q for x in a_c))
    _assert_matches(a + q, (a_c[0] + q,) + a_c[1:])
    _assert_matches(q - a, (q - a_c[0],) + tuple(-x for x in a_c[1:]))
    # a rational element of Q lifts into K
    _assert_matches(a * RATIONAL_FIELD.rational(q), tuple(x * q for x in a_c))
    _assert_matches(RATIONAL_FIELD.rational(q) + a, (a_c[0] + q,) + a_c[1:])
    if q:
        _assert_matches(a / q, tuple(x / q for x in a_c))
    k = data.draw(st.integers(-2, 3))
    if any(b_c):
        inv = _ref_inverse(mp, b_c)
        _assert_matches(b.inverse(), inv)
        _assert_matches(a / b, _ref_mul(mp, a_c, inv))
        _assert_matches(q / b, tuple(x * q for x in inv))
        _assert_matches(b ** k, _ref_pow(mp, b_c, k))
    else:
        with pytest.raises(ZeroDivisionError):
            b.inverse()
    assert (a == b) == (a_c == b_c)
    assert (a != b) == (a_c != b_c)


def test_generator_of_non_integral_field_reduces_exactly():
    for mp in NON_INTEGRAL_MIN_POLYS:
        K = field_for_root(mp, 0)
        t = K.generator()
        acc = K.zero()
        for i, c in enumerate(mp):
            acc = acc + t**i * c
        assert not acc and acc == 0
        high = t ** (3 * K.degree)   # several reduction rows deep
        _assert_matches(high, _ref_pow(mp, t.coords, 3 * K.degree))


def test_equality_with_non_numbers():
    three = RATIONAL_FIELD.rational(3)
    gen = field_for_root((QQ(-2), QQ(0), QQ(1)), 0).generator()
    for elem in (three, gen):
        assert elem.__eq__("3") is NotImplemented
        assert elem != "3" and elem != "a" and elem != None  # noqa: E711
        assert not elem == None  # noqa: E711
        assert elem in [None, elem] and elem not in [None, "3", object()]
    assert three == 3 and three == QQ(3) and three == Fraction(3)
    assert three != QQ(3, 2) and gen != 0 and gen != 3
    assert FieldElement(RATIONAL_FIELD, (6,), -4) == QQ(-3, 2)
