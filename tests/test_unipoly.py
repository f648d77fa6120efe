import pytest
from hypothesis import given, settings, strategies as st

from qconic.rationals import QQ
from qconic import unipoly as up

import fraction_reference as ref


def coeffs(max_deg=5):
    return st.lists(st.integers(min_value=-9, max_value=9),
                    min_size=0, max_size=max_deg + 1)


def as_poly(ints):
    return up.from_coeffs(ints)


@given(coeffs(), coeffs())
def test_mul_degree_and_commutativity(a, b):
    p, q = as_poly(a), as_poly(b)
    assert up.mul(p, q) == up.mul(q, p)
    if not up.is_zero(p) and not up.is_zero(q):
        assert up.degree(up.mul(p, q)) == up.degree(p) + up.degree(q)


@given(coeffs(), coeffs())
def test_divmod_round_trip(a, b):
    p, q = as_poly(a), as_poly(b)
    if up.is_zero(q):
        return
    quo, rem = up.divmod_poly(p, q)
    assert up.add(up.mul(quo, q), rem) == p
    assert up.degree(rem) < up.degree(q)


@given(coeffs(3), coeffs(3), coeffs(2))
def test_gcd_divides_both(a, b, c):
    p, q, m = as_poly(a), as_poly(b), as_poly(c)
    p, q = up.mul(p, m), up.mul(q, m)
    if up.is_zero(p) or up.is_zero(q):
        return
    g = up.gcd(p, q)
    assert up.is_zero(up.rem(p, g))
    assert up.is_zero(up.rem(q, g))
    if up.degree(m) > 0:
        assert up.degree(g) >= up.degree(m)


def test_shift():
    p = up.from_coeffs([0, 0, 1])  # t^2
    assert up.shift(p, 1) == up.from_coeffs([1, 2, 1])  # (t+1)^2
    assert up.evaluate(up.shift(p, QQ(3, 2)), QQ(-3, 2)) == 0


def test_yun_squarefree_decomposition():
    # (t-1)^2 (t^2+1)
    p = up.mul(up.mul(up.from_coeffs([-1, 1]), up.from_coeffs([-1, 1])),
               up.from_coeffs([1, 0, 1]))
    dec = up.squarefree_decomposition(p)
    assert ([(list(f), m) for f, m in dec]
            == [([QQ(1), QQ(0), QQ(1)], 1), ([QQ(-1), QQ(1)], 2)])


@given(coeffs(4))
def test_sturm_isolation_counts_all_real_roots(a):
    p = as_poly(a)
    if up.degree(p) < 1:
        return
    sf = up.squarefree_part(p)
    intervals = up.isolate_real_roots(sf)
    # each interval holds exactly one root; all real roots are covered
    chain = up.sturm_chain(sf)
    bound = up.root_bound(sf)
    assert up.sturm_count(chain, -bound, bound) == len(intervals)
    for lo, hi in intervals:
        if lo == hi:
            assert up.evaluate(sf, lo) == 0
        else:
            assert up.sturm_count(chain, lo, hi) == 1
    # pairwise disjoint (ordering is sorted)
    for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
        assert b1 <= a2


def _sturm_refine(p, sequence, lo, hi):
    """The Sturm-count bisection step that :func:`up.refine_root_interval`
    replaced, kept as its oracle: the half whose count is 1 holds the root."""
    if lo == hi:
        return lo, hi
    mid = (lo + hi) / 2
    if not up.evaluate(p, mid):
        return mid, mid
    if up.sturm_count(sequence, lo, mid) == 1:
        return lo, mid
    return mid, hi


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=2,
                max_size=7).filter(lambda c: c[-1]))
def test_sign_bisection_matches_sturm_oracle(a):
    # a squarefree integer polynomial of degree 1..6
    p = as_poly(up.primitive_integer(up.squarefree_part(as_poly(a))))
    sequence = up.sturm_chain(p)
    for lo, hi in up.isolate_real_roots(p):
        expected = (lo, hi)
        for _ in range(25):
            lo, hi = up.refine_root_interval(p, lo, hi)
            expected = _sturm_refine(p, sequence, *expected)
            assert (lo, hi) == expected


def test_refine_root_interval_endpoints():
    p = up.from_coeffs([3, -4, 1])  # (t - 1)(t - 3)
    assert up.refine_root_interval(p, QQ(0), QQ(2)) == (QQ(1), QQ(1))
    assert up.refine_root_interval(p, QQ(3), QQ(3)) == (QQ(3), QQ(3))
    assert up.refine_root_interval(p, QQ(2), QQ(4)) == (QQ(3), QQ(3))
    assert up.refine_root_interval(p, QQ(5, 2), QQ(4)) == (QQ(5, 2), QQ(13, 4))
    with pytest.raises(ValueError, match="is a root"):
        up.refine_root_interval(p, QQ(1), QQ(2))


def test_rational_roots_without_integer_factoring():
    # 6t^3 - 17t^2 - 4t + 3 = (3t+1)(2t-... ) has roots 3, 1/2? build directly:
    # (t - 3)(2t - 1)(3t + 1) = 6t^3 - 19t^2 + 2t + 3
    p = up.mul(up.mul(up.from_coeffs([-3, 1]), up.from_coeffs([-1, 2])),
               up.from_coeffs([1, 3]))
    roots = up.rational_roots(p)
    assert roots == sorted([QQ(-1, 3), QQ(1, 2), QQ(3)])


# ------------------------------------- int sign paths against QQ Horner

_coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6).map(
    lambda f: QQ(f.numerator, f.denominator))


def _same_counts(chain, points):
    points = sorted(set(points))
    for i, a in enumerate(points):
        for b in points[i:]:
            assert up.sturm_count(chain, a, b) == ref.sturm_count(chain, a, b)


def _same_as_reference(p):
    """Every int sign path on p returns what the QQ Horner route returns."""
    sf = up.squarefree_part(p)
    chain = up.sturm_chain(sf)
    bound = up.root_bound(sf)
    # the int chain: positive multiples of the chain over QQ, member by member
    qq_chain = ref.sturm_chain(sf)
    assert len(chain) == len(qq_chain)
    for f, g in zip(chain, qq_chain):
        assert all(type(c) is int for c in f) and len(f) == len(g)
        assert all((x == 0) == (y == 0) for x, y in zip(f, g))
        assert len({QQ(x) / y for x, y in zip(f, g) if y}) == 1
        assert QQ(f[-1]) / g[-1] > 0
    # counts first: isolation cannot end on wrong counts
    _same_counts(chain, [-bound, -bound / 3, QQ(0), QQ(1, 3), bound])
    intervals = up.isolate_real_roots(sf)
    assert intervals == ref.isolate_real_roots(sf)
    _same_counts(chain, [e for iv in intervals for e in iv])
    for lo, hi in intervals:
        expected = (lo, hi)
        for _ in range(30):
            lo, hi = up.refine_root_interval(sf, lo, hi)
            expected = ref.refine_root_interval(sf, *expected)
            assert (lo, hi) == expected
    assert up.rational_roots(p) == ref.rational_roots(p)
    return chain, bound


@settings(max_examples=120, deadline=None)
@given(st.lists(_coeff, min_size=2, max_size=7).filter(lambda c: c[-1]))
def test_int_sign_paths_match_fraction_horner(coeffs):
    # rational coefficients, either sign of the leading one
    _same_as_reference(up.from_coeffs(coeffs))


def test_int_signs_with_negative_leading_chain_members():
    # chain members with a negative leading coefficient keep their sign:
    # they are scaled by a positive factor only; and a root bound of 13/3
    # makes every bisection endpoint non-dyadic
    for coeffs in ([-3, -3, QQ(-10, 3), -3, 1], [3, 3, 3, QQ(10, 3), -1]):
        chain, bound = _same_as_reference(up.from_coeffs(coeffs))
        assert any(f[-1] < 0 for f in chain) and bound == QQ(13, 3)
        for f in chain:
            assert [c > 0 for c in up.primitive_integer(f)] == [c > 0 for c in f]
        assert up.sturm_count(chain, -bound, bound) == len(up.isolate_real_roots(chain[0]))
    # a negative leading coefficient on p itself, and a root bound of 8/3
    _same_as_reference(up.from_coeffs([1, 5, 0, -3]))


def test_sign_at_is_the_sign_of_the_value():
    p = up.from_coeffs([QQ(-7, 3), 2, QQ(5, 2), -3])
    ints = up.primitive_integer(p)
    for x in (QQ(0), QQ(1), QQ(-5, 7), QQ(7, 3), QQ(12345, 4096), -3, 2):
        value = ref.q_eval(p, QQ(x))
        assert up._sign_at(ints, QQ(x)) == (value > 0) - (value < 0)


def _first(walk, n):
    return [next(walk) for _ in range(n)]


def _values(triples):
    return [(QQ(a, d), QQ(b, d)) for a, b, d in triples]


@settings(max_examples=80, deadline=None)
@given(st.lists(_coeff, min_size=2, max_size=6).filter(lambda c: c[-1]))
def test_bisection_equals_repeated_refine_steps(coeffs):
    # the int walk, sign carried, against one QQ step per interval
    sf = up.squarefree_part(up.from_coeffs(coeffs))
    ints = up.primitive_integer(sf)
    for lo, hi in up.isolate_real_roots(sf):
        walk = _first(up.bisection(ints, lo, hi), 40)
        assert _values(walk) == _values(_first(ref.bisection(sf, lo, hi), 40))
        if lo != hi:   # one denominator, doubled per step
            assert walk[1][2] == 2 * walk[0][2]


def test_bisection_midpoint_on_a_rational_root():
    # (t - 3/4)(t^2 - 3): from (1/2, 1) the first midpoint is the root,
    # and from (0, 1) the second; the interval then stays degenerate
    p = up.mul(up.from_coeffs([QQ(-3, 4), 1]), up.from_coeffs([-3, 0, 1]))
    ints = up.primitive_integer(p)
    for lo, steps in ((QQ(1, 2), 1), (QQ(0), 2)):
        walk = _values(_first(up.bisection(ints, lo, QQ(1)), 6))
        assert walk == _values(_first(ref.bisection(p, lo, QQ(1)), 6))
        assert walk[steps:] == [(QQ(3, 4), QQ(3, 4))] * (6 - steps)
        assert walk[steps - 1] != walk[steps]
    assert _values(_first(up.bisection(ints, QQ(3, 4), QQ(3, 4)), 3)) == [
        (QQ(3, 4), QQ(3, 4))] * 3
    with pytest.raises(ValueError, match="is a root"):
        _first(up.bisection(ints, QQ(3, 4), QQ(1)), 2)
