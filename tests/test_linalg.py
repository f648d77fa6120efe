import itertools
import math
import random
import re
from functools import partial, reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qconic import linalg, localalg
from qconic.rationals import QQ
from qconic.linalg import (PRIME, kernel_basis_blockwise, rank_blockwise,
                           _int_echelon, _to_int_rows,
                           has_full_column_rank_certified)
from qconic.errors import NonIsolatedError, QConicError
from qconic.arrangement import Conic, pencil_members
from qconic.localalg import (_column_terms, _singular_germ, local_affine_at,
                             local_milnor_number, truncated_quotient_dimension)
from qconic.multipoly import AffinePolynomial, HomogeneousForm
from qconic.singular import locate_singular_points
from qconic.numberfield import RATIONAL_FIELD, field_for_root

import fraction_reference as ref
from fraction_reference import kernel_basis_rational


def test_kernel_spec_examples():
    assert kernel_basis_blockwise([[1, 0], [0, 1]]) == []
    zero_row = kernel_basis_blockwise([[0, 0, 0]])
    assert len(zero_row) == 3
    kb = kernel_basis_blockwise([[1, 1, 0], [0, 1, 1]])
    assert len(kb) == 1
    v = kb[0]
    # spanned by (1, -1, 1)
    assert v[0] == -v[1] == v[2] and v[0] != 0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=6),
       st.data())
def test_kernel_vectors_annihilate(nrows, ncols, data):
    rows = [[QQ(data.draw(st.integers(min_value=-6, max_value=6)))
             for _ in range(ncols)] for _ in range(nrows)]
    ints = _to_int_rows(rows)
    basis = kernel_basis_blockwise(ints)
    for v in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert rank_blockwise(ints) + len(basis) == ncols
    # row rank is column rank; the exact elimination of the rational rows
    # is the oracle of the kernel
    assert rank_blockwise(ints) == rank_blockwise([list(c) for c in zip(*ints)])
    assert basis == kernel_basis_rational(rows)


@st.composite
def block_matrices(draw):
    """Block-diagonal int matrices of one to three blocks; in some, a whole
    column is a multiple of PRIME, so a pivot over Q vanishes mod p, and
    in some the entries go beyond int64."""
    blocks = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 5)),
                           min_size=1, max_size=3))
    ncols = sum(c for _, c in blocks)
    size = draw(st.sampled_from([9, 9, 2 ** 70]))
    rows, offset = [], 0
    for nrows, width in blocks:
        for _ in range(nrows):
            row = [0] * ncols
            for j in range(width):
                row[offset + j] = draw(st.integers(-size, size))
            rows.append(row)
        offset += width
    if draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        scale = PRIME * draw(st.sampled_from([1, -3, PRIME]))
        for row in rows:
            row[j] *= scale
    return rows


def _shuffle_columns(rows, rng):
    order = list(range(len(rows[0])))
    rng.shuffle(order)
    return [[row[j] for j in order] for row in rows]


@settings(max_examples=80, deadline=None)
@given(block_matrices(), st.randoms(use_true_random=False))
def test_modular_kernel_is_the_exact_kernel_in_order(rows, rng):
    # shuffled columns interleave the blocks; the witness of mdr is the
    # first vector, so the order is checked too
    rows = _shuffle_columns(rows, rng)
    assert kernel_basis_blockwise(rows) == kernel_basis_rational(rows)


@settings(max_examples=80, deadline=None)
@given(block_matrices(), st.randoms(use_true_random=False), st.booleans(),
       st.booleans())
def test_int_echelon_updates_only_the_tail(rows, rng, interleave, big):
    # block, interleaved and beyond-int64 matrices: updating each active
    # row from the pivot column on gives the rank, pivot columns and
    # echelon rows of the full-width update, entry for entry
    if interleave:
        rows = _shuffle_columns(rows, rng)
    if big:
        rows = [[v * 3 ** 50 + i - j if v else 0 for j, v in enumerate(row)]
                for i, row in enumerate(rows)]
    assert _int_echelon(rows) == ref.int_echelon_full_width(rows)


def test_modular_kernel_of_blocks_matches_unsplit_elimination():
    # two blocks on consecutive columns, then two that interleave ({0, 3}
    # and {1, 2}): the order is that of the free columns of the whole matrix
    rows = [[2, 4, 6, 0, 0, 0], [1, 3, 5, 0, 0, 0],
            [0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 1, 1]]
    kernel = kernel_basis_blockwise(rows)
    assert len(kernel) == 2 and kernel == kernel_basis_rational(rows)
    rows = [[1, 0, 0, 1], [0, 1, 1, 0]]
    assert kernel_basis_blockwise(rows) == kernel_basis_rational(rows) == [
        (QQ(0), QQ(-1), QQ(1), QQ(0)), (QQ(-1), QQ(0), QQ(0), QQ(1))]


def _no_exact_elimination():
    return mock.patch.object(linalg, "_int_echelon", mock.Mock(
        side_effect=AssertionError("exact elimination called")))


def _counting(name):
    """Patch ``linalg.<name>`` by a mock that wraps it and counts calls."""
    return mock.patch.object(linalg, name,
                             mock.Mock(wraps=getattr(linalg, name)))


def test_bad_first_prime_restarts_the_crt():
    # column 1 is a pivot over Q and zero mod PRIME: the first prime's
    # pivots (0, 2) lose to the next prime's (0, 1), which restarts
    rows = [[1, PRIME, 2], [1, 0, 3]]
    expected = kernel_basis_rational(rows)
    with _no_exact_elimination(), _counting("_rref_mod_p") as primes:
        assert kernel_basis_blockwise(rows) == expected
    assert primes.call_count >= 2


def test_one_prime_cannot_reconstruct_large_entries():
    # entries beyond int64, and a kernel vector whose numerators and
    # denominators one word prime cannot hold: more primes answer, with
    # no exact elimination
    rows = [[3 ** 45, 5 ** 30 + 1, 7], [2, 11 ** 20, 13]]
    expected = kernel_basis_rational(rows)
    with _no_exact_elimination(), _counting("_rref_mod_p") as primes:
        assert kernel_basis_blockwise(rows) == expected
    assert primes.call_count > 1


def test_kernel_past_sixteen_primes_certifies():
    # 3 x 3 minors of entries near 2^200 need a modulus of about 1200 bits,
    # far beyond sixteen word primes; the prime stream has no cap
    rng = random.Random(7)
    rows = [[rng.randrange(-2 ** 200, 2 ** 200) for _ in range(5)]
            for _ in range(3)]
    expected = kernel_basis_rational(rows)
    with _no_exact_elimination(), _counting("_rref_mod_p") as primes:
        assert kernel_basis_blockwise(rows) == expected
    assert len(expected) == 2 and primes.call_count > 16


@pytest.mark.parametrize("wrong", [
    # keeps the free-column pattern of check (ii): only M v = 0 refuses it
    lambda w, den: [w[0] + den] + w[1:],
    # twice a kernel vector passes check (i); only check (ii) refuses it
    lambda w, den: [2 * x for x in w],
])
def test_wrong_reconstruction_is_refused(wrong):
    rows = [[1, 1, 0], [0, 1, 1]]   # the kernel is spanned by (1, -1, 1)
    # Hadamard's bound is sqrt(2)^2 = 2, so the budget is
    # ceil((2 log2 2 + 1) / 19) + floor(log2 2 / 19) = 1 prime
    budget = 1
    reconstruct = linalg._reconstruct
    calls = []

    def patched(residues, modulus):
        calls.append(modulus)
        w, den = reconstruct(residues, modulus)
        return wrong(w, den), den

    with mock.patch.object(linalg, "_reconstruct", patched):
        with pytest.raises(QConicError, match="did not certify"):
            kernel_basis_blockwise(rows)
    assert 1 <= len(calls) <= budget + 1
    assert kernel_basis_blockwise(rows) == [(QQ(1), QQ(-1), QQ(1))]


def test_full_column_rank_certificate_is_safe():
    assert has_full_column_rank_certified([[1, 0], [0, 1], [3, 5]])
    # rank-deficient matrices are never certified
    assert not has_full_column_rank_certified([[1, 2], [2, 4]])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 7, PRIME]), st.data())
def test_growing_rref_has_the_rank_mod_p_of_every_prefix(p, data):
    # blocks of rows, each with new columns on which the rows before it
    # vanish: the growth the level scan makes
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, 5])
    rows, width = [], 0
    echelon = linalg.GrowingRREF(p)
    for _ in range(data.draw(st.integers(1, 7))):
        width += data.draw(st.integers(0, 4))
        block = data.draw(st.lists(st.lists(entries, min_size=width,
                                            max_size=width), max_size=4))
        rows = [row + [0] * (width - len(row)) for row in rows] + block
        rank = echelon.add_rows(
            np.array(block, dtype=np.int64).reshape(len(block), width) % p)
        assert rank == ref.rank_mod_p(rows, p)


#: the least prime above 2^19, the last prime of the certified kernel
_LAST_KERNEL_PRIME = next(q for q in range(2 ** 19 + 1, 2 ** 20, 2)
                          if all(q % k for k in range(3, math.isqrt(q) + 1, 2)))


@st.composite
def blocked_matrices(draw):
    """Int matrices of 1, B - 1, B, B + 1 or 3B + 1 rows for the block size
    B: tall, square or wide, of full rank or a product through fewer
    columns, sparse, with entries within int64 or beyond it.  In some,
    only the last row reaches the last inner column, so the last block
    may raise the rank."""
    block = linalg._BLOCK_ROWS
    nrows = draw(st.sampled_from([1, block - 1, block, block + 1,
                                  3 * block + 1]))
    ncols = draw(st.sampled_from([1, 3, nrows // 2 + 1, nrows, nrows + 5]))
    inner = draw(st.sampled_from([nrows, ncols, max(1, min(nrows, ncols) // 2)]))
    size = draw(st.sampled_from([3, 2 ** 70]))
    rng = draw(st.randoms(use_true_random=False))

    def sparse(n, m, bound):
        return [[rng.randint(-bound, bound) if rng.random() < 0.6 else 0
                 for _ in range(m)] for _ in range(n)]

    left, right = sparse(nrows, inner, 3), sparse(inner, ncols, size)
    if draw(st.booleans()):
        left = [row[:-1] + [0] for row in left[:-1]] + [[1] * inner]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
            for row in left]


@settings(max_examples=80, deadline=None)
@given(blocked_matrices(), st.sampled_from([2, 3, 7, PRIME, _LAST_KERNEL_PRIME]))
# rank 2 in the first block, 3 with the row after it
@example([[1, 0, 0]] + [[0, 1, 0]] * (linalg._BLOCK_ROWS - 1) + [[0, 0, 1]], 7)
def test_blocked_rref_is_the_column_elimination(rows, p):
    # rank_mod_p, and the pivots and free-column RREF that one kernel prime
    # reads, are those of the one-column-at-a-time elimination
    pivots, rref = ref.rref_mod_p(rows, p)
    assert linalg.rank_mod_p(rows, p) == len(pivots)
    held_pivots, held = linalg._rref_mod_p(linalg._int_array(rows), p).reduced()
    free = sorted(set(range(len(rows[0]))) - set(pivots))
    assert held_pivots == pivots
    assert np.array_equal(held[:, free], rref)


def test_field_entry_kernel():
    K = field_for_root((QQ(1), QQ(0), QQ(1)), 0)
    one, i = (1, 0), (0, 1)   # power-basis coordinates over Q(i)
    # the second row is i times the first
    assert ref.rank_over_field([[one, i], [i, (-1, 0)]], K, rank_blockwise) == 1
    assert ref.rank_over_field([[one, 0], [0, i]], K, rank_blockwise) == 2
    # a non-integral monic minimal polynomial: t^2 - 1/2, t = sqrt(1/2)
    L = field_for_root((QQ(-1, 2), QQ(0), QQ(1)), 1)
    t = L.generator()
    assert t.num == (0, 1) and (t * t).num == (1, 0) and (t * t).den == 2
    assert ref.rank_over_field([[one, (0, 1)], [(0, 1), (1, 0)]], L,
                               rank_blockwise) == 2
    # row 2 is 2t times row 1: 2t * t = 1
    assert ref.rank_over_field([[one, (0, 1)], [(0, 2), (1, 0)]], L,
                               rank_blockwise) == 1


def test_rational_entry_rank():
    for rows, rank in (([[1, QQ(1, 2)], [2, 1]], 1), ([[QQ(1, 3), 0], [0, 5]], 2)):
        assert ref.rank_over_field(_to_int_rows(rows), RATIONAL_FIELD,
                                   rank_blockwise) == rank


_small_qq = st.fractions(min_value=-4, max_value=4, max_denominator=5).map(
    lambda q: QQ(q.numerator, q.denominator))


def _draw_element(data, field, nonzero=False):
    coords = st.lists(_small_qq, min_size=field.degree, max_size=field.degree)
    if nonzero:
        coords = coords.filter(any)
    return field.element(data.draw(coords))


def _draw_germ(data, field, lead):
    # a nonzero multiple of the monomial ``lead`` plus terms of the next
    # two total degrees, so its tangent cone is ``lead`` itself
    p = sum(lead)
    terms = {lead: _draw_element(data, field, nonzero=True)}
    for s in (p + 1, p + 2):
        for i in range(s + 1):
            terms[(i, s - i)] = _draw_element(data, field)
    return AffinePolynomial(terms)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(1, 3), st.integers(1, 3), st.data())
def test_quotient_dimension_ignores_generator_scaling(field_degree, p, q, data):
    field = (RATIONAL_FIELD if field_degree == 1
             else field_for_root((QQ(1), QQ(0), QQ(1)), 0))   # Q(i)
    gens = [_draw_germ(data, field, (p, 0)), _draw_germ(data, field, (0, q))]
    # tangent cones u^p and v^q share no line: the dimension is p * q
    assert truncated_quotient_dimension(gens, 12) == p * q
    gens.append(_draw_germ(data, field, (1, 1)))
    dim = truncated_quotient_dimension(gens, 12)
    scales = [data.draw(_small_qq.filter(bool)) for _ in gens]
    scaled = [AffinePolynomial({m: c * s for m, c in g.terms.items()})
              for g, s in zip(gens, scales)]
    assert truncated_quotient_dimension(scaled, 12) == dim


def test_quotient_dimension_rejects_common_factor():
    # u (u - v) and u v^2 share the factor u through the origin: the
    # quotient contains C[[v]] and never stabilizes
    gens = [AffinePolynomial({(2, 0): QQ(1), (1, 1): QQ(-1)}),
            AffinePolynomial({(1, 2): QQ(1)})]
    with pytest.raises(NonIsolatedError, match="by degree 12"):
        truncated_quotient_dimension(gens, 12)


def test_quotient_dimension_lifts_rational_field_coefficients():
    # v^3 with a RATIONAL_FIELD coefficient beside u^2 over Q(i): the
    # rational coefficient is a scalar block, as if v^3 were over Q(i)
    K = field_for_root((QQ(1), QQ(0), QQ(1)), 0)
    u2 = AffinePolynomial({(2, 0): K.one()})
    assert truncated_quotient_dimension(
        [u2, AffinePolynomial({(0, 3): RATIONAL_FIELD.one()})], 12) == 6
    assert truncated_quotient_dimension(
        [u2, AffinePolynomial({(0, 3): K.one()})], 12) == 6


def test_quotient_dimension_rejects_two_number_fields():
    K = field_for_root((QQ(1), QQ(0), QQ(1)), 0)    # Q(i)
    L = field_for_root((QQ(-2), QQ(0), QQ(1)), 1)   # Q(sqrt 2)
    gens = [AffinePolynomial({(2, 0): K.generator(), (0, 3): K.one()}),
            AffinePolynomial({(1, 1): L.generator(), (0, 2): L.one(),
                              (3, 0): L.one()})]
    with pytest.raises(QConicError, match="cannot mix elements"):
        truncated_quotient_dimension(gens, 12)


def _exact_levels(generators, cap, field):
    """The oracle: the exact dimension at every level n = 2, 3, ... until
    two consecutive levels agree, by degree ``cap`` at the latest."""
    gens = [g for g in generators if not g.is_zero()]
    terms = [_column_terms(g, field) for g in gens]
    orders = [g.order() for g in gens]
    prev = None
    for n in range(2, cap + 2):
        cur = ref.truncated_dim_at(terms, orders, n, field, rank_blockwise)
        if cur == prev:
            return cur
        prev = cur
    raise NonIsolatedError(
        f"local dimension failed to stabilize by degree {cap}")


def _same_as_oracle(gens, cap, field):
    try:
        expected = _exact_levels(gens, cap, field)
    except NonIsolatedError as exc:
        with pytest.raises(NonIsolatedError, match=f"^{re.escape(str(exc))}$"):
            truncated_quotient_dimension(gens, cap)
        return None
    assert truncated_quotient_dimension(gens, cap) == expected
    return expected


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(2, 3), st.data())
def test_level_search_matches_the_exact_levels(field_degree, low, data):
    field = (RATIONAL_FIELD if field_degree == 1
             else field_for_root((QQ(1), QQ(0), QQ(1)), 0))   # Q(i)
    monomials = [(i, s - i) for s in range(low, 6) for i in range(s + 1)]
    chosen = data.draw(st.lists(st.sampled_from(monomials), min_size=1,
                                max_size=6, unique=True))
    g = AffinePolynomial({m: _draw_element(data, field, nonzero=True)
                          for m in chosen})
    partials, cap = _singular_germ(g)
    _same_as_oracle(partials, cap, field)
    _same_as_oracle([g, *partials], cap, field)


def _contact_germs(g2, k):
    """The germs of the pencil -x^2 + yz + t g2 (t = 0, ..., k - 1) at its
    singular points, one per point in orbit order."""
    arr = pencil_members(Conic((-1, 0, 0, 0, 0, 1)), Conic(g2), range(k))
    germs = []
    for rec in locate_singular_points(arr):
        form = reduce(HomogeneousForm.mul, (arr.conics[m].form()
                                            for m in sorted(rec.incident_conics)))
        germs.append((local_affine_at(form, rec.point, rec.field), rec.field))
    return germs


def _scan_and_oracle(gens, field, top):
    """D_p(n) for n = 2, ..., ``top`` from the growing RREF of the level
    scan, and from one rank mod p of each whole level-n matrix."""
    terms = [_column_terms(g, field) for g in gens]
    orders = [g.order() for g in gens]
    scan = localalg._levels_mod_p(
        localalg._level_blocks(terms, orders, field), field.degree)
    rank_p = partial(ref.rank_mod_p, p=linalg.PRIME)
    return ([next(scan) for _ in range(2, top + 1)],
            [ref.truncated_dim_at(terms, orders, n, field, rank_p)
             for n in range(2, top + 1)])


@pytest.mark.parametrize("g2, k, expected", [
    ((0, 0, 1, 0, 0, 0), 4, [(45, 43)]),           # contact4_k4
    ((0, 0, 0, 0, 1, 0), 4, [(33, 30), (9, 9)]),   # contact3_k4
])
def test_level_search_on_the_contact_germs(g2, k, expected):
    found = []
    for g, field in _contact_germs(g2, k):
        partials, cap = _singular_germ(g)
        values = (_same_as_oracle(partials, cap, field),
                  _same_as_oracle([g, *partials], cap, field))
        found.append(values)
        # the deepest scans stop at L = 23 and 22 (contact4_k4)
        for gens, value in zip((partials, [g, *partials]), values):
            scanned, oracle = _scan_and_oracle(gens, field, 25)
            assert scanned == oracle and scanned[-1] == value
    assert sorted(found, reverse=True) == expected


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1, 2]), st.sampled_from([PRIME, 2, 3]),
       st.integers(2, 3), st.data())
def test_level_scan_is_the_per_level_rank_mod_p(field_degree, p, low, data):
    # every level up to the cap, under the word prime and two small ones
    field = (RATIONAL_FIELD if field_degree == 1
             else field_for_root((QQ(1), QQ(0), QQ(1)), 0))   # Q(i)
    monomials = [(i, s - i) for s in range(low, 6) for i in range(s + 1)]
    chosen = data.draw(st.lists(st.sampled_from(monomials), min_size=1,
                                max_size=6, unique=True))
    g = AffinePolynomial({m: _draw_element(data, field, nonzero=True)
                          for m in chosen})
    partials, cap = _singular_germ(g)
    with mock.patch.object(linalg, "PRIME", p):
        for gens in (partials, [g, *partials]):
            gens = [h for h in gens if not h.is_zero()]
            scanned, oracle = _scan_and_oracle(gens, field, cap + 1)
            assert scanned == oracle


@pytest.mark.parametrize("field_degree", [1, 2])
def test_level_scan_on_a_non_isolated_germ(field_degree):
    # u^2 v (u + c v): the germ and both partials share the factor u, so
    # D grows at every level up to the cap
    field = (RATIONAL_FIELD if field_degree == 1
             else field_for_root((QQ(1), QQ(0), QQ(1)), 0))   # Q(i)
    c = field.generator() if field_degree == 2 else QQ(3)
    g = AffinePolynomial({(3, 1): field.one(), (2, 2): c})
    partials, cap = _singular_germ(g)
    for gens in (partials, [g, *partials]):
        scanned, oracle = _scan_and_oracle(gens, field, cap + 1)
        assert scanned == oracle
        assert all(a < b for a, b in zip(scanned, scanned[1:]))
        with pytest.raises(NonIsolatedError, match=f"by degree {cap}$"):
            truncated_quotient_dimension(gens, cap)


def _blown_up(rows, field):
    """The int rows of a matrix over ``field``: each entry, an int tuple
    of power-basis coordinates or the int 0, as its integral
    multiplication matrix."""
    n = field.degree
    if n == 1:
        return rows
    zero = [[0] * n] * n
    blocks = [[field.integral_multiplication_matrix(c) if c else zero
               for c in row] for row in rows]
    return [[x for block in row for x in block[i]]
            for row in blocks for i in range(n)]


def _germ_levels(data, field_degree, lead):
    """Three drawn generators over Q or Q(i), their field, scaled terms
    and orders, and the first nine exact blocks of their level matrices."""
    field = (RATIONAL_FIELD if field_degree == 1
             else field_for_root((QQ(1), QQ(0), QQ(1)), 0))   # Q(i)
    gens = [_draw_germ(data, field, (lead, 0)), _draw_germ(data, field, (0, 2)),
            _draw_germ(data, field, (1, 1))]
    terms = [_column_terms(g, field) for g in gens]
    orders = [g.order() for g in gens]
    blocks = list(itertools.islice(
        localalg._level_blocks(terms, orders, field), 9))
    return field, terms, orders, blocks


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(1, 3), st.data())
def test_each_level_matrix_leads_the_next(field_degree, lead, data):
    # the stacked blocks of level n, zero-padded, are the whole level-n
    # matrix, built by the oracle, up to the order of its columns: so the
    # columns a level adds vanish on the rows before it, which lets the
    # scan only append rows
    field, terms, orders, blocks = _germ_levels(data, field_degree, lead)
    for n in range(2, 9):
        rows = localalg._level_rows(blocks[:n])
        grown = localalg._level_rows(blocks[:n + 1])
        added = len(grown[0]) - len(rows[0])
        assert [row[added:] for row in grown[:len(rows)]] == rows
        assert not any(x for row in grown[:len(rows)] for x in row[:added])
        oracle, _ = ref.level_matrix(terms, orders, n)
        assert sorted(zip(*rows)) == sorted(zip(*_blown_up(oracle, field)))
        assert (rank_blockwise(rows)
                == field.degree * ref.rank_over_field(oracle, field,
                                                      rank_blockwise))


def _generator_major_matrix(terms, orders, n):
    """The oracle: the level-n matrix with its columns generator-major,
    in (generator, a, b) order, as it was built before the graded order."""
    monomials = [(i, s - i) for s in range(n) for i in range(s, -1, -1)]
    index = {m: r for r, m in enumerate(monomials)}
    shifts = [(gen, a, b) for gen, order in enumerate(orders)
              for a in range(n - order) for b in range(n - order - a)]
    rows = [[0] * len(shifts) for _ in monomials]
    for col, (gen, a, b) in enumerate(shifts):
        for (i, j), c in terms[gen]:
            if i + j + a + b < n:
                rows[index[(i + a, j + b)]][col] = c
    return rows, shifts


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(1, 3), st.data())
def test_graded_columns_keep_the_generator_major_rank(field_degree, lead, data):
    # the stacked columns run by descending start degree a + b + ord h,
    # the degree of a column's first nonzero row, and are a permutation of
    # the generator-major ones: the rank is the same; over Q they are the
    # graded oracle matrix column for column
    field, terms, orders, blocks = _germ_levels(data, field_degree, lead)
    for n in range(2, 9):
        rows = localalg._level_rows(blocks[:n])
        degrees = [d for d in range(n) for _ in range((d + 1) * field.degree)]
        starts = [degrees[next(r for r, x in enumerate(col) if x)]
                  for col in zip(*rows)]
        assert starts == sorted(starts, reverse=True)
        oracle, _ = _generator_major_matrix(terms, orders, n)
        assert sorted(zip(*rows)) == sorted(zip(*_blown_up(oracle, field)))
        assert (rank_blockwise(rows)
                == field.degree * ref.rank_over_field(oracle, field,
                                                      rank_blockwise))
        graded, shifts = ref.level_matrix(terms, orders, n)
        assert [a + b + orders[gen] for gen, a, b in shifts] == starts[::field.degree]
        if field.degree == 1:
            assert rows == graded


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.data())
def test_int_rows_skip_the_denominator_scaling(nrows, ncols, data):
    # int rows with a common factor go to the elimination unscaled; the
    # same rows as rationals over a denominator, scaled to ints, have the
    # same rank
    ints = st.integers(min_value=-6, max_value=6)
    rows = [[data.draw(ints) * k for _ in range(ncols)]
            for k in data.draw(st.lists(st.integers(1, 12), min_size=nrows,
                                        max_size=nrows))]
    scaled = mock.Mock(wraps=linalg._to_int_rows)
    with mock.patch.object(linalg, "_to_int_rows", scaled):
        rank = rank_blockwise(rows)
        assert not scaled.called
    assert rank_blockwise(_to_int_rows(
        [[QQ(v, 5) for v in row] for row in rows])) == rank
    assert rank == _int_echelon(_to_int_rows(rows))[0]


def _unlucky_levels(reported):
    """Patch the scan's D_p(n) by ``reported(real D_p(n), n)``."""
    real = localalg._levels_mod_p
    return mock.patch.object(localalg, "_levels_mod_p", lambda *args: (
        reported(dim, n) for n, dim in enumerate(real(*args), 2)))


# each makes D_p(n) >= D(n) at every level, as a prime may, given the
# final dimension ``value``; "under by one" is a rank mod p one short of
# the real one (the germs are over Q), at most the n(n + 1)/2 monomials,
# and "flat" reads ``value`` from level 2 on, so the scan stops at once
# with an exact level far below it
UNLUCKY = {
    "under by one": lambda value: _unlucky_levels(
        lambda dim, n: min(dim + 1, n * (n + 1) // 2)),
    "flat": lambda value: _unlucky_levels(lambda dim, n: max(dim, value)),
    # 2 divides g_v = 2v of u^3 + v^2, 3 divides g_u = 3u^2
    "p = 2": lambda value: mock.patch.object(linalg, "PRIME", 2),
    "p = 3": lambda value: mock.patch.object(linalg, "PRIME", 3),
}


@pytest.mark.parametrize("unlucky", UNLUCKY.values(), ids=UNLUCKY)
def test_unlucky_prime_costs_time_never_the_answer(unlucky):
    germs = [(AffinePolynomial({(3, 0): QQ(1), (0, 2): QQ(1)}), (2, 2)),
             *zip((g for g, _ in _contact_germs((0, 0, 1, 0, 0, 0), 3)),
                  [(22, 21)])]
    cases = []
    for g, (mu, tau) in germs:
        partials, cap = _singular_germ(g)
        cases += [(partials, cap, mu), ([g, *partials], cap, tau)]
    exact = mock.Mock(wraps=rank_blockwise)
    with mock.patch.object(linalg, "rank_blockwise", exact):
        for gens, cap, value in cases:
            with unlucky(value):
                assert truncated_quotient_dimension(gens, cap) == value
        # a good prime ranks one exact level per call: the fallback ran
        assert exact.call_count > len(cases)
        for value in (1, 3):
            with unlucky(value):
                with pytest.raises(NonIsolatedError, match="by degree 12"):
                    truncated_quotient_dimension(
                        [AffinePolynomial({(2, 0): QQ(1), (1, 1): QQ(-1)}),
                         AffinePolynomial({(1, 2): QQ(1)})], 12)
                with pytest.raises(NonIsolatedError, match="by degree 6"):
                    local_milnor_number(AffinePolynomial({(2, 1): QQ(1)}))


def _deep_germs():
    """Germs whose scaled coefficients pass 2^63, with their (mu, tau):
    the tacnode u^4 + (10^20 + u) v^2, and u^4 + v^5 + c u^2 v^3 with
    c = 10^20 + 1 over Q and c = (10^20 + 1) i over Q(i).  Each partial
    keeps two terms, so the stripped content leaves the large one."""
    K = field_for_root((QQ(1), QQ(0), QQ(1)), 0)   # Q(i)
    c = 10 ** 20 + 1
    return [
        (AffinePolynomial({(4, 0): QQ(1), (0, 2): QQ(10 ** 20), (1, 2): QQ(1)}),
         RATIONAL_FIELD, (3, 3)),
        (AffinePolynomial({(4, 0): QQ(1), (0, 5): QQ(1), (2, 3): QQ(c)}),
         RATIONAL_FIELD, (12, 11)),
        (AffinePolynomial({(4, 0): K.one(), (0, 5): K.one(),
                           (2, 3): K.generator() * K.rational(QQ(c))}),
         K, (12, 11)),
    ]


@pytest.mark.parametrize("g, field, expected", _deep_germs())
def test_entries_beyond_int64_stack_object_blocks(g, field, expected):
    # the blocks hold Python ints, and so do the exact levels; mod 2 the
    # partials of each germ share the factor v, so the scan runs to the
    # cap and the exact fallback stacks the object blocks
    partials, cap = _singular_germ(g)
    cases = list(zip((partials, [g, *partials]), expected))
    for gens, value in cases:
        terms = [_column_terms(h, field) for h in gens]
        blocks = localalg._level_blocks(terms, [h.order() for h in gens], field)
        assert next(blocks).dtype == object
        assert _exact_levels(gens, cap, field) == value
        assert truncated_quotient_dimension(gens, cap) == value
    exact = mock.Mock(wraps=rank_blockwise)
    with mock.patch.object(linalg, "rank_blockwise", exact), \
            mock.patch.object(linalg, "PRIME", 2):
        for gens, value in cases:
            assert truncated_quotient_dimension(gens, cap) == value
    assert exact.call_count > len(cases)
