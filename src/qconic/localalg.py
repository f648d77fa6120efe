"""Local algebra dimensions by truncated linear algebra.

The dimension of C[[u, v]]/(h_1, ..., h_r) (each h_i of positive order) is
computed as the stabilized value of

    D(N) = dim P_{<N} - dim span{ trunc_{<N}(u^a v^b h_i) : a+b <= N-1 }

where P_{<N} is the space of polynomials of total degree < N.  Because
every generator has positive order, the span equals the degree-<N
truncation of the full ideal, so D(N) = dim O/(I + m^N); once two
consecutive values agree, I + m^N = I + m^(N+1) forces m^N into I
(Nakayama), so the value is exact from then on.  A hard cap turns
non-isolated singularities into an error instead of a loop.

Only one level is ranked exactly when the prime is good.  D is
nondecreasing in N, as O/(I + m^(N+1)) maps onto O/(I + m^N), and its
count with ranks mod the word prime ``linalg.PRIME``, D_p(N), is an upper
bound on it: a rank mod p is at most the rank over Q.  The levels are
scanned mod p, N = 2, 3, ..., to the first L with D_p(L) = D_p(L + 1); an
exact D(L) equal to D_p(L + 1) then pins D(L + 1) between them, so two
consecutive exact levels agree.  When they differ (an unlucky prime, or a
germ that is not isolated) the exact levels go on from L + 1, so the
answer never rests on the prime; see :func:`truncated_quotient_dimension`.
The scan runs upward from N = 2: a bisection from the cap would rank
levels near (deg g - 1)^2, far above the level a germ needs.

The scan eliminates once per germ, not once per level, because the
truncations nest as they do for standard bases in a local ordering
(Greuel-Pfister, *A Singular Introduction to Commutative Algebra*): the
image of the ideal in P_{<N} grows one degree at a time.
Order the rows of the level-N matrix by degree, and give each shift
u^a v^b h its column.  Every entry of that column has degree at least
a + b + ord h, so the columns that level N + 1 adds (a + b + ord h = N)
vanish on the rows of degree < N, and the level-N matrix is the leading
block of the level-(N + 1) one:

    M_{N+1} = [[M_N, 0], [B_N, C_N]],   rows of B_N, C_N: degree N.

So going up a level only appends the degree-N rows, and one RREF mod p
(:class:`linalg.GrowingRREF`) takes them: one matrix product reduces them
against the rows it holds, Gauss-Jordan over the remainder's N + 1 rows
(times the field degree) finds the new pivots, and one more product
clears those from the old rows.  Residues are below 2^20, so each product
of two is below 2^40, and the row sums, of fewer than 2^23 products,
stay below 2^63 in int64.  A rank mod p does not depend on the order of
elimination, so D_p(N) is what a fresh elimination of M_N mod p gives:
the test oracle ranks each whole level by another eliminator mod p.

The exact level is built with its columns in a graded order: by
descending start degree a + b + ord h, then by generator and a.  The
fraction-free elimination of :func:`linalg.rank_blockwise` takes its
columns from the left, so it first eliminates the shifts whose entries
lie only in the top-degree rows, where the lowest forms of the
generators sit, before the columns that reach down to the low degrees.
A permutation of the columns leaves the rank alone, so L, D(L) and every
answer are those of the generator-major order the tests keep as the
oracle.  That the entries stay smaller in this order is measured, not
proven: on the ``contact`` germs the largest entry of a reduced row
falls from 33-61 bits to 19-44 bits, and the exact level takes about
half the time.

Each generator's coefficients are scaled to integers once, before the
first level: a generator times a nonzero rational generates the same
ideal, and scaling a column leaves the rank alone.  Over Q the matrices
reach :mod:`qconic.linalg` as ints.  Over a number field a coefficient
becomes an int vector of power-basis coordinates, and the matrix is blown
up entry-wise into integral multiplication matrices (one per distinct
entry, each a fixed positive multiple of the rational one): the rational
rank is exactly (field degree) times the field rank, so the fast integer
elimination path serves both, and no rational matrix is built; a block
is an int64 array, or an object array of Python ints when an entry does
not fit.  Mod p the blown-up rank need not be a multiple of the degree;
its floor quotient is still at most the field rank, which keeps D_p(N)
an upper bound.

:func:`local_affine_at` moves a point of a form to the origin once, and
the Milnor and Tjurina numbers both take that germ g, with the truncation
cap (deg g - 1)^2 + 2 (an isolated singularity of a degree-d curve has
mu <= (d - 1)^2 by Bezout on the partials, and tau <= mu) and the field
degree read from its coefficients.  :mod:`qconic.singular` passes the
germ of the conics through the point only: both numbers are invariant
under multiplying the equation by a unit (contact invariance), so the
whole curve, kept as a test oracle, gives the same numbers.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm

import numpy as np

from .rationals import QQ
from .errors import NonIsolatedError, NotSingularError, QConicError
from .multipoly import AffinePolynomial
from .numberfield import RATIONAL_FIELD, FieldElement, _mixed_fields
from . import linalg


def truncated_quotient_dimension(generators, cap: int) -> int:
    """Stabilized dimension of the local quotient by ``generators``.

    Every generator must have order >= 1 (vanish at the origin), and all
    coefficients outside Q must lie in one field (as for FieldElement
    arithmetic), whose degree sizes the blown-up matrices; raises
    NonIsolatedError when no two consecutive levels agree by degree ``cap``.

    Write D(n) = dim O/(I + m^n) and D_p(n) for the same count with the
    rank mod ``linalg.PRIME``.  D is nondecreasing in n, and D(n) <= D_p(n)
    because a rank mod p is at most the rank over Q.  The levels n = 2, 3,
    ... are scanned mod p up to the first L with D_p(L) = D_p(L + 1), or up
    to L = cap, and only level L is ranked exactly.  The scan feeds one
    RREF mod p the exact blocks of :func:`_level_blocks`, one degree a
    level: the level-n matrix is the leading block of the level-(n + 1)
    one, whose new columns vanish on the old rows, and residues below
    2^20 keep every row sum of the int64 products below 2^63 (module
    docstring).  The exact blocks are kept, and exact level n ranks the
    first n of them, stacked by :func:`_level_rows`, by
    :func:`linalg.rank_blockwise`; the RREF is dropped first.  If
    D(L) = D_p(L + 1), then D(L) <= D(L + 1) <= D_p(L + 1) = D(L), so two
    consecutive exact levels agree and D(L) is the dimension (module
    docstring).  Otherwise the prime was unlucky, or the germ is not
    isolated, and the exact levels go on from L + 1 up to the cap: a bad
    prime costs time, never the answer.  Two consecutive exact levels that
    agree stay equal above them, so starting the exact levels at L rather
    than at 2 changes neither the value nor the level at which a
    non-isolated germ fails.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise NonIsolatedError("zero ideal is never zero-dimensional")
    orders = [g.order() for g in gens]
    if min(orders) < 1:
        raise ValueError("generators must vanish at the origin")
    extension = [c for g in gens for c in g.terms.values()
                 if isinstance(c, FieldElement) and c.field.degree > 1]
    other = next((c for c in extension if c.field != extension[0].field), None)
    if other is not None:
        raise _mixed_fields(extension[0], other)
    field = extension[0].field if extension else RATIONAL_FIELD
    terms = [_column_terms(g, field) for g in gens]
    degree = field.degree
    blocks, kept = _level_blocks(terms, orders, field), []

    def block(s):
        # the exact degree-s block, built once and kept for the exact levels
        while len(kept) <= s:
            kept.append(next(blocks))
        return kept[s]

    def exact(n):
        rows = _level_rows([block(s) for s in range(n)])
        rank = linalg.rank_blockwise(rows)
        if rank % degree:
            raise QConicError("blown-up rank not divisible by field degree")
        return len(rows) // degree - rank // degree

    scan = _levels_mod_p(map(block, itertools.count()), degree)
    level, below, upper = 2, next(scan), next(scan)
    while below != upper and level < cap:
        level, below, upper = level + 1, upper, next(scan)
    scan.close()  # frees the RREF before the exact level is built
    prev = exact(level)
    if prev == upper:
        return prev
    for n in range(level + 1, cap + 2):
        cur = exact(n)
        if cur == prev:
            return cur
        prev = cur
    raise NonIsolatedError(
        f"local dimension failed to stabilize by degree {cap}")


def _column_terms(g, field):
    """The (monomial, coefficient) pairs of ``g`` placed in the matrix.

    ``g`` is scaled once by a positive rational, to coprime integers: it
    generates the same ideal.  So the coefficients are ints over Q, and
    int tuples of power-basis coordinates over an extension.
    """
    n = field.degree
    parts = []
    for c in g.terms.values():
        if isinstance(c, FieldElement):
            # a rational element lifts to every field
            parts.append((c.num + (0,) * (n - len(c.num)), c.den))
        else:
            q = QQ(c)
            parts.append(((int(q.numerator),) + (0,) * (n - 1), int(q.denominator)))
    mult = lcm(*(d for _, d in parts))
    ints = [[a * (mult // d) for a in num] for num, d in parts]
    content = gcd(*(a for num in ints for a in num))
    if n == 1:
        coeffs = [num[0] // content for num in ints]
    else:
        coeffs = [tuple(a // content for a in num) for num in ints]
    return list(zip(g.terms, coeffs))


def _level_blocks(terms, orders, field):
    """The exact degree-s rows of the level matrices, s = 0, 1, ...

    Block s has a column for each shift u^a v^b h of start degree
    a + b + ord h <= s, in the order the shifts enter: by ascending start
    degree, then by descending generator and a.  The degree-s monomial
    u^i v^(s - i) is its row s - i.  Over a number field each entry is
    its integral multiplication matrix
    (:meth:`NumberField.integral_multiplication_matrix`, a fixed positive
    multiple of the rational one), so the rank of the blown-up blocks is
    (field degree) times the field rank.  The dtype is int64, or object
    when an entry does not fit (:func:`linalg._int_array`).
    """
    n = field.degree
    index = {}  # each distinct coefficient's n x n block in ``table``
    # per generator: its terms grouped by degree, as (i, block index)
    by_degree = []
    for g_terms in terms:
        grouped = {}
        for (i, j), c in g_terms:
            k = index.setdefault(c, len(index))
            grouped.setdefault(i + j, []).append((i, k))
        by_degree.append(sorted(grouped.items()))
    table = linalg._int_array(
        [[[c]] if n == 1 else field.integral_multiplication_matrix(c)
         for c in index])
    columns = {}
    for s in itertools.count():
        # the shifts with a + b + ord h = s enter with the degree-s rows,
        # in the reverse of the exact level's order (:func:`_level_rows`)
        for gen, order in reversed(list(enumerate(orders))):
            for a in range(s - order, -1, -1):
                columns[(gen, a, s - order - a)] = len(columns)
        at_row, at_col, at = [], [], []
        for gen, grouped in enumerate(by_degree):
            for e, g_terms in grouped:
                if e > s:
                    break
                for a in range(s - e + 1):
                    col = columns[(gen, a, s - e - a)]
                    for i, k in g_terms:
                        at_row.append(s - i - a)
                        at_col.append(col)
                        at.append(k)
        block = np.zeros((s + 1, n, len(columns), n), dtype=table.dtype)
        if at:
            block[at_row, :, at_col, :] = table[at]
        yield block.reshape((s + 1) * n, len(columns) * n)


def _levels_mod_p(blocks, degree):
    """D_p(n) for n = 2, 3, ..., by one growing RREF mod ``linalg.PRIME``.

    ``blocks`` are the exact blocks of :func:`_level_blocks`, over a field
    of degree ``degree``.  Going from level n to n + 1 appends the rows of
    degree n and the columns of the shifts of start degree n, which vanish
    on the old rows (module docstring).  So each level adds one block,
    reduced mod p, to a :class:`linalg.GrowingRREF`, and D_p(n) is read
    off its rank.
    """
    p = linalg.PRIME
    echelon = linalg.GrowingRREF(p)
    for s, block in enumerate(blocks):
        rank = echelon.add_rows((block % p).astype(np.int64, copy=False))
        if s:
            yield (s + 1) * (s + 2) // 2 - rank // degree


def _level_rows(blocks):
    """The exact level-n matrix, as int rows, from the first n blocks of
    :func:`_level_blocks`: stacked, zero-padded on the right, with the
    columns reversed.

    The reversed columns run by descending start degree a + b + ord h,
    then by generator and a: the graded order of the module docstring, so
    the fraction-free elimination first eliminates the columns that touch
    only the top-degree rows.  That this keeps its entries smaller is
    measured, not proven, and the rank is that of any column order."""
    width = blocks[-1].shape[1]
    return [[0] * (width - block.shape[1]) + row[::-1]
            for block in blocks for row in block.tolist()]


# ------------------------------------------------------- curve-level helpers

def local_affine_at(form, point, field) -> AffinePolynomial:
    """Dehomogenize at the chart where the normalized point has coordinate 1
    and translate that point to the origin; coefficients live in ``field``."""
    chart = max(i for i in range(3) if point[i])
    if point[chart] != field.one():
        raise ValueError("point must be normalized (last nonzero coordinate 1)")
    affine = form.dehomogenize(chart)
    keep = [v for v in range(3) if v != chart]
    a, b = point[keep[0]], point[keep[1]]
    lifted = AffinePolynomial({m: field.rational(c) for m, c in affine.terms.items()})
    return lifted.translate(a, b)


def local_milnor_number(g: AffinePolynomial) -> int:
    """Dimension of C[[u, v]]/(g_u, g_v) for a singular germ ``g`` at the
    origin (from :func:`local_affine_at`)."""
    partials, cap = _singular_germ(g)
    return truncated_quotient_dimension(partials, cap)


def local_tjurina_number(g: AffinePolynomial) -> int:
    """Dimension of C[[u, v]]/(g, g_u, g_v) for a singular germ ``g`` at
    the origin (from :func:`local_affine_at`)."""
    partials, cap = _singular_germ(g)
    return truncated_quotient_dimension([g, *partials], cap)


def _singular_germ(g):
    """The partials [g_u, g_v] of a germ singular at the origin, and its
    truncation cap (see the module docstring)."""
    if g.is_zero():
        raise NonIsolatedError("curve contains the whole chart line")
    if g.order() == 0:
        raise NotSingularError("point does not lie on the curve")
    partials = [g.derivative(0), g.derivative(1)]
    if any(p.order() == 0 for p in partials):
        raise NotSingularError("point is a smooth point of the curve")
    return partials, (max(map(sum, g.terms)) - 1) ** 2 + 2
