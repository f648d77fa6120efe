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

Over Q each generator's coefficients are scaled to coprime ints once,
before the first level: a generator times a nonzero rational generates the
same ideal, and scaling a column leaves the rank alone, so the matrices
reach :mod:`qconic.linalg` as ints.  Matrices over a number field are
blown up entry-wise into multiplication matrices over the rationals (one
per distinct entry): the rational rank is exactly (field degree) times the
field rank, so the fast integer elimination path serves both.

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

from .rationals import clear_denominators
from .errors import NonIsolatedError, NotSingularError, QConicError
from .multipoly import AffinePolynomial
from .numberfield import FieldElement, _mixed_fields, multiplication_matrix
from . import linalg


def _rank_over_field(rows, field_degree: int) -> int:
    """Exact rank of a matrix with FieldElement (or rational) entries.

    Over Q (``field_degree`` 1) the entries must already be ints or
    rationals.  Otherwise each distinct entry is blown up into its
    multiplication matrix once per call.
    """
    if not rows or not rows[0]:
        return 0
    if field_degree == 1:
        return linalg.rank_blockwise(rows)
    blocks = {}
    blown = []
    for row in rows:
        row_blocks = []
        for c in row:
            key = c.coords if isinstance(c, FieldElement) else c
            block = blocks.get(key)
            if block is None:
                block = blocks[key] = _multiplication_block(c, field_degree)
            row_blocks.append(block)
        for i in range(field_degree):
            blown.append([x for block in row_blocks for x in block[i]])
    big_rank = linalg.rank_blockwise(blown)
    if big_rank % field_degree:
        raise QConicError("blown-up rank not divisible by field degree")
    return big_rank // field_degree


def _multiplication_block(c, field_degree: int):
    if isinstance(c, FieldElement):
        if c.field.degree > 1:
            return multiplication_matrix(c)
        c = c.coords[0]  # a rational scalar lifts to every field
    return [[c if i == j else 0 for j in range(field_degree)]
            for i in range(field_degree)]


def truncated_quotient_dimension(generators, cap: int) -> int:
    """Stabilized dimension of the local quotient by ``generators``.

    Every generator must have order >= 1 (vanish at the origin), and all
    coefficients outside Q must lie in one field (as for FieldElement
    arithmetic), whose degree sizes the blown-up matrices; raises
    NonIsolatedError when no two consecutive levels agree by degree ``cap``.
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
    field_degree = extension[0].field.degree if extension else 1
    terms = [_column_terms(g, field_degree) for g in gens]

    prev = None
    n = 2
    while n <= cap + 1:
        cur = _truncated_dim_at(terms, orders, n, field_degree)
        if prev is not None and cur == prev:
            return cur
        prev = cur
        n += 1
    raise NonIsolatedError(
        f"local dimension failed to stabilize by degree {cap}")


def _column_terms(g, field_degree: int):
    """The (monomial, coefficient) pairs of ``g`` placed in the matrix.

    Over Q the coefficients are scaled to coprime ints once: ``g`` times a
    nonzero rational generates the same ideal.
    """
    if field_degree > 1:
        return list(g.terms.items())
    ints, _ = clear_denominators([c.coords[0] if isinstance(c, FieldElement) else c
                                  for c in g.terms.values()])
    return list(zip(g.terms, ints))


def _truncated_dim_at(terms, orders, n: int, field_degree: int) -> int:
    monomials = [(i, j) for s in range(n) for i in range(s, -1, -1)
                 for j in (s - i,)]
    index = {m: r for r, m in enumerate(monomials)}
    columns = []
    for g_terms, order in zip(terms, orders):
        for a in range(n - order):
            for b in range(n - order - a):
                col = [0] * len(monomials)
                nonzero = False
                for (i, j), c in g_terms:
                    ii, jj = i + a, j + b
                    if ii + jj < n:
                        col[index[(ii, jj)]] = c
                        nonzero = True
                if nonzero:
                    columns.append(col)
    if not columns:
        return len(monomials)
    rows = [list(row) for row in zip(*columns)]
    return len(monomials) - _rank_over_field(rows, field_degree)


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
