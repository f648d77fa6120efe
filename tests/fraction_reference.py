"""Rational-arithmetic references for the int sign and enclosure paths.

Each function is the ``QQ`` route that the int kernels of
:mod:`qconic.unipoly`, :mod:`qconic.roots` and :mod:`qconic.intervals`
replaced, kept as a test oracle: the int paths must return the very same
intervals, boxes and rationals.  The complex box products and sums of
:func:`box_horner` live here only: no library code multiplies or adds
boxes.  :func:`int_echelon_full_width` is the fraction-free elimination
of :mod:`qconic.linalg` as it was before each row update was cut to the
entries from the pivot column on, and :func:`kernel_basis_rational` the
exact kernel by that elimination, which the certified multi-prime kernel
``linalg.kernel_basis_blockwise`` replaced for every caller.
:func:`tjurina_at` is dim M(f)_t by that elimination's rank, the exact last
rung that the certified kernel replaced in ``freeness.global_tjurina``.
:func:`echelon_mod_p` is the one-column-at-a-time elimination mod p that
``linalg.GrowingRREF`` fed in row blocks replaced, in ``linalg.rank_mod_p``
and in each prime of the certified kernel.  :func:`level_matrix`,
:func:`rank_over_field` and :func:`truncated_dim_at` build and rank each
level-n matrix of ``localalg.truncated_quotient_dimension`` whole, with
the number-field entries blown up per call: the exact levels before they
were stacked from the blocks of ``localalg._level_blocks``.
:func:`sturm_chain` is the chain by remainders over ``QQ`` that
``unipoly.sturm_chain`` replaced by pseudo-remainders on ints.
:func:`bisection` steps :func:`refine_root_interval` on ``QQ`` endpoints,
the oracle of ``unipoly.bisection``; :func:`real_root_boxes` is the real
part of ``roots.isolate_all_roots`` as it was built from those steps, and
:func:`tighten_real` the disc loop it ran after them, which never moves a
real box.  :func:`enclosure_walk` is ``FieldElement.enclosure`` before it
skipped the levels its slope bound proves too wide: one evaluation per
level.
"""

import math

import numpy as np

from qconic.rationals import QQ, sqrt_upper
from qconic.intervals import Box, evaluate_poly_on_box
from qconic import unipoly as up
from qconic import linalg
from qconic.errors import QConicError
from qconic.linalg import _int_echelon, _strip_row, _to_int_rows
from qconic.freeness import jacobian_matrix, _int_partials
from qconic.multipoly import monomial_count


def q_eval(p, x):
    """p(x) by Horner over QQ."""
    acc = QQ(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _sign_changes(values):
    signs = [1 if v > 0 else -1 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(chain, a, b):
    return (_sign_changes(q_eval(f, a) for f in chain)
            - _sign_changes(q_eval(f, b) for f in chain))


def sturm_chain(p):
    """The Sturm chain p, p', -rem(p, p'), ... over QQ."""
    chain = [list(p), up.derivative(p)]
    while chain[-1]:
        chain.append([-c for c in up.rem(chain[-2], chain[-1])])
    chain.pop()
    return chain


def isolate_real_roots(p):
    if up.degree(p) < 1:
        return []
    chain = sturm_chain(p)
    bound = up.root_bound(p)
    out = []
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        n = sturm_count(chain, lo, hi)
        if n == 0:
            continue
        if n == 1:
            if not q_eval(p, hi):
                out.append((hi, hi))
                continue
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if not q_eval(p, mid):
            out.append((mid, mid))
            delta = (hi - lo) / 4
            while sturm_count(chain, mid - delta, mid + delta) != 1:
                delta /= 2
            stack.append((lo, mid - delta))
            stack.append((mid + delta, hi))
        else:
            stack.append((lo, mid))
            stack.append((mid, hi))
    return sorted(out)


def refine_root_interval(p, lo, hi):
    if lo == hi:
        return lo, hi
    at_lo = q_eval(p, lo)
    if not at_lo:
        raise ValueError("lower endpoint of an isolating interval is a root")
    mid = (lo + hi) / 2
    at_mid = q_eval(p, mid)
    if not at_mid:
        return mid, mid
    if (at_lo > 0) != (at_mid > 0):
        return lo, mid
    return mid, hi


def rational_roots(p):
    if up.degree(p) < 1:
        return []
    ints = up.primitive_integer(up.squarefree_part(p))
    bden = abs(ints[-1])
    sfz = up.from_coeffs(ints)
    width = QQ(1, bden)
    roots = []
    for lo, hi in isolate_real_roots(sfz):
        while hi - lo >= width:
            lo, hi = refine_root_interval(sfz, lo, hi)
        if lo == hi:
            roots.append(lo)
            continue
        cand = QQ(bden * hi.numerator // hi.denominator, bden)
        if lo < cand and not q_eval(sfz, cand):
            roots.append(cand)
    return sorted(roots)


def bisection(ints, lo, hi):
    """``unipoly.bisection`` by one :func:`refine_root_interval` per step:
    the same intervals, each over its own least common denominator."""
    lo, hi = QQ(lo), QQ(hi)
    while True:
        d = math.lcm(lo.denominator, hi.denominator)
        yield lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator), d
        lo, hi = refine_root_interval(ints, lo, hi)


def real_root_boxes(p):
    """The real boxes of ``roots.isolate_all_roots`` before its int
    bisection: Sturm intervals, neighbours refined together by
    :func:`refine_root_interval` until strictly apart, then each refined
    to width at most 1/16."""
    ivs = [list(iv) for iv in isolate_real_roots(p)]
    for a, b in zip(ivs, ivs[1:]):
        while a[1] >= b[0]:
            a[0], a[1] = refine_root_interval(p, a[0], a[1])
            b[0], b[1] = refine_root_interval(p, b[0], b[1])
    boxes = []
    for lo, hi in ivs:
        while hi - lo > QQ(1, 16):
            lo, hi = refine_root_interval(p, lo, hi)
        boxes.append(Box.real_interval(lo, hi))
    return boxes


def tighten_real(p, real_boxes, discs):
    """The loop ``roots.isolate_all_roots`` ran on the real boxes after
    the discs certified: shrink each until disjoint from every disc (None
    when a disc sits on a real root)."""
    out = []
    for box in real_boxes:
        lo, hi = box.re_lo, box.re_hi
        guard = 0
        while any(not box.disjoint(d) for d in discs):
            if lo == hi or guard > 4000:
                return None
            lo, hi = refine_root_interval(p, lo, hi)
            box = Box.real_interval(lo, hi)
            guard += 1
        out.append(box)
    return out


def enclosure_walk(element, max_width):
    """``FieldElement.enclosure`` as a walk evaluating every level from 0
    up to the first one narrow enough."""
    for level in range(257):
        box = evaluate_poly_on_box(element.num, element.field.root_box(level),
                                   element.den)
        if box.width() <= QQ(max_width):
            return box
    raise QConicError(f"enclosure of width {max_width} not reached")


def _cx_eval(p, c):
    acc = (QQ(0), QQ(0))
    for coeff in reversed(p):
        acc = (acc[0] * c[0] - acc[1] * c[1] + coeff, acc[0] * c[1] + acc[1] * c[0])
    return acc


def nearest_root_radius(p, dp, n, c):
    pv, dv = _cx_eval(p, c), _cx_eval(dp, c)
    num = pv[0] * pv[0] + pv[1] * pv[1]
    den = dv[0] * dv[0] + dv[1] * dv[1]
    if not den:
        return None
    if not num:
        return QQ(0)
    return n * sqrt_upper(num / den)


def _corners(a_lo, a_hi, b_lo, b_hi):
    prods = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
    return min(prods), max(prods)


def box_mul(x, y):
    """(a+bi)(c+di) = (ac - bd) + (ad + bc)i on boxes, bounded corner-wise."""
    ac = _corners(x.re_lo, x.re_hi, y.re_lo, y.re_hi)
    bd = _corners(x.im_lo, x.im_hi, y.im_lo, y.im_hi)
    ad = _corners(x.re_lo, x.re_hi, y.im_lo, y.im_hi)
    bc = _corners(x.im_lo, x.im_hi, y.re_lo, y.re_hi)
    return Box(ac[0] - bd[1], ac[1] - bd[0], ad[0] + bc[0], ad[1] + bc[1])


def box_add(x, y):
    return Box(x.re_lo + y.re_lo, x.re_hi + y.re_hi,
               x.im_lo + y.im_lo, x.im_hi + y.im_hi)


def box_horner(coeffs, box, den=1):
    """Horner in complex Box arithmetic, the coefficients divided by den."""
    acc = Box.point(0)
    for c in reversed(list(coeffs)):
        acc = box_add(box_mul(acc, box), Box.point(QQ(c) / den))
    return acc


def int_echelon_full_width(rows):
    """``linalg._int_echelon`` with every row update over the full width."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    echelon = []
    piv_cols = []
    active = [r for r in rows if any(r)]
    for col in range(ncols):
        best = None
        for idx, r in enumerate(active):
            if r[col]:
                if best is None or abs(r[col]) < abs(active[best][col]):
                    best = idx
        if best is None:
            continue
        piv = _strip_row(active.pop(best))
        pval = piv[col]
        nxt = []
        for r in active:
            v = r[col]
            if v:
                g = math.gcd(abs(pval), abs(v))
                a, b = pval // g, v // g
                r = _strip_row([a * x - b * y for x, y in zip(r, piv)])
                if not any(r):
                    continue
            nxt.append(r)
        active = nxt
        echelon.append(piv)
        piv_cols.append(col)
    return len(piv_cols), piv_cols, echelon


def kernel_basis_rational(rows):
    int_rows = _to_int_rows(rows)
    ncols = len(int_rows[0])
    _, piv_cols, echelon = _int_echelon(int_rows)
    free_cols = [c for c in range(ncols) if c not in set(piv_cols)]
    basis = []
    for fc in free_cols:
        v = [QQ(0)] * ncols
        v[fc] = QQ(1)
        # echelon rows are in increasing pivot-column order; solve bottom-up
        for i in range(len(echelon) - 1, -1, -1):
            row = echelon[i]
            pc = piv_cols[i]
            s = QQ(0)
            for c in range(pc + 1, ncols):
                if row[c] and v[c]:
                    s += QQ(row[c]) * v[c]
            v[pc] = -s / row[pc]
        basis.append(tuple(v))
    return basis


def tjurina_at(form, t):
    """dim M(f)_t = dim S_t - rank M_{t-d+1} for the form f, the rank by
    :func:`int_echelon_full_width` (M_s is empty for s < 0)."""
    rows = jacobian_matrix(_int_partials(form), t - form.degree + 1)
    return monomial_count(t) - int_echelon_full_width(rows)[0]


def echelon_mod_p(m, p: int) -> list:
    """Row-reduce the int64 residues ``m`` mod ``p`` in place to echelon
    form with unit pivots; return the pivot columns."""
    nrows, ncols = m.shape
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nz = np.flatnonzero(m[r:, col])
        if nz.size == 0:
            continue
        if nz[0]:
            m[[r, r + nz[0]]] = m[[r + nz[0], r]]
        # rows r and below vanish left of col, so only col: changes
        m[r, col:] = m[r, col:] * pow(int(m[r, col]), -1, p) % p
        below = r + nz[1:]
        if below.size:
            m[below, col:] = (m[below, col:]
                              - m[below, col, None] * m[r, col:]) % p
        pivots.append(col)
    return pivots


def _residues(rows, p):
    return (np.array(rows, dtype=object) % p).astype(np.int64)


def rank_mod_p(rows, p):
    """The rank of the int matrix ``rows`` mod ``p``, by :func:`echelon_mod_p`."""
    return len(echelon_mod_p(_residues(rows, p), p)) if rows else 0


def rref_mod_p(rows, p):
    """The pivot columns of the int matrix ``rows`` mod ``p`` and its RREF
    at the free columns, by :func:`echelon_mod_p` and the back-substitution
    through the unit upper triangular pivot block that the certified
    kernel ran on each prime."""
    m = _residues(rows, p)
    pivots = echelon_mod_p(m, p)
    free = sorted(set(range(m.shape[1])) - set(pivots))
    rref = m[:len(pivots)][:, free]
    for i in range(len(pivots) - 2, -1, -1):
        rref[i] = (rref[i] - m[i, pivots[i + 1:]] @ rref[i + 1:]) % p
    return pivots, rref


def rank_over_field(rows, field, rank) -> int:
    """Rank of a matrix over ``field`` by the int rank function ``rank``.

    ``rank`` is :func:`linalg.rank_blockwise`, the exact rank, or, as the
    oracle of ``localalg._levels_mod_p``, a rank mod a prime, a lower
    bound on it.  Both take int rows.  Over Q (degree 1) the entries are
    ints.  Otherwise each entry is an int tuple of power-basis coordinates
    (or the int 0), and each distinct entry is blown up once per call into
    its integral multiplication matrix: a fixed positive multiple of the
    rational one (:meth:`NumberField.integral_multiplication_matrix`), so
    the blown-up matrix is integral and its exact rank is (field degree)
    times the field rank.  The floor of a lower bound divided by the degree is a
    lower bound on the field rank.
    """
    if not rows or not rows[0]:
        return 0
    n = field.degree
    if n == 1:
        return rank(rows)
    blocks = {0: [[0] * n for _ in range(n)]}
    blown = []
    for row in rows:
        row_blocks = []
        for c in row:
            block = blocks.get(c)
            if block is None:
                block = blocks[c] = field.integral_multiplication_matrix(c)
            row_blocks.append(block)
        for i in range(n):
            blown.append([x for block in row_blocks for x in block[i]])
    big_rank = rank(blown)
    if rank is linalg.rank_blockwise and big_rank % n:
        raise QConicError("blown-up rank not divisible by field degree")
    return big_rank // n


def truncated_dim_at(terms, orders, n: int, field, rank) -> int:
    """D(n) with ``rank`` as in :func:`rank_over_field`: the whole
    level-n matrix is built and ranked.  With the exact rank the oracle
    of the exact levels of ``localalg.truncated_quotient_dimension``, and
    with a rank mod p that of ``localalg._levels_mod_p``."""
    rows, _ = level_matrix(terms, orders, n)
    return len(rows) - rank_over_field(rows, field, rank)


def level_matrix(terms, orders, n: int):
    """The level-n matrix, rows the monomials of degree < n by degree,
    and its columns, the shifts (generator index, a, b), in the graded
    order of the ``localalg`` module docstring: by descending start degree
    a + b + ord h, then by generator and a.  So the fraction-free
    elimination first eliminates the columns that touch only the
    top-degree rows; that this keeps its entries smaller is measured,
    not proven, and the rank is that of any column order."""
    monomials = [(i, j) for s in range(n) for i in range(s, -1, -1)
                 for j in (s - i,)]
    index = {m: r for r, m in enumerate(monomials)}
    # start degrees below n keep the lowest terms of u^a v^b h below
    # degree n, so no column is zero
    shifts = [(gen, a, s - order - a) for s in range(n - 1, 0, -1)
              for gen, order in enumerate(orders)
              for a in range(s - order + 1)]
    rows = [[0] * len(shifts) for _ in monomials]
    for col, (gen, a, b) in enumerate(shifts):
        for (i, j), c in terms[gen]:
            if i + j + a + b < n:
                rows[index[(i + a, j + b)]][col] = c
    return rows, shifts
