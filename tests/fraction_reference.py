"""Rational-arithmetic references for the int sign and enclosure paths.

Each function is the ``QQ`` Horner route that the int kernels of
:mod:`qconic.unipoly`, :mod:`qconic.roots` and :mod:`qconic.intervals`
replaced, kept as a test oracle: the int paths must return the very same
intervals, boxes and rationals.  The complex box products and sums of
:func:`box_horner` live here only: no library code multiplies or adds
boxes.
"""

from qconic.rationals import QQ, sqrt_upper
from qconic.intervals import Box
from qconic import unipoly as up


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


def isolate_real_roots(p):
    if up.degree(p) < 1:
        return []
    chain = up.sturm_chain(p)
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
