"""Factorization of univariate rational polynomials.

Complete and self-contained through degree four: rational roots are
recovered without factoring any integers, and quartics are split over the
rationals via the cubic in p^2 attached to a two-quadratic split of the
depressed form.  That is all the geometry needs, since two conics meet in
four points and their resultant is a quartic; higher degrees are refused
with ``ValueError``.
"""

from __future__ import annotations

from .rationals import QQ, is_square, rational_sqrt_exact
from . import unipoly as up


def factor(p) -> tuple:
    """Factor a nonzero rational polynomial of degree at most four into
    monic irreducibles; ``ValueError`` for zero or degree five and up.

    Returns ``(unit, [(factor, multiplicity), ...])`` with ``unit`` the
    leading-coefficient content so that p = unit * prod factor^mult.
    Factors are monic and sorted deterministically.
    """
    p = up.from_coeffs(p)
    if up.is_zero(p):
        raise ValueError("cannot factor the zero polynomial")
    if up.degree(p) > 4:
        raise ValueError(f"cannot factor degree {up.degree(p)} > 4")
    unit = p[-1]
    if up.degree(p) == 0:
        return unit, []
    out = []
    for sf, mult in up.squarefree_decomposition(p):
        for piece in _factor_squarefree(sf):
            out.append((piece, mult))
    out.sort(key=lambda fm: (up.degree(fm[0]), [str(c) for c in fm[0]], fm[1]))
    return unit, out


def _factor_squarefree(p):
    """Monic irreducible factors of a monic squarefree polynomial."""
    factors = []
    for r in up.rational_roots(p):
        factors.append(up.from_coeffs([-r, QQ(1)]))
        p = up.divmod_poly(p, factors[-1])[0]
    n = up.degree(p)
    if n <= 0:
        return factors
    split = _split_quartic(p) if n == 4 else None
    # no rational roots left: a quadratic or cubic is now irreducible, and
    # a quartic is too unless it splits into two quadratics
    factors.extend(split or [up.monic(p)])
    return factors


def _split_quartic(p):
    """Split a monic rational-root-free quartic into two monic quadratics
    over the rationals, or return None when it is irreducible.

    After depressing (x -> x - a3/4) a split must look like
    (x^2 + px + q)(x^2 - px + s); p^2 is then a rational root of
    z^3 + 2Bz^2 + (B^2 - 4D)z - C^2 built from the depressed coefficients.
    """
    a3 = p[3]
    shiftv = -a3 / 4
    dep = up.shift(p, shiftv)  # x^4 + B x^2 + C x + D
    B, C, D = dep[2], dep[1], dep[0]
    candidates = []
    if not C:
        # biquadratic: (x^2+q)(x^2+s) with q+s = B, qs = D
        disc = B * B - 4 * D
        if is_square(disc):
            rt = rational_sqrt_exact(disc)
            q, s = (B + rt) / 2, (B - rt) / 2
            candidates.append((QQ(0), q, s))
        # or (x^2+px+q)(x^2-px+q) with q^2 = D, p^2 = 2q - B
        if is_square(D):
            for q in (rational_sqrt_exact(D), -rational_sqrt_exact(D)):
                psq = 2 * q - B
                if psq > 0 and is_square(psq):
                    candidates.append((rational_sqrt_exact(psq), q, q))
    else:
        res = up.from_coeffs([-C * C, B * B - 4 * D, 2 * B, QQ(1)])
        for z in up.rational_roots(res):
            if z > 0 and is_square(z):
                pv = rational_sqrt_exact(z)
                s = (B + z + C / pv) / 2
                q = (B + z - C / pv) / 2
                candidates.append((pv, q, s))
    for pv, q, s in candidates:
        f1 = up.from_coeffs([q, pv, QQ(1)])
        f2 = up.from_coeffs([s, -pv, QQ(1)])
        if up.mul(f1, f2) == dep:
            g1 = up.shift(f1, -shiftv)
            g2 = up.shift(f2, -shiftv)
            return sorted([g1, g2], key=lambda f: [str(c) for c in f])
    return None


def is_irreducible(p) -> bool:
    p = up.from_coeffs(p)
    return bool(p) and factor(p)[1] == [(up.monic(p), 1)]
