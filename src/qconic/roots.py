"""Certified isolation of all complex roots of a squarefree rational polynomial.

Real roots are isolated by Sturm-count interval bisection and refined by
the sign of p at the midpoint (one simple root per interval), entirely in
exact arithmetic: the signs are taken by int Horner, and the refinement
(:func:`qconic.unipoly.bisection`) keeps int numerators over one
denominator and carries the sign at the lower end.  The real boxes alone
(:func:`real_root_boxes`) need nothing else, so a real embedding is boxed
without the numerics below.  Non-real roots are located numerically
(mpmath) and then *certified* exactly: around an approximation c we form
the disc of radius n*|p(c)/p'(c)|, which provably contains at least one
root; a disc is kept only off the real axis, so it is disjoint from every
real box, and those are strictly apart.  When the discs are pairwise
disjoint, the pigeonhole principle pins exactly one root per box, and the
real boxes account for every real root, so each disc box holds exactly
one non-real root.  Refinement of a non-real box uses the same
certificate at a higher precision: a disc inside the old box holds the
same root; |p(c)|^2 is evaluated on int numerators over one denominator.
Every certificate is a rational comparison; floating point only proposes
candidates.

The candidates come from mpmath's Durand-Kerner iteration (``polyroots``),
seeded with numpy's double-precision roots taken at a power-of-two scale
(:func:`_float_seeds`), so roots and coefficients beyond a double's range
are seeded too; from those seeds it needs a few steps instead of the
dozens a cold start at (0.4 + 0.9i)^k takes, which never reaches roots far
from unit size.  Seeding changes where the iteration starts, not where it
stops: the stopping rule (every correction below the working epsilon,
2^-135 at the first rung) is the same, so seeded and cold runs converge
to the same roots far below the 2^-100 grid the candidates are rounded to,
and the certified boxes built from them stay as they were (a test
compares the two as sets).  A seeded run that does not converge falls
back to the cold start.
"""

from __future__ import annotations

import mpmath
import numpy as np

from .rationals import QQ, integral_form, sqrt_upper
from .intervals import Box
from .errors import QConicError
from . import unipoly as up

#: mpmath working precisions (decimal digits), tried in turn by isolation
#: and by complex refinement; the first rung that certifies is kept
_DPS_LADDER = tuple(40 << k for k in range(8))


# ---------------------------------------------------- exact complex rationals

def _cx_abs2_at(p, c):
    """|p(c)|^2 exactly, for rational coefficients and c = (re, im): int
    Horner on the numerators over one denominator each (p = P/D,
    c = (X + iY)/B), one rational built at the end."""
    ints, den = integral_form(p)
    (x, y), b = integral_form(c)
    re = im = 0
    bk = 1
    for coeff in reversed(ints):
        bk *= b
        re, im = re * x - im * y + coeff * bk, re * y + im * x
    return QQ(re * re + im * im, (den * bk) ** 2)


def _nearest_root_radius(p, dp, n, c):
    """Rational r >= n*|p(c)/p'(c)|; the disc around c of that radius
    contains at least one root of p.  None when p'(c) = 0."""
    num = _cx_abs2_at(p, c)
    den = _cx_abs2_at(dp, c)
    if not den:
        return None
    if not num:
        return QQ(0)
    return n * sqrt_upper(num / den)


# --------------------------------------------------------------- isolation

def real_root_boxes(p) -> list[Box]:
    """Certified boxes [lo, hi] x {0} of the real roots of squarefree p,
    ascending: the real part of :func:`isolate_all_roots`, from Sturm
    counts and int bisection alone.  Adjacent Sturm intervals may share an
    endpoint, so neighbours are bisected together until strictly apart;
    then each is bisected to width at most 1/16, carrying its sign."""
    p = up.from_coeffs(p)
    ints = up.primitive_integer(p)  # the same signs as p, on ints
    walks = [up.bisection(ints, lo, hi) for lo, hi in up.isolate_real_roots(p)]
    ivs = [next(walk) for walk in walks]
    for i in range(len(ivs) - 1):
        guard = 0
        # a.hi >= b.lo, on the numerators over each one's denominator
        while ivs[i][1] * ivs[i + 1][2] >= ivs[i + 1][0] * ivs[i][2]:
            ivs[i], ivs[i + 1] = next(walks[i]), next(walks[i + 1])
            guard += 1
            if guard > 10000:  # pragma: no cover
                raise QConicError("failed to separate real roots")
    boxes = []
    for (a, b, d), walk in zip(ivs, walks):
        while 16 * (b - a) > d:
            a, b, d = next(walk)
        boxes.append(Box.real_interval(QQ(a, d), QQ(b, d)))
    return boxes


def isolate_all_roots(p, real_boxes=None) -> list[Box]:
    """Pairwise-disjoint certified boxes, one per distinct root of squarefree p.

    Order: real roots ascending (:func:`real_root_boxes`, or
    ``real_boxes`` when the caller already has them), then non-real
    roots by (re_lo, im_lo).  The order is deterministic for a given
    polynomial.  A disc box is kept only off the real axis, so it is
    disjoint from every real box, which are strictly apart: only the
    discs are compared with each other.
    """
    p = up.from_coeffs(p)
    n = up.degree(p)
    if n < 1:
        return []
    if real_boxes is None:
        real_boxes = real_root_boxes(p)
    n_complex = n - len(real_boxes)
    if n_complex == 0:
        return real_boxes

    dp = up.derivative(p)
    for dps in _DPS_LADDER:
        candidates = _approximate_roots(p, dps)
        if candidates is None:
            continue
        # non-real candidates: largest |Im| first; exact certification below
        candidates.sort(key=lambda c: -abs(c[1]))
        discs = []
        for c in candidates[:n_complex]:
            r = _nearest_root_radius(p, dp, n, c)
            if r is None:
                discs = None
                break
            discs.append(Box(c[0] - r, c[0] + r, c[1] - r, c[1] + r))
        if discs is None:
            continue
        if any(b.im_lo <= 0 <= b.im_hi for b in discs):
            continue  # must be certifiably non-real
        if _pairwise_disjoint(discs):
            return real_boxes + sorted(discs, key=lambda b: (b.re_lo, b.im_lo))
    raise QConicError("root isolation did not certify at any precision")


def _approximate_roots(p, dps):
    """Numeric root candidates as exact dyadic rationals (re, im) pairs.

    The step budget grows with the rung, 10 steps per digit: a cluster
    of roots far closer than unit size (about 10^-200 apart for a
    coefficient near 10^400) converges only at a high rung, and only
    after more steps than a low one needs.  A run that converges stops
    as early as before; a rung that still fails now spends more steps.
    """
    prec_bits = max(32, (10 * dps) // 4)
    scale = 1 << prec_bits
    half = mpmath.mpf("0.5")
    try:
        with mpmath.workdps(dps):
            coeffs = [mpmath.mpf(int(c.numerator)) / mpmath.mpf(int(c.denominator))
                      for c in reversed(p)]
            try:  # no seeds (None) is the cold start
                raw = mpmath.polyroots(coeffs, maxsteps=10 * dps, extraprec=120,
                                       roots_init=_float_seeds(p))
            except mpmath.libmp.NoConvergence:  # retried cold
                raw = mpmath.polyroots(coeffs, maxsteps=10 * dps,
                                       extraprec=120)
            out = []
            for z in raw:
                z = mpmath.mpc(z)
                out.append((QQ(int(mpmath.floor(z.real * scale + half)), scale),
                            QQ(int(mpmath.floor(z.imag * scale + half)), scale)))
            return out
    except (mpmath.libmp.NoConvergence, ValueError):
        return None


def _float_seeds(p):
    """Roots of p in double precision, as mpmath numbers, or None; only a
    starting point for mpmath.  With b_k the bit lengths of p's int
    coefficients, 2^e for e = 1 + max ceil((b_(n-k) - b_n + 1) / k) bounds
    Fujiwara's root bound 2 max |a_(n-k) / a_n|^(1/k).  So q(y) = p(2^e y)
    has its roots in the unit disc, its coefficients over a power of two
    are doubles with a leading one at least 2^-n times the largest
    (Vieta), and numpy's companion-matrix roots of q, times 2^e, seed p."""
    ints, _ = integral_form(p)
    n, lead = len(ints) - 1, ints[-1].bit_length()
    e = 1 + max((-((lead - 1 - a.bit_length()) // k)
                 for k, a in enumerate(reversed(ints[:-1]), 1) if a),
                default=-1)
    # p(2^e y), times 2^(-e n) when e < 0, has int coefficients
    q = [a << (e * i if e >= 0 else -e * (n - i)) for i, a in enumerate(ints)]
    unit = 1 << max(max(a.bit_length() for a in q) - 60, 0)
    try:
        roots = np.roots([a / unit for a in reversed(q)])
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(roots).all():
        return None
    return [mpmath.mpc(z) * mpmath.ldexp(1, e) for z in roots.tolist()]


def _pairwise_disjoint(boxes) -> bool:
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            if not boxes[i].disjoint(boxes[j]):
                return False
    return True


# --------------------------------------------------------------- refinement

def refine_box(p, box: Box, ints=None) -> Box:
    """Return a strictly smaller certified box for the same root of p.

    A real box is bisected by the sign of p, with no numerics
    (:func:`qconic.unipoly.refine_root_interval`), on ``ints`` when given:
    p's coefficients scaled to ints by a positive factor.  A non-real box is
    replaced by the first certified disc box (:func:`_approximate_roots`
    up the precision ladder, radius from :func:`_nearest_root_radius`)
    that lies inside it, is at most half as wide and stays off the real
    axis; being inside the old box certifies that it holds the same root.
    """
    if box.im_lo == 0 == box.im_hi:
        return Box.real_interval(*up.refine_root_interval(
            p if ints is None else ints, box.re_lo, box.re_hi))

    p = up.from_coeffs(p)
    n = up.degree(p)
    dp = up.derivative(p)
    target = box.width() / 2
    for dps in _DPS_LADDER:
        for c in _approximate_roots(p, dps) or ():
            r = _nearest_root_radius(p, dp, n, c)
            if r is None:
                continue
            disc = Box(c[0] - r, c[0] + r, c[1] - r, c[1] + r)
            if (box.contains_box(disc) and disc.width() <= target
                    and not disc.im_lo <= 0 <= disc.im_hi):
                return disc
    raise QConicError("complex box refinement did not certify at any precision")
