"""Complex rectangles with exact rational corners.

A :class:`Box` is the product [re_lo, re_hi] x [im_lo, im_hi].  These are
the certified enclosures attached to algebraic numbers; all comparisons
and arithmetic below are exact, so enclosure statements proved with them
are rigorous.  Polynomial enclosures (:func:`evaluate_poly_on_box`) run
interval Horner on ints over one common denominator and build rationals
only for the corners of the result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rationals import QQ, format_rational, integral_form


@dataclass(frozen=True)
class Box:
    re_lo: object
    re_hi: object
    im_lo: object
    im_hi: object

    def __post_init__(self):
        # only corners that are not QQ yet are coerced
        if not (type(self.re_lo) is type(self.re_hi) is type(self.im_lo)
                is type(self.im_hi) is QQ):
            for name in ("re_lo", "re_hi", "im_lo", "im_hi"):
                object.__setattr__(self, name, QQ(getattr(self, name)))
        if self.re_lo > self.re_hi or self.im_lo > self.im_hi:
            raise ValueError("inverted box")

    @staticmethod
    def point(re, im=0) -> "Box":
        return Box(re, re, im, im)

    @staticmethod
    def real_interval(lo, hi) -> "Box":
        return Box(lo, hi, 0, 0)

    def width(self):
        return max(self.re_hi - self.re_lo, self.im_hi - self.im_lo)

    def disjoint(self, other: "Box") -> bool:
        return (self.re_hi < other.re_lo or other.re_hi < self.re_lo
                or self.im_hi < other.im_lo or other.im_hi < self.im_lo)

    def contains_box(self, other: "Box") -> bool:
        return (self.re_lo <= other.re_lo and other.re_hi <= self.re_hi
                and self.im_lo <= other.im_lo and other.im_hi <= self.im_hi)

    def to_json(self):
        return [format_rational(v) for v in (self.re_lo, self.re_hi, self.im_lo, self.im_hi)]

    def approx_str(self, digits: int = 6) -> str:
        re = float((self.re_lo + self.re_hi) / 2)
        im = float((self.im_lo + self.im_hi) / 2)
        if self.im_lo == 0 == self.im_hi:
            return f"{re:.{digits}g}"
        sign = "+" if im >= 0 else "-"
        return f"{re:.{digits}g}{sign}{abs(im):.{digits}g}i"


def _interval_mul(a_lo, a_hi, b_lo, b_hi):
    prods = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
    return min(prods), max(prods)


def evaluate_poly_on_box(coeffs, box: Box, den: int = 1) -> Box:
    """Horner evaluation of sum coeffs[i] t^i / den on a box (rational
    coefficients, a positive int ``den``): each step multiplies the
    accumulated box by ``box`` as complex intervals, (a + bi)(c + di) =
    (ac - bd) + (ad + bc)i with each real product bounded by its four
    corner products, and adds the next coefficient.

    The coefficients and the corners are brought to int numerators over
    one denominator each, so every step is int arithmetic: after k steps
    the numerators are over den * (coefficient denominator) * B^k, B the
    corners' denominator.  The box is the same as Box Horner's.  On a real
    box the imaginary parts stay 0, so real interval Horner gives the same
    box with a quarter of the products."""
    ints, cden = integral_form(coeffs)
    cden *= den
    (rl, rh, il, ih), b = integral_form((box.re_lo, box.re_hi, box.im_lo, box.im_hi))
    bk = 1
    if il == 0 == ih:
        lo = hi = 0
        for c in reversed(ints):
            lo, hi = _interval_mul(lo, hi, rl, rh)
            bk *= b
            lo, hi = lo + c * bk, hi + c * bk
        return Box.real_interval(QQ(lo, cden * bk), QQ(hi, cden * bk))
    a_rl = a_rh = a_il = a_ih = 0
    for c in reversed(ints):
        ac = _interval_mul(a_rl, a_rh, rl, rh)
        bd = _interval_mul(a_il, a_ih, il, ih)
        ad = _interval_mul(a_rl, a_rh, il, ih)
        bc = _interval_mul(a_il, a_ih, rl, rh)
        bk *= b
        a_rl, a_rh = ac[0] - bd[1] + c * bk, ac[1] - bd[0] + c * bk
        a_il, a_ih = ad[0] + bc[0], ad[1] + bc[1]
    e = cden * bk
    return Box(QQ(a_rl, e), QQ(a_rh, e), QQ(a_il, e), QQ(a_ih, e))
