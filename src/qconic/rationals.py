"""Exact rational scalars and small number-theoretic helpers.

The canonical scalar type is ``gmpy2.mpq`` (exported as ``QQ``): an
arbitrary-precision rational kept in lowest terms with a positive
denominator.  ``fractions.Fraction`` is used as a drop-in fallback when
gmpy2, the optional ``fast`` extra, is not installed.  Rationals
serialize as ``"p/q"`` (just ``"p"`` when the denominator is one), which
is exactly ``str()`` of either type.
"""

from __future__ import annotations

import math
from fractions import Fraction

try:
    from gmpy2 import mpq as QQ  # type: ignore[attr-defined]
    HAVE_GMPY2 = True
except ImportError:  # gmpy2 is the optional 'fast' extra
    QQ = Fraction
    HAVE_GMPY2 = False

ZERO = QQ(0)
ONE = QQ(1)


def rational(value, den=None):
    """Coerce ints, strings like ``"3/4"``, Fractions or mpqs to ``QQ``."""
    if den is not None:
        return QQ(value, den)
    if isinstance(value, str):
        return QQ(value.strip())
    if isinstance(value, Fraction):
        return QQ(value.numerator, value.denominator)
    if isinstance(value, float):
        raise TypeError("refusing to build an exact rational from a float")
    return QQ(value)


def format_rational(value) -> str:
    """Serialize as ``p/q`` (or ``p`` when the denominator is 1)."""
    return str(QQ(value))


def parse_rational(text: str):
    """Inverse of :func:`format_rational`."""
    try:
        return QQ(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def is_square(q) -> bool:
    """Exact test whether a rational is the square of a rational."""
    q = QQ(q)
    if q < 0:
        return False
    n, d = int(q.numerator), int(q.denominator)
    rn, rd = math.isqrt(n), math.isqrt(d)
    return rn * rn == n and rd * rd == d


def rational_sqrt_exact(q):
    """Square root of a rational known to be a perfect square."""
    q = QQ(q)
    n, d = int(q.numerator), int(q.denominator)
    return QQ(math.isqrt(n), math.isqrt(d))


def sqrt_upper(q, scale: int = 1 << 64):
    """A rational r with r >= sqrt(q), within 1/scale of the true value."""
    q = QQ(q)
    if q < 0:
        raise ValueError("negative input")
    if q == 0:
        return ZERO
    n, d = int(q.numerator), int(q.denominator)
    # isqrt(n*d*scale^2) over- then round up: floor(sqrt(nd)*s) + 1 >= sqrt(nd)*s
    s = math.isqrt(n * d * scale * scale) + 1
    return QQ(s, d * scale)


def integral_form(values):
    """Integer numerators over one common denominator, exactly.

    Returns ``(ints, den)`` with ``values[i] == ints[i] / den``, ``den``
    the least positive common denominator (1 for a sequence of ints).
    Floats raise ``TypeError`` (see :func:`rational`).
    """
    vals = list(values)
    if set(map(type, vals)) <= {int}:
        return vals, 1
    vals = [v if isinstance(v, (int, QQ)) else rational(v) for v in vals]
    den = math.lcm(*(int(v.denominator) for v in vals))
    return [int(v.numerator) * (den // int(v.denominator)) for v in vals], den


def clear_denominators(values):
    """Scale a sequence of rationals to coprime integers (as ints).

    Returns ``(ints, multiplier)`` with ``ints[i] == values[i] * multiplier``;
    the multiplier is positive, so signs are kept.  All-zero input returns
    zeros with multiplier 1.  The numerators of :func:`integral_form` are
    divided by their gcd, so no rational product is formed per entry.
    """
    ints, mult = integral_form(values)
    g = math.gcd(*ints)
    if g > 1:
        return [n // g for n in ints], QQ(mult, g)
    return ints, QQ(mult)
