"""Sparse multivariate polynomials, homogeneous forms, reducedness.

A raw polynomial is a dict mapping exponent tuples to nonzero
coefficients (rationals, or FieldElements for local computations); the
zero polynomial is the empty dict.  :class:`HomogeneousForm` wraps a
graded trivariate dict in x, y, z; :class:`AffinePolynomial` is its
dehomogenized two-variable companion used for local singularity work.

The monomial order used everywhere a basis is needed (matrix rows and
columns, serialization) is: x-exponent descending, then y-exponent
descending; see :func:`monomial_basis`.

There are no resultants and no multivariate gcds here: the y-resultant
of a conic pair is a closed form in :mod:`qconic.singular`, and
:func:`is_reduced` restricts f to lines through a point off the curve,
where squarefreeness is a univariate gcd over Q.
"""

from __future__ import annotations

import operator
from itertools import accumulate
from math import comb

from .rationals import QQ, format_rational
from .errors import NotHomogeneousError
from . import unipoly as up

VARS = ("x", "y", "z")


# ----------------------------------------------------------- raw dict polys

def p_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        s = c if s is None else s + c
        if s:
            out[m] = s
        elif m in out:
            del out[m]
    return out


def p_neg(a: dict) -> dict:
    return {m: -c for m, c in a.items()}


def p_sub(a: dict, b: dict) -> dict:
    return p_add(a, p_neg(b))


def p_scale(a: dict, c) -> dict:
    if not c:
        return {}
    return {m: v * c for m, v in a.items()}


def p_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(m)
            s = ca * cb if s is None else s + ca * cb
            if s:
                out[m] = s
            elif m in out:
                del out[m]
    return out


def p_derivative(a: dict, var: int) -> dict:
    out = {}
    for m, c in a.items():
        e = m[var]
        if e:
            mm = m[:var] + (e - 1,) + m[var + 1:]
            out[mm] = out.get(mm, 0) + c * e
            if not out[mm]:
                del out[mm]
    return out


def p_evaluate(a: dict, point, zero=None):
    acc = None
    for m, c in a.items():
        term = c
        for e, v in zip(m, point):
            if e:
                term = term * v**e
        acc = term if acc is None else acc + term
    if acc is None:
        return zero if zero is not None else QQ(0)
    return acc


# ----------------------------------------------------------- monomial bases

def monomial_basis(t: int):
    """All exponent triples (i, j, l) with i+j+l = t.

    Order: i descending, then j descending.  The length is (t+1)(t+2)/2.
    """
    if t < 0:
        return []
    return [(i, j, t - i - j) for i in range(t, -1, -1) for j in range(t - i, -1, -1)]


def monomial_count(t: int) -> int:
    return comb(t + 2, 2) if t >= 0 else 0


# ---------------------------------------------------------- homogeneous form

class HomogeneousForm:
    """A homogeneous polynomial in x, y, z with exact coefficients."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict):
        clean = {}
        for m, c in terms.items():
            if len(m) != 3 or min(m) < 0:
                raise ValueError(f"bad exponent triple {m}")
            if sum(m) != degree and c:
                raise NotHomogeneousError(
                    f"term {m} has degree {sum(m)}, expected {degree}")
            if c:
                clean[m] = QQ(c) if not hasattr(c, "field") else c
        self.degree = degree
        self.terms = clean

    @staticmethod
    def from_dict(terms: dict) -> "HomogeneousForm":
        degs = {sum(m) for m, c in terms.items() if c}
        if len(degs) > 1:
            raise NotHomogeneousError(f"mixed degrees {sorted(degs)}")
        return HomogeneousForm(degs.pop() if degs else 0, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, HomogeneousForm)
                and self.degree == other.degree and self.terms == other.terms)

    def derivative(self, var: int) -> "HomogeneousForm":
        if self.degree < 1:
            return HomogeneousForm(0, {})
        return HomogeneousForm(self.degree - 1, p_derivative(self.terms, var))

    def mul(self, other: "HomogeneousForm") -> "HomogeneousForm":
        return HomogeneousForm(self.degree + other.degree,
                               p_mul(self.terms, other.terms))

    def evaluate(self, point, zero=None):
        return p_evaluate(self.terms, point, zero)

    def dehomogenize(self, chart: int) -> "AffinePolynomial":
        """Set coordinate ``chart`` to 1; remaining variables keep x<y<z order."""
        keep = [v for v in range(3) if v != chart]
        terms: dict = {}
        for m, c in self.terms.items():
            key = (m[keep[0]], m[keep[1]])
            terms[key] = terms.get(key, 0) + c
        return AffinePolynomial({k: v for k, v in terms.items() if v})

    def transform(self, matrix) -> "HomogeneousForm":
        """Substitute variables by the linear map ``matrix`` (rows act on
        (x, y, z)); exact, used for projective changes of coordinates."""
        subs = []
        for row in matrix:
            subs.append({(1, 0, 0): QQ(row[0]), (0, 1, 0): QQ(row[1]),
                         (0, 0, 1): QQ(row[2])})
        acc: dict = {}
        for m, c in self.terms.items():
            term = {(0, 0, 0): QQ(c)}
            for var, e in enumerate(m):
                for _ in range(e):
                    term = p_mul(term, subs[var])
            acc = p_add(acc, term)
        return HomogeneousForm(self.degree, acc)

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            mono = "*".join(f"{VARS[v]}^{e}" if e > 1 else VARS[v]
                            for v, e in enumerate(m) if e)
            cs = format_rational(c) if not hasattr(c, "field") else str(c)
            if not mono:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        out = parts[0]
        for t in parts[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self):
        return f"HomogeneousForm({self.to_string()})"

    def to_json(self):
        return {"degree": self.degree,
                "terms": {f"{m[0]},{m[1]},{m[2]}": format_rational(c)
                          for m, c in sorted(self.terms.items(), reverse=True)}}


# ---------------------------------------------------------- affine (local)

class AffinePolynomial:
    """A two-variable polynomial over a field, for local computations."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {m: c for m, c in terms.items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        """Minimal total degree of a term; -1 when zero."""
        return min((sum(m) for m in self.terms), default=-1)

    def derivative(self, var: int) -> "AffinePolynomial":
        return AffinePolynomial(p_derivative(self.terms, var))

    def translate(self, a, b) -> "AffinePolynomial":
        """g(u, v) -> g(u + a, v + b), moving the point (a, b) to the origin."""
        top = max((e for m in self.terms for e in m), default=0)
        pa = list(accumulate([a] * top, operator.mul, initial=1))
        pb = list(accumulate([b] * top, operator.mul, initial=1))
        out: dict = {}
        for (i, j), c in self.terms.items():
            for di in range(i + 1):
                ca = c * comb(i, di) * pa[i - di]
                if not ca:
                    continue
                for dj in range(j + 1):
                    cb = ca * comb(j, dj) * pb[j - dj]
                    if not cb:
                        continue
                    key = (di, dj)
                    s = out.get(key)
                    s = cb if s is None else s + cb
                    if s:
                        out[key] = s
                    elif key in out:
                        del out[key]
        return AffinePolynomial(out)

    def __repr__(self):
        return f"AffinePolynomial({len(self.terms)} terms)"


# ------------------------------------------------------- reducedness test

def is_reduced(f: HomogeneousForm) -> bool:
    """True iff f has no repeated factor, decided on lines through one point.

    Let d = deg f.  f(1, y, z) is nonzero, since f = x^d f(1, y/x, z/x),
    and of degree at most d in each of y and z, so it does not vanish on
    the whole grid {0..d} x {0..d} (Alon, "Combinatorial Nullstellensatz",
    Combin. Probab. Comput. 1999, Lemma 2.1): there is P = (1, a, b) with
    0 <= a, b <= d and f(P) != 0, and the first one in grid order is
    taken.  For c = 0, 1, ..., d(d - 1) let g_c(s) = f(s*P + (0, 1, c)),
    the restriction of f to the line through P and (0 : 1 : c); its
    leading coefficient is f(P), so it has degree exactly d.  Then f is
    reduced iff some g_c is squarefree, so at most d(d - 1) + 1 lines
    are tried:

    * A repeated factor h^2 of f restricts to a repeated factor on every
      line through P, because h(P) != 0 gives h(s*P + Q) degree
      deg h >= 1 in s.  So no g_c is squarefree when f is not reduced.
    * If f is reduced, a line through P on which f restricts with a
      double root s0 contains R = s0*P + Q with f(R) = 0 and
      d/ds f(s*P + Q) = (P . grad f)(R) = 0, a point of C and of the
      polar curve polar_P(f) = P . grad f of degree d - 1.
    * These two curves share no component: an irreducible h dividing f
      and polar_P(f) divides polar_P(h), because f = h*k with h not
      dividing k.  Then polar_P(h) = 0, so h is a cone with vertex P,
      a line through P; but P is not on C.  By Bezout, C and the polar
      meet in at most d(d - 1) points, so at most d(d - 1) lines through
      P are bad.  The points (0 : 1 : c) are distinct on the line x = 0,
      which misses P, so the d(d - 1) + 1 lines tried are distinct and
      one of them is good.

    The zero polynomial defines no curve and raises ValueError.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial defines no curve")
    d = f.degree
    point = next((1, a, b) for a in range(d + 1) for b in range(d + 1)
                 if f.evaluate((QQ(1), QQ(a), QQ(b))))
    for c in range(d * (d - 1) + 1):
        g = _restrict_to_line(f, point, (0, 1, c))
        if up.degree(up.gcd(g, up.derivative(g))) == 0:
            return True
    return False


def _restrict_to_line(f: HomogeneousForm, p, q):
    """f(s*p + q) as a univariate polynomial in s."""
    lines = [up.from_coeffs([qi, pi]) for pi, qi in zip(p, q)]
    powers = [list(accumulate([lin] * f.degree, up.mul, initial=[QQ(1)]))
              for lin in lines]
    g = []
    for (i, j, l), c in f.terms.items():
        term = up.mul(up.mul(powers[0][i], powers[1][j]), powers[2][l])
        g = up.add(g, up.scale(term, c))
    return g
