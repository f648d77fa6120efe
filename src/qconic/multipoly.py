"""Sparse multivariate polynomials, homogeneous forms, resultants.

A raw polynomial is a dict mapping exponent tuples to nonzero
coefficients (rationals, or FieldElements for local computations); the
zero polynomial is the empty dict.  :class:`HomogeneousForm` wraps a
graded trivariate dict in x, y, z; :class:`AffinePolynomial` is its
dehomogenized two-variable companion used for local singularity work.

The monomial order used everywhere a basis is needed (matrix rows and
columns, serialization) is: x-exponent descending, then y-exponent
descending; see :func:`monomial_basis`.
"""

from __future__ import annotations

from math import comb

from .rationals import QQ, format_rational
from .errors import NotHomogeneousError
from . import unipoly as up

VARS = ("x", "y", "z")


# ----------------------------------------------------------- raw dict polys

def p_zero():
    return {}


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


# --------------------------------------------------------------- resultants

def resultant(p: dict, q: dict, var: int) -> dict:
    """Sylvester resultant eliminating ``var``; a polynomial in the others.

    Convention: deg_var(q) rows of p's coefficients above deg_var(p) rows
    of q's, coefficients in descending powers of ``var``; the value is the
    determinant of that matrix.
    """
    dp = _degree_in(p, var)
    dq = _degree_in(q, var)
    if dp < 0 or dq < 0:
        raise ValueError("resultant of an identically zero polynomial")
    pc = _coeffs_in(p, var, dp)
    qc = _coeffs_in(q, var, dq)
    if dp == 0:
        return _p_pow(pc[0], dq)
    if dq == 0:
        return _p_pow(qc[0], dp)
    size = dp + dq
    rows = []
    for i in range(dq):
        rows.append([p_zero()] * i + pc + [p_zero()] * (size - dp - 1 - i))
    for i in range(dp):
        rows.append([p_zero()] * i + qc + [p_zero()] * (size - dq - 1 - i))
    return _poly_matrix_det(rows)


def _degree_in(p: dict, var: int) -> int:
    return max((m[var] for m in p), default=-1)


def _coeffs_in(p: dict, var: int, deg: int):
    """Coefficients as polynomials in the other variables, descending in var."""
    out = [p_zero() for _ in range(deg + 1)]
    for m, c in p.items():
        mm = m[:var] + (0,) + m[var + 1:]
        slot = out[deg - m[var]]
        slot[mm] = slot.get(mm, 0) + c
    return [{m: c for m, c in slot.items() if c} for slot in out]


def _p_pow(p: dict, k: int) -> dict:
    out = None
    for _ in range(k):
        out = p if out is None else p_mul(out, p)
    if out is None:
        nvars = len(next(iter(p))) if p else 3
        return {(0,) * nvars: QQ(1)}
    return out


def _poly_matrix_det(rows) -> dict:
    """Determinant of a matrix of dict polynomials (Laplace with memo)."""
    n = len(rows)
    memo: dict = {}

    def minor(r: int, cols: tuple) -> dict:
        if r == n:
            nvars = 3
            for row in rows:
                for e in row:
                    if e:
                        nvars = len(next(iter(e)))
                        break
            return {(0,) * nvars: QQ(1)}
        key = cols
        hit = memo.get(key)
        if hit is not None:
            return hit
        acc = p_zero()
        sign = 1
        for idx, c in enumerate(cols):
            entry = rows[r][c]
            if entry:
                sub = minor(r + 1, cols[:idx] + cols[idx + 1:])
                term = p_mul(entry, sub)
                acc = p_add(acc, term) if sign > 0 else p_sub(acc, term)
            sign = -sign
        memo[key] = acc
        return acc

    return minor(0, tuple(range(n)))


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

    def add(self, other: "HomogeneousForm") -> "HomogeneousForm":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise NotHomogeneousError("adding forms of different degrees")
        return HomogeneousForm(self.degree, p_add(self.terms, other.terms))

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
        acc = p_zero()
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
        out: dict = {}
        for (i, j), c in self.terms.items():
            for di in range(i + 1):
                ca = c * comb(i, di) * _power(a, i - di)
                if not ca:
                    continue
                for dj in range(j + 1):
                    cb = ca * comb(j, dj) * _power(b, j - dj)
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


def _power(v, e: int):
    if e == 0:
        return 1
    out = v
    for _ in range(e - 1):
        out = out * v
    return out


# ------------------------------------------------ gcds and reducedness test

def _bivariate_to_yx(p: dict):
    """Bivariate dict -> list over y-degree of unipoly-in-x coefficients."""
    dy = max((m[1] for m in p), default=-1)
    out = [[] for _ in range(dy + 1)]
    for (i, j), c in p.items():
        coeffs = out[j]
        while len(coeffs) <= i:
            coeffs.append(QQ(0))
        coeffs[i] = coeffs[i] + QQ(c)
    return [up.strip(c) for c in out]


def _yx_to_bivariate(rows):
    out = {}
    for j, coeffs in enumerate(rows):
        for i, c in enumerate(coeffs):
            if c:
                out[(i, j)] = c
    return out


def _yx_content(rows):
    g = []
    for c in rows:
        if c:
            g = up.gcd(g, c) if g else up.monic(list(c))
    return g


def _yx_primitive(rows, content):
    if up.degree(content) == 0:
        return rows
    return [up.divmod_poly(c, content)[0] if c else [] for c in rows]


def _yx_degree(rows) -> int:
    for j in range(len(rows) - 1, -1, -1):
        if rows[j]:
            return j
    return -1


def _yx_pseudo_rem(a, b):
    """Pseudo-remainder of a by b as polynomials in y over Q[x]."""
    da, db = _yx_degree(a), _yx_degree(b)
    lead_b = b[db]
    r = [list(c) for c in a]
    while _yx_degree(r) >= db and _yx_degree(r) >= 0:
        dr = _yx_degree(r)
        lead_r = r[dr]
        # r := lead_b * r - lead_r * y^(dr-db) * b
        new = [up.mul(lead_b, c) if c else [] for c in r]
        for j in range(db + 1):
            if b[j]:
                idx = j + dr - db
                new[idx] = up.sub(new[idx], up.mul(lead_r, b[j]))
        r = new
        while len(r) > 1 and not r[-1]:
            r.pop()
        if _yx_degree(r) < 0:
            break
    return r


def gcd_bivariate(p: dict, q: dict) -> dict:
    """GCD of bivariate rational polynomials (primitive-PRS, exact).

    The result is normalized so its leading coefficient in the (y, x)
    order used internally is 1; it is unique up to that normalization.
    """
    if not p:
        return dict(q)
    if not q:
        return dict(p)
    a, b = _bivariate_to_yx(p), _bivariate_to_yx(q)
    ca, cb = _yx_content(a), _yx_content(b)
    content = up.gcd(ca, cb)
    a = _yx_primitive(a, ca)
    b = _yx_primitive(b, cb)
    if _yx_degree(a) < _yx_degree(b):
        a, b = b, a
    while True:
        db = _yx_degree(b)
        if db < 0:
            g = a
            break
        if db == 0:
            # primitive and y-free means the primitive parts are coprime
            g = [[QQ(1)]]
            break
        r = _yx_pseudo_rem(a, b)
        if _yx_degree(r) < 0:
            g = b
            break
        a, b = b, _yx_primitive(r, _yx_content(r))
    g = _yx_primitive(g, _yx_content(g))
    result = _yx_to_bivariate(g)
    if up.degree(content) > 0:
        result = p_mul(result, _yx_to_bivariate([content]))
    lead = max(result, key=lambda m: (m[1], m[0]))
    c = result[lead]
    if c != 1:
        result = {m: v / c for m, v in result.items()}
    return result


def gcd_homogeneous(f: HomogeneousForm, g: HomogeneousForm) -> HomogeneousForm:
    """GCD of homogeneous trivariate forms via z-power stripping plus a
    bivariate gcd in the chart z = 1, rehomogenized."""
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    az = min(m[2] for m in f.terms)
    bz = min(m[2] for m in g.terms)
    fd = {(m[0], m[1]): c for m, c in f.terms.items()}  # z := 1
    gd = {(m[0], m[1]): c for m, c in g.terms.items()}
    biv = gcd_bivariate(fd, gd)
    deg_biv = max((sum(m) for m in biv), default=0)
    terms = {(i, j, deg_biv - i - j): c for (i, j), c in biv.items()}
    result = HomogeneousForm(deg_biv, terms)
    for _ in range(min(az, bz)):
        result = result.mul(HomogeneousForm(1, {(0, 0, 1): QQ(1)}))
    return result


def is_reduced(f: HomogeneousForm) -> bool:
    """True iff f is squarefree: gcd(f, f_x, f_y, f_z) is constant."""
    g = f
    for var in range(3):
        g = gcd_homogeneous(g, f.derivative(var))
        if g.degree == 0:
            return True
    return g.degree == 0
