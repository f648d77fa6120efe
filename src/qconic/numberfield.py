"""Single algebraic extensions of the rationals with certified embeddings.

A :class:`NumberField` is Q[t]/(m) for a monic irreducible m together with
an isolating box pinning one complex root of m; elements are coordinate
vectors in the power basis and all arithmetic reduces modulo m, so it is
exact.  The degree-1 field ``RATIONAL_FIELD`` (minimal polynomial t)
represents the rationals themselves, which keeps every pipeline value a
:class:`FieldElement` regardless of where it lives.

Fields are cached per minimal polynomial: isolating all roots once fixes a
canonical root order, and a field is identified by (polynomial, root index).
Minimal polynomials come from one exact kernel against the power basis of
an element (:func:`power_basis_solve`), which also writes other elements
as polynomials in it.  Only polynomials from outside are proved
irreducible (:func:`fields_for_polynomial`); the pair solver's are so by
construction (:func:`roots_of_irreducible`).  A field's isolating box is
fixed at construction; :meth:`FieldElement.enclosure` refines from it
level by level, so printed fields and points never depend on what was
computed before.
"""

from __future__ import annotations

from .rationals import QQ, format_rational
from .intervals import Box, evaluate_poly_on_box
from .linalg import kernel_basis_rational
from . import unipoly as up
from . import roots as rootmod
from .factorint import is_irreducible
from .errors import QConicError

_FIELD_CACHE: dict[tuple, list["NumberField"]] = {}


class NumberField:
    """Q[t]/(minimal_polynomial) embedded at one certified root."""

    __slots__ = ("min_poly", "root_index", "box", "degree", "_red_rows",
                 "_levels")

    def __init__(self, min_poly, root_index: int, box: Box):
        self.min_poly = tuple(QQ(c) for c in min_poly)
        self.root_index = root_index
        self.box = box  # never refined in place, so to_json is stable
        self.degree = len(self.min_poly) - 1
        self._red_rows = None
        self._levels = [box]

    # -- identity ----------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, NumberField)
                and self.min_poly == other.min_poly
                and self.root_index == other.root_index)

    def __hash__(self):
        return hash((self.min_poly, self.root_index))

    def __repr__(self):
        return f"NumberField({up.to_string(list(self.min_poly))} @ root {self.root_index})"

    def root_box(self, level: int) -> Box:
        """The isolating box refined ``level`` times.  Refinement is
        deterministic, so this depends on the field alone; the levels are
        memoized, and level 0 is ``box``."""
        while len(self._levels) <= level:
            self._levels.append(rootmod.refine_box(list(self.min_poly),
                                                   self._levels[-1]))
        return self._levels[level]

    # -- elements ----------------------------------------------------------
    def element(self, coords) -> "FieldElement":
        coords = [QQ(c) for c in coords]
        if len(coords) > self.degree:
            coords = self._reduce(coords)
        coords += [QQ(0)] * (self.degree - len(coords))
        return FieldElement(self, tuple(coords))

    def rational(self, c) -> "FieldElement":
        return self.element([QQ(c)])

    def zero(self) -> "FieldElement":
        return self.rational(0)

    def one(self) -> "FieldElement":
        return self.rational(1)

    def generator(self) -> "FieldElement":
        return self.element([0, 1])  # in degree 1, _reduce maps t to the root

    def _reduction_rows(self, upto: int):
        # t^(degree+k) as coordinate vectors, for k = 0 .. upto-1
        n = self.degree
        if self._red_rows is None:
            self._red_rows = [[-c / self.min_poly[n] for c in self.min_poly[:n]]]
        rows = self._red_rows
        while len(rows) < upto:
            cur = rows[-1]
            hi = cur[-1]  # coefficient of t^(n-1): overflows into t^n
            cur = [QQ(0)] + cur[:-1]
            if hi:
                cur = [a + hi * b for a, b in zip(cur, rows[0])]
            rows.append(cur)
        return rows

    def _reduce(self, coords):
        n = self.degree
        if n == 0:
            raise QConicError("degenerate field")
        coords = list(coords)
        if len(coords) <= n:
            return coords
        rows = self._reduction_rows(len(coords) - n)
        out = coords[:n]
        for k, c in enumerate(coords[n:]):
            if c:
                row = rows[k]
                out = [a + c * b for a, b in zip(out, row)]
        return out

    def to_json(self):
        return {
            "minimal_polynomial": [format_rational(c) for c in self.min_poly],
            "box": self.box.to_json(),
        }


class FieldElement:
    """An element of a NumberField in power-basis coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: tuple):
        self.field = field
        self.coords = coords

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            if self.field == other.field:
                return self.coords == other.coords
            if self.is_rational() and other.is_rational():
                return self.coords[0] == other.coords[0]
            return False
        if other == 0:
            return not any(self.coords)
        return self.coords[0] == QQ(other) and not any(self.coords[1:])

    def __hash__(self):
        # a rational element equals its value in every field (see __eq__)
        if self.is_rational():
            return hash(self.coords[0])
        return hash((self.field, self.coords))

    def _align(self, other):
        """Bring both operands into one field (rationals lift anywhere)."""
        if not isinstance(other, FieldElement):
            return self, self.field.rational(other)
        if other.field == self.field:
            return self, other
        if other.field.degree == 1:
            return self, self.field.rational(other.coords[0])
        if self.field.degree == 1:
            return other.field.rational(self.coords[0]), other
        raise _mixed_fields(self, other)

    def __add__(self, other):
        a, b = self._align(other)
        return FieldElement(a.field, tuple(x + y for x, y in zip(a.coords, b.coords)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        a, b = self._align(other)
        return FieldElement(a.field, tuple(x - y for x, y in zip(a.coords, b.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            c = QQ(other)
            return FieldElement(self.field, tuple(a * c for a in self.coords))
        a, b = self._align(other)
        n = a.field.degree
        prod = [QQ(0)] * (2 * n - 1) if n > 1 else [QQ(0)]
        for i, x in enumerate(a.coords):
            if not x:
                continue
            for j, y in enumerate(b.coords):
                if y:
                    prod[i + j] += x * y
        return FieldElement(a.field, tuple(a.field._reduce(prod)))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if not self:
            raise ZeroDivisionError("zero field element")
        n = self.field.degree
        if n == 1:
            return self.field.rational(QQ(1) / self.coords[0])
        # extended Euclid: s * self + t * min_poly = gcd = constant
        a = up.strip(list(self.coords))
        m = list(self.field.min_poly)
        s0, s1 = [QQ(1)], []
        r0, r1 = a, m
        while r1:
            q, r = up.divmod_poly(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, up.sub(s0, up.mul(q, s1))
        if up.degree(r0) != 0:
            raise QConicError("minimal polynomial is not irreducible")
        inv = up.scale(s0, QQ(1) / r0[0])
        return self.field.element(inv)

    def __truediv__(self, other):
        a, b = self._align(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_rational(self) -> bool:
        return not any(self.coords[1:])

    def rational_value(self):
        if not self.is_rational():
            raise QConicError("element is not rational")
        return self.coords[0]

    def enclosure(self, max_width=None) -> Box:
        """Certified box containing the element, at most ``max_width`` wide
        if given: evaluated at the first level of :meth:`NumberField.root_box`
        narrow enough, so it never depends on enclosures taken before.  The
        levels are nested and interval evaluation is inclusion monotone, so
        widths shrink with the level; the search walks up from level 0 and
        so builds no level past the one it returns."""
        for level in range(257):
            box = evaluate_poly_on_box(self.coords, self.field.root_box(level))
            if max_width is None or box.width() <= QQ(max_width):
                break
        return box

    def to_json(self):
        return [format_rational(c) for c in self.coords]

    def __repr__(self):
        if self.is_rational():
            return f"FieldElement({self.coords[0]})"
        return f"FieldElement({up.to_string(list(self.coords))} in {self.field!r})"


def _mixed_fields(a, b):
    return QConicError(f"cannot mix elements of {a.field!r} and {b.field!r}")


# ------------------------------------------------------------- field registry

RATIONAL_FIELD = NumberField((QQ(0), QQ(1)), 0, Box.point(0))


def fields_for_polynomial(min_poly) -> list[NumberField]:
    """All embeddings of Q[t]/(m): one NumberField per root of m, isolated
    with certified pairwise-disjoint boxes in a canonical, stable order.
    This is the entry for polynomials from outside, so irreducibility of m
    over Q is verified (m must have degree at most four, like
    :func:`qconic.factorint.factor`)."""
    key = tuple(up.monic(up.from_coeffs(min_poly)))
    if key not in _FIELD_CACHE and not is_irreducible(list(key)):
        raise QConicError(
            f"minimal polynomial {up.to_string(list(key))} is reducible")
    return _embeddings(key)


def field_for_root(min_poly, index: int = 0) -> NumberField:
    """Embedding ``index`` of Q[t]/(m); its generator is that root of m."""
    return fields_for_polynomial(min_poly)[index]


def roots_of_irreducible(q) -> list[FieldElement]:
    """The roots of an irreducible q in embedding order: the rational root
    when q is linear, else the generator of each embedding of Q[t]/(q).
    Irreducibility is not proved again: callers pass factors from
    :func:`qconic.factorint.factor` or minimal polynomials."""
    q = up.monic(up.from_coeffs(q))
    if len(q) == 2:
        return [RATIONAL_FIELD.rational(-q[0])]
    return [field.generator() for field in _embeddings(tuple(q))]


def _embeddings(key) -> list[NumberField]:
    """The cached fields of the monic tuple ``key``, with no proof."""
    if key not in _FIELD_CACHE:
        boxes = rootmod.isolate_all_roots(list(key))
        _FIELD_CACHE[key] = [NumberField(key, i, b) for i, b in enumerate(boxes)]
    return _FIELD_CACHE[key]


# ------------------------------------------------------ power-basis solves

def multiplication_matrix(elem: FieldElement):
    """Matrix of multiplication by elem on the power basis (columns)."""
    n = elem.field.degree
    cols = []
    basis_elem = elem.field.one()
    gen = elem.field.generator()
    for _ in range(n):
        cols.append((elem * basis_elem).coords)
        basis_elem = basis_elem * gen
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def power_basis_solve(gamma: FieldElement, targets):
    """Minimal polynomial of gamma and each target as a polynomial in gamma.

    K has the coordinates of 1, gamma, ..., gamma^(n-1) as columns
    (n = field degree).  One exact kernel of [K | -gamma^n | -targets]
    answers everything: K is nonsingular exactly when the free columns
    are the right-hand sides, i.e. the kernel basis is the identity on
    them, and then the kernel vector of each right-hand side b carries
    the solution of K x = b.  A singular K means gamma is not a
    primitive element; then None is returned.  Otherwise K c = gamma^n
    gives the minimal polynomial t^n - sum c_i t^i (which is also the
    characteristic polynomial), and K x = target gives the coordinates x
    with target = sum x_j gamma^j.  Returns ``(min_poly, [x, ...])`` with
    ``min_poly`` a coefficient tuple indexed by degree.
    """
    field = gamma.field
    n = field.degree
    cols = []
    pw = field.one()
    for _ in range(n):
        cols.append(pw.coords)
        pw = pw * gamma
    cols += [tuple(-x for x in b.coords) for b in [pw, *targets]]
    basis = kernel_basis_rational([[col[i] for col in cols] for i in range(n)])
    m = len(cols) - n
    if [list(v[n:]) for v in basis] != [[int(i == k) for i in range(m)] for k in range(m)]:
        return None  # K is singular: gamma is not primitive
    min_poly = tuple(-x for x in basis[0][:n]) + (QQ(1),)
    return min_poly, [v[:n] for v in basis[1:]]
