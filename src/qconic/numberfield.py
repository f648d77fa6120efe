"""Single algebraic extensions of the rationals with certified embeddings.

A :class:`NumberField` is Q[t]/(m) for a monic irreducible m together with
an isolating box pinning one complex root of m; elements are coordinate
vectors in the power basis and all arithmetic reduces modulo m, so it is
exact.  An element is stored as int numerators over one positive
denominator in lowest terms (Cohen, *A Course in Computational Algebraic
Number Theory*, 4.2): a product is an int convolution reduced by integral
rows of t^(n+k) that each field builds once, and an inverse is one
fraction-free solve against the integral multiplication matrix, so no
rational is formed per coefficient on either backend.  The degree-1 field ``RATIONAL_FIELD`` (minimal polynomial t)
represents the rationals themselves, which keeps every pipeline value a
:class:`FieldElement` regardless of where it lives.

Fields are cached per minimal polynomial: isolating all roots once fixes a
canonical root order, and a field is identified by (polynomial, root index).
Minimal polynomials come from one certified kernel against the power
basis of an element (:func:`power_basis_solve`), which also writes other
elements as polynomials in it.  Only polynomials from outside are proved
irreducible (:func:`fields_for_polynomial`); the pair solver's are so by
construction (:func:`roots_of_irreducible`).  Building the fields of a
polynomial isolates nothing: the first read of any embedding's box
(:attr:`NumberField.box`, :meth:`NumberField.root_box`) runs one
isolation of all roots and hands each embedding its box, so a field that
is only computed in, like the pair solver's frame factor, is never
isolated.  The boxes live on the cached fields alone, so emptying the
cache starts cold, as a fresh process does.  A box never changes once
isolated; :meth:`FieldElement.enclosure` refines from it level by level,
so printed fields and points never depend on what was computed before.
"""

from __future__ import annotations

from math import gcd
from numbers import Rational

from .rationals import QQ, format_rational, integral_form
from .intervals import Box, evaluate_poly_on_box
from . import linalg
from . import unipoly as up
from . import roots as rootmod
from .factorint import is_irreducible
from .errors import QConicError

_FIELD_CACHE: dict[tuple, list["NumberField"]] = {}


class NumberField:
    """Q[t]/(minimal_polynomial) embedded at one certified root.

    Given ``box``, the field is pinned to the root in it.  Without one,
    the first box read isolates the roots once and gives each field in
    ``embeddings`` (the fields of the polynomial built together, this one
    included; by default this one alone) the box at its ``root_index``
    (:meth:`root_box`)."""

    __slots__ = ("min_poly", "root_index", "degree", "_red_den",
                 "_red_rows", "_levels", "_embeddings")

    def __init__(self, min_poly, root_index: int, box: Box | None = None,
                 embeddings=None):
        self.min_poly = tuple(QQ(c) for c in min_poly)
        self.root_index = root_index
        self.degree = len(self.min_poly) - 1
        if self.degree < 1:
            raise QConicError("degenerate field")
        # t^n = R_0 / D with R_0 integral: -D times the lower coefficients
        # of the monic minimal polynomial, D their least common denominator
        ints, self._red_den = integral_form(self.min_poly)
        self._red_rows = [[-c for c in ints[:-1]]]
        self._levels = [] if box is None else [box]
        self._embeddings = embeddings

    # -- identity ----------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, NumberField)
                and self.min_poly == other.min_poly
                and self.root_index == other.root_index)

    def __hash__(self):
        return hash((self.min_poly, self.root_index))

    def __repr__(self):
        return f"NumberField({up.to_string(list(self.min_poly))} @ root {self.root_index})"

    @property
    def box(self) -> Box:
        """The certified isolating box of the root; never refined in
        place, so to_json is stable."""
        return self.root_box(0)

    def root_box(self, level: int) -> Box:
        """The isolating box refined ``level`` times.  Refinement is
        deterministic, so this depends on the field alone; the levels are
        memoized, and level 0 is ``box``, isolated on the first read."""
        if not self._levels:
            boxes = rootmod.isolate_all_roots(list(self.min_poly))
            for field in self._embeddings or [self]:
                field._levels.append(boxes[field.root_index])
        while len(self._levels) <= level:
            self._levels.append(rootmod.refine_box(list(self.min_poly),
                                                   self._levels[-1]))
        return self._levels[level]

    # -- elements ----------------------------------------------------------
    def element(self, coords) -> "FieldElement":
        """The element sum coords[i] t^i (rational coords, any length)."""
        num, den = integral_form(coords)
        num, den = self._reduce(num, den)
        return FieldElement(self, num, den)

    def rational(self, c) -> "FieldElement":
        n, d = _rational_parts(c) or _rational_parts(QQ(c))
        return FieldElement(self, (n,) + (0,) * (self.degree - 1), d)

    def zero(self) -> "FieldElement":
        return self.rational(0)

    def one(self) -> "FieldElement":
        return self.rational(1)

    def generator(self) -> "FieldElement":
        return self.element([0, 1])  # in degree 1, _reduce maps t to the root

    def _times_t(self, v):
        """D times the coordinates of v * t, for integral coordinates v
        (D = ``_red_den``): the overflow into t^n is R_0 / D."""
        hi = v[-1]
        out = [0] + [self._red_den * c for c in v[:-1]]
        if hi:
            out = [a + hi * b for a, b in zip(out, self._red_rows[0])]
        return out

    def _reduction_rows(self, upto: int):
        """R_0, ..., R_(upto-1): integral rows with t^(n+k) = R_k / D^(k+1)
        (n the degree, D = ``_red_den``)."""
        rows = self._red_rows
        while len(rows) < upto:
            rows.append(self._times_t(rows[-1]))
        return rows

    def _reduce(self, num, den):
        """``(num, den)`` for an int coefficient list of any length over
        ``den``, reduced modulo the minimal polynomial to ``degree`` ints
        over a positive denominator (not yet in lowest terms)."""
        n = self.degree
        extra = len(num) - n
        if extra <= 0:
            return list(num) + [0] * -extra, den
        rows = self._reduction_rows(extra)
        d = self._red_den
        # over D^extra: t^(n+k) contributes D^(extra-1-k) R_k
        scale = d ** extra
        out = [a * scale for a in num[:n]]
        for k in range(extra):
            c = num[n + k]
            if c:
                c *= d ** (extra - 1 - k)
                out = [a + c * b for a, b in zip(out, rows[k])]
        return out, den * scale

    def integral_multiplication_matrix(self, num):
        """D^(n-1) times the matrix (rows of ints) of multiplication by
        sum num[i] t^i on the power basis, D = ``_red_den``: column j
        holds the coordinates of that element times t^j.  A fixed positive
        multiple of the rational matrix, so ranks and solutions read off
        it stay exact."""
        n, d = self.degree, self._red_den
        cols = [list(num)]  # D^j times the coordinates of num * t^j
        for _ in range(n - 1):
            cols.append(self._times_t(cols[-1]))
        cols = [[c * d ** (n - 1 - j) for c in col] for j, col in enumerate(cols)]
        return [[col[i] for col in cols] for i in range(n)]

    def to_json(self):
        return {
            "minimal_polynomial": [format_rational(c) for c in self.min_poly],
            "box": self.box.to_json(),
        }


def _rational_parts(x):
    """``(numerator, denominator)`` of an exact rational number as ints,
    or None for anything else (floats, strings, None)."""
    if type(x) is int:
        return x, 1
    if isinstance(x, (int, QQ, Rational)):
        return int(x.numerator), int(x.denominator)
    return None


def _solve_unit(rows):
    """``(y, d)`` with rows * y = d e_0 for a nonsingular square int matrix,
    by fraction-free Gauss-Jordan elimination (Bareiss's division by the
    previous pivot is exact, every entry being a minor); d is +-det, None
    when the matrix is singular."""
    n = len(rows)
    a = [list(row) + [int(i == 0)] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return None
        a[k], a[p] = a[p], a[k]
        pivot = a[k]
        pk = pivot[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pk * x - f * y) // prev for x, y in zip(a[i], pivot)]
        prev = pk
    return [row[n] for row in a], prev


class FieldElement:
    """An element sum num[i] t^i / den of a NumberField, power basis.

    ``num`` holds ``degree`` ints and ``den`` is a positive int with
    gcd(num, den) = 1, so every element has exactly one representation
    and arithmetic runs on Python ints (``coords`` gives rationals).
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num, den: int = 1):
        if den != 1:
            if den < 0:
                num, den = [-a for a in num], -den
            g = gcd(den, *num)
            if g != 1:
                num, den = [a // g for a in num], den // g
        self.field = field
        self.num = tuple(num)
        self.den = den

    @property
    def coords(self) -> tuple:
        """Power-basis coordinates as ``QQ``."""
        return tuple(QQ(a, self.den) for a in self.num)

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            if other.field is self.field or other.field == self.field:
                return self.den == other.den and self.num == other.num
            return (self.is_rational() and other.is_rational()
                    and self.num[0] == other.num[0] and self.den == other.den)
        q = _rational_parts(other)
        if q is None:
            return NotImplemented
        return (self.num[0] == q[0] and self.den == q[1]
                and not any(self.num[1:]))

    def __hash__(self):
        # a rational element equals its value in every field (see __eq__)
        if self.is_rational():
            return hash(QQ(self.num[0], self.den))
        return hash((self.field, self.num, self.den))

    def _scaled(self, n: int, d: int) -> "FieldElement":
        """self * n / d for ints n, d (d != 0)."""
        return FieldElement(self.field, [a * n for a in self.num], self.den * d)

    def _lift(self, field: NumberField) -> "FieldElement":
        """A rational element as an element of ``field``."""
        return FieldElement(field, self.num[:1] + (0,) * (field.degree - 1), self.den)

    def _align(self, other):
        """Both operands in one field (rationals lift anywhere); None when
        ``other`` is not an exact number."""
        if not isinstance(other, FieldElement):
            q = _rational_parts(other)
            if q is None:
                return None
            return self, FieldElement(self.field, (q[0],) + (0,) * (self.field.degree - 1), q[1])
        if other.field is self.field or other.field == self.field:
            return self, other
        if other.field.degree == 1:
            return self, other._lift(self.field)
        if self.field.degree == 1:
            return self._lift(other.field), other
        raise _mixed_fields(self, other)

    def _plus(self, other, sign: int):
        """self + sign * other, sign = 1 or -1."""
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a.den == b.den:
            return FieldElement(a.field, [x + sign * y for x, y in zip(a.num, b.num)], a.den)
        return FieldElement(a.field, [x * b.den + sign * y * a.den for x, y in zip(a.num, b.num)],
                            a.den * b.den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.num], self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            q = _rational_parts(other)
            return NotImplemented if q is None else self._scaled(*q)
        if other.field.degree == 1:
            return self._scaled(other.num[0], other.den)
        if self.field.degree == 1:
            return other._scaled(self.num[0], self.den)
        field = self.field
        if other.field is not field and other.field != field:
            raise _mixed_fields(self, other)
        # int convolution, then reduction by the minimal polynomial's rows
        prod = [0] * (2 * field.degree - 1)
        bn = other.num
        for i, x in enumerate(self.num):
            if x:
                for j, y in enumerate(bn):
                    prod[i + j] += x * y
        num, den = field._reduce(prod, self.den * other.den)
        return FieldElement(field, num, den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """1 / self: with M the integral multiplication matrix of ``num``
        (D^(n-1) times the rational one), self * x = 1 is
        M x = D^(n-1) den e_0, solved over the integers."""
        if not self:
            raise ZeroDivisionError("zero field element")
        field = self.field
        if field.degree == 1:
            return FieldElement(field, (self.den,), self.num[0])
        solved = _solve_unit(field.integral_multiplication_matrix(self.num))
        if solved is None:
            raise QConicError("minimal polynomial is not irreducible")
        y, det = solved
        scale = self.den * field._red_den ** (field.degree - 1)
        return FieldElement(field, [c * scale for c in y], det)

    def __truediv__(self, other):
        if not isinstance(other, FieldElement):
            q = _rational_parts(other)
            if q is None:
                return NotImplemented
            if not q[0]:
                raise ZeroDivisionError("division by zero")
            return self._scaled(q[1], q[0])
        return self * other.inverse()

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
        return not any(self.num[1:])

    def enclosure(self, max_width=None) -> Box:
        """Certified box containing the element, at most ``max_width`` wide
        if given: evaluated at the first level of :meth:`NumberField.root_box`
        narrow enough, so it never depends on enclosures taken before.  The
        levels are nested and interval evaluation is inclusion monotone, so
        widths shrink with the level; the search walks up from level 0 and
        so builds no level past the one it returns.  Raises QConicError
        when 257 levels do not reach ``max_width``."""
        for level in range(257):
            box = evaluate_poly_on_box(self.num, self.field.root_box(level), self.den)
            if max_width is None or box.width() <= QQ(max_width):
                return box
        raise QConicError(f"enclosure of width {max_width} not reached "
                          f"in {level + 1} refinement levels")

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
    """All embeddings of Q[t]/(m): one NumberField per root of m, in the
    canonical, stable order of their certified pairwise-disjoint boxes
    (isolated on first read).
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
    """The cached fields of the monic tuple ``key``, with no proof and no
    isolation (the boxes come on first read)."""
    if key not in _FIELD_CACHE:
        fields = []
        fields.extend(NumberField(key, i, embeddings=fields)
                      for i in range(len(key) - 1))
        _FIELD_CACHE[key] = fields
    return _FIELD_CACHE[key]


# ------------------------------------------------------ power-basis solves

def power_basis_solve(gamma: FieldElement, targets):
    """Minimal polynomial of gamma and each target as a polynomial in gamma.

    K has the coordinates of 1, gamma, ..., gamma^(n-1) as columns
    (n = field degree).  One certified kernel of [K | -gamma^n | -targets]
    (:func:`qconic.linalg.kernel_basis_blockwise`, on the rows scaled to
    ints) answers everything: K is nonsingular exactly when the free
    columns are the right-hand sides, i.e. the kernel basis is the
    identity on them, and then the kernel vector of each right-hand side
    b carries the solution of K x = b.  A singular K means gamma is not a
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
    basis = linalg.kernel_basis_blockwise(
        linalg._to_int_rows([[col[i] for col in cols] for i in range(n)]))
    m = len(cols) - n
    if [list(v[n:]) for v in basis] != [[int(i == k) for i in range(m)] for k in range(m)]:
        return None  # K is singular: gamma is not primitive
    min_poly = tuple(-x for x in basis[0][:n]) + (QQ(1),)
    return min_poly, [v[:n] for v in basis[1:]]
