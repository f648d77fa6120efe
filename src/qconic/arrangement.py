"""Smooth conics, validated arrangements, and their defining polynomials.

A conic is the zero set of a ternary quadratic form

    a*x^2 + b*y^2 + c*z^2 + d*x*y + e*x*z + f*y*z

stored as the six exact rationals (a, b, c, d, e, f) in that order.  The
conic is smooth iff the symmetric matrix

    [[a, d/2, e/2], [d/2, b, f/2], [e/2, f/2, c]]

is nonsingular.  Arrangements are lists of pairwise non-proportional
smooth conics; their product polynomial is then automatically reduced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .rationals import QQ, rational, format_rational
from .errors import (ValidationError, SingularMember, SingularPencilMember,
                     DuplicateMembers, TooFewMembers, ParseError)
from .multipoly import HomogeneousForm


@dataclass(frozen=True)
class Conic:
    """A smooth (invariants checked by the arrangement validator) conic."""

    coefficients: tuple  # (a, b, c, d, e, f), exact rationals

    def __post_init__(self):
        coeffs = tuple(rational(c) for c in self.coefficients)
        if len(coeffs) != 6:
            raise ValueError("a conic needs exactly six coefficients")
        object.__setattr__(self, "coefficients", coeffs)

    @staticmethod
    def from_strings(strings) -> "Conic":
        return Conic(tuple(rational(s) for s in strings))

    @property
    def matrix(self):
        a, b, c, d, e, f = self.coefficients
        h = QQ(1, 2)
        return [[a, d * h, e * h], [d * h, b, f * h], [e * h, f * h, c]]

    def determinant(self):
        m = self.matrix
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    def is_smooth(self) -> bool:
        return bool(self.determinant())

    def form(self) -> HomogeneousForm:
        a, b, c, d, e, f = self.coefficients
        return HomogeneousForm(2, {(2, 0, 0): a, (0, 2, 0): b, (0, 0, 2): c,
                                   (1, 1, 0): d, (1, 0, 1): e, (0, 1, 1): f})

    def evaluate(self, point):
        """Value of the quadratic form at a projective point (any scalars)."""
        x, y, z = point
        a, b, c, d, e, f = self.coefficients
        return (x * x * a + y * y * b + z * z * c
                + x * y * d + x * z * e + y * z * f)

    def gradient(self, point):
        x, y, z = point
        a, b, c, d, e, f = self.coefficients
        return (x * (2 * a) + y * d + z * e,
                x * d + y * (2 * b) + z * f,
                x * e + y * f + z * (2 * c))

    def transform(self, matrix) -> "Conic":
        """Pull back along the linear substitution v -> matrix . v."""
        m = self.matrix
        t = matrix
        # M' = T^t M T
        tm = [[sum(t[k][i] * m[k][j] for k in range(3)) for j in range(3)]
              for i in range(3)]
        mp = [[sum(tm[i][k] * t[k][j] for k in range(3)) for j in range(3)]
              for i in range(3)]
        return Conic((mp[0][0], mp[1][1], mp[2][2],
                      2 * mp[0][1], 2 * mp[0][2], 2 * mp[1][2]))

    def is_proportional_to(self, other: "Conic") -> bool:
        pairs = list(zip(self.coefficients, other.coefficients))
        for a, b in pairs:
            if a and b:
                r = a / b
                return all(x == r * y for x, y in pairs)
            if a or b:
                return False
        return True  # both zero (never smooth, caught elsewhere)

    def to_json(self):
        return {"coeffs": [format_rational(c) for c in self.coefficients]}

    def to_string(self) -> str:
        return self.form().to_string()


@dataclass(frozen=True)
class ConicArrangement:
    conics: tuple

    @property
    def k(self) -> int:
        return len(self.conics)

    def pairs(self):
        k = self.k
        return [(i, j) for i in range(k) for j in range(i + 1, k)]

    def transform(self, matrix) -> "ConicArrangement":
        return ConicArrangement(tuple(c.transform(matrix) for c in self.conics))

    def to_json(self):
        return {"conics": [c.to_json() for c in self.conics]}


@dataclass(frozen=True)
class ArrangementPolynomial:
    """Defining form of a reduced plane curve, with its source arrangement
    when it came from one (absent for free-standing curves)."""

    form: HomogeneousForm
    source: ConicArrangement | None = None

    @property
    def degree(self) -> int:
        return self.form.degree


def arrangement_violations(conics) -> list:
    """Structured validation: singular members, proportional pairs, size."""
    violations = []
    conics = list(conics)
    if len(conics) < 2:
        violations.append(TooFewMembers(len(conics)))
    for i, c in enumerate(conics):
        if not c.is_smooth():
            violations.append(SingularMember(i))
    for i in range(len(conics)):
        for j in range(i + 1, len(conics)):
            if conics[i].is_proportional_to(conics[j]):
                violations.append(DuplicateMembers(i, j))
    return violations


def validate_arrangement(conics) -> ConicArrangement:
    """Return the validated arrangement; raise ValidationError listing every
    violation (singular member, proportional pair, too few members)."""
    conics = [c if isinstance(c, Conic) else Conic(tuple(c)) for c in conics]
    violations = arrangement_violations(conics)
    if violations:
        raise ValidationError(violations)
    return ConicArrangement(tuple(conics))


def defining_polynomial(arr: ConicArrangement) -> ArrangementPolynomial:
    """The exact product of the member forms; degree 2k and reduced."""
    form = HomogeneousForm(0, {(0, 0, 0): QQ(1)})
    for c in arr.conics:
        form = form.mul(c.form())
    return ArrangementPolynomial(form, arr)


def pencil_members(g1: Conic, g2: Conic, params) -> ConicArrangement:
    """Arrangement of members g1 + t*g2 for each parameter t.

    Every pairwise intersection of distinct members lies in the base locus
    {g1 = g2 = 0}; parameters yielding singular members are rejected.
    """
    if g1.is_proportional_to(g2):
        raise ValidationError([DuplicateMembers(0, 1)])
    violations = []
    members = []
    for t in params:
        t = rational(t)
        member = Conic(tuple(a + t * b for a, b in
                             zip(g1.coefficients, g2.coefficients)))
        if not member.is_smooth():
            violations.append(SingularPencilMember(t))
        members.append(member)
    if violations:
        raise ValidationError(violations)
    return validate_arrangement(members)


# ----------------------------------------------------------------- file I/O

def arrangement_to_document(arr: ConicArrangement) -> str:
    return json.dumps(arr.to_json(), indent=2, sort_keys=True) + "\n"


def arrangement_from_document(text: str) -> ConicArrangement:
    """Parse the arrangement file format:
    {"conics": [{"coeffs": ["1", "1", "-2", "0", "0", "0"]}, ...]}
    with coefficients ordered (a, b, c, d, e, f) for
    a x^2 + b y^2 + c z^2 + d xy + e xz + f yz."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    if not isinstance(doc, dict) or "conics" not in doc:
        raise ParseError("document must be an object with a 'conics' list")
    raw = doc["conics"]
    if not isinstance(raw, list):
        raise ParseError("'conics' must be a list")
    conics = []
    for idx, entry in enumerate(raw):
        if not isinstance(entry, dict) or "coeffs" not in entry:
            raise ParseError(f"conic #{idx} must be an object with 'coeffs'")
        coeffs = entry["coeffs"]
        if not isinstance(coeffs, list) or len(coeffs) != 6:
            raise ParseError(f"conic #{idx} needs exactly six coefficients")
        try:
            conics.append(Conic.from_strings(coeffs))
        except (ValueError, TypeError) as exc:
            raise ParseError(f"conic #{idx}: {exc}") from exc
        except ZeroDivisionError:
            raise ParseError(f"conic #{idx}: a coefficient has a zero "
                             "denominator") from None
    return validate_arrangement(conics)
