"""Singular locus of a conic arrangement.

Since every member is smooth, the singular points of the product curve are
exactly the pairwise intersection points.  For each pair the two conics
are moved by a small integer projective change of coordinates until the
projection from (0:1:0) is generic for them; every solve tries the
identity first and then a fixed list of random frames, in order.  In the
moved frame each conic is a quadratic a2 y^2 + a1 y + a0 in y with a0,
a1, a2 in Q[x] (chart z = 1), and the Bezout quantities

    P = a2 b0 - a0 b2,  L = a1 b2 - a2 b1,  M = a1 b0 - a0 b1

give the y-resultant in closed form, Res_y = P^2 + L M.  The frame is
kept when

  * both moved conics have a nonzero y^2 coefficient (the center lies on
    neither conic; that coefficient is the conic's value at the center,
    so this is checked before the conics are moved),
  * the resultant has degree four (no intersection on the moved line at
    infinity z = 0),
  * gcd(Res_y, L) = 1, decided over Q before anything is factored.  An
    irreducible factor of Res_y vanishes with L at its roots xi exactly
    when it divides L, so L(xi) != 0 at every root, and b2 s - a2 t =
    L y - P puts exactly one point y = P(xi)/L(xi) on that fiber (L(xi)
    = 0 means the two restricted conics are proportional).

Under those checks the resultant, factored once per pencil, is the product
of (x - xi) to the local intersection multiplicity, each irreducible
factor generates the exact field of definition of its fiber point (it is
not proved irreducible again), and the point has coordinates in that
field without any gcd over it.

Pairs that span the same pencil are solved once.  The local
intersection multiplicity satisfies I_P(F, G) = I_P(F, G + A F) and does
not change when F or G is scaled (Fulton, *Algebraic Curves*, 3.3), so
the intersection scheme of C_i and C_j, with every multiplicity on it,
depends only on the span <c_i, c_j> of the two coefficient vectors.
Most extremal arrangements are pencils, where every pair meets in the
same base locus.

Points are merged across pairs by a canonical orbit key: the minimal
polynomial of gamma = X + c*Y (first shift c making gamma a primitive
element) together with the expressions of the normalized coordinates as
polynomials in gamma.  The key is intrinsic to the Galois orbit, so
equality of orbits is a purely symbolic comparison; no floating point is
involved anywhere.

Local Milnor and Tjurina numbers are computed on the germ of each point,
the product of the conics through it, not on the whole curve: the other
members are units in the local ring, and both numbers are contact
invariants (see :func:`analyze_singular_points`).  The whole-curve local
algebra is kept only as a test oracle.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from functools import reduce

from .rationals import QQ, clear_denominators
from .errors import PointNotOnBothError, QConicError
from . import unipoly as up
from .factorint import factor
from .multipoly import HomogeneousForm
from .numberfield import (RATIONAL_FIELD, NumberField, FieldElement,
                          roots_of_irreducible, power_basis_solve)
from .arrangement import Conic, ConicArrangement
from . import localalg
from .localalg import local_milnor_number, local_tjurina_number
from .combinatorics import Q_TYPE_MILNOR, WeakCombinatorics

_GAMMA_SHIFTS = (0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6)
_MAX_FRAME_ATTEMPTS = 64
_PLUCKER_PAIRS = tuple(itertools.combinations(range(6), 2))


# ------------------------------------------------------------------- types

@dataclass(frozen=True)
class SingularityType:
    """Classification of one singular point of the arrangement curve."""

    name: str                 # node | tacnode | ordinary_triple | ordinary_quadruple | other
    branches: int             # number of incident members (= multiplicity of the point)
    max_pair_multiplicity: int
    distinct_tangents: int

    def to_json(self):
        return {"name": self.name, "branches": self.branches,
                "max_pair_multiplicity": self.max_pair_multiplicity,
                "distinct_tangents": self.distinct_tangents}


#: expected (milnor, tjurina) for the four quasi-homogeneous types (tau = mu)
Q_TYPE_INVARIANTS = {name: (mu, mu) for name, mu in Q_TYPE_MILNOR.items()}


@dataclass(frozen=True)
class SingularPointRecord:
    """One Galois orbit of singular points with all computed invariants."""

    key: tuple
    field: NumberField
    point: tuple                      # normalized: last nonzero coordinate is 1
    orbit_size: int
    incident_conics: frozenset
    pairwise_multiplicities: dict     # (i, j) -> local intersection multiplicity
    tangent_partition: tuple          # groups of member indices sharing a tangent
    kind: SingularityType | None = None
    milnor: int | None = None
    tjurina: int | None = None
    quasi_homogeneous: bool | None = None

    @property
    def multiplicity(self) -> int:
        return len(self.incident_conics)

    def approx_point(self, digits: int = 6):
        return [c.enclosure(QQ(1, 10 ** (digits + 2))).approx_str(digits)
                for c in self.point]

    def to_json(self):
        out = {
            "field": self.field.to_json(),
            "point": [c.to_json() for c in self.point],
            "point_approx_display_only": self.approx_point(),
            "orbit_size": self.orbit_size,
            "incident_conics": sorted(self.incident_conics),
            "pairwise_multiplicities": {
                f"{i},{j}": m
                for (i, j), m in sorted(self.pairwise_multiplicities.items())},
            "tangent_partition": [list(g) for g in self.tangent_partition],
        }
        if self.kind is not None:
            out["type"] = self.kind.to_json()
            out["milnor"] = self.milnor
            out["tjurina"] = self.tjurina
            out["quasi_homogeneous"] = self.quasi_homogeneous
        return out


# -------------------------------------------------------- frame candidates

def _frame_candidates():
    yield [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for attempt in range(1, _MAX_FRAME_ATTEMPTS):
        rng = random.Random(7919 * attempt)
        while True:
            m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                   - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                   + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
            if det:
                yield m
                break


# ------------------------------------------------------- pair intersections

def conic_pair_intersections(c1: Conic, c2: Conic):
    """Intersection orbits of two distinct smooth conics.

    Returns a list of (key, field, normalized_coords, orbit_size, mult);
    the per-pair multiplicities times orbit sizes always sum to 4.

    The frames of :func:`_frame_candidates` are tried in order.  The
    identity comes first: it works for most pairs, and its small
    coefficients keep the resultant and the orbit arithmetic cheapest.
    The answer does not depend on the frame: orbit keys and fields are
    canonical (:func:`_orbit_canonical`).
    """
    for frame in _frame_candidates():
        result = _try_frame(c1, c2, frame)
        if result is not None:
            total = sum(orbit * mult for _, _, _, orbit, mult in result)
            if total != 4:
                raise QConicError(
                    f"pair multiplicities sum to {total}, expected 4")
            return result
    raise QConicError("no generic frame found for conic pair")


def _try_frame(c1: Conic, c2: Conic, frame):
    # the moved y^2 coefficient is the conic's value at the projection
    # center, frame column 1
    center = [row[1] for row in frame]
    if not c1.evaluate(center) or not c2.evaluate(center):
        return None  # projection center lies on a conic
    d1, d2 = c1.transform(frame), c2.transform(frame)
    res, p, l = _bezout(d1, d2)
    if up.degree(res) != 4:
        return None  # an intersection point sits on the moved line z = 0
    if up.degree(up.gcd(res, l)) > 0:
        return None  # L vanishes at a root: the fiber is not one point
    out = []
    for q, mult in factor(res)[1]:
        field, coords_new = _fiber_point(p, l, q)
        coords = _apply_frame(frame, coords_new)
        key, rec_field, rec_coords, orbit = _orbit_canonical(field, coords)
        out.append((key, rec_field, rec_coords, orbit, mult))
    return out


def _y_coefficients(c: Conic):
    """(a0, a1, a2) in Q[x] with c(x, y, 1) = a2 y^2 + a1 y + a0."""
    a, b, cc, d, e, f = c.coefficients
    return up.from_coeffs([cc, e, a]), up.from_coeffs([f, d]), up.from_coeffs([b])


def _bezout(d1: Conic, d2: Conic):
    """(Res_y, P, L) with the Bezout quantities of the module docstring;
    Res_y = P^2 + L M is the 4 x 4 Sylvester determinant of d1(x, y, 1)
    and d2(x, y, 1) in y."""
    a0, a1, a2 = _y_coefficients(d1)
    b0, b1, b2 = _y_coefficients(d2)
    p = up.sub(up.mul(a2, b0), up.mul(a0, b2))
    l = up.sub(up.mul(a1, b2), up.mul(a2, b1))
    m = up.sub(up.mul(a1, b0), up.mul(a0, b1))
    return up.add(up.mul(p, p), up.mul(l, m)), p, l


def _fiber_point(p, l, q):
    """The field of xi and the point (xi, P(xi)/L(xi), 1) at the first root
    xi of an irreducible factor q of Res; L(xi) != 0 as gcd(Res, L) = 1."""
    xi = roots_of_irreducible(q)[0]
    return xi.field, (xi, up.evaluate(p, xi) / up.evaluate(l, xi), xi.field.one())


def _apply_frame(frame, coords):
    return tuple(coords[0] * frame[i][0] + coords[1] * frame[i][1]
                 + coords[2] * frame[i][2] for i in range(3))


# --------------------------------------------------------- canonical orbits

def _orbit_canonical(field: NumberField, coords):
    """Normalize a point and build the canonical key of its Galois orbit.

    The key is (chart, shift, min_poly(gamma), X as poly in gamma, Y as
    poly in gamma) for gamma = X + shift*Y, the first shift in a fixed
    list making gamma primitive.  Identical orbits found through any pair
    or frame produce identical keys.
    """
    chart = max(i for i in range(3) if coords[i])
    inv = coords[chart].inverse()
    norm = tuple(c * inv for c in coords)
    if chart == 0:
        one, zero = RATIONAL_FIELD.one(), RATIONAL_FIELD.zero()
        key = (0, 0, (QQ(0), QQ(1)), (), ())
        return key, RATIONAL_FIELD, (one, zero, zero), 1

    affine = [norm[0]] if chart == 1 else [norm[0], norm[1]]
    shifts = (0,) if chart == 1 else _GAMMA_SHIFTS
    for c in shifts:
        gamma = affine[0] if chart == 1 else affine[0] + affine[1] * c
        solved = power_basis_solve(gamma, affine)
        if solved is None:
            continue  # gamma is not primitive
        mu, reps = solved
        rec_field = roots_of_irreducible(mu)[0].field  # Q itself for linear mu
        u = reps[0]
        v = reps[1] if chart == 2 else ()
        key = (chart, c, mu, u, v)
        if chart == 1:
            point = (rec_field.element(u), rec_field.one(), rec_field.zero())
        else:
            point = (rec_field.element(u), rec_field.element(v), rec_field.one())
        return key, rec_field, point, len(mu) - 1
    raise QConicError("no primitive-element shift worked for an orbit")


# ------------------------------------------------------------ record build

def locate_singular_points(arr: ConicArrangement) -> list:
    """All singular points of the arrangement curve, one record per Galois
    orbit, with incidence, pairwise multiplicities and tangent patterns
    filled in; classification and local invariants are filled by
    :func:`analyze_singular_points`.

    Each pencil is solved once: the pairs are keyed by the span of their
    two coefficient vectors (:func:`_pencil_key`), and a pair whose span
    is already solved takes that solve's orbits and multiplicities, which
    depend only on the span (Fulton, *Algebraic Curves*, 3.3).  The key
    is exact; as a backstop, a reuse across pencils with different base
    points would put a point on a member that misses it, and
    :func:`_check_incidence`, which evaluates every member at every point,
    refuses that.  Two proportional members span no pencil and are refused.
    """
    merged: dict = {}
    solved: dict = {}   # pencil key -> the orbits of its first pair
    for i, j in arr.pairs():
        span = _pencil_key(arr.conics[i], arr.conics[j])
        if span is None:
            raise QConicError(
                f"conics {i} and {j} are proportional: they span no pencil")
        if span not in solved:
            solved[span] = conic_pair_intersections(arr.conics[i], arr.conics[j])
        for key, field, point, orbit, mult in solved[span]:
            entry = merged.setdefault(
                key, {"field": field, "point": point, "orbit": orbit,
                      "incident": set(), "mults": {}})
            entry["incident"].update((i, j))
            entry["mults"][(i, j)] = mult
    records = []
    for key in sorted(merged):
        e = merged[key]
        _check_incidence(arr, e["point"], e["incident"])
        records.append(SingularPointRecord(
            key=key,
            field=e["field"],
            point=e["point"],
            orbit_size=e["orbit"],
            incident_conics=frozenset(e["incident"]),
            pairwise_multiplicities=dict(sorted(e["mults"].items())),
            tangent_partition=_tangent_partition(arr, e["point"], e["incident"]),
        ))
    return records


def _pencil_key(c1: Conic, c2: Conic):
    """Canonical key of the pencil spanned by two non-proportional conics:
    the 15 Plucker minors of their 2 x 6 coefficient matrix, as coprime
    integers whose first nonzero one is positive.  The minors determine
    the span; c2 -> c2 + t c1 leaves them unchanged, and scaling either
    conic or swapping the two only scales them.  None for proportional
    conics, whose minors all vanish."""
    a, b = (clear_denominators(c.coefficients)[0] for c in (c1, c2))
    minors = [a[s] * b[t] - a[t] * b[s] for s, t in _PLUCKER_PAIRS]
    g = math.gcd(*minors)
    if not g:
        return None
    if next(m for m in minors if m) < 0:
        g = -g
    return tuple(m // g for m in minors)


def _check_incidence(arr: ConicArrangement, point, incident):
    for m, conic in enumerate(arr.conics):
        on_curve = not conic.evaluate(point)
        if on_curve != (m in incident):
            raise QConicError("incidence bookkeeping mismatch at a point")


def _tangent_partition(arr: ConicArrangement, point, incident):
    """Group incident members by equal (projectively proportional) tangent
    lines; the gradient of a smooth conic at a point of it never vanishes."""
    groups = []
    for m in sorted(incident):
        grad = arr.conics[m].gradient(point)
        placed = False
        for group, rep in groups:
            if _proportional(grad, rep):
                group.append(m)
                placed = True
                break
        if not placed:
            groups.append(([m], grad))
    return tuple(tuple(g) for g, _ in groups)


def _proportional(a, b) -> bool:
    return (a[0] * b[1] == a[1] * b[0]
            and a[0] * b[2] == a[2] * b[0]
            and a[1] * b[2] == a[2] * b[1])


def classify_point(record: SingularPointRecord) -> SingularityType:
    """Node / tacnode / ordinary triple / ordinary quadruple / other, from
    incidence count, pairwise multiplicities and the tangent pattern."""
    m = record.multiplicity
    mults = record.pairwise_multiplicities
    max_mult = max(mults.values())
    tangents = len(record.tangent_partition)
    ordinary = max_mult == 1 and tangents == m
    name = "other"
    if m == 2:
        if max_mult == 1:
            name = "node"
        elif max_mult == 2 and tangents == 1:
            name = "tacnode"
    elif m == 3 and ordinary:
        name = "ordinary_triple"
    elif m == 4 and ordinary:
        name = "ordinary_quadruple"
    return SingularityType(name, m, max_mult, tangents)


def analyze_singular_points(arr: ConicArrangement) -> list:
    """Locate, classify, and compute local Milnor/Tjurina numbers exactly.

    Each point's invariants are computed on its germ: the product of the
    r incident conics, a form of degree 2r.  The members that miss the
    point are units in its local ring, and both numbers are invariants of
    the curve germ, not of its equation: multiplying g by a unit u leaves
    the Tjurina ideal (g, g_u, g_v) unchanged, and the Milnor number is a
    contact invariant as well (Greuel-Lossen-Shustin, *Introduction to
    Singularities and Deformations*, I.2).  So the germ gives the same
    numbers as the whole degree-2k curve, which the tests keep as oracle.
    :func:`_check_incidence` has proved that the incident set is exactly
    the set of members vanishing at the point.  The germ is dehomogenized
    and translated to the origin once, and both numbers are computed on
    it; :mod:`qconic.localalg` derives their truncation cap from it.

    The Milnor number is cross-checked against Milnor's formula for r
    smooth branches, mu = 2 * delta - r + 1 with delta the sum of the
    pairwise intersection multiplicities (Milnor 1968, *Singular Points
    of Complex Hypersurfaces*, section 10).  The two sides come from
    different data: resultant multiplicities against the local algebra.
    """
    out = []
    for rec in locate_singular_points(arr):
        kind = classify_point(rec)
        germ = reduce(HomogeneousForm.mul,
                      (arr.conics[m].form() for m in sorted(rec.incident_conics)))
        g = localalg.local_affine_at(germ, rec.point, rec.field)
        mu = local_milnor_number(g)
        tau = local_tjurina_number(g)
        if tau > mu:
            raise QConicError("local invariants violate tjurina <= milnor")
        milnor_formula = (2 * sum(rec.pairwise_multiplicities.values())
                          - rec.multiplicity + 1)
        if mu != milnor_formula:
            raise QConicError(
                f"local Milnor number {mu} disagrees with Milnor's formula "
                f"{milnor_formula} from the pairwise multiplicities")
        out.append(replace(rec, kind=kind, milnor=mu, tjurina=tau,
                           quasi_homogeneous=(mu == tau)))
    return out


def is_quasi_homogeneous(record: SingularPointRecord) -> bool:
    """Exact criterion: equality of the local Milnor and Tjurina numbers."""
    if record.milnor is None or record.tjurina is None:
        raise QConicError("invariants not computed yet")
    return record.milnor == record.tjurina


def weak_combinatorics(arr: ConicArrangement):
    """Counts (k; n2, t2, n3, n4) plus the non-classified rest.

    Each geometric point counts once: orbit representatives are weighted
    by orbit size.  The flag is True iff every singular point is one of
    the four quasi-homogeneous types.
    """
    records = analyze_singular_points(arr)
    counts = dict.fromkeys([*Q_TYPE_MILNOR, "other"], 0)
    for rec in records:
        counts[rec.kind.name] += rec.orbit_size
    wc = WeakCombinatorics(
        k=arr.k, n2=counts["node"], t2=counts["tacnode"],
        n3=counts["ordinary_triple"], n4=counts["ordinary_quadruple"],
        other_count=counts["other"])
    return wc, counts["other"] == 0, records


# ----------------------------------------------------- standalone multiplicity

def intersection_multiplicity(ci: Conic, cj: Conic, point, field=None) -> int:
    """Local intersection multiplicity of two smooth conics at a point.

    The point may have rational or FieldElement coordinates; it must lie
    on both conics.  Computed as the local algebra dimension of the two
    dehomogenized equations, independently of the resultant route used by
    :func:`locate_singular_points`.
    """
    field = field or _field_of(point)
    coords = tuple(c if isinstance(c, FieldElement) else field.rational(c)
                   for c in point)
    if not any(coords):
        raise ValueError("(0 : 0 : 0) is not a projective point")
    if ci.evaluate(coords) or cj.evaluate(coords):
        raise PointNotOnBothError("point must lie on both conics")
    chart = max(i for i in range(3) if coords[i])
    inv = coords[chart].inverse()
    norm = tuple(c * inv for c in coords)
    gens = [localalg.local_affine_at(c.form(), norm, field) for c in (ci, cj)]
    return localalg.truncated_quotient_dimension(gens, cap=11)


def _field_of(point):
    for c in point:
        if isinstance(c, FieldElement):
            return c.field
    return RATIONAL_FIELD
