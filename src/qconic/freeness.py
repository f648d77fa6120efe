"""Freeness of reduced plane curves: minimal relation degree, total
Tjurina number, and the du Plessis-Wall numerical criterion.

For a reduced degree-d curve f, ``mdr`` finds the least r such that the
graded map (a, b, c) -> a f_x + b f_y + c f_z from triples of degree-r
forms has a kernel, and returns one exact kernel vector as a witness,
carrying the whole exact kernel in that degree; the Koszul relations
guarantee r <= d - 1.  On an arrangement it starts at the Dimca-Sernesi
bound alpha d - 2 (:func:`mdr_lower_bound`), alpha the least Arnold
exponent among the points: 1 for a node, 3/4 for a tacnode, 2/3 for an
ordinary triple and 1/2 for an ordinary quadruple point.  The report
passes the weak combinatorics only when ``q_flag`` holds, the pairwise
intersection counts prove the point list complete, and the local
Tjurina sum equals the combinatorial formula (mu = tau at every point);
the tests keep the full column rank mod p of every skipped degree as the
oracle.  The total Tjurina number is dim S_t - rank of the
same map in one degree t where the Hilbert function of the Milnor
algebra is proven to equal it: t = 3d - 5 for every reduced curve, or
t = 3d - 6 - j* when the caller lists singular points with their
multiplicities and no nonzero degree-j* form vanishes to the order they
force on the Jacobian ideal (:func:`jet_degree`, one jet matrix ranked
mod p).  That rank is certified at every degree by a modular lower bound
and an upper bound from the monomial multiples of exact relations (the
Koszul relations and the kernels above), with exact kernels below that
degree, and at last the certified kernel in it, as the fallback rungs of
the same loop (:func:`global_tjurina`).  For arrangement-sourced curves
it is cross-checked against the sum of the local Tjurina numbers.  Every
report checks tau against the du Plessis-Wall bounds for its mdr
(:func:`dpw_bounds`).  The criterion: with r <= (d-1)/2, the curve is
free iff r^2 - r(d-1) + (d-1)^2 equals the total Tjurina number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, factorial, lcm

from .rationals import QQ, clear_denominators, format_rational
from .errors import NotReducedError, NonIsolatedError, QConicError
from .multipoly import (HomogeneousForm, monomial_basis, monomial_count,
                        is_reduced, p_add, p_mul, p_neg)
from .arrangement import ArrangementPolynomial
from .combinatorics import (Q_TYPE_ARNOLD_EXPONENT, Q_TYPE_MILNOR,
                            WeakCombinatorics)
from . import linalg


@dataclass(frozen=True)
class SyzygyWitness:
    """A nonzero triple (a, b, c) of degree-r forms with
    a f_x + b f_y + c f_z = 0, verified exactly at construction.

    ``kernel`` is the exact kernel basis of :func:`jacobian_matrix` in
    degree r when :func:`mdr` found the witness; it is not serialized."""

    degree: int
    triple: tuple  # three HomogeneousForm values
    kernel: tuple = field(default=(), repr=False, compare=False)

    def verify(self, f: HomogeneousForm) -> bool:
        # the triple and the partials are each scaled by a positive
        # constant, which keeps the identity and the products in ints
        return _is_syzygy(_int_terms(self.triple), _int_partials(f))

    def to_json(self):
        return {"degree": self.degree,
                "triple": [g.to_json() for g in self.triple]}


@dataclass(frozen=True)
class FreenessVerdict:
    free: bool
    reason: str  # criterion_met | value_mismatch | mdr_above_threshold

    def __str__(self):
        return ("Free" if self.free else "NotFree") + f" ({self.reason})"


@dataclass(frozen=True)
class FreenessReport:
    """The inputs of the du Plessis-Wall verdict; the rest derives from them.

    Construction checks tau against :func:`dpw_bounds` for r = mdr, which
    ties the kernels behind mdr to the routes behind tau."""

    degree: int
    tau: int
    witness: SyzygyWitness
    tau_sources: dict          # route name -> value, all must agree
    combinatorics: WeakCombinatorics | None = None

    def __post_init__(self):
        low, high = dpw_bounds(self.degree, self.mdr)
        if not low <= self.tau <= high:
            raise QConicError(
                f"tau = {self.tau} outside the du Plessis-Wall bounds "
                f"[{low}, {high}] for d = {self.degree}, mdr = {self.mdr}")

    @property
    def mdr(self) -> int:
        return self.witness.degree

    @property
    def dpw_threshold(self) -> QQ:
        return QQ(self.degree - 1, 2)

    @property
    def dpw_value(self) -> int:
        return dpw_value(self.degree, self.mdr)

    @property
    def verdict(self) -> FreenessVerdict:
        return du_plessis_wall(self.degree, self.mdr, self.tau)

    def to_json(self):
        out = {
            "degree": self.degree,
            "tjurina_total": self.tau,
            "mdr": self.mdr,
            "witness": self.witness.to_json(),
            "dpw_threshold": format_rational(self.dpw_threshold),
            "dpw_value": self.dpw_value,
            "free": self.verdict.free,
            "verdict_reason": self.verdict.reason,
            "tau_sources": dict(self.tau_sources),
        }
        if self.combinatorics is not None:
            out["weak_combinatorics"] = self.combinatorics.to_json()
        return out


# ------------------------------------------------------------ graded maps

def jacobian_matrix(partials, source_degree: int):
    """Integer matrix of (a, b, c) -> a f_x + b f_y + c f_z on
    degree-``source_degree`` triples, from the int partials of
    :func:`_int_partials`; rows follow monomial_basis(source_degree + d - 1),
    columns are var-major then monomial_basis(source_degree).

    Column (v, m) holds the coefficients of m f_v, so the matrix is the
    transpose of :func:`_multiples` of the three one-entry relations
    (f_v,): one placement loop builds it and the certificate's multiples.
    The partials are one positive multiple of the true ones, so the matrix
    is a positive rational multiple of the map itself: its rank and kernel
    are those of the map, for :func:`_mdr` and :func:`_certified_rank`
    alike.
    """
    e = next(sum(mono) for part in partials for mono in part)
    columns = _multiples([(e, (part,)) for part in partials],
                         source_degree + e)
    return [list(row) for row in zip(*columns)]


def _int_partials(form: HomogeneousForm) -> list:
    """f_x, f_y, f_z as term dicts, scaled jointly to coprime ints."""
    return _int_terms([form.derivative(v) for v in range(3)])


def _int_terms(forms) -> list:
    """The term dicts of ``forms``, scaled jointly to coprime ints."""
    ints = iter(clear_denominators(
        [c for g in forms for c in g.terms.values()])[0])
    return [{mono: next(ints) for mono in g.terms} for g in forms]


def _is_syzygy(triple, partials) -> bool:
    """a f_x + b f_y + c f_z = 0 for the int term dicts (a, b, c)."""
    acc = {}
    for g, part in zip(triple, partials):
        acc = p_add(acc, p_mul(g, part))
    return not acc


def _require_reduced(f: ArrangementPolynomial):
    if f.source is not None:
        return  # validated arrangements have squarefree products
    if not is_reduced(f.form):
        raise NotReducedError("defining polynomial has a repeated factor")


def mdr(f: ArrangementPolynomial,
        combinatorics: WeakCombinatorics | None = None) -> SyzygyWitness:
    """Minimal degree of a relation among the three partials, with witness.

    Tries r = b, b + 1, ..., for b = :func:`mdr_lower_bound` of
    ``combinatorics`` (0 without it); each degree asks one certified
    multi-prime kernel of the whole Jacobian matrix from
    :func:`qconic.linalg.kernel_basis_blockwise`, which is exactly the
    basis of the exact elimination, in its order; the witness is its
    first vector, the first vector of the RREF basis.  An empty
    kernel mod its first prime already proves that the degree has none, so
    empty degrees stay cheap.  Always terminates by r = d - 1 (Koszul).
    The witness carries the whole exact kernel of the first nonempty
    degree for :func:`global_tjurina`.

    ``combinatorics`` must count every singular point of the curve, an
    arrangement of ``combinatorics.k`` conics, each as the type it is:
    :func:`qconic.report.analyze_arrangement` passes it only when every
    pair of conics has its four intersections among the points (Bezout),
    so none is missing, and the local Tjurina sum equals the
    combinatorial formula, so mu = tau at every point.  The degrees below
    b have no relation by the theorem behind the bound; the tests keep
    their full column rank mod p, the scan from 0, as the oracle.
    """
    _require_reduced(f)
    start = 0
    if combinatorics is not None:
        if 2 * combinatorics.k != f.form.degree:
            raise ValueError("combinatorics of a different degree")
        start = mdr_lower_bound(combinatorics)
    return _mdr(f.form, start)


def mdr_lower_bound(wc: WeakCombinatorics) -> int:
    """max(0, ceil(alpha 2k - 2)) when every point counted in ``wc`` is of
    a type in ``Q_TYPE_ARNOLD_EXPONENT``, alpha the least exponent among
    them; 0 otherwise.

    For a reduced plane curve of degree d whose singular points are all
    weighted homogeneous, mdr(f) >= alpha d - 2, with alpha the least
    Arnold exponent w1 + w2 among them (Dimca-Sernesi, "Syzygies and
    logarithmic vector fields along plane curves", J. Ec. polytech. Math.
    1, 2014).  Nodes (A1, alpha 1), tacnodes (A3, 3/4), ordinary triple
    points (D4, 2/3) and ordinary quadruple points (X9, 1/2) are weighted
    homogeneous: every ordinary quadruple point is an X9, of normal form
    x^4 + a x^2 y^2 + y^4 and weights (1/4, 1/4).  The report confirms
    it at run time, by mu = tau at every point (Saito 1971: a germ is
    weighted homogeneous iff mu = tau).  A point of type "other" gives
    no bound, and neither does a vector without points.
    """
    exponents = [Q_TYPE_ARNOLD_EXPONENT[name]
                 for name, n in _type_counts(wc).items() if n]
    if not wc.is_q_vector or not exponents:
        return 0
    bound = min(exponents) * (2 * wc.k) - 2
    return max(0, -(-int(bound.numerator) // int(bound.denominator)))


def _mdr(form: HomogeneousForm, start: int = 0) -> SyzygyWitness:
    """:func:`mdr` on a form already known to be reduced, from degree
    ``start``, which must be at most mdr."""
    d = form.degree
    if d < 2:
        raise ValueError("mdr needs degree at least 2")
    partials = _int_partials(form)
    for r in range(start, d):
        kernel = linalg.kernel_basis_blockwise(jacobian_matrix(partials, r))
        if kernel:
            _, triple = _relation(partials, r, kernel[0])
            forms = tuple(HomogeneousForm(r, {m: QQ(c) for m, c in g.items()})
                          for g in triple)
            return SyzygyWitness(r, forms, tuple(kernel))
    raise QConicError("no relation found by degree d-1; input not reduced?")


def _relation(partials, r: int, vec) -> tuple:
    """The kernel vector ``vec`` of :func:`jacobian_matrix` in degree ``r``
    as a relation (r, primitive int triple of term dicts), checked against
    the syzygy identity."""
    ints, _ = clear_denominators(vec)
    if next((v for v in ints if v), 1) < 0:
        ints = [-v for v in ints]
    n = monomial_count(r)
    triple = tuple({m: c for m, c in zip(monomial_basis(r), ints[v * n:])
                    if c} for v in range(3))
    if not _is_syzygy(triple, partials):
        raise QConicError("kernel vector failed the syzygy identity")
    return r, triple


def global_tjurina(f: ArrangementPolynomial,
                   witness: SyzygyWitness | None = None,
                   points=()) -> int:
    """Total Tjurina number: dim M(f)_t at one degree t, t = 3d - 5 or,
    with ``points``, the earlier degree t = 3d - 6 - j* they certify.

    M(f) = S/J_f is the Milnor algebra.  For a reduced plane curve,
    dim M(f)_k = dim (S/J^sat)_k + n(f)_k with N(f) = J^sat/J = H^0_m(M(f)):

    * N(f) is self-dual about T/2 for T = 3(d - 2), n(f)_k = n(f)_{T-k}
      (Sernesi, "The local cohomology of the Jacobian ring", Doc. Math.
      2014; Dimca, "Syzygies of Jacobian ideals and defects of linear
      systems", Geom. Dedicata 2013), so n(f)_k = 0 for k > T;
    * the Jacobian scheme, of length tau, lies on the complete
      intersection of two general partials of degree d - 1, so
      S/J^sat has Hilbert function tau from degree 2d - 4 on.

    Hence dim M(f)_k = tau for every k >= T + 1 = 3d - 5, and one rank
    gives the value.  T itself is too early for smooth curves, where
    M(f)_T is the one-dimensional socle.  A reduced curve has
    tau <= mu <= (d - 1)^2 (du Plessis-Wall, "Application of the theory
    of the discriminant to highly singular plane curves", Math. Proc.
    Cambridge Philos. Soc. 1999); a larger value means the singularities
    are not isolated and raises NonIsolatedError.

    ``points`` moves t earlier.  It holds pairs (point, m): a singular
    point of the curve, as a tuple of three ``FieldElement`` coordinates
    of one field, where f has multiplicity at least m >= 2.  For
    j <= d - 2, T - j >= 2d - 4, so dim M(f)_{T-j} = tau + n(f)_j, and
    J_j = 0, so n(f)_j = dim (J^sat)_j.  At each listed p every partial
    of f, hence the stalk of J and of J^sat, lies in m_p^(m_p - 1).  So
    when no nonzero degree-j form vanishes to order m_p - 1 at every
    listed point, tau = dim M(f)_{T-j}.  :func:`jet_degree` finds the
    largest such j* <= d - 2 by a full column rank mod p of
    :func:`jet_matrix`.  A point that is missing from the list only
    removes rows, so an incomplete list can weaken the certificate,
    never falsify it; without points, or when no j passes, t = 3d - 5.

    The rank is that of M_s, the Jacobian map on degree-s triples,
    s = t - d + 1 (2d - 4 without points), and it is certified between
    two bounds:

    * rank_p M_s <= rank M_s for a prime p, because a minor that is a
      unit mod p is nonzero over Q (von zur Gathen-Gerhard, *Modern
      Computer Algebra*, ch. 5);
    * rank M_s = 3 dim S_s - dim AR(f)_s, where AR(f) is the module of
      relations a f_x + b f_y + c f_z = 0 (Dimca, *Hyperplane
      Arrangements*, Springer 2017, ch. 8), and dim AR(f)_s is at least
      the rank mod p of the degree-s monomial multiples of exact
      relations: the Koszul relations (f_y, -f_x, 0), (f_z, 0, -f_x),
      (0, f_z, -f_y), which hold by construction, and the exact kernel
      in degree mdr carried by ``witness`` (computed by :func:`mdr` when
      not given), each vector checked against the syzygy identity.

    When rank_p M_s plus the rank of the multiples is 3 dim S_s, the
    bounds meet and rank M_s = rank_p M_s.  Otherwise the exact kernel is
    added at the first degree j, mdr < j < s, where the same two bounds
    fall short, and degree s is tried again; free curves need their
    second generator, in degree d - 1 - mdr, this way.  When no short j
    is left, the certified kernel of M_s decides, by rank-nullity:
    rank M_s = 3 dim S_s - dim ker_Q M_s (the kernel is certified as in
    :func:`qconic.linalg.kernel_basis_blockwise`).  So an unlucky prime
    costs time, never the answer.
    """
    _require_reduced(f)
    return _global_tjurina(f.form, witness or _mdr(f.form), points)


def _global_tjurina(form: HomogeneousForm, witness: SyzygyWitness,
                    points=()) -> int:
    """:func:`global_tjurina` on a form already known to be reduced."""
    d = form.degree
    t = 3 * (d - 2) - jet_degree(d, points)
    tau = monomial_count(t) - _certified_rank(form, witness, t - d + 1)
    if tau > (d - 1) ** 2:
        raise NonIsolatedError(
            f"dim M(f) = {tau} in degree {t} exceeds (d-1)^2 = {(d - 1) ** 2}")
    return tau


def jet_degree(d: int, points) -> int:
    """The largest j <= d - 2 at which :func:`jet_matrix` has full column
    rank mod ``linalg.PRIME``, or -1 when none does, which happens only
    without points.

    The search starts at the largest j whose row count reaches dim S_j
    and goes down.  Any passing j is a certificate on its own, so the
    search needs no monotonicity.  It ends by j = 0 when there are
    points: a point with m_p - 2 >= j contributes all order-j partials,
    which are the coefficients themselves.
    """
    def rows(j):
        return sum(p[0].field.degree * monomial_count(min(m - 2, j))
                   for p, m in points)

    start = max((j for j in range(d - 1) if monomial_count(j) <= rows(j)),
                default=-1)
    for j in range(start, -1, -1):
        if _rank_p(jet_matrix(points, j)) == monomial_count(j):
            return j
    return -1


def jet_matrix(points, j: int) -> list:
    """Int rows on the coefficients of a degree-j form h (columns in
    monomial_basis(j)): at each (point, m) of ``points``, every partial of
    h of order k = min(m - 2, j) at the point, split into one rational row
    per power-basis coordinate of the point's field.

    Full column rank means that no nonzero h vanishes to order m - 1 at
    every point: by Euler's identity (j - |a|) d^a h = sum x_i d_i d^a h,
    so when the order-k partials vanish at p the lower ones do too, for
    k <= j.  h has rational coefficients, so its conditions at one point
    of a Galois orbit are those at every conjugate.  Each point's rows are
    scaled by one positive common denominator.
    """
    basis = monomial_basis(j)
    rows = []
    for point, m in points:
        k = min(m - 2, j)
        powers = []
        for c in point:
            col = [c.field.one()]
            for _ in range(j - k):
                col.append(col[-1] * c)
            powers.append(col)
        values = {nu: powers[0][nu[0]] * powers[1][nu[1]] * powers[2][nu[2]]
                  for nu in monomial_basis(j - k)}
        den = lcm(*(v.den for v in values.values()))
        for alpha in monomial_basis(k):
            terms = [(col, c, values[(mu[0] - alpha[0], mu[1] - alpha[1],
                                      mu[2] - alpha[2])])
                     for col, mu in enumerate(basis)
                     if (c := _falling(mu, alpha))]
            for i in range(point[0].field.degree):
                row = [0] * len(basis)
                for col, c, v in terms:
                    row[col] = c * v.num[i] * (den // v.den)
                rows.append(row)
    return rows


def _falling(mu, alpha) -> int:
    """The constant of d^alpha x^mu = c x^(mu - alpha); 0 unless mu >= alpha."""
    c = 1
    for a, b in zip(mu, alpha):
        if b > a:
            return 0
        c *= factorial(a) // factorial(a - b)
    return c


def _certified_rank(form: HomogeneousForm, witness: SyzygyWitness, s: int):
    """rank M_s: rank_p M_s once the modular bounds of
    :func:`global_tjurina` meet, after adding exact kernels below s as
    needed; when they never do, 3 dim S_s - dim ker_Q M_s by the certified
    kernel at s (rank-nullity)."""
    partials = _int_partials(form)
    fx, fy, fz = partials
    e = form.degree - 1
    rank = _rank_p(jacobian_matrix(partials, s))
    relations = [(e, (fy, p_neg(fx), {})), (e, (fz, {}, p_neg(fx))),
                 (e, ({}, fz, p_neg(fy)))]  # Koszul: hold by construction
    relations += [_relation(partials, witness.degree, v)
                  for v in witness.kernel]
    j = witness.degree
    while _short(relations, s, rank):
        j = next((k for k in range(j + 1, s) if _short(
            relations, k, _rank_p(jacobian_matrix(partials, k)))), s)
        kernel = linalg.kernel_basis_blockwise(jacobian_matrix(partials, j))
        if j == s:
            return 3 * monomial_count(s) - len(kernel)
        relations += [_relation(partials, j, v) for v in kernel]
    return rank


def _short(relations, j: int, rank: int) -> bool:
    """The lower bound ``rank`` = rank_p M_j and the upper bound
    3 dim S_j - rank_p(multiples of ``relations``) do not meet."""
    return rank + _rank_p(_multiples(relations, j)) < 3 * monomial_count(j)


def _rank_p(rows) -> int:
    return linalg.rank_mod_p(rows, linalg.PRIME)


def _multiples(relations, j: int) -> list:
    """Int rows: the degree-j monomial multiples of ``relations``, pairs
    (degree, tuple of int term dicts), entry-major over monomial_basis(j);
    for triples, the column order of :func:`jacobian_matrix` in source
    degree j."""
    n = monomial_count(j)
    col = {m: i for i, m in enumerate(monomial_basis(j))}
    rows = []
    for degree, entries in relations:
        if degree > j:
            continue
        terms = [(v * n, mono, c) for v, g in enumerate(entries)
                 for mono, c in g.items()]
        for m in monomial_basis(j - degree):
            row = [0] * (len(entries) * n)
            for offset, mono, c in terms:
                row[offset + col[(mono[0] + m[0], mono[1] + m[1],
                                  mono[2] + m[2])]] = c
            rows.append(row)
    return rows


def tjurina_from_combinatorics(wc: WeakCombinatorics) -> int:
    """n2 + 3 t2 + 4 n3 + 9 n4 from ``Q_TYPE_MILNOR``: valid when every
    singular point is of one of those types (local Tjurina = local Milnor)."""
    if not wc.is_q_vector:
        raise QConicError(
            "combinatorial Tjurina formula needs a vector without 'other' points")
    return sum(Q_TYPE_MILNOR[name] * n for name, n in _type_counts(wc).items())


def _type_counts(wc: WeakCombinatorics) -> dict:
    return {"node": wc.n2, "tacnode": wc.t2, "ordinary_triple": wc.n3,
            "ordinary_quadruple": wc.n4}


def du_plessis_wall(d: int, r: int, tau: int) -> FreenessVerdict:
    """Numerical freeness verdict for a reduced degree-d curve with minimal
    relation degree r and total Tjurina number tau.

    When 2r > d - 1 the curve is not free (free curves satisfy the
    threshold); otherwise freeness is equivalent to
    r^2 - r(d-1) + (d-1)^2 = tau.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    if not 0 <= r <= d - 1:
        raise ValueError("mdr out of range")
    if QQ(r) > QQ(d - 1, 2):
        return FreenessVerdict(False, "mdr_above_threshold")
    if dpw_value(d, r) == tau:
        return FreenessVerdict(True, "criterion_met")
    return FreenessVerdict(False, "value_mismatch")


def dpw_value(d: int, r: int) -> int:
    return r * r - r * (d - 1) + (d - 1) ** 2


def dpw_bounds(d: int, r: int) -> tuple:
    """(low, high) with low <= tau <= high for every reduced degree-d curve
    with minimal relation degree r (du Plessis-Wall 1999, Theorem 3.2):
    low = (d-1)(d-r-1), high = (d-1)^2 - r(d-r-1), less C(2r+2-d, 2)
    when 2r >= d.  A free curve meets ``high``."""
    high = (d - 1) ** 2 - r * (d - r - 1)
    if 2 * r >= d:
        high -= comb(2 * r + 2 - d, 2)
    return (d - 1) * (d - r - 1), high


def freeness_report(f: ArrangementPolynomial) -> FreenessReport:
    """Full freeness analysis of a reduced curve.

    Arrangement-sourced curves take the freeness part of
    :func:`qconic.report.analyze_arrangement`, whose Tjurina number is the
    exact sum of local Tjurina numbers, cross-checked against the
    Hilbert-function route at every degree and against the combinatorial
    formula when every singularity is quasi-homogeneous.  Free-standing
    curves use the Hilbert-function route alone, on the same certified
    path, reusing the kernel that :func:`mdr` computed.
    """
    if f.source is not None:
        from .report import analyze_arrangement
        return analyze_arrangement(f.source).freeness
    _require_reduced(f)
    witness = _mdr(f.form)
    tau = _global_tjurina(f.form, witness)
    return FreenessReport(degree=f.form.degree, tau=tau, witness=witness,
                          tau_sources={"hilbert": tau})
