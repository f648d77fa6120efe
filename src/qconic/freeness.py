"""Freeness of reduced plane curves: minimal relation degree, total
Tjurina number, and the du Plessis-Wall numerical criterion.

For a reduced degree-d curve f, ``mdr`` finds the least r such that the
graded map (a, b, c) -> a f_x + b f_y + c f_z from triples of degree-r
forms has a kernel, and returns one exact kernel vector as a witness,
carrying the whole exact kernel in that degree; the Koszul relations
guarantee r <= d - 1.  The total Tjurina number is dim S_t - rank of the
same map in the one degree t = 3d - 5 where the Hilbert function of the
Milnor algebra is proven to equal it.  That rank is certified at every
degree by a modular lower bound and an upper bound from the monomial
multiples of exact relations (the Koszul relations and the kernels
above), with exact kernels, and at last one exact rank, as the fallback
rungs of the same loop (:func:`global_tjurina`).  For arrangement-sourced
curves it is cross-checked against the sum of the local Tjurina
numbers.  The criterion: with r <= (d-1)/2, the curve is free iff
r^2 - r(d-1) + (d-1)^2 equals the total Tjurina number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rationals import QQ, clear_denominators, format_rational
from .errors import NotReducedError, NonIsolatedError, QConicError
from .multipoly import (HomogeneousForm, monomial_basis, monomial_count,
                        is_reduced, p_add, p_mul, p_neg)
from .arrangement import ArrangementPolynomial
from .combinatorics import Q_TYPE_MILNOR, WeakCombinatorics
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
        acc = {}
        for g, part in zip(_int_terms(self.triple),
                           _int_terms([f.derivative(v) for v in range(3)])):
            acc = p_add(acc, p_mul(g, part))
        return not acc

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
    degree: int
    tau: int
    mdr: int
    witness: SyzygyWitness
    dpw_threshold: QQ
    dpw_value: int
    verdict: FreenessVerdict
    tau_sources: dict          # route name -> value, all must agree
    combinatorics: WeakCombinatorics | None = None

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

def jacobian_matrix(f: HomogeneousForm, source_degree: int):
    """Integer matrix of (a, b, c) -> a f_x + b f_y + c f_z on
    degree-``source_degree`` triples; rows follow
    monomial_basis(source_degree + d - 1), columns are var-major then
    monomial_basis(source_degree).

    The coefficients of the three partials are scaled to coprime ints
    jointly, once, so the matrix is a positive rational multiple of the
    map itself: its rank and kernel are those of the map, for
    :func:`_mdr`, :func:`_tjurina_at` and the full-column-rank test alike.
    """
    d = f.degree
    target = source_degree + d - 1
    row_index = {m: i for i, m in enumerate(monomial_basis(target))}
    partials = _int_terms([f.derivative(v) for v in range(3)])
    nrows = len(row_index)
    columns = []
    for part in partials:
        for m in monomial_basis(source_degree):
            col = [0] * nrows
            for mono, c in part.items():
                key = (mono[0] + m[0], mono[1] + m[1], mono[2] + m[2])
                col[row_index[key]] = c
            columns.append(col)
    return [list(row) for row in zip(*columns)]


def _int_terms(forms) -> list:
    """The term dicts of ``forms``, scaled jointly to coprime ints."""
    ints = iter(clear_denominators(
        [c for g in forms for c in g.terms.values()])[0])
    return [{mono: next(ints) for mono in g.terms} for g in forms]


def _require_reduced(f: ArrangementPolynomial):
    if f.source is not None:
        return  # validated arrangements have squarefree products
    if not is_reduced(f.form):
        raise NotReducedError("defining polynomial has a repeated factor")


def mdr(f: ArrangementPolynomial) -> SyzygyWitness:
    """Minimal degree of a relation among the three partials, with witness.

    Tries r = 0, 1, 2, ...; a certified full-column-rank test over a word
    prime skips empty degrees cheaply, and the first nontrivial kernel is
    the certified multi-prime kernel of
    :func:`qconic.linalg.kernel_basis_blockwise`, which is exactly the
    basis of the exact elimination, in its order.  Always terminates by
    r = d - 1 (Koszul).  The witness carries that whole exact kernel for
    :func:`global_tjurina`.
    """
    _require_reduced(f)
    return _mdr(f.form)


def _mdr(form: HomogeneousForm) -> SyzygyWitness:
    """:func:`mdr` on a form already known to be reduced."""
    d = form.degree
    if d < 2:
        raise ValueError("mdr needs degree at least 2")
    for r in range(d):
        rows = jacobian_matrix(form, r)
        if linalg.has_full_column_rank_certified(rows):
            continue
        kernel = linalg.kernel_basis_blockwise(rows)
        if not kernel:
            continue
        return SyzygyWitness(r, _relation(form, r, kernel[0]).triple,
                             tuple(kernel))
    raise QConicError("no relation found by degree d-1; input not reduced?")


def _relation(form: HomogeneousForm, r: int, vec) -> SyzygyWitness:
    """The kernel vector ``vec`` of :func:`jacobian_matrix` in degree ``r``
    as a primitive triple of forms, checked against the syzygy identity."""
    ints, _ = clear_denominators(vec)
    if next((v for v in ints if v), 1) < 0:
        ints = [-v for v in ints]
    n = monomial_count(r)
    basis = monomial_basis(r)
    triple = tuple(
        HomogeneousForm(r, {basis[i]: QQ(ints[v * n + i])
                            for i in range(n) if ints[v * n + i]})
        for v in range(3))
    witness = SyzygyWitness(r, triple)
    if not witness.verify(form):
        raise QConicError("kernel vector failed the syzygy identity")
    return witness


def global_tjurina(f: ArrangementPolynomial,
                   witness: SyzygyWitness | None = None) -> int:
    """Total Tjurina number: dim M(f)_t at the one degree t = 3d - 5.

    M(f) = S/J_f is the Milnor algebra.  For a reduced plane curve,
    dim M(f)_k = dim (S/J^sat)_k + n(f)_k with N(f) = H^0_m(M(f)):

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

    The rank is that of M_s, the Jacobian map on degree-s triples,
    s = 2d - 4, and it is certified between two bounds:

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
    is left, one exact rank at t decides.  So an unlucky prime costs
    time, never the answer.
    """
    _require_reduced(f)
    return _global_tjurina(f.form, witness or _mdr(f.form))


def _global_tjurina(form: HomogeneousForm, witness: SyzygyWitness) -> int:
    """:func:`global_tjurina` on a form already known to be reduced."""
    d = form.degree
    t = 3 * (d - 2) + 1
    rank = _certified_rank(form, witness, t - d + 1)
    tau = _tjurina_at(form, t) if rank is None else monomial_count(t) - rank
    if tau > (d - 1) ** 2:
        raise NonIsolatedError(
            f"dim M(f) = {tau} in degree {t} exceeds (d-1)^2 = {(d - 1) ** 2}")
    return tau


def _certified_rank(form: HomogeneousForm, witness: SyzygyWitness, s: int):
    """rank M_s when the modular bounds of :func:`global_tjurina` meet,
    after adding exact kernels below s as needed; None when they never do."""
    rank = _rank_p(jacobian_matrix(form, s))
    relations = _koszul(form) + [_relation(form, witness.degree, v)
                                 for v in witness.kernel]
    j = witness.degree
    while _short(relations, s, rank):
        j = next((k for k in range(j + 1, s)
                  if _short(relations, k, _rank_p(jacobian_matrix(form, k)))), s)
        if j == s:
            return None
        relations += [_relation(form, j, v) for v in
                      linalg.kernel_basis_blockwise(jacobian_matrix(form, j))]
    return rank


def _short(relations, j: int, rank: int) -> bool:
    """The lower bound ``rank`` = rank_p M_j and the upper bound
    3 dim S_j - rank_p(multiples of ``relations``) do not meet."""
    return rank + _rank_p(_multiples(relations, j)) < 3 * monomial_count(j)


def _rank_p(rows) -> int:
    return linalg.rank_mod_p(rows, linalg.PRIME)


def _koszul(form: HomogeneousForm) -> list:
    """The three Koszul relations, which hold by construction."""
    fx, fy, fz = (form.derivative(v) for v in range(3))
    zero = HomogeneousForm(form.degree - 1, {})
    neg = [HomogeneousForm(g.degree, p_neg(g.terms)) for g in (fx, fy)]
    return [SyzygyWitness(form.degree - 1, triple)
            for triple in ((fy, neg[0], zero), (fz, zero, neg[0]),
                           (zero, fz, neg[1]))]


def _multiples(relations, j: int) -> list:
    """Int rows: the degree-j monomial multiples of ``relations``, in the
    column order of :func:`jacobian_matrix` in source degree j."""
    n = monomial_count(j)
    col = {m: i for i, m in enumerate(monomial_basis(j))}
    rows = []
    for w in relations:
        if w.degree > j:
            continue
        terms = [(v * n, mono, c) for v, g in enumerate(_int_terms(w.triple))
                 for mono, c in g.items()]
        for m in monomial_basis(j - w.degree):
            row = [0] * (3 * n)
            for offset, mono, c in terms:
                row[offset + col[(mono[0] + m[0], mono[1] + m[1],
                                  mono[2] + m[2])]] = c
            rows.append(row)
    return rows


def _tjurina_at(form: HomogeneousForm, t: int) -> int:
    d = form.degree
    src = t - d + 1
    if src < 0:
        return monomial_count(t)
    rows = jacobian_matrix(form, src)
    return monomial_count(t) - linalg.rank_blockwise(rows)


def tjurina_from_combinatorics(wc: WeakCombinatorics) -> int:
    """n2 + 3 t2 + 4 n3 + 9 n4 from ``Q_TYPE_MILNOR``: valid when every
    singular point is of one of those types (local Tjurina = local Milnor)."""
    if not wc.is_q_vector:
        raise QConicError(
            "combinatorial Tjurina formula needs a vector without 'other' points")
    counts = {"node": wc.n2, "tacnode": wc.t2, "ordinary_triple": wc.n3,
              "ordinary_quadruple": wc.n4}
    return sum(Q_TYPE_MILNOR[name] * n for name, n in counts.items())


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
    d = f.form.degree
    witness = _mdr(f.form)
    r = witness.degree
    tau = _global_tjurina(f.form, witness)
    return FreenessReport(
        degree=d, tau=tau, mdr=r, witness=witness,
        dpw_threshold=QQ(d - 1, 2), dpw_value=dpw_value(d, r),
        verdict=du_plessis_wall(d, r, tau), tau_sources={"hilbert": tau})
