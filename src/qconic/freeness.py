"""Freeness of reduced plane curves: minimal relation degree, total
Tjurina number, and the du Plessis-Wall numerical criterion.

For a reduced degree-d curve f, ``mdr`` finds the least r such that the
graded map (a, b, c) -> a f_x + b f_y + c f_z from triples of degree-r
forms has a kernel, and returns one exact kernel vector as a witness;
the Koszul relations guarantee r <= d - 1.  The total Tjurina number is
dim S_t - rank of the same map in the one degree t = 3d - 5 where the
Hilbert function of the Milnor algebra is proven to equal it, and for
arrangement-sourced curves it is cross-checked against the sum of the
local Tjurina numbers.  The criterion: with r <= (d-1)/2, the curve
is free iff r^2 - r(d-1) + (d-1)^2 equals the total Tjurina number.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rationals import QQ, clear_denominators, format_rational
from .errors import NotReducedError, NonIsolatedError, QConicError
from .multipoly import (HomogeneousForm, monomial_basis, monomial_count,
                        is_reduced)
from .arrangement import ArrangementPolynomial
from .combinatorics import WeakCombinatorics
from . import linalg


@dataclass(frozen=True)
class SyzygyWitness:
    """A nonzero triple (a, b, c) of degree-r forms with
    a f_x + b f_y + c f_z = 0, verified exactly at construction."""

    degree: int
    triple: tuple  # three HomogeneousForm values

    def verify(self, f: HomogeneousForm) -> bool:
        acc = HomogeneousForm(0, {})
        for g, var in zip(self.triple, range(3)):
            acc = acc.add(g.mul(f.derivative(var)))
        return acc.is_zero()

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
    partials = [f.derivative(v).terms for v in range(3)]
    ints, _ = clear_denominators([c for part in partials for c in part.values()])
    scaled = iter(ints)
    partials = [[(mono, next(scaled)) for mono in part] for part in partials]
    nrows = len(row_index)
    columns = []
    for part in partials:
        for m in monomial_basis(source_degree):
            col = [0] * nrows
            for mono, c in part:
                key = (mono[0] + m[0], mono[1] + m[1], mono[2] + m[2])
                col[row_index[key]] = c
            columns.append(col)
    return [list(row) for row in zip(*columns)]


def _require_reduced(f: ArrangementPolynomial):
    if f.source is not None:
        return  # validated arrangements have squarefree products
    if not is_reduced(f.form):
        raise NotReducedError("defining polynomial has a repeated factor")


def mdr(f: ArrangementPolynomial) -> SyzygyWitness:
    """Minimal degree of a relation among the three partials, with witness.

    Tries r = 0, 1, 2, ...; a certified full-column-rank test over a word
    prime skips empty degrees cheaply, and the first nontrivial kernel is
    recomputed exactly.  Always terminates by r = d - 1 (Koszul).
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
        vec = _primitive(kernel[0])
        n = monomial_count(r)
        basis = monomial_basis(r)
        triple = []
        for v in range(3):
            terms = {basis[i]: vec[v * n + i] for i in range(n) if vec[v * n + i]}
            triple.append(HomogeneousForm(r, terms))
        witness = SyzygyWitness(r, tuple(triple))
        if not witness.verify(form):
            raise QConicError("kernel vector failed the syzygy identity")
        return witness
    raise QConicError("no relation found by degree d-1; input not reduced?")


def _primitive(vec):
    ints, _ = clear_denominators(vec)
    lead = next((v for v in ints if v), 1)
    if lead < 0:
        ints = [-v for v in ints]
    return [QQ(v) for v in ints]


def global_tjurina(f: ArrangementPolynomial) -> int:
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
    """
    _require_reduced(f)
    return _global_tjurina(f.form)


def _global_tjurina(form: HomogeneousForm) -> int:
    """:func:`global_tjurina` on a form already known to be reduced."""
    d = form.degree
    t = 3 * (d - 2) + 1
    tau = _tjurina_at(form, t)
    if tau > (d - 1) ** 2:
        raise NonIsolatedError(
            f"dim M(f) = {tau} in degree {t} exceeds (d-1)^2 = {(d - 1) ** 2}")
    return tau


def _tjurina_at(form: HomogeneousForm, t: int) -> int:
    d = form.degree
    src = t - d + 1
    if src < 0:
        return monomial_count(t)
    rows = jacobian_matrix(form, src)
    return monomial_count(t) - linalg.rank_blockwise(rows)


def tjurina_from_combinatorics(wc: WeakCombinatorics) -> int:
    """n2 + 3 t2 + 4 n3 + 9 n4: valid when every singular point is one of
    the four quasi-homogeneous types (local Tjurina equals local Milnor)."""
    if not wc.is_q_vector:
        raise QConicError(
            "combinatorial Tjurina formula needs a vector without 'other' points")
    return wc.n2 + 3 * wc.t2 + 4 * wc.n3 + 9 * wc.n4


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
    Hilbert-function route (when the degree stays small) and against the
    combinatorial formula when every singularity is quasi-homogeneous.
    Free-standing curves use the Hilbert-function route alone.
    """
    if f.source is not None:
        from .report import analyze_arrangement
        return analyze_arrangement(f.source).freeness
    _require_reduced(f)
    d = f.form.degree
    witness = _mdr(f.form)
    r = witness.degree
    tau = _global_tjurina(f.form)
    return FreenessReport(
        degree=d, tau=tau, mdr=r, witness=witness,
        dpw_threshold=QQ(d - 1, 2), dpw_value=dpw_value(d, r),
        verdict=du_plessis_wall(d, r, tau), tau_sources={"hilbert": tau})
