"""Full arrangement analysis: one structure tying every engine together.

The report carries the arrangement echo, the weak combinatorics with its
flag ``q_flag`` (every point a node, tacnode or ordinary triple or
quadruple point), all singular point records, the total Tjurina
number by every route that applies (the local sum always, the Hilbert
function at every degree unless turned off, the combinatorial formula
when ``q_flag`` holds), the minimal-relation witness with the
freeness verdict, and the exact outcomes of the combinatorial checks
(pairwise count, tacnode inequality, orbifold bound, tacnode cap).
All rationals serialize as exact strings; decimal approximations are
marked display-only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rationals import QQ, format_rational
from .errors import QConicError
from .arrangement import ConicArrangement, defining_polynomial
from .singular import weak_combinatorics
from .freeness import (FreenessReport, mdr, tjurina_from_combinatorics,
                       global_tjurina)
from .combinatorics import (WeakCombinatorics, check_count, check_tacnode_inequality,
                            langer_lhs_bound, langer_rhs,
                            check_langer_inequality, tacnode_bound,
                            pair_intersection_total)

FORMAT_VERSION = 1


@dataclass(frozen=True)
class AnalysisReport:
    arrangement: ConicArrangement
    combinatorics: WeakCombinatorics
    q_flag: bool
    records: tuple  # SingularPointRecord, canonically sorted
    tau_sources: dict
    tau: int
    freeness: FreenessReport
    checks: dict

    def to_json(self):
        return {
            "format_version": FORMAT_VERSION,
            "arrangement": self.arrangement.to_json(),
            "weak_combinatorics": self.combinatorics.to_json(),
            "q_flag": self.q_flag,
            "singular_points": [r.to_json() for r in self.records],
            "tjurina_total": self.tau,
            "tau_sources": dict(self.tau_sources),
            "freeness": self.freeness.to_json(),
            "checks": dict(self.checks),
        }

    def to_text(self) -> str:
        lines = []
        wc = self.combinatorics
        lines.append(f"Arrangement of {wc.k} smooth conics, "
                     f"degree {self.freeness.degree} curve")
        for i, c in enumerate(self.arrangement.conics):
            lines.append(f"  C{i}: {c.to_string()} = 0")
        lines.append(f"Weak combinatorics: {wc}   "
                     f"[only nodes, tacnodes and ordinary triple or "
                     f"quadruple points: {self.q_flag}]")
        lines.append("Singular points (one representative per conjugacy orbit):")
        for r in self.records:
            approx = ", ".join(r.approx_point())
            lines.append(
                f"  ({approx})  x{r.orbit_size}  on {sorted(r.incident_conics)}"
                f"  {r.kind.name}  milnor={r.milnor} tjurina={r.tjurina}"
                f" quasi-homogeneous={r.quasi_homogeneous}")
        lines.append(f"Total Tjurina number: {self.tau} "
                     f"(routes: {self.tau_sources})")
        fr = self.freeness
        if "hilbert" not in self.tau_sources:
            lines.append("  hilbert route skipped: --no-hilbert-tau")
        if "combinatorial" not in self.tau_sources:
            lines.append("  combinatorial route not applicable: points other "
                         "than nodes, tacnodes and ordinary triple or "
                         "quadruple points")
        lines.append(
            f"Minimal relation degree: {fr.mdr} "
            f"(threshold (d-1)/2 = {format_rational(fr.dpw_threshold)}; "
            f"criterion value r^2 - r(d-1) + (d-1)^2 = {fr.dpw_value})")
        lines.append(f"Freeness verdict: {fr.verdict}")
        lines.append("Checks:")
        for name, value in self.checks.items():
            lines.append(f"  {name}: {value}")
        return "\n".join(lines) + "\n"


def analyze_arrangement(arr: ConicArrangement,
                        with_hilbert_tau: bool = True) -> AnalysisReport:
    """Run the full pipeline on a validated arrangement.

    The local-sum Tjurina route is always computed and is the value used
    by the freeness verdict.  It is cross-checked against the
    Hilbert-function route at every degree unless ``with_hilbert_tau`` is
    false; that route certifies its one rank from the exact kernel that
    :func:`mdr` already computed, at the degree that the singular points
    and their multiplicities certify (see :func:`global_tjurina`).  It
    reads the points and the incidence counts, never the local Tjurina
    numbers.  Building the freeness report checks tau against the du
    Plessis-Wall bounds for the mdr.

    :func:`mdr` starts at the Dimca-Sernesi bound of the weak
    combinatorics (:func:`qconic.freeness.mdr_lower_bound`) when
    ``pair_multiplicities_sum_to_4`` proves the point list complete and
    the combinatorial route equals the local sum, which is mu = tau at
    every point; otherwise at degree 0.  The checks do not read mdr.
    """
    wc, q_flag, records = weak_combinatorics(arr)
    tau_sources = {"local_sum": sum(r.orbit_size * r.tjurina for r in records)}
    if q_flag:
        tau_sources["combinatorial"] = tjurina_from_combinatorics(wc)
    poly = defining_polynomial(arr)
    checks = _combinatorial_checks(wc, q_flag, records)
    # the bound behind mdr needs every singular point, which Bezout's
    # count proves present, and mu = tau at each, which the combinatorial
    # route's agreement with the local sum proves
    complete = checks["pair_multiplicities_sum_to_4"] and (
        tau_sources.get("combinatorial") == tau_sources["local_sum"])
    witness = mdr(poly, wc if complete else None)
    if with_hilbert_tau:
        tau_sources["hilbert"] = global_tjurina(
            poly, witness, [(r.point, r.multiplicity) for r in records])
    if len(set(tau_sources.values())) != 1:
        raise QConicError(f"Tjurina routes disagree: {tau_sources}")
    tau = tau_sources["local_sum"]
    freeness = FreenessReport(degree=poly.degree, tau=tau, witness=witness,
                              tau_sources=tau_sources, combinatorics=wc)

    return AnalysisReport(
        arrangement=arr, combinatorics=wc, q_flag=q_flag,
        records=tuple(records), tau_sources=tau_sources, tau=tau,
        freeness=freeness, checks=checks)


def _combinatorial_checks(wc: WeakCombinatorics, q_flag: bool, records) -> dict:
    checks = {}
    per_pair = {}
    for r in records:
        for pair, mult in r.pairwise_multiplicities.items():
            per_pair[pair] = per_pair.get(pair, 0) + mult * r.orbit_size
    expected_pairs = wc.k * (wc.k - 1) // 2
    checks["pair_multiplicities_sum_to_4"] = (
        len(per_pair) == expected_pairs
        and all(v == 4 for v in per_pair.values()))
    checks["total_intersections"] = pair_intersection_total(wc.k)
    if q_flag:
        checks["count_identity"] = check_count(wc)
    else:
        checks["count_identity"] = "not applicable (non-quasi-homogeneous points)"
    if q_flag and wc.k >= 3:
        checks["tacnode_inequality"] = check_tacnode_inequality(wc)
        checks["orbifold_bound_lhs"] = format_rational(langer_lhs_bound(wc))
        checks["orbifold_bound_rhs"] = langer_rhs(wc.k)
        checks["orbifold_bound"] = check_langer_inequality(wc)
        if wc.n3 == 0 and wc.n4 == 0:
            bound = tacnode_bound(wc.k)
            checks["tacnode_cap"] = format_rational(bound)
            checks["tacnode_cap_satisfied"] = QQ(wc.t2) <= bound
    else:
        checks["tacnode_inequality"] = "not applicable (needs k >= 3 and only quasi-homogeneous points)"
    return checks
