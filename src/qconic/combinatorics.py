"""Weak combinatorics of conic arrangements: counts, freeness obstruction,
orbifold bounds, admissible-vector enumeration and exhaustive verifiers.

Everything here is exact integer/rational arithmetic on the vector
(k; n2, t2, n3, n4): no geometry enters.  The two built-in verifiers are

  * the freeness obstruction sweep: for every admissible vector the
    quadratic that a free arrangement's minimal relation degree would
    have to satisfy has no integer root in the admissible range (decided a
    row of fixed n4, n3 at a time: the quadratic sees only k and
    t2 + n3 + 3 n4), and

  * the symbolic derivation of the tacnode inequality
    8k + n2 + (3/4) n3 >= (5/2) t2 from the per-type orbifold summands.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from dataclasses import dataclass

from .rationals import QQ, format_rational
from .errors import AlphaOutOfWindowError, EmptyWindowError, KTooSmallError
from .multipoly import p_add, p_sub, p_scale, p_mul


@dataclass(frozen=True)
class WeakCombinatorics:
    """The vector (k; n2, t2, n3, n4) plus a count of unclassified points."""

    k: int
    n2: int
    t2: int
    n3: int
    n4: int
    other_count: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("an arrangement has at least two conics")
        if min(self.n2, self.t2, self.n3, self.n4, self.other_count) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def is_q_vector(self) -> bool:
        return self.other_count == 0

    def vector(self):
        return (self.k, self.n2, self.t2, self.n3, self.n4)

    def to_json(self):
        return {"k": self.k, "n2": self.n2, "t2": self.t2, "n3": self.n3,
                "n4": self.n4, "other": self.other_count}

    def __str__(self):
        base = f"({self.k}; {self.n2}, {self.t2}, {self.n3}, {self.n4})"
        if self.other_count:
            base += f" + {self.other_count} other"
        return base


# --------------------------------------------------------------- the count

def pair_intersection_total(k: int) -> int:
    """Total pairwise intersection multiplicity of k smooth conics."""
    return 4 * math.comb(k, 2)


def check_count(wc: WeakCombinatorics) -> bool:
    """Exact test of n2 + 2 t2 + 3 n3 + 6 n4 = 4 C(k, 2): each node counts
    one pairwise intersection, each tacnode two, ordinary triples three and
    ordinary quadruples six."""
    return (wc.n2 + 2 * wc.t2 + 3 * wc.n3 + 6 * wc.n4
            == pair_intersection_total(wc.k))


# ------------------------------------------------------ freeness obstruction

def freeness_equation_roots(wc: WeakCombinatorics) -> list:
    """Integer roots r, within 0 <= 2r <= 2k-1, of

        r^2 - r(2k-1) + 2k^2 - 2k + 1 - (t2 + n3 + 3 n4) = 0.

    A free arrangement with this weak combinatorics would need its minimal
    relation degree to be such a root; the sweep confirms none exists.
    """
    return _freeness_roots(wc.k, wc.t2 + wc.n3 + 3 * wc.n4)


def _freeness_roots(k: int, s: int) -> list:
    b = 2 * k - 1
    c = 2 * k * k - 2 * k + 1 - s
    disc = b * b - 4 * c
    if disc < 0:
        return []
    sq = math.isqrt(disc)
    if sq * sq != disc:
        return []
    roots = []
    for sign in (-1, 1):
        num = b + sign * sq
        if num % 2 == 0:
            r = num // 2
            if 0 <= 2 * r <= 2 * k - 1 and r not in roots:
                roots.append(r)
    return sorted(roots)


def discriminant_condition(wc: WeakCombinatorics) -> bool:
    """t2 + n3 + 3 n4 >= k^2 - k + 3/4: necessary for the freeness equation
    to have any real root at all."""
    s = wc.t2 + wc.n3 + 3 * wc.n4
    k = wc.k
    return QQ(s) >= QQ(k * k - k) + QQ(3, 4)


def _rows(k: int):
    """The rows (n4, n3, rem3) of the admissible vectors for k, in
    lexicographic order; rem3 = n2 + 2 t2 is what is left for the row."""
    if k < 2:
        raise ValueError("k must be at least 2")
    total = 2 * k * k - 2 * k
    for n4 in range(total // 6 + 1):
        rem4 = total - 6 * n4
        for n3 in range(rem4 // 3 + 1):
            yield n4, n3, rem4 - 3 * n3


def enumerate_admissible(k: int):
    """All (n2, t2, n3, n4) >= 0 with n2 + 2 t2 + 3 n3 + 6 n4 = 2k^2 - 2k,
    in lexicographic order of (n4, n3, t2); n2 is determined."""
    for n4, n3, rem3 in _rows(k):
        for t2 in range(rem3 // 2 + 1):
            yield WeakCombinatorics(k, rem3 - 2 * t2, t2, n3, n4)


def count_admissible(k: int) -> int:
    return sum(rem3 // 2 + 1 for _, _, rem3 in _rows(k))


@dataclass(frozen=True)
class ObstructionReport:
    k_min: int
    k_max: int
    vectors_checked: int
    counterexamples: tuple

    def to_json(self):
        return {"k_min": self.k_min, "k_max": self.k_max,
                "vectors_checked": self.vectors_checked,
                "counterexamples": [
                    {"vector": wc.to_json(), "roots": roots}
                    for wc, roots in self.counterexamples]}


def _scan_k(k: int):
    """(vectors checked, counterexamples) of the freeness sweep for one k,
    in the order of ``enumerate_admissible``.

    Row lemma: the freeness quadratic depends on a vector only through k
    and s = t2 + n3 + 3 n4, and 2s <= n2 + 2 t2 + 3 n3 + 6 n4 = 2k^2 - 2k
    bounds s by k^2 - k.  So the roots are tabulated once per s, and along
    the row of fixed (n4, n3), t2 = 0..rem3 // 2 walks s through the
    interval [n3 + 3 n4, n3 + 3 n4 + rem3 // 2]; only the vectors whose s
    has a root are built.
    """
    roots = {s: r for s in range(k * k - k + 1)
             if (r := _freeness_roots(k, s))}
    root_s = sorted(roots)
    checked = 0
    bad = []
    for n4, n3, rem3 in _rows(k):
        lo = n3 + 3 * n4
        half = rem3 // 2
        checked += half + 1
        i = bisect_left(root_s, lo)
        while i < len(root_s) and (t2 := root_s[i] - lo) <= half:
            wc = WeakCombinatorics(k, rem3 - 2 * t2, t2, n3, n4)
            bad.append((wc, roots[root_s[i]]))
            i += 1
    return checked, bad


def verify_freeness_obstruction(k_min: int, k_max: int, jobs: int = 1) -> ObstructionReport:
    """Exhaustively check that no admissible vector admits an integer root
    of the freeness equation, for every k in [k_min, k_max]."""
    if not 2 <= k_min <= k_max:
        raise ValueError("need 2 <= k_min <= k_max")
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    ks = list(range(k_min, k_max + 1))
    # ProcessPoolExecutor starts every worker up front: never ask for more
    # than there are k values or CPUs
    jobs = min(jobs, len(ks), os.cpu_count() or 1)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_scan_k, ks))
    else:
        results = [_scan_k(k) for k in ks]
    checked = sum(c for c, _ in results)
    bad = tuple(b for _, bs in results for b in bs)
    return ObstructionReport(k_min, k_max, checked, bad)


# --------------------------------------------------------------- orbifold

def _type_name(kind) -> str:
    return getattr(kind, "name", kind)


#: local Milnor numbers of the four quasi-homogeneous singularity types
Q_TYPE_MILNOR = {"node": 1, "tacnode": 3, "ordinary_triple": 4,
                 "ordinary_quadruple": 9}

_ORDINARY_BRANCHES = {"ordinary_triple": 3, "ordinary_quadruple": 4}


def orbifold_euler(kind, alpha) -> QQ:
    """Local orbifold Euler number of a weighted pair at a singular point.

    For a node the value is (1-a)^2 on 0 <= a <= 1; for a tacnode
    (3-4a)^2/8 on 1/4 < a <= 3/4; for an ordinary m-fold point (m = 3, 4)
    the returned value (1 - m a / 2)^2 on 0 <= a <= 2/m is an upper bound,
    which is the direction the global inequality consumes.  Values never
    exceed 1 on their windows.
    """
    name = _type_name(kind)
    a = QQ(alpha)
    if name == "node":
        if not (0 <= a <= 1):
            raise AlphaOutOfWindowError(name, a)
        return (1 - a) ** 2
    if name == "tacnode":
        if not (QQ(1, 4) < a <= QQ(3, 4)):
            raise AlphaOutOfWindowError(name, a)
        return (3 - 4 * a) ** 2 / 8
    if name in _ORDINARY_BRANCHES:
        m = _ORDINARY_BRANCHES[name]
        if not (0 <= a <= QQ(2, m)):
            raise AlphaOutOfWindowError(name, a)
        return (1 - QQ(m, 2) * a) ** 2
    raise ValueError(f"no orbifold value for type {name!r}")


@dataclass(frozen=True)
class AlphaWindow:
    lower: QQ
    upper: QQ
    selected: QQ

    def to_json(self):
        return {"lower": format_rational(self.lower),
                "upper": format_rational(self.upper),
                "selected": format_rational(self.selected)}


def alpha_window(k: int) -> AlphaWindow:
    """Admissible weights: [3/(2k), 1/2]; empty below three conics.

    The lower end makes the weighted canonical class effective, the upper
    end keeps the pair log canonical at every singularity type; 1/2 is
    always the selected weight.
    """
    lo = QQ(3, 2 * k)
    hi = QQ(1, 2)
    if lo > hi:
        raise EmptyWindowError(f"3/(2k) = {lo} exceeds 1/2 for k = {k}")
    return AlphaWindow(lo, hi, QQ(1, 2))


def langer_summand(kind) -> QQ:
    """Per-point lower-bound summand 3((mu-1)/2 + 1 - e_orb(type, 1/2))."""
    name = _type_name(kind)
    mu = Q_TYPE_MILNOR[name]
    return 3 * (QQ(mu - 1, 2) + 1 - orbifold_euler(name, QQ(1, 2)))


def langer_lhs_bound(wc: WeakCombinatorics) -> QQ:
    """Lower bound (9/4) n2 + (45/8) t2 + (117/16) n3 + 15 n4 for the
    orbifold inequality's left side at weight 1/2."""
    return (QQ(9, 4) * wc.n2 + QQ(45, 8) * wc.t2
            + QQ(117, 16) * wc.n3 + 15 * wc.n4)


def langer_rhs(k: int) -> int:
    """Right side 5k^2 - 3k of the global orbifold inequality at weight 1/2."""
    return 5 * k * k - 3 * k


def check_langer_inequality(wc: WeakCombinatorics) -> bool:
    if wc.k < 3:
        raise KTooSmallError("the orbifold inequality needs k >= 3")
    return langer_lhs_bound(wc) <= langer_rhs(wc.k)


def check_tacnode_inequality(wc: WeakCombinatorics) -> bool:
    """Exact test of 8k + n2 + (3/4) n3 >= (5/2) t2 (requires k >= 3)."""
    if wc.k < 3:
        raise KTooSmallError("the tacnode inequality needs k >= 3")
    return (QQ(8 * wc.k) + wc.n2 + QQ(3, 4) * wc.n3) >= QQ(5, 2) * wc.t2


def tacnode_bound(k: int) -> QQ:
    """Upper bound (4/9) k^2 + (4/3) k on t2 for nodes-and-tacnodes-only
    admissible vectors; equivalent to the tacnode inequality there."""
    if k < 3:
        raise KTooSmallError("the tacnode bound needs k >= 3")
    return QQ(4, 9) * k * k + QQ(4, 3) * k


def nodes_tacnodes_vectors(k: int):
    """Admissible vectors with n3 = n4 = 0."""
    total = 2 * k * k - 2 * k
    for t2 in range(total // 2 + 1):
        yield WeakCombinatorics(k, total - 2 * t2, t2, 0, 0)


# ----------------------------------------------- symbolic derivation check

_VARS = ("k", "n2", "t2", "n3", "n4")


def _sym(name):
    e = [0] * 5
    e[_VARS.index(name)] = 1
    return {tuple(e): QQ(1)}


def verify_tacnode_inequality_derivation(k: int | None = None) -> dict:
    """Check, at the level of exact coefficients, the derivation of the
    tacnode inequality from the orbifold bound.

    Verifies (1) the four per-type summands against mu and e_orb at 1/2,
    (2) the count identity 2k^2 = 2k + n2 + 2 t2 + 3 n3 + 6 n4 rewritten
    from the pairwise count, and (3) that substituting the count into the
    orbifold bound is, coefficient for coefficient, four times the final
    inequality once scaled by 16.  When ``k`` is given the weight window
    is checked to be non-empty as well.
    """
    expected = {"node": QQ(9, 4), "tacnode": QQ(45, 8),
                "ordinary_triple": QQ(117, 16), "ordinary_quadruple": QQ(15)}
    summands_ok = all(langer_summand(name) == val
                      for name, val in expected.items())

    kk, n2, t2, n3, n4 = (_sym(v) for v in _VARS)
    # count constraint: 4*C(k,2) = 2k^2 - 2k equals n2 + 2 t2 + 3 n3 + 6 n4
    count_rhs = p_add(p_add(n2, p_scale(t2, QQ(2))),
                      p_add(p_scale(n3, QQ(3)), p_scale(n4, QQ(6))))
    two_k2 = p_scale(p_mul(kk, kk), QQ(2))
    # substituting the count for 2k^2 - 2k must reproduce 5k^2 - 3k exactly
    five_k2_minus_3k = p_sub(p_scale(p_mul(kk, kk), QQ(5)), p_scale(kk, QQ(3)))
    count_ok = (p_sub(p_scale(two_k2, QQ(5, 2)), p_scale(kk, QQ(3)))
                == five_k2_minus_3k)
    lhs = p_add(p_add(p_scale(n2, QQ(9, 4)), p_scale(t2, QQ(45, 8))),
                p_add(p_scale(n3, QQ(117, 16)), p_scale(n4, QQ(15))))
    # (5/2)(2k + n2 + 2t2 + 3n3 + 6n4) - 3k
    inner = p_add(p_scale(kk, QQ(2)), count_rhs)
    rhs = p_sub(p_scale(inner, QQ(5, 2)), p_scale(kk, QQ(3)))
    diff16 = p_scale(p_sub(rhs, lhs), QQ(16))
    final = p_add(p_add(p_scale(kk, QQ(8)), n2),
                  p_sub(p_scale(n3, QQ(3, 4)), p_scale(t2, QQ(5, 2))))
    implication_ok = diff16 == p_scale(final, QQ(4))

    result = {
        "summands": {name: format_rational(expected[name]) for name in expected},
        "summands_match": summands_ok,
        "count_substitution_ok": count_ok,
        "implication_ok": implication_ok,
        "ok": summands_ok and count_ok and implication_ok,
    }
    if k is not None:
        window = alpha_window(k)
        result["alpha_window"] = window.to_json()
    return result
