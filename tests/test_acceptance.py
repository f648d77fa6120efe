"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Every assertion is exact (integer or rational equality); the
stated runtime budgets are asserted as wall-clock upper bounds.
"""

import random
import time

from qconic.rationals import QQ
from qconic.arrangement import defining_polynomial, ArrangementPolynomial
from qconic.singular import weak_combinatorics, analyze_singular_points
from qconic.freeness import freeness_report, mdr, global_tjurina
from qconic.combinatorics import (verify_freeness_obstruction, count_admissible,
                                  langer_summand, check_tacnode_inequality,
                                  check_langer_inequality, orbifold_euler,
                                  tacnode_bound, nodes_tacnodes_vectors,
                                  check_count)
from qconic.multipoly import HomogeneousForm
from qconic.report import analyze_arrangement


def _announce(n, label, started, budget):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {n}: PASS - {label} ({elapsed:.1f}s of {budget}s budget)")
    assert elapsed < budget


def test_criterion_1_five_circle_regression(five_circles):
    started = time.time()
    report = analyze_arrangement(five_circles, with_hilbert_tau=False)
    origin = next(r for r in report.records
                  if r.approx_point() == ["0", "0", "1"])
    assert origin.multiplicity == 5
    assert origin.milnor == 16
    assert origin.tjurina == 15
    assert origin.quasi_homogeneous is False
    assert report.q_flag is False
    _announce(1, "five-circle arrangement: multiplicity-5 point at (0:0:1) "
                 "with milnor 16, tjurina 15, not quasi-homogeneous",
              started, 60)


def test_criterion_2_exhaustive_nonfreeness_sweep():
    started = time.time()
    report = verify_freeness_obstruction(2, 12)
    assert count_admissible(2) == 4
    assert len(report.counterexamples) == 0
    assert report.vectors_checked == sum(count_admissible(k)
                                         for k in range(2, 13))
    _announce(2, f"no admissible vector in k in [2, 12] admits a freeness "
                 f"root ({report.vectors_checked} vectors)", started, 300)


def test_criterion_3_geometric_fixtures_not_free(q_fixtures):
    started = time.time()
    expected = {"generic_pair": ((2, 4, 0, 0, 0), 4),
                "tangent_pair": ((2, 0, 2, 0, 0), 6),
                "pencil3": ((3, 0, 0, 4, 0), 16),
                "pencil4": ((4, 0, 0, 0, 4), 36)}
    for name, arr in q_fixtures.items():
        vec, tau = expected[name]
        rep = freeness_report(defining_polynomial(arr))
        assert rep.combinatorics.vector() == vec, name
        assert rep.tau == tau, name
        assert rep.tau_sources["local_sum"] == tau, name
        assert not rep.verdict.free, name
    _announce(3, "all four constructed fixtures receive NotFree with "
                 "tau = 4, 6, 16, 36 (local sums agree)", started, 120)


def test_criterion_4_orbifold_constants_and_inequality(q_fixtures):
    started = time.time()
    expected = {"node": QQ(9, 4), "tacnode": QQ(45, 8),
                "ordinary_triple": QQ(117, 16), "ordinary_quadruple": QQ(15)}
    for name, value in expected.items():
        assert langer_summand(name) == value
    # summands reproduce 3((mu-1)/2 + 1 - e_orb(type, 1/2)) with the mu
    # computed from the fixtures themselves
    seen = {}
    for arr in q_fixtures.values():
        for rec in analyze_singular_points(arr):
            seen[rec.kind.name] = rec.milnor
            s = 3 * (QQ(rec.milnor - 1, 2) + 1
                     - orbifold_euler(rec.kind.name, QQ(1, 2)))
            assert s == expected[rec.kind.name]
    assert set(seen) == set(expected)
    for arr in q_fixtures.values():
        wc, q_flag, _ = weak_combinatorics(arr)
        assert q_flag
        if wc.k >= 3:
            assert check_tacnode_inequality(wc)
            assert check_langer_inequality(wc)
    _announce(4, "per-type summands equal 9/4, 45/8, 117/16, 15 exactly and "
                 "the tacnode inequality holds on the corpus", started, 60)


def test_criterion_5_tacnode_bound_equivalence():
    started = time.time()
    checked = 0
    for k in range(3, 21):
        bound = tacnode_bound(k)
        for wc in nodes_tacnodes_vectors(k):
            assert check_tacnode_inequality(wc) == (QQ(wc.t2) <= bound)
            checked += 1
    _announce(5, f"nodes-and-tacnodes sweep k in [3, 20]: inequality fails "
                 f"exactly above (4/9)k^2 + (4/3)k ({checked} vectors)",
              started, 30)


def test_criterion_6_tjurina_oracle_equivalence(q_fixtures, five_circles):
    started = time.time()
    fixtures = dict(q_fixtures)
    fixtures["five_circles"] = five_circles
    for name, arr in fixtures.items():
        records = analyze_singular_points(arr)
        local = sum(r.orbit_size * r.tjurina for r in records)
        hilbert = global_tjurina(defining_polynomial(arr))
        assert hilbert == local, name
    _announce(6, "Hilbert-function Tjurina equals the orbit-weighted local "
                 "sum on every fixture (five circles included)", started, 120)


def test_criterion_7_property_suites(q_fixtures, five_circles):
    started = time.time()
    rng = random.Random(20260810)
    fixtures = dict(q_fixtures)
    fixtures["five_circles"] = five_circles
    base = {}
    for name, arr in fixtures.items():
        wc, q_flag, records = weak_combinatorics(arr)
        if q_flag:
            assert check_count(wc), name  # the pairwise count identity
        per_pair = {}
        for rec in records:
            for pair, mult in rec.pairwise_multiplicities.items():
                per_pair[pair] = per_pair.get(pair, 0) + mult * rec.orbit_size
        assert all(v == 4 for v in per_pair.values()), name
        assert len(per_pair) == len(arr.pairs()), name
        base[name] = (wc, q_flag,
                      sorted((r.kind.name, r.orbit_size, r.milnor, r.tjurina)
                             for r in records))
    # witnesses satisfy their defining identity exactly
    for name, arr in fixtures.items():
        poly = defining_polynomial(arr)
        witness = mdr(poly)
        assert witness.verify(poly.form), name

    # invariance under 10 random projective changes of coordinates per fixture
    for name, arr in q_fixtures.items():
        base_mdr = mdr(defining_polynomial(arr)).degree
        for trial in range(10):
            T = _random_transform(rng)
            moved = arr.transform(T)
            wc, q_flag, records = weak_combinatorics(moved)
            assert (wc, q_flag) == (base[name][0], base[name][1]), (name, trial)
            assert sorted((r.kind.name, r.orbit_size, r.milnor, r.tjurina)
                          for r in records) == base[name][2], (name, trial)
            moved_poly = defining_polynomial(moved)
            assert mdr(moved_poly).degree == base_mdr, (name, trial)
    _announce(7, "count identity, per-pair multiplicity sums, witness "
                 "identities, and invariance under 10 random projective "
                 "transforms per fixture", started, 600)


def _random_transform(rng):
    while True:
        T = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        det = (T[0][0] * (T[1][1] * T[2][2] - T[1][2] * T[2][1])
               - T[0][1] * (T[1][0] * T[2][2] - T[1][2] * T[2][0])
               + T[0][2] * (T[1][0] * T[2][1] - T[1][1] * T[2][0]))
        if det:
            return T


def test_criterion_8_known_free_control():
    started = time.time()
    triangle = ArrangementPolynomial(HomogeneousForm(3, {(1, 1, 1): 1}))
    rep = freeness_report(triangle)
    assert rep.verdict.free
    assert (rep.degree, rep.mdr, rep.tau) == (3, 1, 3)
    assert rep.dpw_value == 1 - 2 + 4 == 3
    _announce(8, "the coordinate triangle x*y*z is detected Free "
                 "(d=3, r=1, tau=3)", started, 60)
