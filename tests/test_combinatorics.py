import pytest
from hypothesis import given, settings, strategies as st

from qconic import combinatorics
from qconic.rationals import QQ
from qconic.combinatorics import (WeakCombinatorics, check_count,
                                  freeness_equation_roots,
                                  discriminant_condition, enumerate_admissible,
                                  count_admissible, verify_freeness_obstruction,
                                  orbifold_euler, alpha_window, langer_summand,
                                  langer_lhs_bound, langer_rhs,
                                  check_langer_inequality, check_tacnode_inequality,
                                  tacnode_bound, nodes_tacnodes_vectors,
                                  verify_tacnode_inequality_derivation)
from qconic.errors import (AlphaOutOfWindowError, EmptyWindowError,
                           KTooSmallError)


def test_check_count_examples():
    assert check_count(WeakCombinatorics(2, 4, 0, 0, 0))
    assert check_count(WeakCombinatorics(3, 0, 0, 4, 0))
    assert not check_count(WeakCombinatorics(3, 1, 0, 4, 0))


def test_freeness_equation_roots_examples():
    assert freeness_equation_roots(WeakCombinatorics(2, 0, 2, 0, 0)) == []
    assert freeness_equation_roots(WeakCombinatorics(3, 0, 0, 4, 0)) == []
    assert freeness_equation_roots(WeakCombinatorics(5, 0, 20, 0, 0)) == []


def test_freeness_equation_roots_detects_integer_roots():
    # synthetic non-admissible vector: k = 2, t2 = 3 gives
    # r^2 - 3r + 2 = (r - 1)(r - 2); only r = 1 fits 0 <= 2r <= 3
    wc = WeakCombinatorics(2, 0, 3, 0, 0)
    assert freeness_equation_roots(wc) == [1]
    assert not check_count(wc)


def test_discriminant_examples():
    assert not discriminant_condition(WeakCombinatorics(2, 0, 2, 0, 0))   # 2 < 11/4
    assert not discriminant_condition(WeakCombinatorics(3, 0, 0, 4, 0))   # 4 < 27/4
    assert not discriminant_condition(WeakCombinatorics(5, 0, 20, 0, 0))  # 20 < 83/4


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.data())
def test_no_real_roots_without_discriminant(k, data):
    vectors = list(enumerate_admissible(k))
    wc = data.draw(st.sampled_from(vectors))
    if not discriminant_condition(wc):
        assert freeness_equation_roots(wc) == []


def test_enumerate_k2_exact():
    vs = [wc.vector() for wc in enumerate_admissible(2)]
    assert vs == [(2, 4, 0, 0, 0), (2, 2, 1, 0, 0), (2, 0, 2, 0, 0),
                  (2, 1, 0, 1, 0)]
    assert count_admissible(2) == 4


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_enumeration_matches_brute_force(k):
    total = 2 * k * k - 2 * k
    brute = set()
    for n2 in range(total + 1):
        for t2 in range(total // 2 + 1):
            for n3 in range(total // 3 + 1):
                for n4 in range(total // 6 + 1):
                    if n2 + 2 * t2 + 3 * n3 + 6 * n4 == total:
                        brute.add((n2, t2, n3, n4))
    mine = {(wc.n2, wc.t2, wc.n3, wc.n4) for wc in enumerate_admissible(k)}
    assert mine == brute
    assert all(check_count(wc) for wc in enumerate_admissible(k))


def test_verify_no_free_vectors_small():
    rep = verify_freeness_obstruction(2, 2)
    assert rep.vectors_checked == 4
    assert rep.counterexamples == ()
    rep = verify_freeness_obstruction(2, 5)
    assert rep.counterexamples == ()


def test_verify_parallel_agrees():
    serial = verify_freeness_obstruction(2, 5, jobs=1)
    parallel = verify_freeness_obstruction(2, 5, jobs=2)
    assert serial == parallel


def test_verify_jobs_clamped(monkeypatch):
    import concurrent.futures
    import os

    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    expected = verify_freeness_obstruction(2, 6)
    assert verify_freeness_obstruction(2, 6, jobs=100000) == expected
    assert verify_freeness_obstruction(2, 3, jobs=100000) == verify_freeness_obstruction(2, 3)
    assert pools == [3, 2]
    # one k value, or no CPU count, runs serially without a pool
    verify_freeness_obstruction(4, 4, jobs=100000)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    verify_freeness_obstruction(2, 6, jobs=100000)
    assert pools == [3, 2]


def _per_vector_scan(k):
    """The sweep one vector at a time: the oracle for the row scan."""
    vectors = list(enumerate_admissible(k))
    bad = [(wc, roots) for wc in vectors
           if (roots := freeness_equation_roots(wc))]
    return len(vectors), bad


@pytest.mark.parametrize("k", range(2, 13))
def test_row_scan_matches_per_vector_oracle(k):
    assert combinatorics._scan_k(k) == _per_vector_scan(k)


def test_row_scan_emits_counterexamples_like_oracle(monkeypatch):
    # no admissible vector has a root, so a fake root table is the only
    # way to reach the emission path
    monkeypatch.setattr(combinatorics, "_freeness_roots",
                        lambda k, s: [k, s] if s % 5 == 2 else [])
    for k in range(2, 8):
        checked, bad = combinatorics._scan_k(k)
        assert bad and (checked, bad) == _per_vector_scan(k)


def test_sweep_builds_no_vector_without_a_root(monkeypatch):
    built = []

    class Counting(WeakCombinatorics):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(combinatorics, "WeakCombinatorics", Counting)
    rep = verify_freeness_obstruction(2, 10)
    assert rep.counterexamples == () and built == []
    assert rep.vectors_checked == sum(count_admissible(k) for k in range(2, 11))


@pytest.mark.parametrize("k", range(2, 13))
def test_count_admissible_matches_enumeration(k):
    assert count_admissible(k) == len(list(enumerate_admissible(k)))


def test_orbifold_values_and_windows():
    assert orbifold_euler("node", QQ(1, 2)) == QQ(1, 4)
    assert orbifold_euler("tacnode", QQ(1, 2)) == QQ(1, 8)
    assert orbifold_euler("ordinary_triple", QQ(1, 2)) == QQ(1, 16)
    assert orbifold_euler("ordinary_quadruple", QQ(1, 2)) == 0
    with pytest.raises(AlphaOutOfWindowError):
        orbifold_euler("tacnode", QQ(1, 5))
    with pytest.raises(AlphaOutOfWindowError):
        orbifold_euler("node", QQ(2))
    with pytest.raises(AlphaOutOfWindowError):
        orbifold_euler("ordinary_quadruple", QQ(3, 5))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["node", "tacnode", "ordinary_triple",
                        "ordinary_quadruple"]),
       st.fractions(min_value=0, max_value=1, max_denominator=64))
def test_orbifold_at_most_one_on_window(kind, alpha):
    a = QQ(alpha.numerator, alpha.denominator)
    try:
        value = orbifold_euler(kind, a)
    except AlphaOutOfWindowError:
        return
    assert value <= 1


def test_alpha_window():
    w = alpha_window(3)
    assert (w.lower, w.upper, w.selected) == (QQ(1, 2), QQ(1, 2), QQ(1, 2))
    assert alpha_window(6).lower == QQ(1, 4)
    with pytest.raises(EmptyWindowError):
        alpha_window(2)


def test_langer_summands_exact():
    assert langer_summand("node") == QQ(9, 4)
    assert langer_summand("tacnode") == QQ(45, 8)
    assert langer_summand("ordinary_triple") == QQ(117, 16)
    assert langer_summand("ordinary_quadruple") == 15


def test_langer_lhs_examples():
    # the four coefficients sum: 36/16 + 90/16 + 117/16 + 240/16 = 483/16
    assert langer_lhs_bound(WeakCombinatorics(7, 1, 1, 1, 1)) == QQ(483, 16)
    assert langer_lhs_bound(WeakCombinatorics(3, 0, 0, 4, 0)) == QQ(117, 4)
    assert check_langer_inequality(WeakCombinatorics(3, 0, 0, 4, 0))
    assert langer_lhs_bound(WeakCombinatorics(5, 0, 20, 0, 0)) == QQ(225, 2)
    assert langer_rhs(5) == 110
    assert not check_langer_inequality(WeakCombinatorics(5, 0, 20, 0, 0))


def test_tacnode_inequality_examples():
    assert check_tacnode_inequality(WeakCombinatorics(3, 0, 0, 4, 0))
    assert not check_tacnode_inequality(WeakCombinatorics(5, 0, 20, 0, 0))
    assert check_tacnode_inequality(WeakCombinatorics(4, 0, 12, 0, 0))
    with pytest.raises(KTooSmallError):
        check_tacnode_inequality(WeakCombinatorics(2, 4, 0, 0, 0))


def test_tacnode_bound_values():
    assert tacnode_bound(3) == 8
    assert tacnode_bound(5) == QQ(160, 9)
    with pytest.raises(KTooSmallError):
        tacnode_bound(2)


@pytest.mark.parametrize("k", range(3, 21))
def test_tacnode_bound_equivalence_sweep(k):
    bound = tacnode_bound(k)
    for wc in nodes_tacnodes_vectors(k):
        assert check_tacnode_inequality(wc) == (QQ(wc.t2) <= bound)


def test_derivation_check():
    result = verify_tacnode_inequality_derivation(3)
    assert result["ok"]
    assert result["summands"]["ordinary_triple"] == "117/16"
    assert result["alpha_window"]["selected"] == "1/2"


def test_weak_combinatorics_validation():
    with pytest.raises(ValueError):
        WeakCombinatorics(1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        WeakCombinatorics(2, -1, 0, 0, 0)
