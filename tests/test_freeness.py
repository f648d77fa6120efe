import pytest
from hypothesis import given, settings, strategies as st

from qconic.rationals import QQ
from qconic.linalg import rank_blockwise
from qconic.multipoly import HomogeneousForm, is_reduced, monomial_basis
from qconic.arrangement import (ArrangementPolynomial, Conic, defining_polynomial,
                                pencil_members, validate_arrangement)
from qconic.freeness import (mdr, global_tjurina, tjurina_from_combinatorics,
                             jacobian_matrix,
                             du_plessis_wall, dpw_value, freeness_report)
from qconic.singular import analyze_singular_points
from qconic.combinatorics import WeakCombinatorics
from qconic.errors import NotReducedError, NonIsolatedError, QConicError


def _curve(terms, degree=None):
    form = (HomogeneousForm(degree, terms) if degree is not None
            else HomogeneousForm.from_dict(terms))
    return ArrangementPolynomial(form)


def test_mdr_sphere():
    f = _curve({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    w = mdr(f)
    assert w.degree == 1
    assert w.verify(f.form)
    assert any(not g.is_zero() for g in w.triple)


def test_mdr_triangle():
    f = _curve({(1, 1, 1): 1})
    w = mdr(f)
    assert w.degree == 1
    assert w.verify(f.form)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_mdr_fermat(d):
    f = _curve({(d, 0, 0): 1, (0, d, 0): 1, (0, 0, d): 1})
    assert mdr(f).degree == d - 1


def test_mdr_rejects_non_reduced():
    sq = HomogeneousForm(2, {(2, 0, 0): 1, (0, 1, 1): -1})
    with pytest.raises(NotReducedError):
        mdr(ArrangementPolynomial(sq.mul(sq)))


def test_global_tjurina_examples(generic_pair, tangent_pair, pencil3):
    assert global_tjurina(defining_polynomial(generic_pair)) == 4
    assert global_tjurina(defining_polynomial(tangent_pair)) == 6
    assert global_tjurina(defining_polynomial(pencil3)) == 16


def test_global_tjurina_smooth_curves():
    assert global_tjurina(_curve({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})) == 0
    assert global_tjurina(_curve({(1, 1, 1): 1})) == 3
    # the Fermat quartic is smooth: dim M(f) is 1 (the socle) at t = 3(d-2)
    # and 0 from t = 3d - 5 on
    assert global_tjurina(_curve({(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})) == 0
    # cuspidal cubic y^2 z - x^3: one A2 cusp
    assert global_tjurina(_curve({(0, 2, 1): 1, (3, 0, 0): -1})) == 2


def _windowed_tjurina(form):
    # reference: the former stopping rule, ranks from t = 3(d-2) on until
    # three consecutive dimensions agree
    from qconic import freeness as fr
    d = form.degree
    values = []
    t = max(0, 3 * (d - 2))
    while t <= 5 * d:
        values.append(fr._tjurina_at(form, t))
        if len(values) >= 3 and values[-1] == values[-2] == values[-3]:
            return values[-1]
        t += 1
    raise NonIsolatedError(f"no three equal values by degree {5 * d}")


def test_global_tjurina_matches_window(q_fixtures, five_circles):
    arrangements = dict(q_fixtures, five_circles=five_circles)
    for name, arr in arrangements.items():
        f = defining_polynomial(arr)
        assert global_tjurina(f) == _windowed_tjurina(f.form), name


@st.composite
def _forms_of_degree_3_to_5(draw):
    d = draw(st.sampled_from([3, 4, 5]))
    basis = monomial_basis(d)
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(basis),
                           max_size=len(basis)))
    if draw(st.booleans()):
        # a sparse support: such curves are singular far more often, and
        # some of them need an exact kernel below 2d - 4
        keep = draw(st.sets(st.integers(0, len(basis) - 1), min_size=3,
                            max_size=6))
        coeffs = [c if i in keep else 0 for i, c in enumerate(coeffs)]
    return HomogeneousForm(d, dict(zip(basis, coeffs)))


@settings(max_examples=25, deadline=None)
@given(_forms_of_degree_3_to_5().filter(
    lambda form: not form.is_zero() and is_reduced(form)))
def test_global_tjurina_matches_window_random(form):
    assert global_tjurina(ArrangementPolynomial(form)) == _windowed_tjurina(form)


# z^3 (y^2 - x^2) + x^5 + y^5 + x^2 y^3: one node, tau = 1; dim M(f) is
# 6, 3, 1, 1 at t = 7..10, so it settles only at 3d - 6
_ONE_NODE_QUINTIC = {(0, 2, 3): 1, (2, 0, 3): -1, (5, 0, 0): 1, (0, 5, 0): 1,
                     (2, 3, 0): 1}


def test_global_tjurina_single_rank(monkeypatch, pencil3):
    from qconic import freeness as fr
    calls = []
    rank_at = fr._tjurina_at

    def recording(form, t):
        calls.append(t)
        return rank_at(form, t)

    monkeypatch.setattr(fr, "_tjurina_at", recording)
    # the modular bounds meet at once: no exact rank
    assert fr.global_tjurina(defining_polynomial(pencil3)) == 16
    assert calls == []
    # they never meet below 2d - 4: one exact rank at t = 3d - 5
    assert fr.global_tjurina(_curve(_ONE_NODE_QUINTIC)) == 1
    assert calls == [3 * 5 - 5]


def _contact(kind, k):
    # -x^2 + yz + t xz (3-fold contact) or -x^2 + yz + t z^2 (4-fold)
    column = 4 if kind == 3 else 2
    conics = []
    for t in range(k):
        coeffs = [-1, 0, 0, 0, 0, 1]
        coeffs[column] = t
        conics.append(Conic(coeffs))
    return defining_polynomial(validate_arrangement(conics))


def _pencil6():
    return defining_polynomial(pencil_members(
        Conic((1, 1, -2, 0, 0, 0)), Conic((1, -1, 0, 0, 0, 0)),
        [0, 2, 3, 4, 5, 6]))


@pytest.mark.parametrize("name, curve, kernels, exact", [
    ("contact3_k3", lambda: _contact(3, 3), 1, 0),   # free: second generator
    ("contact4_k3", lambda: _contact(4, 3), 1, 0),
    ("one_node_quintic", lambda: _curve(_ONE_NODE_QUINTIC), 0, 1),
    ("pencil6", _pencil6, 0, 0),                      # degree 12
])
def test_certificate_matches_exact_rank(monkeypatch, name, curve, kernels,
                                        exact):
    from qconic import freeness as fr, linalg
    f = curve()
    witness = mdr(f)
    rungs = []
    kernel_at, rank_at = linalg.kernel_basis_blockwise, fr._tjurina_at
    monkeypatch.setattr(linalg, "kernel_basis_blockwise",
                        lambda rows: rungs.append("kernel") or kernel_at(rows))
    monkeypatch.setattr(fr, "_tjurina_at",
                        lambda form, t: rungs.append("exact") or rank_at(form, t))
    tau = global_tjurina(f, witness)
    monkeypatch.undo()
    assert tau == fr._tjurina_at(f.form, 3 * f.form.degree - 5), name
    assert (rungs.count("kernel"), rungs.count("exact")) == (kernels, exact)


def test_unlucky_prime_costs_time_not_the_answer(monkeypatch, tangent_pair,
                                                 pencil3):
    # a modular rank that under-counts by one never closes the bounds, so
    # every rung runs down to the exact rank
    from qconic import freeness as fr, linalg
    curves = [defining_polynomial(tangent_pair), defining_polynomial(pencil3),
              _curve(_ONE_NODE_QUINTIC)]
    expected = [fr._tjurina_at(f.form, 3 * f.form.degree - 5) for f in curves]
    rank_mod_p = linalg.rank_mod_p
    monkeypatch.setattr(linalg, "rank_mod_p",
                        lambda rows, p: max(rank_mod_p(rows, p) - 1, 0))
    assert [global_tjurina(f) for f in curves] == expected == [6, 16, 1]


def test_wrong_kernel_vector_is_refused(pencil3):
    from qconic.freeness import SyzygyWitness
    f = defining_polynomial(pencil3)
    w = mdr(f)
    bad = list(w.kernel[0])
    bad[0] += 1
    with pytest.raises(QConicError, match="syzygy identity"):
        global_tjurina(f, SyzygyWitness(w.degree, w.triple, (tuple(bad),)))


def test_global_tjurina_matches_local_sum(q_fixtures):
    for arr in q_fixtures.values():
        local = sum(r.orbit_size * r.tjurina for r in analyze_singular_points(arr))
        assert global_tjurina(defining_polynomial(arr)) == local


def test_global_tjurina_non_isolated_cap(monkeypatch):
    # a squared conic has a whole curve of singular points: with the
    # reducedness guard bypassed the dimensions grow forever and the hard
    # cap must fire
    from qconic import freeness as fr
    sq = HomogeneousForm(2, {(2, 0, 0): 1, (0, 1, 1): -1})
    form = sq.mul(sq)
    d = form.degree
    values = [fr._tjurina_at(form, t) for t in range(3 * (d - 2), 2 * d)]
    assert all(b > a for a, b in zip(values, values[1:]))  # strictly growing
    with pytest.raises(NotReducedError):
        global_tjurina(ArrangementPolynomial(form))
    monkeypatch.setattr(fr, "is_reduced", lambda _form: True)
    with pytest.raises(NonIsolatedError):
        fr.global_tjurina(ArrangementPolynomial(form))


def test_tjurina_from_combinatorics():
    assert tjurina_from_combinatorics(WeakCombinatorics(2, 4, 0, 0, 0)) == 4
    assert tjurina_from_combinatorics(WeakCombinatorics(3, 0, 0, 4, 0)) == 16
    assert tjurina_from_combinatorics(WeakCombinatorics(5, 1, 1, 1, 1)) == 17
    with pytest.raises(QConicError):
        tjurina_from_combinatorics(WeakCombinatorics(2, 4, 0, 0, 0, other_count=1))


def test_du_plessis_wall_branches():
    # threshold first: r = 2 > (4-1)/2, so never free regardless of the
    # criterion value (which happens to be 7 = 4 - 6 + 9 here)
    v = du_plessis_wall(4, 2, 7)
    assert not v.free and v.reason == "mdr_above_threshold"
    assert dpw_value(4, 2) == 7
    v = du_plessis_wall(4, 2, 4)
    assert not v.free
    v = du_plessis_wall(6, 3, 10)
    assert not v.free and v.reason == "mdr_above_threshold"
    # genuine free example: triangle xyz has d=3, r=1, tau=3 = 1 - 2 + 4
    v = du_plessis_wall(3, 1, 3)
    assert v.free and v.reason == "criterion_met"
    v = du_plessis_wall(4, 1, 7)
    assert v.free


def test_freeness_report_fixtures(q_fixtures):
    expected_tau = {"generic_pair": 4, "tangent_pair": 6,
                    "pencil3": 16, "pencil4": 36}
    for name, arr in q_fixtures.items():
        rep = freeness_report(defining_polynomial(arr))
        assert rep.tau == expected_tau[name], name
        assert not rep.verdict.free, name
        assert rep.witness.verify(defining_polynomial(arr).form)
        assert len(set(rep.tau_sources.values())) == 1
        assert {"local_sum", "combinatorial", "hilbert"} <= set(rep.tau_sources)


def test_freeness_report_triangle_is_free():
    rep = freeness_report(_curve({(1, 1, 1): 1}))
    assert rep.verdict.free
    assert (rep.degree, rep.mdr, rep.tau, rep.dpw_value) == (3, 1, 3, 3)


def test_freeness_report_smooth_conic():
    rep = freeness_report(_curve({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}))
    assert rep.tau == 0 and rep.mdr == 1
    assert not rep.verdict.free
    assert rep.verdict.reason == "mdr_above_threshold"


def test_freeness_report_checks_reducedness_once(monkeypatch):
    from qconic import freeness as fr
    calls = []

    def counting(form):
        calls.append(form)
        return is_reduced(form)

    monkeypatch.setattr(fr, "is_reduced", counting)
    # (x^2 - yz)(x^2 + yz), a free-standing curve with two tacnodes
    f = _curve({(4, 0, 0): 1, (0, 2, 2): -1})
    rep = freeness_report(f)
    assert (rep.tau, rep.mdr) == (6, 1)
    assert len(calls) == 1


def test_mdr_and_tau_projective_invariance(pencil3):
    T = [[2, 1, 0], [1, 1, 1], [0, 3, 1]]
    f0 = defining_polynomial(pencil3)
    f1 = ArrangementPolynomial(f0.form.transform(T))
    assert mdr(f0).degree == mdr(f1).degree
    assert global_tjurina(f0) == global_tjurina(f1)


def _jacobian_matrix_qq(f, source_degree):
    # reference: the map itself, QQ cells straight from the partials
    target = source_degree + f.degree - 1
    row_index = {m: i for i, m in enumerate(monomial_basis(target))}
    columns = []
    for v in range(3):
        part = f.derivative(v)
        for m in monomial_basis(source_degree):
            col = [QQ(0)] * len(row_index)
            for mono, c in part.terms.items():
                col[row_index[tuple(a + b for a, b in zip(mono, m))]] = c
            columns.append(col)
    return [[col[r] for col in columns] for r in range(len(row_index))]


_rational_conics = st.tuples(
    *[st.fractions(min_value=-3, max_value=3, max_denominator=4)] * 6
).map(Conic).filter(Conic.is_smooth)


@settings(max_examples=12, deadline=None)
@given(st.lists(_rational_conics, min_size=2, max_size=3), st.data())
def test_jacobian_matrix_is_positive_multiple_of_rational_map(conics, data):
    form = conics[0].form()
    for c in conics[1:]:
        form = form.mul(c.form())
    r = data.draw(st.integers(0, form.degree - 1))
    ints = jacobian_matrix(form, r)
    old = _jacobian_matrix_qq(form, r)
    assert all(type(x) is int for row in ints for x in row)
    cells = [(a, b) for ra, rb in zip(ints, old) for a, b in zip(ra, rb)]
    assert all((a == 0) == (b == 0) for a, b in cells)
    scale = next(QQ(a) / b for a, b in cells if b)
    assert scale > 0 and all(a == scale * b for a, b in cells)
    assert rank_blockwise(ints) == rank_blockwise(old)
