from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qconic.rationals import QQ, clear_denominators
from qconic.linalg import rank_blockwise, _to_int_rows
from qconic.multipoly import (HomogeneousForm, is_reduced, monomial_basis,
                              monomial_count)
from qconic.arrangement import (ArrangementPolynomial, Conic, defining_polynomial,
                                pencil_members, validate_arrangement)
from qconic.freeness import (mdr, global_tjurina, tjurina_from_combinatorics,
                             jacobian_matrix, _int_partials,
                             du_plessis_wall, dpw_value, freeness_report)
from qconic.parsing import parse_homogeneous_form
from qconic.singular import analyze_singular_points
from qconic.combinatorics import WeakCombinatorics
from qconic.errors import NotReducedError, NonIsolatedError, QConicError
from fraction_reference import kernel_basis_rational, tjurina_at


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
    d = form.degree
    values = []
    t = max(0, 3 * (d - 2))
    while t <= 5 * d:
        values.append(tjurina_at(form, t))
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


def _record_kernel_degrees(monkeypatch) -> list:
    """Patch ``linalg.kernel_basis_blockwise`` to record the source degree
    j of each Jacobian matrix it is asked for (column count 3 dim S_j)."""
    from qconic import linalg
    degrees = []
    kernel = linalg.kernel_basis_blockwise

    def recording(rows):
        n = len(rows[0]) // 3
        degrees.append(next(j for j in range(n) if monomial_count(j) == n))
        return kernel(rows)

    monkeypatch.setattr(linalg, "kernel_basis_blockwise", recording)
    return degrees


def test_global_tjurina_single_rank(monkeypatch, pencil3):
    curves = [defining_polynomial(pencil3), _curve(_ONE_NODE_QUINTIC)]
    witnesses = [mdr(f) for f in curves]
    degrees = _record_kernel_degrees(monkeypatch)
    # the modular bounds meet at once: no kernel
    assert global_tjurina(curves[0], witnesses[0]) == 16
    assert degrees == []
    # they never meet below s = 2d - 4: one certified kernel at s
    assert global_tjurina(curves[1], witnesses[1]) == 1
    assert degrees == [2 * 5 - 4]


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


@pytest.mark.parametrize("name, curve, below, at_s", [
    ("contact3_k3", lambda: _contact(3, 3), 1, 0),   # free: second generator
    ("contact4_k3", lambda: _contact(4, 3), 1, 0),
    ("one_node_quintic", lambda: _curve(_ONE_NODE_QUINTIC), 0, 1),
    ("pencil6", _pencil6, 0, 0),                      # degree 12
])
def test_certificate_matches_exact_rank(monkeypatch, name, curve, below,
                                        at_s):
    # ``below`` kernels before s, ``at_s`` at s = 2d - 4 (the last rung); a
    # free curve's kernel below s is its second generator, in d - 1 - mdr
    f = curve()
    witness = mdr(f)
    d = f.form.degree
    degrees = _record_kernel_degrees(monkeypatch)
    tau = global_tjurina(f, witness)
    assert tau == tjurina_at(f.form, 3 * d - 5), name
    assert degrees == ([d - 1 - witness.degree] * below
                       + [2 * d - 4] * at_s), name


def test_freeness_needs_no_exact_rank(monkeypatch, q_fixtures):
    # every exact answer of mdr and global_tjurina comes from the certified
    # kernel: with the fraction-free rank refused they still match the
    # oracle, the quintic through the kernel at s and x*y with its node at
    # s = -1, where M_s is empty
    from qconic import freeness as fr, linalg
    from qconic.numberfield import RATIONAL_FIELD

    def refuse(rows):
        raise AssertionError("fraction-free elimination called")

    monkeypatch.setattr(linalg, "rank_blockwise", refuse)
    monkeypatch.setattr(linalg, "_int_echelon", refuse)
    node = tuple(RATIONAL_FIELD.rational(QQ(c)) for c in (0, 0, 1))
    cases = [(defining_polynomial(arr), ()) for arr in q_fixtures.values()]
    cases += [(_curve(_ONE_NODE_QUINTIC), ()),
              (_curve({(1, 1, 0): 1}), [(node, 2)])]
    seen = []
    certified = fr._certified_rank
    monkeypatch.setattr(fr, "_certified_rank", lambda form, w, s:
                        seen.append(s) or certified(form, w, s))
    expected = [tjurina_at(f.form, 3 * f.form.degree - 5) for f, _ in cases]
    assert [global_tjurina(f, mdr(f), points)
            for f, points in cases] == expected
    assert expected[-2:] == [1, 1] and seen[-1] == -1
    rank_mod_p = linalg.rank_mod_p
    monkeypatch.setattr(linalg, "rank_mod_p",
                        lambda rows, p: max(rank_mod_p(rows, p) - 1, 0))
    assert [global_tjurina(f, mdr(f), points)
            for f, points in cases] == expected


def test_unlucky_prime_costs_time_not_the_answer(monkeypatch, tangent_pair,
                                                 pencil3):
    # a modular rank that under-counts by one never closes the bounds, so
    # every rung runs down to the certified kernel at s
    from qconic import linalg
    curves = [defining_polynomial(tangent_pair), defining_polynomial(pencil3),
              _curve(_ONE_NODE_QUINTIC)]
    expected = [tjurina_at(f.form, 3 * f.form.degree - 5) for f in curves]
    rank_mod_p = linalg.rank_mod_p
    monkeypatch.setattr(linalg, "rank_mod_p",
                        lambda rows, p: max(rank_mod_p(rows, p) - 1, 0))
    assert [global_tjurina(f) for f in curves] == expected == [6, 16, 1]


def test_partials_are_taken_once_per_entry_point(monkeypatch, pencil3):
    f = defining_polynomial(pencil3)
    calls = []
    derivative = HomogeneousForm.derivative
    monkeypatch.setattr(HomogeneousForm, "derivative",
                        lambda self, var: calls.append(var) or derivative(self, var))
    w = mdr(f)
    assert len(calls) == 3
    calls.clear()
    assert global_tjurina(f, w) == 16
    assert len(calls) == 3


def test_mdr_needs_no_full_column_rank_pretest(monkeypatch, q_fixtures):
    # an empty kernel mod the first prime is already the proof, so mdr
    # runs with the one-prime test refused; exact elimination is the oracle
    from qconic import linalg

    def refuse(rows):
        raise AssertionError("full-column-rank pre-test called")

    curves = [defining_polynomial(arr) for arr in q_fixtures.values()]
    curves += [_contact(3, 3), _contact(4, 3)]
    # symmetric curves whose Jacobian matrices have interleaved support
    # components: the witness is still the first vector of the RREF basis
    curves += [ArrangementPolynomial(parse_homogeneous_form(text))
               for text in ("x^2*y^2+y^2*z^2+z^2*x^2", "(x^3+y^3+z^3)*(x+y)",
                            "x^5+y^5+z^5+x^2*y^2*z")]
    monkeypatch.setattr(linalg, "has_full_column_rank_certified", refuse)
    for f in curves:
        w = mdr(f)
        partials = _int_partials(f.form)
        assert all(rank_blockwise(jacobian_matrix(partials, r))
                   == 3 * monomial_count(r) for r in range(w.degree))
        exact = kernel_basis_rational(jacobian_matrix(partials, w.degree))
        assert exact and list(w.kernel) == exact
        ints = clear_denominators(w.kernel[0])[0]
        if next(v for v in ints if v) < 0:
            ints = [-v for v in ints]
        n = monomial_count(w.degree)
        assert w.triple == tuple(
            HomogeneousForm(w.degree, dict(zip(monomial_basis(w.degree),
                                               ints[v * n:(v + 1) * n])))
            for v in range(3))
        assert w.verify(f.form)


@settings(max_examples=15, deadline=None)
@given(_forms_of_degree_3_to_5().filter(
    lambda form: not form.is_zero() and is_reduced(form)))
def test_relation_multiples_lie_in_the_jacobian_kernel(form):
    # the Koszul and kernel relations the certificate uses, as it builds
    # them, against the Jacobian matrix from the same placement loop
    from qconic import freeness as fr
    seen = []
    short = fr._short
    f = ArrangementPolynomial(form)
    w = mdr(f)
    with mock.patch.object(fr, "_short", lambda rel, j, rank:
                           seen.append(rel) or short(rel, j, rank)):
        global_tjurina(f, w)
    relations = seen[-1]
    d = form.degree
    assert sum(degree == d - 1 for degree, _ in relations) >= 3
    assert sum(degree == w.degree for degree, _ in relations) >= len(w.kernel)
    partials = _int_partials(form)
    for j in range(w.degree, d + 1):
        jac = jacobian_matrix(partials, j)
        rows = fr._multiples(relations, j)
        assert rows and all(type(x) is int for row in rows for x in row)
        assert all(sum(a * b for a, b in zip(jrow, row)) == 0
                   for row in rows for jrow in jac)


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
    values = [tjurina_at(form, t) for t in range(3 * (d - 2), 2 * d)]
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
    ints = jacobian_matrix(_int_partials(form), r)
    old = _jacobian_matrix_qq(form, r)
    assert all(type(x) is int for row in ints for x in row)
    cells = [(a, b) for ra, rb in zip(ints, old) for a, b in zip(ra, rb)]
    assert all((a == 0) == (b == 0) for a, b in cells)
    scale = next(QQ(a) / b for a, b in cells if b)
    assert scale > 0 and all(a == scale * b for a, b in cells)
    assert rank_blockwise(ints) == rank_blockwise(_to_int_rows(old))


# ------------------------------------------------- jet certificate, bounds

def _points(arr):
    return [(r.point, r.multiplicity) for r in analyze_singular_points(arr)]


def _contact3(k):
    # -x^2 + yz + t xz: one point where k conics meet with 3-fold contact
    return validate_arrangement([Conic((-1, 0, 0, 0, t, 1)) for t in range(k)])


def test_jet_degree_on_fixtures(q_fixtures):
    from qconic.freeness import jet_degree
    # pencil k: four k-fold base points, j* = 2k - 3 = d - 3
    expected = {"generic_pair": 1, "tangent_pair": 0, "pencil3": 3,
                "pencil4": 5, "contact3_k3": 1}
    arrangements = dict(q_fixtures, contact3_k3=_contact3(3))
    for name, arr in arrangements.items():
        d = defining_polynomial(arr).degree
        assert jet_degree(d, _points(arr)) == expected[name], name


def test_hilbert_route_ranks_where_the_points_certify(monkeypatch, pencil3,
                                                      five_circles):
    from qconic import freeness as fr
    from qconic.report import analyze_arrangement
    seen = []
    certified = fr._certified_rank
    monkeypatch.setattr(fr, "_certified_rank", lambda form, w, s:
                        seen.append(s) or certified(form, w, s))
    # five circles: j* = 7, so M_8 instead of M_16
    assert analyze_arrangement(five_circles).tau_sources["hilbert"] == 57
    assert analyze_arrangement(pencil3).tau_sources["hilbert"] == 16
    assert seen == [2 * 10 - 5 - 7, 2 * 6 - 5 - 3]
    # a free-standing curve has no point list: s = 2d - 4, t = 3d - 5
    seen.clear()
    rep = freeness_report(ArrangementPolynomial(defining_polynomial(pencil3).form))
    assert rep.tau == 16 and seen == [2 * 6 - 4]


def test_dropping_points_only_raises_t(pencil4, five_circles):
    from qconic.freeness import jet_degree
    for arr in (pencil4, five_circles):
        f = defining_polynomial(arr)
        d, w = f.degree, mdr(f)
        points = _points(arr)
        full = jet_degree(d, points)
        tau = global_tjurina(f, w, points)
        for i in range(len(points)):
            fewer = points[:i] + points[i + 1:]
            assert jet_degree(d, fewer) <= full
            assert global_tjurina(f, w, fewer) == tau
        assert jet_degree(d, []) == -1


def test_jet_rows_below_the_order_are_the_coefficients(pencil4):
    # a quadruple point forces order 3 on J^sat: for j <= m - 2 = 2 its rows
    # are the order-j partials, constant multiples of the coefficients, so
    # the point alone certifies j; j = 3 needs 10 rows and gets 6
    from math import factorial
    from qconic.freeness import jet_matrix, jet_degree
    f = defining_polynomial(pencil4)
    point = _points(pencil4)[0]
    assert point[1] == 4
    for j in range(3):
        basis = monomial_basis(j)
        assert jet_matrix([point], j) == [
            [factorial(a) * factorial(b) * factorial(c) if mu == alpha else 0
             for mu in basis] for alpha in basis for a, b, c in [alpha]]
    assert len(jet_matrix([point], 3)) == 6 < monomial_count(3)
    assert jet_degree(f.degree, [point]) == 2
    # j stays at most d - 2 (so that T - j >= 2d - 4) whatever the rows
    assert jet_degree(3, [point]) == 1
    assert global_tjurina(f, mdr(f), [point]) == 36


_int_conics = st.tuples(*[st.integers(-3, 3)] * 6).map(Conic).filter(
    Conic.is_smooth)


@settings(max_examples=25, deadline=None)
@given(st.one_of(
    st.lists(_int_conics, min_size=2, max_size=3),
    st.tuples(_int_conics, _int_conics,
              st.sets(st.integers(-4, 4), min_size=2, max_size=3))))
def test_jet_certified_tau_matches_the_3d_minus_5_oracle(drawn):
    from hypothesis import assume
    from qconic.errors import ValidationError
    try:
        if isinstance(drawn, tuple):
            g1, g2, params = drawn
            arr = pencil_members(g1, g2, sorted(params))
        else:
            arr = validate_arrangement(drawn)
    except ValidationError:
        assume(False)
    f = defining_polynomial(arr)
    w = mdr(f)
    points = _points(arr)
    assert global_tjurina(f, w, points) == global_tjurina(f, w)


def test_dpw_bounds_hold_on_the_fixtures(q_fixtures, five_circles):
    from qconic.freeness import dpw_bounds
    from qconic.report import analyze_arrangement
    arrangements = dict(q_fixtures, five_circles=five_circles,
                        contact3_k3=_contact3(3))
    for name, arr in arrangements.items():
        rep = analyze_arrangement(arr, with_hilbert_tau=False).freeness
        low, high = dpw_bounds(rep.degree, rep.mdr)
        assert low <= rep.tau <= high, name
    # five circles (d = 10, mdr 6, 2r >= d) meets the reduced upper bound
    assert dpw_bounds(10, 6) == (27, 57)
    # free curves meet the upper bound: the triangle, contact3_k3 (mdr 2)
    assert dpw_bounds(3, 1)[1] == dpw_value(3, 1) == 3
    assert dpw_bounds(6, 2)[1] == dpw_value(6, 2) == 19


def test_tau_outside_dpw_bounds_raises(monkeypatch, tangent_pair):
    from dataclasses import replace
    from qconic import freeness as fr, report
    # free-standing: the triangle (d = 3, mdr 1) allows 2 <= tau <= 3
    monkeypatch.setattr(fr, "_global_tjurina", lambda form, w, points=(): 4)
    with pytest.raises(QConicError, match="du Plessis-Wall"):
        freeness_report(_curve({(1, 1, 1): 1}))
    monkeypatch.undo()
    # arrangement: the tangent pair (d = 4, mdr 1) allows 6 <= tau <= 7,
    # and its local sum is raised to 8 or more
    located = report.weak_combinatorics

    def inflated(arr):
        wc, _q_flag, records = located(arr)
        return wc, False, [replace(records[0], tjurina=records[0].tjurina + 2),
                           *records[1:]]

    monkeypatch.setattr(report, "weak_combinatorics", inflated)
    with pytest.raises(QConicError, match="du Plessis-Wall"):
        report.analyze_arrangement(tangent_pair, with_hilbert_tau=False)
