from dataclasses import replace

from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from qconic import factorint, numberfield, singular, unipoly as up
from qconic import roots as rootmod
from qconic.rationals import QQ
from qconic.arrangement import (Conic, ConicArrangement, validate_arrangement,
                                defining_polynomial, pencil_members,
                                arrangement_violations)
from qconic.singular import (locate_singular_points, analyze_singular_points,
                             classify_point, weak_combinatorics,
                             intersection_multiplicity,
                             conic_pair_intersections, is_quasi_homogeneous,
                             Q_TYPE_INVARIANTS)
from qconic import localalg
from qconic.combinatorics import Q_TYPE_MILNOR
from qconic.localalg import (local_milnor_number, local_tjurina_number,
                             local_affine_at)
from qconic.multipoly import AffinePolynomial
from qconic.numberfield import RATIONAL_FIELD
from qconic.errors import (PointNotOnBothError, NotSingularError, QConicError,
                           NonIsolatedError)


def _milnor_at(form, point, field):
    return local_milnor_number(local_affine_at(form, point, field))


def _tjurina_at(form, point, field):
    return local_tjurina_number(local_affine_at(form, point, field))


def test_tangent_pair_two_tacnodes(tangent_pair):
    wc, q_flag, records = weak_combinatorics(tangent_pair)
    assert wc.vector() == (2, 0, 2, 0, 0)
    assert q_flag
    assert len(records) == 2
    pts = sorted(r.approx_point() for r in records)
    assert pts == [["-1", "0", "1"], ["1", "0", "1"]]
    for r in records:
        assert r.kind.name == "tacnode"
        assert (r.milnor, r.tjurina) == (3, 3)
        assert r.pairwise_multiplicities == {(0, 1): 2}
        assert len(r.tangent_partition) == 1  # shared tangent
        assert is_quasi_homogeneous(r)


def test_generic_pair_four_nodes(generic_pair):
    wc, q_flag, records = weak_combinatorics(generic_pair)
    assert wc.vector() == (2, 4, 0, 0, 0)
    assert q_flag
    assert all(r.kind.name == "node" and r.milnor == r.tjurina == 1
               for r in records)


def test_pencil3_four_triples(pencil3):
    wc, q_flag, records = weak_combinatorics(pencil3)
    assert wc.vector() == (3, 0, 0, 4, 0)
    assert q_flag
    assert len(records) == 4
    for r in records:
        assert r.kind.name == "ordinary_triple"
        assert (r.milnor, r.tjurina) == (4, 4)
        assert r.incident_conics == frozenset({0, 1, 2})
        # base-locus points: all pairwise intersections are in the base locus
        assert set(r.pairwise_multiplicities) == {(0, 1), (0, 2), (1, 2)}


def test_pencil4_four_quadruples(pencil4):
    wc, q_flag, records = weak_combinatorics(pencil4)
    assert wc.vector() == (4, 0, 0, 0, 4)
    assert q_flag
    assert all(r.kind.name == "ordinary_quadruple"
               and (r.milnor, r.tjurina) == (9, 9) for r in records)


def test_five_circles_example(five_circles):
    wc, q_flag, records = weak_combinatorics(five_circles)
    assert not q_flag
    assert (wc.n2, wc.t2, wc.n3, wc.n4) == (10, 0, 0, 0)
    assert wc.other_count == 3  # origin + the two conjugate points at infinity
    origin = next(r for r in records if r.approx_point() == ["0", "0", "1"])
    assert origin.multiplicity == 5
    assert origin.kind.name == "other"
    assert origin.kind.distinct_tangents == 5  # ordinary
    assert (origin.milnor, origin.tjurina) == (16, 15)
    assert origin.quasi_homogeneous is False
    # the conjugate pair at z = 0 lies on all five members
    at_infinity = next(r for r in records if r.orbit_size == 2)
    assert at_infinity.incident_conics == frozenset(range(5))
    assert at_infinity.multiplicity == 5
    assert tuple(at_infinity.field.min_poly) == (QQ(1), QQ(0), QQ(1))


def test_pair_multiplicities_sum_to_four(q_fixtures, five_circles):
    arrangements = dict(q_fixtures)
    arrangements["five_circles"] = five_circles
    for name, arr in arrangements.items():
        per_pair = {}
        for rec in locate_singular_points(arr):
            for pair, mult in rec.pairwise_multiplicities.items():
                per_pair[pair] = per_pair.get(pair, 0) + mult * rec.orbit_size
        assert set(per_pair) == set(arr.pairs()), name
        assert all(v == 4 for v in per_pair.values()), name


def test_pair_intersections_tangent_case():
    c1 = Conic((1, 1, -1, 0, 0, 0))
    c2 = Conic((1, 2, -1, 0, 0, 0))
    pts = conic_pair_intersections(c1, c2)
    assert len(pts) == 2
    assert sorted(mult for *_, mult in pts) == [2, 2]


def test_intersection_multiplicity_examples():
    # transverse crossing
    a = Conic((1, 1, -2, 0, 0, 0))
    b = Conic((1, 2, -3, 0, 0, 0))
    assert intersection_multiplicity(a, b, (QQ(1), QQ(1), QQ(1))) == 1
    # tangential contact of the tangent pair at (1 : 0 : 1)
    c1 = Conic((1, 1, -1, 0, 0, 0))
    c2 = Conic((1, 2, -1, 0, 0, 0))
    assert intersection_multiplicity(c1, c2, (QQ(1), QQ(0), QQ(1))) == 2
    # {x^2 - yz, x^2 - yz + y^2} meet only at (0 : 0 : 1), with full weight 4
    ca = Conic((1, 0, 0, 0, 0, -1))
    cb = Conic((1, 1, 0, 0, 0, -1))
    assert intersection_multiplicity(ca, cb, (QQ(0), QQ(0), QQ(1))) == 4


def test_intersection_multiplicity_requires_incidence():
    a = Conic((1, 1, -2, 0, 0, 0))
    b = Conic((1, 2, -3, 0, 0, 0))
    with pytest.raises(PointNotOnBothError):
        intersection_multiplicity(a, b, (QQ(1), QQ(0), QQ(0)))


def test_classification_rules(q_fixtures):
    names = {"generic_pair": "node", "tangent_pair": "tacnode",
             "pencil3": "ordinary_triple", "pencil4": "ordinary_quadruple"}
    for key, arr in q_fixtures.items():
        for rec in analyze_singular_points(arr):
            assert rec.kind.name == names[key]
            assert classify_point(rec).name == names[key]
            assert rec.kind.name in Q_TYPE_MILNOR
            assert (rec.milnor, rec.tjurina) == Q_TYPE_INVARIANTS[names[key]]


def test_tjurina_never_exceeds_milnor(q_fixtures, five_circles):
    for arr in list(q_fixtures.values()) + [five_circles]:
        for rec in analyze_singular_points(arr):
            assert rec.tjurina <= rec.milnor
            assert rec.quasi_homogeneous == (rec.milnor == rec.tjurina)
            assert (rec.kind.name in Q_TYPE_MILNOR) == (rec.kind.name != "other")


def test_local_invariants_standalone_node():
    arr = validate_arrangement([Conic((1, 1, -2, 0, 0, 0)),
                                Conic((1, 2, -3, 0, 0, 0))])
    form = defining_polynomial(arr).form
    point = (RATIONAL_FIELD.one(), RATIONAL_FIELD.one(), RATIONAL_FIELD.one())
    assert _milnor_at(form, point, RATIONAL_FIELD) == 1
    assert _tjurina_at(form, point, RATIONAL_FIELD) == 1


def test_local_invariants_reject_smooth_points():
    arr = validate_arrangement([Conic((1, 1, -2, 0, 0, 0)),
                                Conic((1, 2, -3, 0, 0, 0))])
    form = defining_polynomial(arr).form
    # (0 : sqrt(2)... ) use a rational smooth point of the product: (1, -1, 1)
    # is singular; pick a point on only one conic: x^2+y^2=2z^2 at (1:1:1) is
    # singular, so use (0, ?, ?): x=0: y^2 = 2 no rational; use the second
    # conic's point (1, 1, 1) is shared... take (3, 1, ?): 9 + 1 = 2 z^2 no.
    # Point on neither conic: evaluation nonzero -> NotSingularError
    point = (RATIONAL_FIELD.one(), RATIONAL_FIELD.zero(), RATIONAL_FIELD.zero())
    with pytest.raises(NotSingularError):
        _milnor_at(form, point, RATIONAL_FIELD)


def test_local_milnor_rejects_non_isolated_germ():
    # u^2 v is singular along the whole v-axis: (g_u, g_v) = (2uv, u^2) is
    # not zero-dimensional, so no level agrees by the derived cap 2^2 + 2
    germ = AffinePolynomial({(2, 1): QQ(1)})
    with pytest.raises(NonIsolatedError, match="by degree 6"):
        local_milnor_number(germ)


def test_quartic_orbit_pair():
    # x^2 + y^2 = 5z^2 and x^2 + 2y^2 = 7z^2 meet at (+-sqrt3 : +-sqrt2 : 1):
    # a single Galois orbit of four nodes over a degree-4 field
    arr = validate_arrangement([Conic((1, 1, -5, 0, 0, 0)),
                                Conic((1, 2, -7, 0, 0, 0))])
    wc, q_flag, records = weak_combinatorics(arr)
    assert wc.vector() == (2, 4, 0, 0, 0) and q_flag
    assert len(records) == 1
    rec = records[0]
    assert rec.orbit_size == 4
    assert rec.field.degree == 4
    assert rec.kind.name == "node" and (rec.milnor, rec.tjurina) == (1, 1)


def test_mixed_rational_and_cubic_orbit():
    # the parabola x^2 - yz and the circle x^2 + y^2 - 2xz - yz share the
    # rational point (0:0:1) plus a conjugate triple with x^3 = 2
    arr = validate_arrangement([Conic((1, 0, 0, 0, 0, -1)),
                                Conic((1, 1, 0, 0, -2, -1))])
    wc, q_flag, records = weak_combinatorics(arr)
    assert wc.vector() == (2, 4, 0, 0, 0) and q_flag
    assert sorted(r.orbit_size for r in records) == [1, 3]
    cubic = next(r for r in records if r.orbit_size == 3)
    assert tuple(cubic.field.min_poly) == (QQ(-2), QQ(0), QQ(0), QQ(1))
    for r in records:
        assert r.kind.name == "node"


def test_random_pairs_total_multiplicity_four():
    import random
    rng = random.Random(977)
    tried = 0
    while tried < 12:
        c1 = Conic(tuple(rng.randint(-4, 4) for _ in range(6)))
        c2 = Conic(tuple(rng.randint(-4, 4) for _ in range(6)))
        if not (c1.is_smooth() and c2.is_smooth()) or c1.is_proportional_to(c2):
            continue
        tried += 1
        arr = validate_arrangement([c1, c2])
        for rec in locate_singular_points(arr):
            assert not c1.evaluate(rec.point)
            assert not c2.evaluate(rec.point)
        total = sum(rec.orbit_size * rec.pairwise_multiplicities[(0, 1)]
                    for rec in locate_singular_points(arr))
        assert total == 4


def test_pair_with_fourfold_contact_is_other():
    # x^2 - yz and x^2 - yz + z^2 meet only at (0:1:0) with multiplicity 4:
    # two smooth branches with contact order 4 (A7: milnor = tjurina = 7)
    arr = validate_arrangement([Conic((1, 0, 0, 0, 0, -1)),
                                Conic((1, 0, 1, 0, 0, -1))])
    wc, q_flag, records = weak_combinatorics(arr)
    assert not q_flag and wc.other_count == 1
    (rec,) = records
    assert rec.approx_point() == ["0", "1", "0"]
    assert rec.kind.name == "other"
    assert rec.kind.branches == 2
    assert rec.kind.max_pair_multiplicity == 4
    assert rec.pairwise_multiplicities == {(0, 1): 4}
    assert (rec.milnor, rec.tjurina) == (7, 7)
    assert rec.quasi_homogeneous


def test_pencil_intersections_lie_in_base_locus(pencil3, pencil4):
    g1 = Conic((1, 1, -2, 0, 0, 0))
    g2 = Conic((1, -1, 0, 0, 0, 0))
    for arr in (pencil3, pencil4):
        for rec in locate_singular_points(arr):
            assert not g1.evaluate(rec.point)
            assert not g2.evaluate(rec.point)


def test_number_field_construction_rejects_reducible():
    from qconic.numberfield import fields_for_polynomial
    from qconic.errors import QConicError
    with pytest.raises(QConicError):
        fields_for_polynomial((QQ(-1), QQ(0), QQ(1)))  # t^2 - 1 splits


def test_projective_invariance_single_transform(pencil3):
    T = [[1, 1, 0], [0, 1, 1], [1, 0, 2]]
    moved = pencil3.transform(T)
    wc0, q0, recs0 = weak_combinatorics(pencil3)
    wc1, q1, recs1 = weak_combinatorics(moved)
    assert wc0 == wc1 and q0 == q1
    assert sorted((r.kind.name, r.milnor, r.tjurina) for r in recs0) \
        == sorted((r.kind.name, r.milnor, r.tjurina) for r in recs1)


def _assert_germ_matches_whole_curve(arr):
    # oracle: the local algebra of the whole degree-2k curve, which the
    # runtime replaced by the product of the conics through each point
    form = defining_polynomial(arr).form
    for rec in analyze_singular_points(arr):
        assert _milnor_at(form, rec.point, rec.field) == rec.milnor
        assert _tjurina_at(form, rec.point, rec.field) == rec.tjurina


def test_germ_invariants_match_whole_curve(q_fixtures, five_circles):
    contact3 = pencil_members(Conic((-1, 0, 0, 0, 0, 1)),   # yz - x^2
                              Conic((0, 0, 0, 0, 1, 0)),    # xz
                              [0, 1, 2])
    for arr in [*q_fixtures.values(), five_circles, contact3]:
        _assert_germ_matches_whole_curve(arr)


_small_conics = st.tuples(*[st.integers(-3, 3)] * 6).map(Conic).filter(
    Conic.is_smooth)


@settings(max_examples=8, deadline=None)
@given(st.lists(_small_conics, min_size=3, max_size=3))
def test_germ_invariants_match_whole_curve_random(conics):
    assume(not any(a.is_proportional_to(b)
                   for i, a in enumerate(conics) for b in conics[i + 1:]))
    _assert_germ_matches_whole_curve(validate_arrangement(conics))


def test_milnor_formula_rejects_tampered_multiplicity(tangent_pair, monkeypatch):
    # a tacnode (mu = 3) recorded with contact order 3 instead of 2
    first, *rest = locate_singular_points(tangent_pair)
    tampered = replace(first, pairwise_multiplicities={(0, 1): 3})
    monkeypatch.setattr(singular, "locate_singular_points",
                        lambda _arr: [tampered, *rest])
    with pytest.raises(QConicError, match="Milnor's formula"):
        analyze_singular_points(tangent_pair)


def test_factor_runs_once_per_pencil(pencil3, five_circles, monkeypatch):
    # the frame test is decided over Q before factoring, the factors and
    # minimal polynomials are not proved irreducible again, and the pairs
    # that span one pencil share one solve, so each pencil costs one
    # factorization, also when a frame is refused
    calls = []

    def recording(original):
        def wrapper(p):
            calls.append(tuple(p))
            return original(p)
        return wrapper

    monkeypatch.setattr(numberfield, "_FIELD_CACHE", {})
    monkeypatch.setattr(singular, "factor", recording(singular.factor))
    monkeypatch.setattr(factorint, "factor", recording(factorint.factor))
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert singular._try_frame(*pencil3.conics[:2], identity) is None
    # x^2 + y^2 - 3z^2 and xy - z^2 meet in two orbits over Q(sqrt 5)
    sqrt5_pair = validate_arrangement([Conic((1, 1, -3, 0, 0, 0)),
                                       Conic((0, 0, -1, 1, 0, 0))])
    for arr, pencils in ((pencil3, 1), (five_circles, 10), (sqrt5_pair, 1)):
        calls.clear()
        records = locate_singular_points(arr)
        assert len(calls) == pencils
    assert sorted(r.field.degree for r in records) == [2, 2]


def _combination(s, c1, t, c2):
    return Conic(tuple(s * a + t * b
                       for a, b in zip(c1.coefficients, c2.coefficients)))


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_units = _rationals.filter(bool)


@settings(max_examples=40, deadline=None)
@given(_small_conics, _small_conics, _units, _units, _rationals)
def test_pencil_key_depends_only_on_the_span(c1, c2, s, u, t):
    # scaling either conic, swapping them or c2 -> c2 + t c1 keeps the key
    assume(not c1.is_proportional_to(c2))
    key = singular._pencil_key(c1, c2)
    assert singular._pencil_key(_combination(s, c1, 0, c2), c2) == key
    assert singular._pencil_key(c1, _combination(0, c1, u, c2)) == key
    assert singular._pencil_key(c2, c1) == key
    assert singular._pencil_key(c1, _combination(t, c1, 1, c2)) == key
    assert singular._pencil_key(c1, _combination(s, c1, u, c2)) == key


def test_pencil_key_separates_pencils(five_circles, pencil4):
    def keys(arr):
        return {singular._pencil_key(arr.conics[i], arr.conics[j])
                for i, j in arr.pairs()}
    assert len(keys(five_circles)) == 10 == len(list(five_circles.pairs()))
    assert len(keys(pencil4)) == 1


def _per_pair(arr):
    """The records with every pair solved on its own, the path that one
    solve per pencil replaced, kept as the oracle: a key distinct for
    every pair turns the sharing off."""
    with mock.patch.object(singular, "_pencil_key", lambda c1, c2: (c1, c2)):
        return locate_singular_points(arr)


@st.composite
def _pencil_arrangements(draw):
    """Members s (g1 + t g2) of 1-3 random pencils <g1, g2>, with distinct
    rational t and random scalings s, plus free members, at most seven in
    all and shuffled."""
    conics = []
    for _ in range(draw(st.integers(1, 3))):
        g1 = draw(_small_conics)
        g2 = Conic(draw(st.tuples(*[st.integers(-3, 3)] * 6)))
        assume(any(g2.coefficients) and not g1.is_proportional_to(g2))
        params = draw(st.lists(_rationals, min_size=2, max_size=3, unique=True))
        for t in params:
            s = draw(_units)
            conics.append(_combination(s, g1, s * t, g2))
    conics = conics[:7]
    conics += draw(st.lists(_small_conics, max_size=min(2, 7 - len(conics))))
    assume(not arrangement_violations(conics))
    return validate_arrangement(draw(st.permutations(conics)))


@settings(max_examples=25, deadline=None)
@given(_pencil_arrangements())
def test_one_solve_per_pencil_matches_the_per_pair_oracle(arr):
    shared = locate_singular_points(arr)
    oracle = _per_pair(arr)
    assert shared == oracle
    assert [r.to_json() for r in shared] == [r.to_json() for r in oracle]


def test_a_false_pencil_share_is_refused(five_circles, monkeypatch):
    # one key for all ten pairs hands the first pair's points to pairs
    # that miss them; the exact incidence check refuses the records
    monkeypatch.setattr(singular, "_pencil_key", lambda c1, c2: 0)
    with pytest.raises(QConicError, match="incidence bookkeeping mismatch"):
        locate_singular_points(five_circles)


def test_a_proportional_pair_is_refused():
    # c and 2c span no pencil: all 15 Plucker minors vanish
    c = Conic((1, 1, -2, 0, 0, 0))
    twice = Conic(tuple(2 * a for a in c.coefficients))
    assert singular._pencil_key(c, twice) is None
    arr = ConicArrangement((Conic((1, -1, 0, 0, 0, 1)), c, twice))
    with pytest.raises(QConicError, match="conics 1 and 2 are proportional"):
        locate_singular_points(arr)


def test_one_translation_per_point(five_circles, monkeypatch):
    # mu and tau are computed on one translated germ, so each record costs
    # one local_affine_at call; x^2 + y^2 = 5z^2 and x^2 + 2y^2 = 7z^2
    # meet in one orbit over a degree-4 field
    quartic_pair = validate_arrangement([Conic((1, 1, -5, 0, 0, 0)),
                                         Conic((1, 2, -7, 0, 0, 0))])
    calls = []

    def counting(*args):
        calls.append(args)
        return local_affine_at(*args)

    monkeypatch.setattr(localalg, "local_affine_at", counting)
    for arr, degrees in ((five_circles, [1] * 11 + [2]), (quartic_pair, [4])):
        calls.clear()
        records = analyze_singular_points(arr)
        assert sorted(r.field.degree for r in records) == degrees
        assert len(calls) == len(records)


def _recorded_frames(monkeypatch):
    """The frames ``singular._try_frame`` is given from now on, in order;
    the last one is the frame a pair solve kept."""
    frames = []
    try_frame = singular._try_frame
    monkeypatch.setattr(singular, "_try_frame", lambda c1, c2, frame: (
        frames.append(frame) or try_frame(c1, c2, frame)))
    return frames


def test_frame_with_center_on_a_conic_is_refused_before_moving(monkeypatch):
    # the identity frame projects from (0 : 1 : 0), which lies on
    # x^2 + yz - z^2: refused without a Conic.transform, and the pair is
    # still solved in a later frame
    through_center = Conic((1, 0, -1, 0, 0, 1))
    other = Conic((1, 1, -2, 0, 0, 0))
    moved = []
    transform = Conic.transform
    monkeypatch.setattr(Conic, "transform",
                        lambda self, m: moved.append(m) or transform(self, m))
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for pair in ((through_center, other), (other, through_center)):
        assert singular._try_frame(*pair, identity) is None
    assert not moved
    frames = _recorded_frames(monkeypatch)
    result = singular.conic_pair_intersections(other, through_center)
    assert sum(orbit * mult for *_, orbit, mult in result) == 4
    assert frames[0] == identity != frames[-1] and identity not in moved


def _recorded_isolations(monkeypatch):
    """The polynomials passed to the full isolation and to the real-only
    entry point, as they are called."""
    isolated, real_only = [], []
    isolate, real_boxes = rootmod.isolate_all_roots, rootmod.real_root_boxes
    monkeypatch.setattr(rootmod, "isolate_all_roots",
                        lambda p, *boxes: isolated.append(tuple(p))
                        or isolate(p, *boxes))
    monkeypatch.setattr(rootmod, "real_root_boxes",
                        lambda p: real_only.append(tuple(p)) or real_boxes(p))
    return isolated, real_only


def test_a_real_orbit_is_printed_from_sturm_boxes_alone(monkeypatch):
    # these two conics meet in one quartic orbit with two real points:
    # printing it reads the Sturm boxes of its field's real embedding only
    arr = validate_arrangement([Conic((-1, -2, 0, 2, -3, -3)),
                                Conic((3, 1, -3, -1, 1, -3))])
    isolated, real_only = _recorded_isolations(monkeypatch)
    monkeypatch.setattr(numberfield, "_FIELD_CACHE", {})
    [record] = locate_singular_points(arr)
    assert record.orbit_size == 4 and not isolated and not real_only
    document = record.to_json()
    assert real_only == [record.field.min_poly] and not isolated
    box = record.field.box
    assert box.im_lo == 0 == box.im_hi and document["field"]["box"][2:] == ["0", "0"]
    # the same bytes as from the full isolation
    numberfield._FIELD_CACHE.clear()
    [again] = locate_singular_points(arr)
    boxes = rootmod.isolate_all_roots(list(again.field.min_poly))
    assert again.to_json() == document and boxes[again.field.root_index] == box


def test_only_the_fields_in_the_output_are_isolated(monkeypatch):
    # x^2 + 2z^2 + 3xy + xz + 2yz passes through the identity's projection
    # center, so this quartic pair is solved in a random frame, where the
    # resultant's factor q is not the minimal polynomial of the orbit key
    arr = validate_arrangement([Conic((1, 0, 2, 3, 1, 2)),
                                Conic((1, -3, 1, 3, 1, -1))])
    isolated, real_only = _recorded_isolations(monkeypatch)
    monkeypatch.setattr(numberfield, "_FIELD_CACHE", {})
    frames = _recorded_frames(monkeypatch)
    c1, c2 = arr.conics
    [(key, field, point, orbit, mult)] = conic_pair_intersections(c1, c2)
    frame = frames[-1]
    res, p, l = singular._bezout(c1.transform(frame), c2.transform(frame))
    [(q, _)] = factorint.factor(res)[1]
    q = tuple(up.monic(q))
    assert frame != [[1, 0, 0], [0, 1, 0], [0, 0, 1]] and (orbit, mult) == (4, 1)
    assert q != key[2] == field.min_poly

    # every root of q lands on the same canonical key, field and point
    for K in numberfield._embeddings(q):
        xi = K.generator()
        coords = singular._apply_frame(
            frame, (xi, up.evaluate(p, xi) / up.evaluate(l, xi), K.one()))
        assert singular._orbit_canonical(K, coords) == (key, field, point, orbit)
    assert not isolated and not real_only   # solving is algebra only

    [record] = locate_singular_points(arr)
    document = record.to_json()
    assert isolated == [record.field.min_poly]
    # no real root: the Sturm boxes are empty, and the isolation of all
    # roots is handed them instead of running Sturm again
    assert real_only == [record.field.min_poly]
    assert record.field.box.im_lo != 0
    assert [QQ(c) for c in document["field"]["minimal_polynomial"]] == list(key[2])

    # the boxes live on the cached fields: a cleared cache isolates again
    numberfield._FIELD_CACHE.clear()
    [again] = locate_singular_points(arr)
    assert again.field is not record.field and len(isolated) == 1
    assert again.field.box == record.field.box and len(isolated) == 2
