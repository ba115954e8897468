import itertools
from fractions import Fraction

import pytest

import lamina.qc_portrait as qc_portrait
from lamina.circle import Angle
from lamina.chords import Chord
from lamina.lamination import (
    FiniteLamination,
    Gap,
    _all_critical,
    critical_analysis,
    gap_degree,
    gaps,
    pullback_build,
)
from lamina.qc_portrait import (
    ALL_CRITICAL_QUADRILATERAL,
    ALL_CRITICAL_TRIANGLE,
    COLLAPSING,
    CRITICAL_LEAF,
    PairReport,
    QcPortrait,
    _collapsing_quad,
    _pair_verdict,
    classify_pair,
    complete_samples,
    derive_qc_portrait,
    make_quadrilateral,
    qc_portrait_exists,
    strongly_linked,
    tune_insert,
    validate_qc_portrait,
)

A = Angle
F = Fraction


def C(p, q, r, s):
    return Chord(A(p, q), A(r, s))


def leaf_quad(a, b, d=3):
    return make_quadrilateral([a, a, b, b], d)


def test_make_quadrilateral_classifications():
    q = make_quadrilateral([F(1, 3), F(5, 12), F(2, 3), F(3, 4)], 3)
    assert q.classification == COLLAPSING
    assert q.image == C(0, 1, 1, 4)
    assert set(q.spikes) == {C(1, 3, 2, 3), C(5, 12, 3, 4)}

    assert leaf_quad(A(0), A(1, 3)).classification == CRITICAL_LEAF
    tri = make_quadrilateral([0, F(1, 3), F(1, 3), F(2, 3)], 3)
    assert tri.classification == ALL_CRITICAL_TRIANGLE
    square = make_quadrilateral([0, F(1, 4), F(1, 2), F(3, 4)], 4)
    assert square.classification == ALL_CRITICAL_QUADRILATERAL


def test_make_quadrilateral_rejections():
    with pytest.raises(ValueError):
        make_quadrilateral([0, F(1, 4), F(1, 2), F(2, 3)], 3)  # second diagonal not critical
    with pytest.raises(ValueError):
        make_quadrilateral([0, F(2, 3), F(1, 3), F(1, 12)], 3)  # not circularly ordered


def test_rotations_are_identified():
    q1 = make_quadrilateral([F(1, 3), F(5, 12), F(2, 3), F(3, 4)], 3)
    q2 = make_quadrilateral([F(2, 3), F(3, 4), F(1, 3), F(5, 12)], 3)
    assert q1 == q2


def test_strongly_linked_degenerate_cases():
    leaf = leaf_quad(A(0), A(1, 3))
    assert strongly_linked(leaf, leaf).linked
    tri = make_quadrilateral([0, F(1, 3), F(1, 3), F(2, 3)], 3)
    edge = leaf_quad(A(1, 3), A(2, 3))
    assert strongly_linked(tri, edge).linked
    # leaves sharing one endpoint do not alternate
    other = leaf_quad(A(0), A(2, 3))
    assert not strongly_linked(edge, other).linked


def test_strongly_linked_witness_chain():
    q1 = make_quadrilateral([F(1, 3), F(5, 12), F(2, 3), F(3, 4)], 3)
    q2 = make_quadrilateral([F(3, 8), F(11, 24), F(17, 24), F(19, 24)], 3)
    rep = strongly_linked(q1, q2)
    assert rep.linked
    assert rep.witness == (
        (A(1, 3), A(5, 12), A(2, 3), A(3, 4)),
        (A(3, 8), A(11, 24), A(17, 24), A(19, 24)),
    )


def test_strongly_linked_takes_no_images(monkeypatch):
    # presentations tell a triangle by its three distinct vertices, so no
    # quadrilateral is asked for its image
    q1 = make_quadrilateral([F(1, 3), F(5, 12), F(2, 3), F(3, 4)], 3)
    q2 = make_quadrilateral([F(3, 8), F(11, 24), F(17, 24), F(19, 24)], 3)
    tri = make_quadrilateral([0, F(1, 3), F(1, 3), F(2, 3)], 3)
    edge = leaf_quad(A(1, 3), A(2, 3))
    assert q1.classification == q2.classification == COLLAPSING
    calls = []
    sigma = qc_portrait.sigma
    monkeypatch.setattr(qc_portrait, "sigma", lambda *args: calls.append(args) or sigma(*args))
    assert strongly_linked(q1, q2).linked
    x, y, z = A(0), A(1, 3), A(2, 3)
    assert tri.presentations() == [(x, x, y, z), (x, y, y, z), (x, y, z, z)]
    assert strongly_linked(tri, edge).linked
    assert calls == []


def test_strong_linkage_closed_under_limits_desk_scale():
    # nested linked chords shrinking to a point: their co-critical
    # quadrilaterals converge to a doubled critical leaf, which must stay
    # strongly linked
    from lamina.cubic_tags import ConvexSet, cocritical_set

    for n in range(1, 6):
        l1 = Chord(A(0), A(1, 3 * 2**n))
        l2 = Chord(A(1, 3 * 2 ** (n + 1)), A(3, 3 * 2 ** (n + 1)))
        q1 = make_quadrilateral(cocritical_set(ConvexSet.of(l1.endpoints)).vertices, 3)
        q2 = make_quadrilateral(cocritical_set(ConvexSet.of(l2.endpoints)).vertices, 3)
        assert strongly_linked(q1, q2).linked
    limit = leaf_quad(A(1, 3), A(2, 3))
    assert strongly_linked(limit, limit).linked


def test_validate_qc_portrait_examples():
    ok = QcPortrait(3, (leaf_quad(A(0), A(1, 3)), leaf_quad(A(0), A(2, 3))))
    assert validate_qc_portrait(ok)
    dup = QcPortrait(3, (leaf_quad(A(0), A(1, 3)), leaf_quad(A(0), A(1, 3))))
    assert not validate_qc_portrait(dup)
    a, b, c, d = A(0), A(1, 4), A(1, 2), A(3, 4)
    shared_edge = QcPortrait(
        4,
        (
            make_quadrilateral([a, b, b, c], 4),
            make_quadrilateral([a, a, c, c], 4),
            make_quadrilateral([a, c, d, d], 4),
        ),
    )
    assert validate_qc_portrait(shared_edge)
    assert len(list(complete_samples(shared_edge))) == 4


def test_qc_portrait_exists():
    quad_lam = pullback_build(
        3,
        [C(1, 4, 3, 8), C(3, 8, 7, 12), C(7, 12, 17, 24), C(17, 24, 1, 4), C(1, 9, 7, 9)],
        2,
        sectors=[C(1, 4, 7, 12), C(1, 9, 7, 9)],
    )
    assert qc_portrait_exists(quad_lam)
    portrait = derive_qc_portrait(quad_lam)
    assert validate_qc_portrait(portrait)
    assert len(portrait.quads) == 2


def test_tune_insert_quadrilateral_is_idempotent():
    lam = pullback_build(
        3,
        [C(1, 4, 3, 8), C(3, 8, 7, 12), C(7, 12, 17, 24), C(17, 24, 1, 4), C(1, 9, 7, 9)],
        2,
        sectors=[C(1, 4, 7, 12), C(1, 9, 7, 9)],
    )
    quad_gap = [
        g for g in critical_analysis(lam).critical_gaps if len(g.vertices) == 4
    ][0]
    lam2, quad = tune_insert(lam, quad_gap)
    assert lam2 == lam
    assert quad.classification == COLLAPSING


def test_tune_insert_hexagon():
    verts = [A(19, 39), A(28, 39), A(31, 39), A(32, 39), A(2, 39), A(5, 39)]
    hexagon = [Chord(verts[i], verts[(i + 1) % 6]) for i in range(6)]
    second = Chord(A(16, 117), A(55, 117))
    lam = pullback_build(3, hexagon + [second], 2, sectors=[Chord(verts[0], verts[3]), second])
    gap = [g for g in critical_analysis(lam).critical_gaps if len(g.vertices) == 6][0]
    assert gap_degree(3, gap) == 2
    lam2, quad = tune_insert(lam, gap)
    assert quad.classification == COLLAPSING
    assert set(quad.hull) < set(gap.vertices)
    shared = set(quad.edges) & set(gap.edges)
    assert len(shared) == 2  # a pair of opposite edges
    assert len(lam2) == len(lam) + 2


def test_tune_insert_rejects_all_critical_triangle():
    lam = pullback_build(3, [C(0, 1, 1, 3), C(1, 3, 2, 3), C(0, 1, 2, 3)], 2)
    tri = [g for g in gaps(lam) if g.finite and len(g.vertices) == 3 and gap_degree(3, g) == 3][0]
    with pytest.raises(ValueError):
        tune_insert(lam, tri)


def test_classify_pair_identical_is_essentially_equal():
    lam = pullback_build(3, [C(0, 1, 1, 3), C(1, 2, 5, 6)], 3)
    qcp = QcPortrait(3, (leaf_quad(A(0), A(1, 3)), leaf_quad(A(1, 2), A(5, 6))))
    rep = classify_pair(lam, qcp, lam, qcp)
    assert rep.verdict == "essentially_equal"
    assert rep.k == 2


def test_classify_pair_neither_example():
    lam1 = pullback_build(3, [C(0, 1, 1, 3), C(1, 3, 2, 3), C(0, 1, 2, 3)], 3)
    qcp1 = QcPortrait(3, (leaf_quad(A(0), A(1, 3)), leaf_quad(A(1, 3), A(2, 3))))
    lam2 = pullback_build(3, [C(0, 1, 1, 2), C(0, 1, 1, 3), C(0, 1, 2, 3)], 3)
    qcp2 = QcPortrait(3, (leaf_quad(A(0), A(1, 3)), leaf_quad(A(0), A(2, 3))))
    rep = classify_pair(lam1, qcp1, lam2, qcp2)
    assert rep.verdict == "neither"


def test_classify_pair_linked_portraits():
    # strongly linked collapsing quadrilaterals from co-critical sets of
    # linked chords, with matching second components
    from lamina.cubic_tags import ConvexSet, cocritical_set

    q1 = make_quadrilateral(cocritical_set(ConvexSet.of(C(0, 1, 1, 12).endpoints)).vertices, 3)
    q2 = make_quadrilateral(cocritical_set(ConvexSet.of(C(1, 24, 1, 8).endpoints)).vertices, 3)
    # portraits share the second (critical leaf) component but have strongly
    # linked first quadrilaterals; the leaf sits in the hole behind both quads
    shared = leaf_quad(A(5, 6), A(1, 6))
    qcp1 = QcPortrait(3, (q1, shared))
    qcp2 = QcPortrait(3, (q2, shared))
    lam1 = FiniteLamination(3, list(q1.edges) + [Chord(A(5, 6), A(1, 6))])
    lam2 = FiniteLamination(3, list(q2.edges) + [Chord(A(5, 6), A(1, 6))])
    from lamina.lamination import check_unlinked

    assert check_unlinked(lam1)[0] and check_unlinked(lam2)[0]
    rep = classify_pair(lam1, qcp1, lam2, qcp2)
    assert rep.verdict == "linked"


def test_classify_pair_symmetry():
    lam1 = pullback_build(3, [C(0, 1, 1, 3), C(1, 3, 2, 3), C(0, 1, 2, 3)], 2)
    qcp1 = QcPortrait(3, (leaf_quad(A(0), A(1, 3)), leaf_quad(A(1, 3), A(2, 3))))
    lam2 = pullback_build(3, [C(0, 1, 1, 2), C(0, 1, 1, 3), C(0, 1, 2, 3)], 2)
    qcp2 = QcPortrait(3, (leaf_quad(A(0), A(1, 3)), leaf_quad(A(0), A(2, 3))))
    assert (
        classify_pair(lam1, qcp1, lam2, qcp2).verdict
        == classify_pair(lam2, qcp2, lam1, qcp1).verdict
    )


def test_derived_portraits_validate():
    for portrait, sectors in [
        ([C(0, 1, 1, 3), C(1, 2, 5, 6)], None),
        ([C(0, 1, 1, 3), C(1, 3, 2, 3), C(0, 1, 2, 3)], None),
    ]:
        lam = pullback_build(3, portrait, 2, sectors=sectors)
        if qc_portrait_exists(lam):
            assert validate_qc_portrait(derive_qc_portrait(lam))


def test_essentially_equal_builds_stay_compatible():
    # the same quadratic data built from the quadrilateral and from its
    # spike alone: portraits share a spike, so the builds must never cross
    from lamina.chords import linked

    quad_edges = [C(1, 14, 1, 7), C(1, 7, 4, 7), C(4, 7, 9, 14), C(9, 14, 1, 14)]
    spike = C(1, 14, 4, 7)
    lam_quad = pullback_build(2, quad_edges, 5, sectors=[spike])
    lam_spike = pullback_build(2, [spike], 5)
    qcp_quad = QcPortrait(2, (make_quadrilateral([F(1, 14), F(1, 7), F(4, 7), F(9, 14)], 2),))
    qcp_spike = QcPortrait(2, (make_quadrilateral([F(1, 14), F(1, 14), F(4, 7), F(4, 7)], 2),))
    rep = classify_pair(lam_quad, qcp_quad, lam_spike, qcp_spike)
    assert rep.verdict == "essentially_equal"
    for c1 in lam_quad.leaves:
        for c2 in lam_spike.leaves:
            assert not linked(c1, c2)


def test_classify_pair_through_common_cluster():
    # both laminations carry the full all-critical triangle; portraits agree
    # in the first slot and differ in the second, which the shared cluster
    # absorbs, leaving the pair essentially equal
    tri = [C(0, 1, 1, 3), C(1, 3, 2, 3), C(0, 1, 2, 3)]
    lam = pullback_build(3, tri, 2)
    qcp1 = QcPortrait(3, (leaf_quad(A(0), A(1, 3)), leaf_quad(A(1, 3), A(2, 3))))
    qcp2 = QcPortrait(3, (leaf_quad(A(0), A(1, 3)), leaf_quad(A(0), A(2, 3))))
    rep = classify_pair(lam, qcp1, lam, qcp2)
    assert rep.verdict == "essentially_equal"
    assert rep.k == 1
    assert rep.detail == ("shares_spike", "common_cluster")


def test_qc_portrait_existence_through_tuning():
    # a degree-2 hexagonal gap blocks a qc-portrait until a collapsing
    # quadrilateral is inserted
    verts = [A(19, 39), A(28, 39), A(31, 39), A(32, 39), A(2, 39), A(5, 39)]
    hexagon = [Chord(verts[i], verts[(i + 1) % 6]) for i in range(6)]
    second = Chord(A(16, 117), A(55, 117))
    lam = pullback_build(3, hexagon + [second], 2, sectors=[Chord(verts[0], verts[3]), second])
    assert not qc_portrait_exists(lam)
    with pytest.raises(ValueError):
        derive_qc_portrait(lam)
    gap = [g for g in critical_analysis(lam).critical_gaps if len(g.vertices) == 6][0]
    lam2, quad = tune_insert(lam, gap)
    assert qc_portrait_exists(lam2)
    portrait = derive_qc_portrait(lam2)
    assert validate_qc_portrait(portrait)
    assert quad in portrait.quads


def test_tuned_lamination_stays_unlinked():
    from lamina.lamination import check_unlinked

    verts = [A(19, 39), A(28, 39), A(31, 39), A(32, 39), A(2, 39), A(5, 39)]
    hexagon = [Chord(verts[i], verts[(i + 1) % 6]) for i in range(6)]
    second = Chord(A(16, 117), A(55, 117))
    lam = pullback_build(3, hexagon + [second], 3, sectors=[Chord(verts[0], verts[3]), second])
    gap = [g for g in critical_analysis(lam).critical_gaps if len(g.vertices) == 6][0]
    lam2, _ = tune_insert(lam, gap)
    assert check_unlinked(lam2)[0]


def _descending_k_verdict(status, clustered) -> PairReport:
    """Oracle: try every k from n down, keeping the first essentially equal
    alignment and else the largest linked one."""
    n = len(status)
    best = None
    for k in range(n, -1, -1):
        if any(status[i] == "none" for i in range(k)):
            continue
        if not all(clustered[i] for i in range(k, n)):
            continue
        detail = tuple(status[:k]) + tuple("common_cluster" for _ in range(k, n))
        if all(s == "shares_spike" for s in status[:k]):
            return PairReport("essentially_equal", k, detail)
        if best is None:
            best = PairReport("linked", k, detail)
    return best if best is not None else PairReport("neither", None, tuple(status))


def test_pair_verdict_agrees_with_the_descending_k_loop():
    checked = 0
    for n in range(6):
        for status in itertools.product(("shares_spike", "strongly_linked", "none"), repeat=n):
            for clustered in itertools.product((False, True), repeat=n):
                assert _pair_verdict(list(status), list(clustered)) == _descending_k_verdict(status, clustered)
                checked += 1
    assert checked == 9331


def _collapsing_quad_oracle(d, g):
    """The rule four functions each restated: a four-vertex gap, not all
    critical, that ``make_quadrilateral`` accepts as collapsing."""
    if len(g.vertices) != 4 or _all_critical(d, g):
        return None
    try:
        quad = make_quadrilateral(g.vertices, d)
    except ValueError:
        return None
    return quad if quad.classification == COLLAPSING else None


def test_collapsing_quad_agrees_with_the_restated_rule():
    # every 4-subset of a few rings, as a finite gap; 13,942 gaps in all
    found = total = 0
    for d, N in ((3, 12), (3, 24), (4, 16), (2, 14)):
        for xs in itertools.combinations(range(N), 4):
            g = Gap(N, xs)
            quad = _collapsing_quad(d, g)
            assert quad == _collapsing_quad_oracle(d, g), (d, N, xs)
            total += 1
            found += quad is not None
    assert (total, found) == (13942, 345)
    # a gap of another size is never one
    assert _collapsing_quad(2, Gap(4, (0, 1, 2))) is None
    assert _collapsing_quad(2, Gap(8, (0, 1, 2, 4, 5, 6))) is None
