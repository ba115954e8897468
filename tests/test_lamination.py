import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lamina.lamination as lamination
from lamina.circle import Angle
from lamina.chords import Chord, chord_image, is_critical, linked
from lamina.lamination import (
    FiniteLamination,
    InconsistentPortrait,
    boundary_degree,
    check_invariance,
    check_unlinked,
    critical_analysis,
    gap_degree,
    gaps,
    orbit_classify,
    prune_isolated,
    pullback_build,
)

A = Angle


def C(*args):
    if len(args) == 4:
        return Chord(A(args[0], args[1]), A(args[2], args[3]))
    return Chord(A(args[0]), A(args[1]))


TRIANGLE = [C(0, 1, 1, 3), C(1, 3, 2, 3), C(0, 1, 2, 3)]
RABBIT_QUAD = [C(1, 14, 1, 7), C(1, 7, 4, 7), C(4, 7, 9, 14), C(9, 14, 1, 14)]
RABBIT_SPIKE = [C(1, 14, 4, 7)]


def figure_orbit_lamination(depth=3):
    Q = lambda n: A(n, 2184)
    narrow = [Chord(Q(1009), Q(1026)), Chord(Q(1026), Q(1737)), Chord(Q(1737), Q(1754)), Chord(Q(1754), Q(1009))]
    wide = [Chord(Q(114), Q(193)), Chord(Q(193), Q(842)), Chord(Q(842), Q(921)), Chord(Q(921), Q(114))]
    spikes = [Chord(Q(1009), Q(1737)), Chord(Q(114), Q(842))]
    return pullback_build(3, narrow + wide, depth, sectors=spikes)


def test_check_unlinked():
    ok, pair = check_unlinked(FiniteLamination(3, TRIANGLE))
    assert ok and pair is None
    bad = FiniteLamination(2, [C(0, 1, 1, 2), C(1, 4, 3, 4)])
    ok, pair = check_unlinked(bad)
    assert not ok and set(pair) == {C(0, 1, 1, 2), C(1, 4, 3, 4)}


def pairwise_crossing(lam):
    """Oracle for check_unlinked: the first linked pair in leaf order, or None."""
    leaves = lam.leaves
    for i in range(len(leaves)):
        for j in range(i + 1, len(leaves)):
            if linked(leaves[i], leaves[j]):
                return leaves[i], leaves[j]
    return None


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_check_unlinked_agrees_with_pairwise_oracle(data):
    # small denominators, so endpoints are often shared
    q = data.draw(st.integers(min_value=2, max_value=12))
    point = st.integers(min_value=0, max_value=q - 1).map(lambda p: A(p, q))
    chord = st.builds(Chord, point, point)
    chords = data.draw(st.lists(chord, max_size=12))
    if data.draw(st.booleans()):
        # a laminar set plus one extra chord
        laminar = []
        for c in chords:
            if not any(linked(c, m) for m in laminar):
                laminar.append(c)
        chords = laminar + [data.draw(chord)]
    lam = FiniteLamination(data.draw(st.integers(min_value=2, max_value=4)), chords)
    ok, pair = check_unlinked(lam)
    assert ok == (pairwise_crossing(lam) is None)
    if ok:
        assert pair is None
    else:
        assert linked(*pair) and pair[0] < pair[1]
        assert pair[0] in lam and pair[1] in lam


def test_check_unlinked_is_a_sweep(monkeypatch):
    lam = pullback_build(2, RABBIT_QUAD, 6, sectors=RABBIT_SPIKE)
    assert len(lam) >= 500
    crossing = lam.with_leaves([C(0, 1, 1, 2)])

    def no_pairwise_scan(c1, c2):
        raise AssertionError("check_unlinked called linked")

    monkeypatch.setattr(lamination, "linked", no_pairwise_scan)
    assert check_unlinked(lam) == (True, None)
    ok, pair = check_unlinked(crossing)
    assert not ok and C(0, 1, 1, 2) in pair


def test_period_six_orbit_is_unlinked():
    M = C(342, 728, 579, 728)
    orbit = orbit_classify(3, M).orbit
    lam = FiniteLamination(3, orbit)
    assert len(lam) == 6
    assert check_unlinked(lam)[0]


def test_gaps_of_triangle():
    gs = gaps(FiniteLamination(3, TRIANGLE))
    finite = [g for g in gs if g.finite]
    assert len(gs) == 4
    assert len(finite) == 1
    assert finite[0].vertices == (A(0), A(1, 3), A(2, 3))
    arcy = [g for g in gs if not g.finite]
    assert all(len(g.arcs) == 1 and len(g.edges) == 1 for g in arcy)


def test_gaps_trivial_cases():
    disk = gaps(FiniteLamination(2, []))
    assert len(disk) == 1 and disk[0].is_disk
    halves = gaps(FiniteLamination(2, [C(0, 1, 1, 2)]))
    assert len(halves) == 2
    assert all(g.vertices == (A(0), A(1, 2)) for g in halves)


def test_gap_boundary_count_partition():
    # every chord borders exactly two gaps, every circle arc exactly one
    lam = pullback_build(2, RABBIT_QUAD, 4, sectors=RABBIT_SPIKE)
    gs = gaps(lam)
    n_chord_sides = sum(len(g.edges) for g in gs)
    n_arc_sides = sum(len(g.arcs) for g in gs)
    points = {e for c in lam.leaves for e in c.endpoints}
    assert n_chord_sides == 2 * len(lam.leaves)
    assert n_arc_sides == len(points)


def test_gap_degree_examples():
    tri = [g for g in gaps(FiniteLamination(3, TRIANGLE)) if g.finite][0]
    assert gap_degree(3, tri) == 3
    invariant_triangle = FiniteLamination(2, [C(1, 7, 2, 7), C(2, 7, 4, 7), C(1, 7, 4, 7)])
    tri2 = [g for g in gaps(invariant_triangle) if g.finite][0]
    assert gap_degree(2, tri2) == 1
    quad = FiniteLamination(
        3, [C(1, 3, 5, 12), C(5, 12, 2, 3), C(2, 3, 3, 4), C(3, 4, 1, 3)]
    )
    q = [g for g in gaps(quad) if g.finite][0]
    assert gap_degree(3, q) == 2
    with pytest.raises(ValueError):
        gap_degree(2, [g for g in gaps(invariant_triangle) if not g.finite][0])


def test_boundary_degree_of_leaves():
    assert boundary_degree(3, [A(0), A(1, 3)]) == 2  # critical leaf
    assert boundary_degree(2, [A(1, 7), A(2, 7)]) == 1


def test_orbit_classify_examples():
    info = orbit_classify(3, A(342, 728))
    assert (info.preperiod, info.period) == (0, 6)
    M = C(342, 728, 579, 728)
    chord_info = orbit_classify(3, M)
    assert (chord_info.preperiod, chord_info.period) == (0, 6)
    expected = [(342, 579), (298, 281), (166, 115), (498, 345), (38, 307), (114, 193)]
    got = [tuple(sorted((c.a * 728, c.b * 728))) for c in chord_info.orbit]
    assert got == [tuple(sorted(p)) for p in expected]
    half = orbit_classify(2, A(1, 2))
    assert (half.preperiod, half.period) == (1, 1)


def test_pullback_build_rabbit_triangle_gap():
    lam = pullback_build(2, RABBIT_QUAD, 6, sectors=RABBIT_SPIKE)
    tri = [g for g in gaps(lam) if g.finite and set(g.vertices) == {A(1, 7), A(2, 7), A(4, 7)}]
    assert tri and gap_degree(2, tri[0]) == 1
    assert check_unlinked(lam)[0]


def test_pullback_build_triangle_portrait():
    lam = pullback_build(3, [C(0, 1, 1, 3), C(0, 1, 2, 3)], 4)
    assert C(0, 1, 1, 3) in lam and C(0, 1, 2, 3) in lam
    assert check_unlinked(lam)[0]


def test_pullback_rejects_crossing_portrait():
    with pytest.raises(InconsistentPortrait):
        pullback_build(3, [C(0, 1, 1, 3), C(1, 6, 1, 2)], 2)


@pytest.mark.parametrize("depth", [-1, -3, 1.5, "2", None, True])
def test_pullback_rejects_bad_depth(depth):
    with pytest.raises(ValueError, match="depth"):
        pullback_build(3, TRIANGLE, depth)


def test_pullback_refuses_depth_over_leaf_bound(monkeypatch):
    n0 = len(pullback_build(2, RABBIT_QUAD, 0, sectors=RABBIT_SPIKE))
    # n0 * (2**(depth+1) - 1): every leaf has two pullbacks per generation
    monkeypatch.setattr(lamination, "MAX_PULLBACK_LEAVES", n0 * (2**4 - 1))
    assert len(pullback_build(2, RABBIT_QUAD, 3, sectors=RABBIT_SPIKE)) <= n0 * (2**4 - 1)
    with pytest.raises(ValueError, match=f"could build {n0 * (2**5 - 1)} leaves"):
        pullback_build(2, RABBIT_QUAD, 4, sectors=RABBIT_SPIKE)
    monkeypatch.undo()
    with pytest.raises(ValueError, match=f"could build {n0 * (2**41 - 1)} leaves"):
        pullback_build(2, RABBIT_QUAD, 40, sectors=RABBIT_SPIKE)
    # no d**depth is formed for an absurd depth
    with pytest.raises(ValueError, match="at least"):
        pullback_build(2, RABBIT_QUAD, 10**12, sectors=RABBIT_SPIKE)
    # the bound of an empty portrait is 0, and its generations end at once
    assert len(pullback_build(2, [], 10**12, sectors=RABBIT_SPIKE)) == 0


def test_pullback_rejects_incomplete_sectors():
    with pytest.raises(InconsistentPortrait):
        pullback_build(3, [C(0, 1, 1, 3)], 2)


def test_invariance_of_generated_laminations():
    for d, portrait, sectors, depth in [
        (2, RABBIT_QUAD, RABBIT_SPIKE, 5),
        (3, TRIANGLE, None, 3),
        (3, [C(0, 1, 1, 3), C(1, 2, 5, 6)], None, 3),
    ]:
        lam = pullback_build(d, portrait, depth, sectors=sectors)
        assert check_unlinked(lam)[0]
        report = check_invariance(lam, depth)
        assert report.ok, (report.condition1, report.condition2, report.condition3)


def test_invariance_examples():
    tri = FiniteLamination(3, TRIANGLE)
    report = check_invariance(tri, 0)
    # all edges critical: images degenerate, pullback/sibling conditions vacuous
    assert not report.condition1 and not report.condition3
    lonely = FiniteLamination(2, [C(1, 7, 2, 7)])
    assert check_invariance(lonely, 1).condition2 == [C(1, 7, 2, 7)]
    fig = figure_orbit_lamination()
    assert check_invariance(fig, 3).ok


def test_leaf_endpoints_share_eventual_period():
    lam = figure_orbit_lamination()
    for leaf in lam.leaves:
        infos = [orbit_classify(3, p) for p in leaf.endpoints]
        for this, other in (infos, infos[::-1]):
            if this.preperiod == 0:
                assert other.period == this.period


def test_critical_analysis_clusters():
    # two all-critical triangles sharing an edge (degree 4)
    a, b, c, d = A(0), A(1, 4), A(1, 2), A(3, 4)
    leaves = [Chord(a, b), Chord(b, c), Chord(a, c), Chord(c, d), Chord(a, d)]
    lam = FiniteLamination(4, leaves)
    an = critical_analysis(lam)
    assert an.critical_clusters == ((a, b, c, d),)
    # two disjoint critical leaves give singleton clusters
    lam2 = FiniteLamination(3, [C(0, 1, 1, 3), C(1, 2, 5, 6)])
    an2 = critical_analysis(lam2)
    assert set(an2.critical_clusters) == {(A(0), A(1, 3)), (A(1, 2), A(5, 6))}
    # a single quadratic diameter
    lam3 = FiniteLamination(2, [C(0, 1, 1, 2)])
    an3 = critical_analysis(lam3)
    assert an3.critical_leaves == (C(0, 1, 1, 2),)
    assert an3.critical_clusters == ((A(0), A(1, 2)),)


def test_critical_analysis_concatenated_leaves_stay_separate():
    lam = FiniteLamination(3, [C(0, 1, 1, 3), C(1, 3, 2, 3)])
    an = critical_analysis(lam)
    assert set(an.critical_clusters) == {(A(0), A(1, 3)), (A(1, 3), A(2, 3))}


def test_critical_analysis_is_computed_once_and_frozen():
    lam = pullback_build(3, [C(0, 1, 1, 3), C(1, 2, 5, 6)], 3)
    an = critical_analysis(lam)
    assert critical_analysis(lam) is an
    assert critical_analysis(FiniteLamination(3, lam.leaves)) == an
    with pytest.raises(dataclasses.FrozenInstanceError):
        an.critical_sets = ()


def test_vertex_orbit_period():
    info = orbit_classify(3, [A(1, 13), A(3, 13), A(9, 13)])
    assert (info.preperiod, info.period) == (0, 1)
    info = orbit_classify(2, [A(1, 7), A(2, 7)])
    assert (info.preperiod, info.period) == (0, 3)
    assert orbit_classify(2, [A(1, 7), A(2, 7)], max_steps=2) is None
    assert orbit_classify(2, [A(1, 7), A(2, 7)], max_steps=3).period == 3


def test_prune_isolated_drops_lonely_diameter():
    lam = pullback_build(2, [C(1, 14, 4, 7)], 5)
    pruned = prune_isolated(lam, Fraction(1, 64), rounds=2)
    assert C(1, 14, 4, 7) in lam
    assert C(1, 14, 4, 7) not in pruned


def test_gap_count_oracle():
    # each non-crossing chord splits exactly one region: n leaves, n+1 gaps
    builds = [
        FiniteLamination(3, TRIANGLE),
        pullback_build(2, RABBIT_QUAD, 4, sectors=RABBIT_SPIKE),
        pullback_build(3, [C(0, 1, 1, 3), C(1, 2, 5, 6)], 3),
        figure_orbit_lamination(2),
    ]
    for lam in builds:
        assert len(gaps(lam)) == len(lam) + 1
