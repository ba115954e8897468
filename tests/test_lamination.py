import bisect
import functools
import hashlib
import itertools
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lamina.circle as circle
import lamina.lamination as lamination
import lamina.quad_minor as quad_minor
import lamina.suites as suites
from lamina.circle import Angle, _ring, ccw_offset, preimages, sigma
from lamina.chords import (
    Chord,
    _in_sibling_collection,
    chord_image,
    disjoint,
    greedy_no_loop,
    is_critical,
    linked,
    sibling_collections,
    validate_collection,
)
from lamina.cubic_tags import ConvexSet, full_portraits_of
from lamina.formats import parse_portrait
from lamina.quad_minor import major_quadrilateral, minor_of, qml_enumerate
from lamina.sampling import Lcg
from lamina.suites import _quad_portrait, heuristically_dendritic, hexagon_fixtures
from lamina.lamination import (
    FiniteLamination,
    Gap,
    InconsistentPortrait,
    OrbitInfo,
    boundary_degree,
    check_invariance,
    check_unlinked,
    critical_analysis,
    gap_degree,
    gaps,
    orbit_classify,
    pullback_build,
    sector_partition,
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
    with pytest.raises(ValueError, match="0 1/2 x 1/4 3/4"):
        gaps(bad)


def pairwise_crossing(lam):
    """Oracle for check_unlinked: the first linked pair in leaf order, or None."""
    leaves = lam.leaves
    for i in range(len(leaves)):
        for j in range(i + 1, len(leaves)):
            if linked(leaves[i], leaves[j]):
                return leaves[i], leaves[j]
    return None


def face_walk_gaps(lam):
    """Oracle for gaps: a planar face walk over the endpoints, arcs and both
    directions of every chord, turning at each endpoint to the next edge
    in rotation order, so each face keeps its region on the left."""
    if not lam.leaves:
        return [Gap.whole_disk()]
    points = sorted({e for c in lam.leaves for e in c.endpoints})
    succ = {p: points[(i + 1) % len(points)] for i, p in enumerate(points)}
    # outgoing edges at v sorted by the rotation parameter t = (w - v) mod 1;
    # the counterclockwise arc leaves at t -> 0+
    out_sorted = {p: [(A(0), ("arc", p, succ[p]))] for p in points}
    for c in lam.leaves:
        out_sorted[c.a].append((ccw_offset(c.a, c.b), ("chord", c.a, c.b)))
        out_sorted[c.b].append((ccw_offset(c.b, c.a), ("chord", c.b, c.a)))
    for cands in out_sorted.values():
        cands.sort(key=lambda x: x[0])

    def next_edge(edge):
        kind, u, v = edge
        if kind == "arc":
            # an arc arrives along the circle, so its reverse points clockwise
            # (parameter 1) and every outgoing candidate precedes it
            return out_sorted[v][-1][1]
        t_rev = ccw_offset(v, u)
        return [cand for t, cand in out_sorted[v] if t < t_rev][-1]

    all_edges = [("arc", p, succ[p]) for p in points]
    for c in lam.leaves:
        all_edges += [("chord", c.a, c.b), ("chord", c.b, c.a)]
    seen = set()
    result = []
    for start in all_edges:
        if start in seen:
            continue
        face = []
        edge = start
        while edge not in seen:
            face.append(edge)
            seen.add(edge)
            edge = next_edge(edge)
        verts = [u for _, u, _ in face]
        k = verts.index(min(verts))
        N, xs = _ring(verts[k:] + verts[:k])
        arcs = sorted((i - k) % len(face) for i, (kind, _, _) in enumerate(face) if kind == "arc")
        result.append(Gap(N, xs, arcs))
    result.sort(key=lambda g: g.vertices)
    return result


# Strategies for the Hypothesis oracle tests, built once per denominator
# rather than once per example: the points p/q, the chords between them and
# lists of those chords.
POINTS = {q: st.integers(min_value=0, max_value=q - 1).map(lambda p, q=q: A(p, q)) for q in range(2, 13)}
CHORDS = {q: st.builds(Chord, point, point) for q, point in POINTS.items()}
CHORD_LISTS = {q: st.lists(chord, max_size=12) for q, chord in CHORDS.items()}


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_check_unlinked_agrees_with_pairwise_oracle(data):
    # small denominators, so endpoints are often shared
    q = data.draw(st.integers(min_value=2, max_value=12))
    chord = CHORDS[q]
    chords = data.draw(CHORD_LISTS[q])
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
        assert gaps(lam) == face_walk_gaps(lam)
    else:
        assert linked(*pair) and pair[0] < pair[1]
        assert pair[0] in lam and pair[1] in lam
        with pytest.raises(ValueError, match=f"{pair[0]} x {pair[1]}"):
            gaps(lam)


def angle_nest(leaves):
    """Oracle for the ring sweep ``_nest``: the same sweep with its events
    keyed by Angles and its stack top matched by Chord identity."""
    events = sorted(
        [(c.b, False, -c.a, c) for c in leaves] + [(c.a, True, -c.b, c) for c in leaves]
    )
    stack = [(None, [])]
    closed = []
    for _, opens, _, c in events:
        if opens:
            stack.append((c, []))
        elif stack[-1][0] is c:
            closed.append(stack.pop())
            stack[-1][1].append(c)
        else:
            return None, tuple(sorted((c, stack[-1][0])))
    return closed + stack, None


def assert_nest_matches_oracle(lam):
    parent, pair = lamination._nest(lam)
    expected_frames, expected_pair = angle_nest(lam.leaves)
    assert pair == expected_pair
    if expected_frames is None:
        assert parent is None
    else:
        # the oracle's frames hold each leaf's children; the root frame's
        # are the top-level leaves
        index = {c: i for i, c in enumerate(lam.leaves)}
        expected = [None] * len(lam)
        for c, children in expected_frames:
            for child in children:
                expected[index[child]] = -1 if c is None else index[c]
        assert parent == expected


@functools.cache
def mixed_chords(qs):
    """Chords between points p/q, q drawn from ``qs`` for each point; built
    once per tuple of denominators."""
    point = st.sampled_from(qs).flatmap(POINTS.__getitem__)
    return st.builds(Chord, point, point)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_ring_nest_agrees_with_angle_oracle(data):
    # small denominators share endpoints; mixed ones put the leaves on a
    # ring whose N is a proper multiple of most denominators
    qs = data.draw(st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=3))
    mixed_chord = mixed_chords(tuple(qs))
    chords = data.draw(st.lists(mixed_chord, max_size=14))
    if data.draw(st.booleans()):
        laminar = []
        for c in chords:
            if not any(linked(c, m) for m in laminar):
                laminar.append(c)
        chords = laminar + data.draw(st.lists(mixed_chord, max_size=2))
    assert_nest_matches_oracle(FiniteLamination(2, chords))


def test_ring_nest_agrees_with_angle_oracle_on_large_laminations():
    lam = pullback_build(2, RABBIT_QUAD, 8, sectors=RABBIT_SPIKE)
    cubic = figure_orbit_lamination(4)
    assert len(lam) > 2000 and len(cubic) > 1000
    sub = FiniteLamination(2, random.Random(7).sample(lam.leaves, 1200))
    for big in (lam, cubic, sub):
        assert_nest_matches_oracle(big)
        # chords that cross leaves of the lamination
        for extra in (C(0, 1, 1, 2), C(1, 5, 3, 5)):
            crossing = big.with_leaves([extra])
            assert not check_unlinked(crossing)[0]
            assert_nest_matches_oracle(crossing)
    assert_nest_matches_oracle(FiniteLamination(2, []))


def test_check_unlinked_is_a_sweep(monkeypatch):
    lam = pullback_build(2, RABBIT_QUAD, 6, sectors=RABBIT_SPIKE)
    assert len(lam) >= 500
    crossing = lam.with_leaves([C(0, 1, 1, 2)])

    def no_pairwise_scan(c1, c2):
        raise AssertionError("check_unlinked called linked")

    def no_rotation_order(a, b):
        raise AssertionError("gaps called ccw_offset")

    monkeypatch.setattr(lamination, "linked", no_pairwise_scan)
    # lamination imports no ccw_offset; Arc reads the one in circle
    monkeypatch.setattr(circle, "ccw_offset", no_rotation_order)
    assert check_unlinked(lam) == (True, None)
    ok, pair = check_unlinked(crossing)
    assert not ok and C(0, 1, 1, 2) in pair
    # gaps reads the faces off the same sweep
    assert len(gaps(lam)) == len(lam) + 1
    with pytest.raises(ValueError, match="cross"):
        gaps(crossing)


def test_face_walk_builds_no_checked_arc(monkeypatch):
    # the walk records ring ints and arc side indices and builds no Arc; the
    # checked Arc views, formed on read, join two distinct points
    lam = pullback_build(2, RABBIT_QUAD, 4, sectors=RABBIT_SPIKE)
    want = gaps(lam)
    assert all(arc.start != arc.end for g in want for arc in g.arcs) and any(g.arcs for g in want)

    def no_check(arc):
        raise AssertionError("gaps checked an Arc")

    monkeypatch.setattr(circle.Arc, "__post_init__", no_check)
    assert gaps(lam) == want


def test_one_face_walk_per_lamination(monkeypatch):
    # heuristically_dendritic reads the arc-bearing gaps that critical_analysis
    # walks, and full_portraits_of reads the same analysis
    lam = pullback_build(3, [C(0, 1, 1, 3), C(1, 2, 5, 6)], 3)
    calls = []

    def counting_gaps(lam):
        calls.append(None)
        return gaps(lam)

    for module in (lamination, suites):
        monkeypatch.setattr(module, "gaps", counting_gaps)
    assert heuristically_dendritic(lam)
    analysis = critical_analysis(lam)
    assert analysis.skipped_infinite_gaps == len(analysis.arc_gaps) > 0
    assert len(full_portraits_of(lam)) == 2
    assert len(calls) == 1


def test_one_ring_conversion_per_lamination(monkeypatch):
    # the sweep, the gaps, invariance, critical analysis and the minor all
    # read the lamination's ring: a build hands its ring over, and the
    # constructor forms it once from the Chords it is given
    built = pullback_build(2, RABBIT_QUAD, 6, sectors=RABBIT_SPIKE)
    calls = []

    def counting_ring(angles):
        calls.append(None)
        return _ring(angles)

    def read(lam):
        assert check_unlinked(lam) == (True, None)
        assert len(gaps(lam)) == len(lam) + 1
        report = check_invariance(lam, 6)
        assert critical_analysis(lam).critical_sets
        assert minor_of(lam).minor == C(1, 7, 2, 7)
        return report

    monkeypatch.setattr(lamination, "_ring", counting_ring)
    assert read(built).ok
    assert len(calls) == 0
    read(FiniteLamination(2, built.leaves))
    assert len(calls) == 1


def test_chords_are_built_only_for_what_is_returned(monkeypatch):
    # a build, the sweep and invariance run on the ring alone; the minor
    # builds the Chords of its majors
    calls, chord = [], lamination._chord

    def counting_chord(N, pair):
        calls.append(pair)
        return chord(N, pair)

    for module in (lamination, quad_minor):
        monkeypatch.setattr(module, "_chord", counting_chord)
    lam = pullback_build(2, RABBIT_QUAD, 6, sectors=RABBIT_SPIKE)
    assert check_unlinked(lam) == (True, None)
    assert check_invariance(lam, 6).ok
    assert calls == []
    majors = minor_of(lam).majors
    assert len(calls) == len(majors) == 2


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


def test_one_face_on_two_rings_is_one_gap():
    # the triangle on the ring mod 3, and on the ring mod 9 once a leaf of
    # denominator 9 joins it
    alone = [g for g in gaps(FiniteLamination(3, TRIANGLE)) if g.finite]
    joined = [g for g in gaps(FiniteLamination(3, TRIANGLE + [C(1, 9, 2, 9)])) if g.finite]
    assert [g.ring for g in alone] == [(3, (0, 1, 2))]
    assert [g.ring for g in joined] == [(9, (0, 3, 6))]
    assert alone == joined and hash(alone[0]) == hash(joined[0])
    assert str(alone[0]) == str(joined[0]) == "Gap(0, 1/3, 2/3)"
    assert alone[0].sides == joined[0].sides


def test_all_critical_rule_agrees_with_critical_edges():
    # a finite gap's sides are all critical iff its vertices share one image
    seen = set()
    for lam, faces in face_walk_cases():
        for g in faces:
            if g.finite:
                rule = lamination._all_critical(lam.degree, g)
                assert rule == all(is_critical(lam.degree, e) for e in g.edges), (lam, g)
                seen.add(rule)
    assert seen == {True, False}


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


def rank_sum_degree(d, vertices):
    """Oracle for boundary_degree: the sum of the forward steps between the
    ranks of the images, mod their count, over one trip round the boundary."""
    imgs = [sigma(d, v) for v in vertices]
    distinct = sorted(set(imgs))
    if len(distinct) == 1:
        return len(vertices)
    rank = {v: i for i, v in enumerate(distinct)}
    m = len(distinct)
    total = sum((rank[imgs[(i + 1) % len(imgs)]] - rank[imgs[i]]) % m for i in range(len(imgs)))
    assert total % m == 0
    return total // m


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(1, 40).flatmap(
        lambda q: st.sets(st.integers(0, q - 1), min_size=1, max_size=9).map(
            lambda ps: sorted(A(p, q) for p in ps)
        )
    ),
)
def test_boundary_degree_matches_rank_sum(d, vertices):
    assert boundary_degree(d, vertices) == rank_sum_degree(d, vertices)


def test_boundary_degree_of_no_vertices_is_a_value_error():
    with pytest.raises(ValueError, match="empty"):
        boundary_degree(3, [])


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


def _orbit_oracle(d, x, max_steps=None):
    """orbit_classify's former loop, on Angles and sigma: a step per image,
    a dict of the images seen so far."""
    if isinstance(x, Chord):
        step = lambda c: chord_image(d, c)
    elif isinstance(x, (set, frozenset, tuple, list)):
        x = frozenset(Angle(v) for v in x)
        step = lambda vs: frozenset(sigma(d, v) for v in vs)
    else:
        x = Angle(x)
        step = lambda a: sigma(d, a)
    seen = {x: 0}
    orbit = [x]
    current = x
    while max_steps is None or len(orbit) <= max_steps:
        current = step(current)
        if current in seen:
            pre = seen[current]
            return OrbitInfo(preperiod=pre, period=len(orbit) - pre, orbit=tuple(orbit))
        seen[current] = len(orbit)
        orbit.append(current)
    return None


@st.composite
def _orbit_case(draw):
    """A degree, an angle, chord or vertex set whose denominators may or
    may not carry factors of d, and a step bound from None through 0 to
    past the orbit's closing."""
    d = draw(st.sampled_from([2, 3, 4]))

    def angle():
        q = draw(st.integers(1, 45)) * d ** draw(st.integers(0, 3))
        return A(draw(st.integers(0, q - 1)), q)

    kind = draw(st.sampled_from(["angle", "chord", "degenerate", "critical", "set"]))
    if kind == "angle":
        x = angle()
    elif kind == "chord":
        x = Chord(angle(), angle())
    elif kind == "degenerate":
        a = angle()
        x = Chord(a, a)
    elif kind == "critical":
        a = angle()
        x = Chord(a, a + Fraction(draw(st.integers(1, d - 1)), d))
    else:
        vs = [angle() for _ in range(draw(st.integers(0, 4)))]
        x = draw(st.sampled_from([list(vs), tuple(vs), set(vs), frozenset(vs)]))
    closes_at = _orbit_oracle(d, x).closes_at
    max_steps = draw(st.one_of(st.none(), st.integers(0, closes_at + 2)))
    return d, x, max_steps


@settings(max_examples=400, deadline=None)
@given(_orbit_case())
def test_orbit_classify_agrees_with_angle_oracle(case):
    d, x, max_steps = case
    got = orbit_classify(d, x, max_steps=max_steps)
    assert got == _orbit_oracle(d, x, max_steps)
    if got is not None:
        want = Chord if isinstance(x, Chord) else Angle if isinstance(x, Angle) else frozenset
        assert all(type(e) is want for e in got.orbit)


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
    # a full collection of two crossing critical chords: the sector sweep
    # finds the crossing
    with pytest.raises(InconsistentPortrait, match="critical chords of the portrait cross each other"):
        pullback_build(3, [C(0, 1, 1, 3), C(1, 6, 1, 2)], 2)


def test_sector_partition_reports_only_a_crossing_as_one(monkeypatch):
    def failing_gaps(lam):
        raise ValueError("some other fault")

    monkeypatch.setattr(lamination, "gaps", failing_gaps)
    with pytest.raises(ValueError, match="some other fault"):
        sector_partition(3, [C(0, 1, 1, 3), C(1, 3, 2, 3)])


# full collections of d - 1 critical chords, as (d, (p, q, r, s) per chord)
FULL_COLLECTIONS = [
    (2, [(0, 1, 1, 2)]),
    (3, [(0, 1, 1, 3), (1, 2, 5, 6)]),  # disjoint
    (3, [(0, 1, 1, 3), (1, 3, 2, 3)]),  # two edges of the critical triangle
    (4, [(0, 1, 1, 4), (1, 3, 7, 12), (2, 3, 11, 12)]),  # disjoint
    (4, [(0, 1, 1, 4), (1, 4, 1, 2), (1, 2, 3, 4)]),  # a path through 1/4 and 1/2
    (4, [(0, 1, 1, 4), (0, 1, 1, 2), (0, 1, 3, 4)]),  # a star at 0
    (4, [(0, 1, 1, 4), (1, 4, 1, 2), (5, 8, 7, 8)]),  # two meet, one apart
]


@pytest.mark.parametrize("d, chords", FULL_COLLECTIONS)
@pytest.mark.parametrize("turn", [Fraction(0), Fraction(1, 7), Fraction(5, 12)])
def test_sector_corners_are_the_face_vertices_off_its_arcs(d, chords, turn):
    # a rotated critical chord is critical: its ends still differ by k/d
    chords = [Chord(A(Fraction(p, q) + turn), A(Fraction(r, s) + turn)) for p, q, r, s in chords]
    faces = sector_partition(d, chords)
    assert len(faces) == d
    starts = []
    for g in faces:
        assert g.arcs and not g.finite
        assert sum(ccw_offset(a.start, a.end) for a in g.arcs) == Fraction(1, d)
        starts += [a.start for a in g.arcs]
    # the half-open arcs tile the circle, each starting at its own point
    assert len(set(starts)) == len(starts)
    # a chord meeting another shares its end as a corner of the face between
    # them: a vertex on none of its arcs, which starts no arc and so lies in
    # the face's closure only
    ends = [e for c in chords for e in c.endpoints]
    corners = set()
    for g in faces:
        corners |= {v for v in g.vertices if not any(a.contains(v, closed=True) for a in g.arcs)}
    shared = {e for e in ends if ends.count(e) > 1}
    assert shared <= corners


def _full_unlinked_collections(d, q):
    """Every full collection of pairwise unlinked critical chords with ends
    in (1/q)Z/Z."""
    points = [A(j, q) for j in range(q)]
    pairs = (Chord(a, b) for a, b in itertools.combinations(points, 2))
    critical = [c for c in pairs if is_critical(d, c)]
    for coll in itertools.combinations(critical, d - 1):
        if not any(linked(u, v) for u, v in itertools.combinations(coll, 2)):
            if validate_collection(d, coll).is_full_collection:
                yield coll


def test_every_full_collection_cuts_d_equal_sectors():
    # sector_partition keeps no runtime check of this: d - 1 unlinked
    # critical chords with no loop always leave d faces, each bearing arcs
    # of total length 1/d; here on every such collection with d <= 5 and
    # ends of denominator d to 4d (5 and 10 for d = 5)
    count = 0
    for d in range(2, 6):
        for q in (5, 10) if d == 5 else range(d, 4 * d + 1):
            for coll in _full_unlinked_collections(d, q):
                faces = sector_partition(d, coll)
                assert len(faces) == d
                for g in faces:
                    assert g.arcs  # no face is a polygon of the chords alone
                    assert sum(ccw_offset(a.start, a.end) for a in g.arcs) == Fraction(1, d)
                count += 1
    assert count == 945


# chord lists that are no full collection, each for its reason
NO_FULL_COLLECTIONS = [
    (3, ["0 1/3"]),  # the wrong count
    (2, ["0 1/3"]),  # a non-critical chord
    (2, ["1/3 1/3"]),  # a degenerate chord
    (3, ["0 1/3", "0 1/3"]),  # a repeated chord
    (4, ["0 1/4", "1/4 1/2", "0 1/2"]),  # a loop
]


@pytest.mark.parametrize("d, texts", NO_FULL_COLLECTIONS)
def test_sector_refusals_name_the_chords(d, texts):
    # the test runs on the chords' ring ints, in sector_partition and in a
    # build's sectors, given as Chords or as int pairs on a ring
    chords = [Chord.parse(t) for t in texts]
    message = re.escape(f"critical chords do not form a full collection: {texts}") + "$"
    N, xs = _ring([e for c in chords for e in c])
    for refuse in (
        lambda: sector_partition(d, chords),
        lambda: pullback_build(d, [C(1, 7, 2, 7)], 2, sectors=chords),
        lambda: pullback_build(d, [], 2, sectors=list(zip(xs[::2], xs[1::2])), N=N),
    ):
        with pytest.raises(InconsistentPortrait, match=message):
            refuse()


@pytest.mark.parametrize("depth", [-1, -3, 1.5, "2", None, True])
def test_pullback_rejects_bad_depth(depth):
    with pytest.raises(ValueError, match="depth"):
        pullback_build(3, TRIANGLE, depth)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_pullback_preimages_of_distinct_ends_are_disjoint(d):
    # pull_leaf pairs a preimage of one end with one of the other and tests
    # no pair for a repeated end: every end it pulls back is a multiple of d
    # on the ring mod N, whose preimages are range(X // d, N, N // d)
    for N in range(d, 30 * d + 1, d):
        pre = {X: range(X // d, N, N // d) for X in range(0, N, d)}
        for X, xs in pre.items():
            assert len(xs) == d and all(d * x % N == X for x in xs)
        assert len(set().union(*map(set, pre.values()))) == d * len(pre)


def refusal(cap, depth, limit):
    """The one text pullback_build refuses a portrait with."""
    return (
        f"the forward orbits of the portrait chords have more than {cap} generation-0 "
        f"leaves, the most depth {depth} can pull back; the limit is {limit} leaves"
    )


def assert_refused(text, *args, **kwargs):
    with pytest.raises(ValueError) as exc:
        pullback_build(*args, **kwargs)
    assert str(exc.value) == text


def test_pullback_refuses_depth_over_leaf_bound(monkeypatch):
    n0 = len(pullback_build(2, RABBIT_QUAD, 0, sectors=RABBIT_SPIKE))
    # n0 * (2**(depth+1) - 1): every leaf has two pullbacks per generation,
    # so depth 4 pulls back at most limit // 31 generation-0 leaves
    limit = n0 * (2**4 - 1)
    monkeypatch.setattr(lamination, "MAX_PULLBACK_LEAVES", limit)
    assert len(pullback_build(2, RABBIT_QUAD, 3, sectors=RABBIT_SPIKE)) <= limit
    assert limit // 31 < n0
    assert_refused(refusal(limit // 31, 4, limit), 2, RABBIT_QUAD, 4, sectors=RABBIT_SPIKE)
    monkeypatch.undo()
    # 10**6 // (2**41 - 1) == 0
    assert_refused(refusal(0, 40, 10**6), 2, RABBIT_QUAD, 40, sectors=RABBIT_SPIKE)
    # no d**depth is formed for an absurd depth
    assert_refused(refusal(0, 10**12, 10**6), 2, RABBIT_QUAD, 10**12, sectors=RABBIT_SPIKE)
    # the bound of an empty portrait is 0, and its generations end at once
    assert len(pullback_build(2, [], 10**12, sectors=RABBIT_SPIKE)) == 0


def test_pullback_refuses_generation_zero_orbits_over_leaf_bound(monkeypatch):
    # the orbit of 1/1000003 2/1000003 has hundreds of thousands of leaves;
    # at depth 1 it is followed only up to 500 // (1 + 3) leaves, then refused
    monkeypatch.setattr(lamination, "MAX_PULLBACK_LEAVES", 500)
    portrait = [C(0, 1, 1, 3), C(1, 2, 5, 6), C(1, 1000003, 2, 1000003)]
    assert_refused(refusal(125, 1, 500), 3, portrait, 1)
    # exactly at the limit the orbits are kept: 1/7 2/7 has period 3, and at
    # depth 1 the bound counts two pullbacks per leaf, 3 * (1 + 2) leaves (the
    # build finds 6: each orbit leaf is already a pullback of its image)
    minor, diameter = [C(1, 7, 2, 7)], [C(1, 14, 4, 7)]
    monkeypatch.setattr(lamination, "MAX_PULLBACK_LEAVES", 3)
    assert len(pullback_build(2, minor, 0, sectors=diameter)) == 3
    monkeypatch.setattr(lamination, "MAX_PULLBACK_LEAVES", 2)
    assert_refused(refusal(2, 0, 2), 2, minor, 0, sectors=diameter)
    monkeypatch.setattr(lamination, "MAX_PULLBACK_LEAVES", 9)
    assert len(pullback_build(2, minor, 1, sectors=diameter)) == 6
    monkeypatch.setattr(lamination, "MAX_PULLBACK_LEAVES", 8)
    assert_refused(refusal(2, 1, 8), 2, minor, 1, sectors=diameter)
    # a critical chord's orbit ends at the chord: its degenerate image, a
    # point of huge period, is not followed and takes no room under the limit
    x = Fraction(1, 2) + Fraction(1, 10**30)
    crit = Chord(A(x), A(x + Fraction(1, 3)))
    monkeypatch.setattr(lamination, "MAX_PULLBACK_LEAVES", 1)
    assert pullback_build(3, [crit], 0, sectors=[C(0, 1, 1, 3), crit]).leaves == (crit,)
    monkeypatch.setattr(lamination, "MAX_PULLBACK_LEAVES", 0)
    assert_refused(refusal(0, 0, 0), 3, [crit], 0, sectors=[C(0, 1, 1, 3), crit])


def test_pullback_stops_a_critical_orbit_at_its_degenerate_image():
    # the image of this critical chord is a point whose period is huge: the
    # orbit ends at the chord, so the build does not follow the point
    x = Fraction(1, 2) + Fraction(1, 10**30)
    crit = Chord(A(x), A(x + Fraction(1, 3)))
    lam = pullback_build(3, [C(0, 1, 1, 3), crit], 0)
    assert lam.leaves == (C(0, 1, 1, 3), crit)


def test_pullback_rejects_incomplete_sectors():
    with pytest.raises(InconsistentPortrait):
        pullback_build(3, [C(0, 1, 1, 3)], 2)


def chord_pullback_build(d, portrait, depth, sectors=None):
    """Oracle for pullback_build: the same construction on Chords and
    Angles, with sigma, preimages and ccw_offset sector tests per leaf."""
    portrait = [c for c in portrait if not c.degenerate]
    if sectors is not None:
        sector_chords = list(sectors)
    else:
        sector_chords = greedy_no_loop(d, [c for c in portrait if is_critical(d, c)])
    # each sector is a face read as Angles: its half-open arcs [start, end),
    # and its vertices, which its closure adds (the arc ends and the points
    # where two chords meet)
    parts = [
        (g, [(a.start, a.end) for a in g.arcs], set(g.vertices))
        for g in sector_partition(d, sector_chords)
    ]
    ambiguous_values = {sigma(d, e) for c in sector_chords for e in c.endpoints}

    def contains(sector, p, closed=False):
        _, arcs, vertices = sector
        if any(ccw_offset(s, p) < ccw_offset(s, e) for s, e in arcs):
            return True
        return closed and p in vertices

    def preimage_candidates(p, sector):
        preferred, closure_only = [], []
        for q in preimages(d, p):
            if contains(sector, q):
                preferred.append(q)
            elif contains(sector, q, closed=True):
                closure_only.append(q)
        return preferred + sorted(closure_only)

    generations = {}
    for c in portrait:
        for leaf in orbit_classify(d, c).orbit:
            if not leaf.degenerate:
                generations.setdefault(leaf, 0)
    gen0 = sorted(generations)
    limit = lamination.MAX_PULLBACK_LEAVES
    cap = limit // ((d ** (min(depth, 64) + 1) - 1) // (d - 1))
    if len(gen0) > cap:
        raise ValueError(
            f"the forward orbits of the portrait chords have more than {cap} generation-0 "
            f"leaves, the most depth {depth} can pull back; the limit is {limit} leaves"
        )
    ok, pair = check_unlinked(FiniteLamination(d, gen0 + sector_chords))
    if not ok:
        raise InconsistentPortrait(f"portrait chords or their orbits cross: {pair[0]} x {pair[1]}")
    by_image = {}
    for c in generations:
        by_image.setdefault(chord_image(d, c), []).append(c)

    def record(c, generation, new):
        if c not in generations:
            generations[c] = generation
            by_image.setdefault(chord_image(d, c), []).append(c)
            new.append(c)

    def pull_leaf(leaf, generation, new):
        if leaf.a not in ambiguous_values and leaf.b not in ambiguous_values:
            chosen = [
                Chord(
                    next(q for q in preimages(d, leaf.a) if contains(sector, q)),
                    next(q for q in preimages(d, leaf.b) if contains(sector, q)),
                )
                for sector in parts
            ]
        else:
            existing = set(by_image.get(leaf, ()))
            options = []
            for sector in parts:
                cands = [
                    Chord(pa, pb)
                    for pa in preimage_candidates(leaf.a, sector)
                    for pb in preimage_candidates(leaf.b, sector)
                    if pa != pb and not any(linked(Chord(pa, pb), m) for m in generations)
                ]
                if not cands:
                    name = " ".join(f"({s}, {e})" for s, e in sector[1])
                    raise InconsistentPortrait(f"no unlinked pullback of {leaf} in sector {name}")
                cands.sort(key=lambda c: c not in existing)
                options.append(cands)
            chosen, best = None, -1
            for pick in itertools.product(*options):
                ends = [e for c in pick for e in c.endpoints]
                score = sum(c in existing for c in pick)
                if len(set(ends)) == len(ends) and score > best:
                    chosen, best = list(pick), score
            if chosen is None:
                raise InconsistentPortrait(f"no disjoint pullback collection for {leaf}")
        for c in chosen:
            record(c, generation, new)

    current = gen0
    for g in range(1, depth + 1):
        new = []
        for leaf in current:
            pull_leaf(leaf, g, new)
        current = new
    return FiniteLamination(d, generations.keys(), generations=generations)


def build_outcome(build, *args, **kwargs):
    """The leaves and generations a build returns, or its exception's class
    and message."""
    try:
        lam = build(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)
    return lam.leaves, lam.generations


SHIPPED_PORTRAITS = sorted((Path(__file__).parent.parent / "portraits").glob("*/*.portrait"))


@pytest.mark.parametrize("path", SHIPPED_PORTRAITS, ids=lambda p: p.stem)
def test_ring_is_the_ring_of_the_endpoints(path):
    lam = parse_portrait(path.read_text()).build(3)
    N, xs = _ring([e for c in lam.leaves for e in c.endpoints])
    assert lam.ring == (N, tuple(zip(xs[::2], xs[1::2])))
    assert all(A(a, N) == c.a and A(b, N) == c.b for c, (a, b) in zip(lam, lam.ring[1]))
    assert lam.ring is lam.ring
    # the ring a build hands over is the one the constructor forms
    again = FiniteLamination(lam.degree, lam.leaves, lam.generations)
    assert again == lam and hash(again) == hash(lam)
    assert again.ring == lam.ring and again.generations == lam.generations


@pytest.mark.parametrize("path", SHIPPED_PORTRAITS, ids=lambda p: p.stem)
def test_leaf_view_is_the_chords_of_the_ring(path):
    lam = parse_portrait(path.read_text()).build(4)
    N, pairs = lam.ring
    assert lam.leaves == tuple(lamination._chord(N, p) for p in pairs)
    assert all(type(c) is Chord for c in lam.leaves)
    # each ring point is one Angle, which every leaf with that end shares
    at = {}
    for p, c in zip(pairs, lam.leaves):
        for x, a in zip(p, c):
            assert at.setdefault(x, a) is a
    assert len(at) < 2 * len(pairs)
    for x, a in at.items():
        assert a == Fraction(x, N) and hash(a) == hash(Fraction(x, N)) and str(a) == str(Fraction(x, N))
    assert [str(c) for c in lam.leaves] == [f"{Fraction(a, N)} {Fraction(b, N)}" for a, b in pairs]


def test_a_build_ring_drops_denominators_no_leaf_has():
    # the sector chord 1/2 5/6 puts the build on the ring mod 6 * 3**depth,
    # but no leaf has an even denominator
    for depth in range(3):
        lam = pullback_build(3, [C(0, 1, 1, 3)], depth, sectors=[C(0, 1, 1, 3), C(1, 2, 5, 6)])
        assert lam.ring[0] == 3 ** (depth + 1)
        assert lam.ring == FiniteLamination(3, lam.leaves).ring


# four sectors: the all-critical square, and three disjoint critical leaves
SQUARE = "degree 4\npoly 0 1/4 1/2 3/4\n"
THREE_CRITICAL_LEAVES = "degree 4\nleaf 0 1/4\nleaf 1/3 7/12\nleaf 2/3 11/12\n"


def pullback_cases():
    """(d, portrait, sectors, depth) for the shipped portraits at depths
    0-5, the quadratic ones also at depths 17 and 20 (refused: there the
    depth can pull back 3 and 0 generation-0 leaves), two degree-4
    portraits, every period <= 6 minor at depth 4, and 200 sampled cubic
    portraits at depth 3 (some of them inconsistent)."""
    cases = []
    texts = [path.read_text() for path in SHIPPED_PORTRAITS]
    for text, depths in [*((t, None) for t in texts), (SQUARE, range(4)), (THREE_CRITICAL_LEAVES, [3])]:
        spec = parse_portrait(text)
        if depths is None:
            depths = [*range(6), 17, 20] if spec.degree == 2 else range(6)
        for depth in depths:
            cases.append((spec.degree, spec.initial_chords(), spec.sector_chords(), depth))
    for minor in qml_enumerate(6):
        verts, edges, _ = major_quadrilateral(minor)
        cases.append((2, edges, [Chord(verts[0], verts[2])], 4))
    rng = Lcg(2014)
    sampled_from = len(cases)
    while len(cases) < sampled_from + 200:
        if rng.below(3) < 2:
            cases.append((3, list(rng.disjoint_critical_pair()), None, 3))
        else:
            sampled = _quad_portrait(rng)
            if sampled is not None:
                cases.append((3, sampled[0], sampled[1], 3))
    return cases


def test_pullback_build_agrees_with_chord_oracle():
    assert len(SHIPPED_PORTRAITS) == 6
    inconsistent = refused = 0
    for d, portrait, sectors, depth in pullback_cases():
        got = build_outcome(pullback_build, d, portrait, depth, sectors=sectors)
        assert got == build_outcome(chord_pullback_build, d, portrait, depth, sectors=sectors)
        inconsistent += got[0] is InconsistentPortrait
        refused += got[0] is ValueError
    assert inconsistent > 0 and refused > 0


def test_pullback_cases_cover_two_to_four_sectors():
    cases = pullback_cases()
    assert len(cases) == 296
    assert {d for d, *_ in cases} == {2, 3, 4}
    assert [depth for d, *_, depth in cases if d == 4] == [0, 1, 2, 3, 3]


def _sectors_holding(faces, N, pair):
    """The indices of the sector faces whose closed arcs hold both ends of
    the sorted int pair mod N."""
    L = math.lcm(N, *(g.ring[0] for g in faces))
    ends = [x * (L // N) for x in pair]
    held = []
    for k, g in enumerate(faces):
        n, xs = g.ring
        xs = [x * (L // n) for x in xs]
        arcs = [(xs[i], (xs[(i + 1) % len(xs)] - xs[i]) % L or L) for i in g.arc_sides]
        if all(any((x - u) % L <= w for u, w in arcs) for x in ends):
            held.append(k)
    return held


def _recording_sector_faces(monkeypatch):
    """Keep (d, N0, faces) of every build's sector faces, N0 the ring of
    its portrait and sector chords."""
    kept = []
    real = lamination._sector_faces

    def recording(d, N, pairs):
        kept.append((d, N, real(d, N, pairs)))
        return kept[-1][2]

    monkeypatch.setattr(lamination, "_sector_faces", recording)
    return kept


def test_every_pullback_lies_on_the_closed_arcs_of_one_sector(monkeypatch):
    # the ambiguous search tests a candidate of sector k against generation
    # 0 and sector k's pullbacks only; that is exact because every leaf of
    # generation >= 1 has both ends on the closed arcs of one sector face,
    # and the closed sectors are convex and meet only along critical chords
    kept = _recording_sector_faces(monkeypatch)
    lams = [parse_portrait(path.read_text()).build(depth) for path in SHIPPED_PORTRAITS for depth in range(6)]
    lams += hexagon_fixtures()
    lams += [quad_minor.build_from_minor(m, 4) for m in qml_enumerate(7)]
    assert len(kept) == len(lams) == 36 + 3 + 114
    pulled = 0
    for lam, (_, _, faces) in zip(lams, kept):
        N, pairs = lam.ring
        for pair, gen in zip(pairs, lam._gens):
            if gen:
                pulled += 1
                assert _sectors_holding(faces, N, pair), (lam, pair)
    assert pulled > 10_000


def test_the_ambiguous_search_scans_generation_0_and_its_own_sector(monkeypatch):
    # a candidate pulled at generation g into sector k is tested against
    # generation 0 and the leaves already pulled into sector k: all those
    # of generations 1 to g - 1, some of generation g, and no other; a scan
    # that no linked leaf cut short shows the whole list
    kept = _recording_sector_faces(monkeypatch)
    calls = []

    def recording(p, m):
        calls.append((p, m, linked(p, m)))
        return calls[-1][2]

    monkeypatch.setattr(lamination, "linked", recording)
    builds = [(parse_portrait(path.read_text()).build, 4) for path in SHIPPED_PORTRAITS]
    builds += [(functools.partial(quad_minor.build_from_minor, m), 4) for m in qml_enumerate(5)]
    checked = beyond_first = 0
    for build, depth in builds:
        kept.clear()
        calls.clear()
        lam = build(depth)
        [(d, N0, faces)] = kept
        N = N0 * d**depth  # the build's ring
        scale = N // lam.ring[0]
        gen = {(a * scale, b * scale): g for (a, b), g in zip(lam.ring[1], lam._gens)}
        first = {m for m, g in gen.items() if g == 0}
        where = {m: _sectors_holding(faces, N, m) for m, g in gen.items() if g}
        scanned, cut = {}, set()
        for p, m, crossed in calls:
            scanned.setdefault(p, set()).add(m)
            if crossed:
                cut.add(p)
        for p in scanned.keys() - cut:
            g = gen[tuple(sorted((d * p[0] % N, d * p[1] % N)))] + 1
            [k] = _sectors_holding(faces, N, p)
            lower = first | {m for m, ks in where.items() if ks == [k] and gen[m] < g}
            upper = first | {m for m, ks in where.items() if k in ks and gen[m] <= g}
            assert lower <= scanned[p] <= upper, (lam, p)
            checked += 1
            beyond_first += bool(lower - first)
    assert checked > 100 and beyond_first > 50


def sector_preimages_oracle(d, N, faces, X):
    """The preimage of X in each sector's half-open arcs, by sector: one
    bisection of the sorted sector arc starts per preimage."""
    tiles = sorted((xs[i], k) for k, (arcs, xs) in enumerate(faces) for i in arcs)
    starts = [s for s, _ in tiles]
    found = [None] * d
    for q in range(X // d, N, N // d):
        k = tiles[bisect.bisect_right(starts, q) - 1][1]
        assert found[k] is None, "two preimages in one sector"
        found[k] = q
    return found


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4), st.integers(1, 6), st.integers(1, 2), st.randoms(use_true_random=False))
def test_preimage_rows_agree_with_the_bisection_oracle(d, m, depth, rng):
    # a random full collection of critical chords on the ring mod d*m: the
    # critical chords there in random order, each kept while the kept ones
    # stay unlinked with no loop
    N0 = d * m
    pool = [(x, y) for x in range(N0) for y in range(x + m, N0, m)]
    rng.shuffle(pool)
    kept = []
    for p in pool:
        if len(kept) < d - 1 and not any(linked(p, q) for q in kept):
            trial = [Chord(A(x, N0), A(y, N0)) for x, y in kept + [p]]
            if len(greedy_no_loop(d, trial)) == len(trial):
                kept.append(p)
    critical = [Chord(A(x, N0), A(y, N0)) for x, y in kept]
    assert validate_collection(d, critical).is_full_collection
    # each face's ring scaled onto the ring of a depth-``depth`` build
    N = N0 * d**depth
    faces = [(g.arc_sides, [x * (N // g.ring[0]) for x in g.ring[1]]) for g in sector_partition(d, critical)]
    cuts, rows = lamination._preimage_rows(d, N, faces)
    assert cuts[0] == 0 and cuts == sorted(set(cuts)) and len(rows) == len(cuts)
    for X in range(N):
        table = [X // d + o for o in rows[bisect.bisect_right(cuts, X) - 1]]
        assert table == sector_preimages_oracle(d, N, faces, X), X


def _dendritic_oracle(lam) -> bool:
    """heuristically_dendritic with each arc face followed as Angles, on the
    ring of its reduced vertex denominators."""
    d = lam.degree
    for g in critical_analysis(lam).arc_gaps:
        if math.gcd(math.lcm(*(v.denominator for v in g.vertices)), d) != 1:
            continue
        info = orbit_classify(d, g.vertices, max_steps=16)
        if info is not None and info.preperiod == 0:
            return False
    return True


def test_heuristically_dendritic_agrees_with_the_reduced_ring_oracle():
    # heuristically_dendritic follows each face on the lamination's ring
    verdicts = []
    for d, portrait, sectors, depth in pullback_cases():
        if d != 3:
            continue
        try:
            lam = pullback_build(d, portrait, depth, sectors=sectors)
        except ValueError:
            continue
        verdicts.append(heuristically_dendritic(lam))
        assert verdicts[-1] == _dendritic_oracle(lam)
    assert True in verdicts and False in verdicts


def test_pullback_refusal_names_the_sector_face(monkeypatch):
    # the rabbit's two sectors share both vertices, so only their arcs, which
    # tile the circle, tell them apart
    faces = sector_partition(2, RABBIT_SPIKE)
    assert str(faces[0]) == str(faces[1]) == "Gap(1/14, 4/7)"
    assert [" ".join(map(str, f.arcs)) for f in faces] == ["(1/14, 4/7)", "(4/7, 1/14)"]

    def rigged_linked(k):
        """Every candidate pullback is linked, except, for k = 1, the first
        one asked about, so the search refuses in face k."""
        first = []

        def rigged(p, m):
            first[:] = first or [p]
            return k == 0 or p != first[0]

        return rigged

    outcomes = []
    # the rabbit's first leaf ending at 1/7, the image of its spike, has no
    # pullback in the refusing face
    for k, sector in enumerate(["(1/14, 4/7)", "(4/7, 1/14)"]):
        text = f"no unlinked pullback of 1/14 1/7 in sector {sector}"
        for build in (pullback_build, chord_pullback_build):
            rigged = rigged_linked(k)
            monkeypatch.setattr(lamination, "linked", rigged)
            monkeypatch.setitem(globals(), "linked", rigged)
            outcome = build_outcome(build, 2, RABBIT_QUAD, 1, sectors=RABBIT_SPIKE)
            assert outcome == (InconsistentPortrait, text), build
        outcomes.append(outcome)
    assert outcomes[0] != outcomes[1]


def test_pullback_build_takes_the_ambiguous_branch(monkeypatch):
    # 1/7 is the image of the rabbit's spike, so the leaves ending there pull
    # back through the joint search, whose candidates are filtered by linked
    calls = []

    def counting_linked(c1, c2):
        calls.append((c1, c2))
        return linked(c1, c2)

    monkeypatch.setattr(lamination, "linked", counting_linked)
    pullback_build(2, RABBIT_QUAD, 4, sectors=RABBIT_SPIKE)
    # the search runs on the build's ring: every candidate and leaf is a
    # sorted pair of ints, and no Chord is built per candidate
    assert calls and all(
        type(c) is tuple and len(c) == 2 and all(type(x) is int for x in c) and c[0] <= c[1]
        for pair in calls
        for c in pair
    )


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_ring_predicates_agree_with_chord_predicates(data):
    N = data.draw(st.integers(min_value=1, max_value=40))
    point = st.integers(min_value=0, max_value=N - 1)
    p1 = tuple(sorted(data.draw(st.tuples(point, point))))
    p2 = tuple(sorted(data.draw(st.tuples(point, point))))
    c1, c2 = (Chord(A(x, N), A(y, N)) for x, y in (p1, p2))
    assert linked(p1, p2) == linked(c1, c2)
    assert disjoint(p1, p2) == disjoint(c1, c2)


def sibling_condition_oracle(lam, boundary_depth):
    """Oracle for condition 3 of check_invariance: enumerate every sibling
    collection of each leaf and look for one whose members are all leaves."""
    gens = lam.generations or {}
    missing = []
    for c in lam.leaves:
        if gens.get(c, -1) >= boundary_depth or chord_image(lam.degree, c).degenerate:
            continue
        if not any(all(m in lam for m in coll) for coll in sibling_collections(lam.degree, c)):
            missing.append(c)
    return missing


def chord_check_invariance(lam, boundary_depth):
    """Oracle for check_invariance: the same conditions on Chords, with
    chord_image, Chord membership and chords.disjoint."""
    d = lam.degree
    report = lamination.InvarianceReport()
    gens = lam.generations or {}
    exempt = {c for c, g in gens.items() if g >= boundary_depth}
    report.exempt = len(exempt)
    by_image = {}
    for c in lam.leaves:
        by_image.setdefault(chord_image(d, c), []).append(c)
    for c in lam.leaves:
        img = chord_image(d, c)
        if not img.degenerate and img not in lam:
            report.condition1.append(c)
        if c in exempt:
            continue
        if c not in by_image:
            report.condition2.append(c)
        if not img.degenerate:
            others = [m for m in by_image[img] if disjoint(m, c)]
            if not any(
                all(disjoint(u, v) for u, v in itertools.combinations(rest, 2))
                for rest in itertools.combinations(others, d - 1)
            ):
                report.condition3.append(c)
    return report


def test_invariance_of_generated_laminations():
    violations = [0, 0, 0]
    for d, portrait, sectors, depth in [
        (2, RABBIT_QUAD, RABBIT_SPIKE, 5),
        (3, TRIANGLE, None, 3),
        (3, [C(0, 1, 1, 3), C(1, 2, 5, 6)], None, 3),
    ]:
        lam = pullback_build(d, portrait, depth, sectors=sectors)
        assert check_unlinked(lam)[0]
        report = check_invariance(lam, depth)
        assert report.ok, (report.condition1, report.condition2, report.condition3)
        for drop in (3, 7):
            # drop every drop-th leaf, so some siblings go missing
            kept = [c for i, c in enumerate(lam.leaves) if i % drop]
            cut = FiniteLamination(d, kept, generations={c: lam.generations[c] for c in kept})
            report = check_invariance(cut, depth)
            assert report == chord_check_invariance(cut, depth)
            assert report.condition3 == sibling_condition_oracle(cut, depth)
            for k, found in enumerate((report.condition1, report.condition2, report.condition3)):
                violations[k] += len(found)
    assert all(violations), violations


def test_invariance_examples():
    tri = FiniteLamination(3, TRIANGLE)
    report = check_invariance(tri, 0)
    # all edges critical: images degenerate, pullback/sibling conditions vacuous
    assert not report.condition1 and not report.condition3
    lonely = FiniteLamination(2, [C(1, 7, 2, 7)])
    assert check_invariance(lonely, 1).condition2 == [C(1, 7, 2, 7)]
    fig = figure_orbit_lamination()
    assert check_invariance(fig, 3).ok


def test_check_invariance_refuses_a_bad_boundary_depth():
    # the rabbit minor's depth-3 build with every other leaf dropped: a
    # boundary depth of -1 would exempt every leaf and hide its violations
    lam = quad_minor.build_from_minor(C(1, 7, 2, 7), 3)
    kept = lam.leaves[::2]
    cut = FiniteLamination(2, kept, generations={c: lam.generations[c] for c in kept})
    report = check_invariance(cut, 3)
    assert (len(report.condition2), len(report.condition3)) == (5, 8)
    assert report == chord_check_invariance(cut, 3)
    for bad in (-1, 2.5, None, True):
        with pytest.raises(ValueError, match=f"boundary_depth must be an integer >= 0, got {bad!r}$"):
            check_invariance(cut, bad)


def _image_group_cases():
    """(lamination, boundary depth) pairs whose image groups hold more than
    d leaves.  Degree 3: the six preimages of the ends of 1/8 3/8 (a fixed
    leaf), a0 < b0 < a1 < b1 < a2 < b2, carry the two sibling collections
    s1 = a0b0, a1b1, a2b2 and s2 = b0a1, b1a2, a0b2, and the leaves a0b1 and
    a1b2, which cross each other: a0b1 lies only in the collection a0b1,
    b0a1, a2b2 and a1b2 only in a1b2, a0b0, b1a2.  Degree 2: the basilica's
    depth-3 build plus leaves with the image of its leaf 1/12 1/6, which
    cross leaves of the build."""
    a0, b0, a1, b1, a2, b2 = (A(n, 24) for n in (1, 3, 9, 11, 17, 19))
    s1 = [Chord(a0, b0), Chord(a1, b1), Chord(a2, b2)]
    s2 = [Chord(b0, a1), Chord(b1, a2), Chord(a0, b2)]
    crossing = [Chord(a0, b1), Chord(a1, b2)]
    cubic = [
        s1 + s2,
        s1 + crossing,
        s2 + crossing[:1],
        s1[:2] + s2[1:] + crossing,
        s1 + s2 + crossing,
    ]
    cases = []
    for leaves in cubic:
        cases.append((FiniteLamination(3, leaves), 0))
        # exempt every other leaf, so some leaves go unchecked
        gens = {c: i % 2 for i, c in enumerate(leaves)}
        cases.append((FiniteLamination(3, leaves, generations=gens), 1))
    basilica = parse_portrait("degree 2\nquad 1/6 1/3 2/3 5/6\n").build(3)
    for extra in ([C(1, 12, 2, 3)], [C(1, 12, 2, 3), C(1, 6, 7, 12)]):
        gens = {**basilica.generations, **{c: 1 for c in extra}}
        cases.append((FiniteLamination(2, [*basilica, *extra], generations=gens), 3))
    return cases


def test_invariance_of_image_groups_larger_than_the_degree():
    cond3 = []
    for lam, depth in _image_group_cases():
        d = lam.degree
        groups = {}
        for c in lam.leaves:
            groups.setdefault(chord_image(d, c), []).append(c)
        assert max(map(len, groups.values())) > d
        report = check_invariance(lam, depth)
        assert report == chord_check_invariance(lam, depth)
        assert report.condition3 == sibling_condition_oracle(lam, depth)
        cond3.append(report.condition3)
    a0, a1, b1, b2 = (A(n, 24) for n in (1, 9, 11, 19))
    # both collections present: every leaf passes, though the group has six
    assert cond3[0] == []
    # beside s1 the crossing leaves fail, and an exempt one is not reported
    assert cond3[2] == [Chord(a0, b1), Chord(a1, b2)]
    assert cond3[3] == [Chord(a1, b2)]
    assert cond3[4] == [Chord(a0, b1)]
    # a1b2, a0b0 and b1a2 are a third collection, from neither s1 nor s2
    assert cond3[6] == [Chord(a0, b1), Chord(a0, b2), Chord(a1, b1)]
    assert cond3[8] == []
    # the basilica's extra leaf 1/12 2/3 needs its sibling 1/6 7/12
    assert cond3[10] == [C(1, 12, 2, 3)]
    assert cond3[11] == []


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


def _critical_hulls(lam):
    return sorted(ConvexSet.hull_of(s).ring for s in critical_analysis(lam).critical_sets)


@pytest.mark.parametrize("depth", range(6))
def test_a_build_has_the_critical_sets_it_was_built_from(depth):
    # check_invariance and check_unlinked both accept a build whose pullback
    # closes a critical hexagon to a quadrilateral; its critical sets do not
    root = Path(__file__).resolve().parent.parent / "portraits"
    for path in sorted(root.glob("*/*.portrait")):
        spec = parse_portrait(path.read_text())
        expected = sorted(s.ring for s in spec.convex_sets())
        assert _critical_hulls(spec.build(depth)) == expected, (path.name, depth)
    for lam, (verts, q, (s1, s2), q2) in zip(hexagon_fixtures(depth), suites._HEXAGONS, strict=True):
        hexagon = ConvexSet.of([A(n, q) for n in verts])
        leaf = ConvexSet.hull_of(C(s1, q2, s2, q2))
        assert _critical_hulls(lam) == sorted((hexagon.ring, leaf.ring)), (verts, depth)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_in_sibling_collection_agrees_with_the_subset_rule(d):
    # random image groups of d to d + 3 leaves (at most the d * d leaves
    # with one image when d = 2), in random order, with shared ends and,
    # for d > 2, crossing pairs (two leaves with one image under doubling
    # never cross), against the rule that tests every d-subset
    def subset_rule(group):
        found = set()
        for ps in itertools.combinations(group, d):
            if all(disjoint(u, v) for u, v in itertools.combinations(ps, 2)):
                found.update(ps)
        return found

    rng = random.Random(f"sibling groups {d}")
    N = 12 * d * d
    seen = {"shared": 0, "crossing": 0, "none found": 0, "some found": 0}
    for _ in range(200):
        groups = []
        for X, Y in (rng.sample(range(0, N, d), 2) for _ in range(rng.randint(1, 3))):
            ends = [[Z // d + k * (N // d) for k in range(d)] for Z in (X, Y)]
            leaves = [tuple(sorted(p)) for p in itertools.product(*ends)]
            groups.append(rng.sample(leaves, rng.randint(d, min(d + 3, len(leaves)))))
        found = _in_sibling_collection(d, groups)
        assert found == set().union(*map(subset_rule, groups))
        for u, v in (p for g in groups for p in itertools.combinations(g, 2)):
            seen["shared"] += bool(set(u) & set(v))
            seen["crossing"] += linked(u, v)
        seen["some found" if found else "none found"] += 1
    assert seen["shared"] and seen["none found"] and seen["some found"], seen
    assert seen["crossing"] > 0 if d > 2 else seen["crossing"] == 0


def test_invariance_of_every_qml_minor_of_period_at_most_seven():
    # the reports and leaf counts of the 114 minors at depth 3, whole and
    # with every third leaf dropped
    lines = []
    for m in qml_enumerate(7):
        lam = quad_minor.build_from_minor(m, 3)
        kept = [c for i, c in enumerate(lam.leaves) if i % 3]
        cut = FiniteLamination(2, kept, generations={c: lam.generations[c] for c in kept})
        for x in (lam, cut):
            r = check_invariance(x, 3)
            lines.append(f"{m} {len(x)} {r.exempt} {len(r.condition1)} {len(r.condition2)} {len(r.condition3)}")
    assert len(lines) == 2 * 114
    assert sum(int(line.split()[2]) for line in lines[::2]) == 9932
    assert all(line.endswith(" 0 0 0") for line in lines[::2])
    assert sum(int(line.split()[-1]) for line in lines[1::2]) == 1019
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "d3a1c378f158c9c2e11948688d734b4417623e88e97f67afb91345b03f9556a0"


def test_critical_analysis_concatenated_leaves_stay_separate():
    lam = FiniteLamination(3, [C(0, 1, 1, 3), C(1, 3, 2, 3)])
    an = critical_analysis(lam)
    assert set(an.critical_clusters) == {(A(0), A(1, 3)), (A(1, 3), A(2, 3))}


def test_critical_analysis_is_computed_once_and_frozen():
    lam = pullback_build(3, [C(0, 1, 1, 3), C(1, 2, 5, 6)], 3)
    an = critical_analysis(lam)
    assert critical_analysis(lam) is an
    assert critical_analysis(FiniteLamination(3, lam.leaves)) == an
    for name in lamination.CriticalAnalysis.__match_args__:
        with pytest.raises(AttributeError):
            setattr(an, name, ())


def cluster_oracle(lam):
    """Oracle for ``critical_clusters``: group the critical leaves by shared
    endpoints, keep the inclusion-maximal vertex subsets of each group whose
    hull sides are all critical leaves, and let each leaf in no such polygon
    stand alone.  Brute force over every subset of every group."""
    crit = [c for c in lam.leaves if is_critical(lam.degree, c)]
    leaf_set = set(crit)
    unvisited, clusters = set(crit), []
    while unvisited:
        component, stack = set(), [unvisited.pop()]
        while stack:
            c = stack.pop()
            component.add(c)
            for m in [m for m in unvisited if set(m.endpoints) & set(c.endpoints)]:
                unvisited.discard(m)
                stack.append(m)
        verts = sorted({v for c in component for v in c.endpoints})
        found = []
        for size in range(len(verts), 2, -1):
            for subset in itertools.combinations(verts, size):
                if any(set(subset) < set(p) for p in found):
                    continue
                if all(Chord(subset[i], subset[(i + 1) % size]) in leaf_set for i in range(size)):
                    found.append(subset)
        clusters += found
        clusters += [
            (c.a, c.b) for c in component if not any({c.a, c.b} <= set(p) for p in found)
        ]
    return tuple(sorted(clusters))


def critical_union(rng, d):
    """Unlinked union of all-critical polygons and critical leaves of degree
    d, drawn from one or two fibers of sigma_d so that the polygons often
    share edges or vertices; a chord crossing an earlier one is dropped."""
    m = rng.choice([1, 2, 3, 5])
    bases = [Fraction(rng.randrange(m), m * d) for _ in range(rng.randint(1, 2))]
    leaves = []
    for _ in range(rng.randint(1, 5)):
        x = rng.choice(bases)
        fiber = [A(x + Fraction(k, d)) for k in range(d)]
        vs = sorted(rng.sample(fiber, rng.randint(2, d)))
        chords = [Chord(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]
        if len(vs) > 3 and rng.random() < 0.5:
            i, j = sorted(rng.sample(range(len(vs)), 2))
            chords.append(Chord(vs[i], vs[j]))
        for c in chords:
            if not (c.degenerate or c in leaves or any(linked(c, e) for e in leaves)):
                leaves.append(c)
    return FiniteLamination(d, leaves)


def test_critical_clusters_agree_with_subset_oracle():
    rng = random.Random(18)
    sizes = set()
    for d in range(2, 9):
        for _ in range(120):
            lam = critical_union(rng, d)
            clusters = critical_analysis(lam).critical_clusters
            assert clusters == cluster_oracle(lam), lam
            sizes |= {len(c) for c in clusters}
    assert sizes == set(range(2, 9))


def test_critical_clusters_of_two_octagons_meeting_at_a_vertex():
    # one group of 15 vertices joined by critical leaves holds two
    # all-critical octagons that meet at 7/16, each cut by a diagonal
    v = [A(k, 16) for k in range(15)]
    first, second = v[:8], v[7:]
    leaves = [Chord(p[i], p[(i + 1) % 8]) for p in (first, second) for i in range(8)]
    lam = FiniteLamination(16, leaves + [Chord(v[0], v[4]), Chord(v[9], v[13])])
    expected = (tuple(first), tuple(second))
    assert critical_analysis(lam).critical_clusters == expected == cluster_oracle(lam)


def test_vertex_orbit_period():
    info = orbit_classify(3, [A(1, 13), A(3, 13), A(9, 13)])
    assert (info.preperiod, info.period) == (0, 1)
    info = orbit_classify(2, [A(1, 7), A(2, 7)])
    assert (info.preperiod, info.period) == (0, 3)
    assert orbit_classify(2, [A(1, 7), A(2, 7)], max_steps=2) is None
    assert orbit_classify(2, [A(1, 7), A(2, 7)], max_steps=3).period == 3


@functools.cache
def face_walk_cases():
    """Laminations and their face-walk gaps: the fixtures below, the shipped
    portraits at depths 0-5, sampled cubic libraries (seeds 1-5) and the
    period-5 QML minors at depth 4."""
    lams = [
        FiniteLamination(3, TRIANGLE),
        pullback_build(2, RABBIT_QUAD, 4, sectors=RABBIT_SPIKE),
        pullback_build(3, [C(0, 1, 1, 3), C(1, 2, 5, 6)], 3),
        figure_orbit_lamination(2),
        pullback_build(2, RABBIT_QUAD, 6, sectors=RABBIT_SPIKE),
        figure_orbit_lamination(),
    ]
    lams += [parse_portrait(p.read_text()).build(d) for p in SHIPPED_PORTRAITS for d in range(6)]
    lams += [lam for seed in range(1, 6) for lam in suites.sample_cubic_library(Lcg(seed), 4)]
    lams += [quad_minor.build_from_minor(m, 4) for m in qml_enumerate(5)]
    return [(lam, face_walk_gaps(lam)) for lam in lams]


def test_gap_count_oracle():
    # each non-crossing chord splits exactly one region: n leaves, n+1 gaps;
    # the faces of the first walk and the kept ones, before and after
    # critical_analysis, are all the oracle's
    for lam, faces in face_walk_cases():
        first = gaps(lam)
        assert len(first) == len(lam) + 1
        assert first == faces
        first.clear()
        assert gaps(lam) == faces
        critical_analysis(lam)
        assert gaps(lam) == faces


def test_crossing_lamination_keeps_its_pair_and_no_faces(monkeypatch):
    sweeps = []

    def counting_sweep(N, ring):
        sweeps.append(None)
        return sweep(N, ring)

    sweep = lamination._sweep
    lam = pullback_build(2, RABBIT_QUAD, 4, sectors=RABBIT_SPIKE).with_leaves([C(0, 1, 1, 2)])
    monkeypatch.setattr(lamination, "_sweep", counting_sweep)
    ok, pair = check_unlinked(lam)
    assert not ok and linked(*pair)
    for _ in range(3):
        with pytest.raises(ValueError, match=f"{pair[0]} x {pair[1]}"):
            gaps(lam)
        assert check_unlinked(lam) == (False, pair)
    assert lam._faces is None
    assert len(sweeps) == 1


def test_one_sweep_and_one_walk_per_lamination(monkeypatch):
    # check_unlinked, gaps and critical_analysis share one sweep and one
    # face walk, and the faces are kept like the sweep
    calls = {"sweep": 0, "walk": 0}
    sweep, walk = lamination._sweep, lamination._walk

    def counting_sweep(N, ring):
        calls["sweep"] += 1
        return sweep(N, ring)

    def counting_walk(lam):
        calls["walk"] += 1
        return walk(lam)

    built = pullback_build(2, RABBIT_QUAD, 6, sectors=RABBIT_SPIKE)
    monkeypatch.setattr(lamination, "_sweep", counting_sweep)
    monkeypatch.setattr(lamination, "_walk", counting_walk)
    for lam in (built, FiniteLamination(3, TRIANGLE), FiniteLamination(2, [])):
        calls.update(sweep=0, walk=0)
        assert check_unlinked(lam) == (True, None)
        faces = gaps(lam)
        analysis = critical_analysis(lam)
        # a reader after the analysis reads the kept faces
        assert gaps(lam) == faces and critical_analysis(lam) is analysis
        assert calls == {"sweep": 1, "walk": 1}


def test_critical_analysis_forms_chords_of_critical_leaves_only():
    # the critical leaves are read off the ring pairs, and the Chords of the
    # other leaves are never formed
    for lam in (
        pullback_build(2, RABBIT_QUAD, 6, sectors=RABBIT_SPIKE),
        pullback_build(3, TRIANGLE, 3),
        pullback_build(3, [C(0, 1, 1, 3), C(1, 2, 5, 6)], 3),
    ):
        analysis = critical_analysis(lam)
        assert lam._leaves is None
        assert analysis.critical_leaves == tuple(c for c in lam.leaves if is_critical(lam.degree, c))


def critical_analysis_oracle(lam, faces):
    """Oracle for critical_analysis from the face-walk gaps, their Angle
    degrees (``gap_degree``) and ``is_critical`` on their edges, with the
    clusters of the subset search."""
    d = lam.degree
    crit_leaves = tuple(c for c in lam.leaves if is_critical(d, c))
    finite = [g for g in faces if not g.is_disk and g.finite]
    crit_gaps = tuple(g for g in finite if gap_degree(d, g) > 1)
    edges = {e for g in crit_gaps for e in g.edges}
    return lamination.CriticalAnalysis(
        critical_leaves=crit_leaves,
        critical_gaps=crit_gaps,
        critical_clusters=cluster_oracle(lam),
        critical_sets=crit_gaps + tuple(c for c in crit_leaves if c not in edges),
        arc_gaps=tuple(g for g in faces if not g.is_disk and not g.finite),
    )


def test_critical_analysis_agrees_with_face_walk_oracle():
    kinds = set()
    for lam, faces in face_walk_cases():
        analysis = critical_analysis(FiniteLamination._from_ring(lam.degree, *lam.ring))
        assert analysis == critical_analysis_oracle(lam, faces), lam
        kinds |= {name for name in analysis.__match_args__ if getattr(analysis, name)}
    assert kinds == set(lamination.CriticalAnalysis.__match_args__)


def orbit_dendritic(lam):
    """Oracle for heuristically_dendritic: follow the vertex set of every
    arc-bearing gap, whatever its denominators."""
    for g in gaps(lam):
        if g.is_disk or g.finite:
            continue
        vop = orbit_classify(lam.degree, g.vertices, max_steps=16)
        if vop is not None and vop.preperiod == 0:
            return False
    return True


def test_heuristically_dendritic_agrees_with_orbit_oracle():
    lams = [parse_portrait(p.read_text()).build(depth) for p in SHIPPED_PORTRAITS for depth in range(6)]
    lams += hexagon_fixtures(3)
    verdicts = [heuristically_dendritic(lam) for lam in lams]
    assert verdicts == [orbit_dendritic(lam) for lam in lams]
    assert True in verdicts and False in verdicts


@functools.cache
def membership_cases():
    """The shipped portraits at depths 0-4, sampled cubic libraries (seeds
    1-3) and the period-5 QML minors at depth 4."""
    lams = [parse_portrait(p.read_text()).build(d) for p in SHIPPED_PORTRAITS for d in range(5)]
    lams += [lam for seed in range(1, 4) for lam in suites.sample_cubic_library(Lcg(seed), 4)]
    lams += [quad_minor.build_from_minor(m, 4) for m in qml_enumerate(5)]
    return lams


def test_membership_agrees_with_chord_set_oracle():
    seen = set()
    for lam in membership_cases():
        d, (N, _) = lam.degree, lam.ring
        oracle = frozenset(lam.leaves)
        off = A(1, 2 * N + 1)  # 2N + 1 does not divide N
        probes = []
        for c in lam.leaves:
            probes += [
                c,
                (c.b, c.a),
                (Fraction(c.a), Fraction(c.b)),
                (c.a, c.b + 1),
                Chord(c.a, c.a),
                (c.b, c.b),
                Chord(c.a, off),
                (off, c.b),
            ]
            # the chords with the leaf's image, leaves or not
            u, v = chord_image(d, c)
            probes += [Chord(x, y) for x in preimages(d, u) for y in preimages(d, v)]
        for probe in probes:
            assert (probe in lam) == (probe in oracle), (lam, probe)
            seen.add(probe in oracle)
    assert seen == {True, False}


def test_membership_of_non_rational_or_reversed_pairs_is_false():
    lam = pullback_build(2, RABBIT_QUAD, 3, sectors=RABBIT_SPIKE)
    assert (A(1, 7), A(2, 7)) in lam and (Fraction(1, 7), Fraction(2, 7)) in lam
    for probe in [
        (0.5, 0.25),
        (1 / 7, 2 / 7),
        (A(1, 7), 2 / 7),
        ("1/7", "2/7"),
        (A(1, 7), "2/7"),
        (None, None),
        (A(1, 7), None),
        (A(2, 7), A(1, 7)),
        (Fraction(2, 7), Fraction(1, 7)),
    ]:
        assert probe not in lam, probe


def assert_up_to_matches_oracle(lam, depth):
    gens = lam.generations or {}
    for g in range(depth + 2):
        cut = lam.up_to(g)
        want = FiniteLamination(lam.degree, [c for c in lam if gens.get(c, 0) <= g])
        assert cut == want and cut.ring == want.ring, (lam, g)
        assert (cut.generations or {}) == {c: gens[c] for c in want if c in gens}


def test_up_to_agrees_with_generation_filter():
    for depth in range(5):
        for p in SHIPPED_PORTRAITS:
            lam = parse_portrait(p.read_text()).build(depth)
            assert lam.max_generation == depth
            assert_up_to_matches_oracle(lam, depth)
    for lam in membership_cases():
        assert_up_to_matches_oracle(lam, lam.max_generation)
    # a partial generations dict: unrecorded leaves count as generation 0
    built = pullback_build(2, RABBIT_QUAD, 4, sectors=RABBIT_SPIKE)
    partial = {c: g for c, g in built.generations.items() if g % 2}
    lam = FiniteLamination(2, built.leaves, partial)
    assert lam.max_generation == 3
    assert_up_to_matches_oracle(lam, 4)
    assert lam.up_to(0) == FiniteLamination(2, [c for c in built if c not in partial])
    # an untracked lamination, or one whose dict names no leaf, is all of itself
    untracked = FiniteLamination(2, built.leaves)
    assert untracked.max_generation is None and untracked.up_to(0) is untracked
    unnamed = FiniteLamination(2, built.leaves, {C(1, 3, 2, 3): 5})
    assert unnamed.max_generation is None and unnamed.up_to(0) == untracked


def test_issubset_agrees_with_chord_set_oracle():
    def check(lam, other):
        want = frozenset(lam.leaves) <= frozenset(other.leaves)
        assert lam.issubset(other) == want, (lam, other)
        return want

    cases = membership_cases()
    seen = set()
    for lam in cases:
        for g in range(lam.max_generation + 1):
            seen.add(check(lam.up_to(g), lam))
            seen.add(check(lam, lam.up_to(g)))
    for lam, other in itertools.product(cases[::7], repeat=2):
        seen.add(check(lam, other))
    assert seen == {True, False}
    # 1/3 and 1/4 share a numerator over their own denominators: ring ints
    # alone would match them
    third, quarter = FiniteLamination(3, [C(0, 1, 1, 3)]), FiniteLamination(3, [C(0, 1, 1, 4)])
    assert not check(third, quarter) and not check(quarter, third)
    assert check(FiniteLamination(3, []), third)


def walk_oracle(lam):
    """The face walk with a children list for every leaf and each face made
    by ``Gap(...)``; the faces of :func:`gaps` must be these, in order."""
    N, pairs = lam.ring
    if not pairs:
        return (Gap.whole_disk(),)
    parent, pair = lamination._sweep(N, pairs)
    assert pair is None
    children = [[] for _ in range(len(pairs) + 1)]  # the last list is the top level
    for i, p in enumerate(parent):
        children[p].append(i)
    top = children[-1]
    bounds = [*pairs, (pairs[top[0]][0], pairs[top[-1]][1])]
    result = []
    for k, ((x, y), inside) in enumerate(zip(bounds, children)):
        xs, arcs = [x], []
        for j in inside:
            a, b = pairs[j]
            if xs[-1] != a:
                arcs.append(len(xs) - 1)
                xs.append(a)
            xs.append(b)
        if xs[-1] != y:
            arcs.append(len(xs) - 1)
            xs.append(y)
        if k == len(pairs):
            arcs.append(len(xs) - 1)
        result.append(Gap(N, xs, arcs))
    result.insert(bisect.bisect_right(pairs, (pairs[top[0]][0], N)), result.pop())
    return tuple(result)


def shared_end_laminations(seed, count):
    """Seeded unlinked laminations on rings of 4 to 24 points, where many
    leaves share an end, fans of leaves from one point included."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        q = rng.randrange(4, 25)
        leaves = []
        if rng.random() < 0.3:  # a fan from one point
            x = rng.randrange(q)
            leaves += [Chord(*sorted((A(x, q), A(y, q)))) for y in range(q) if y != x and rng.random() < 0.5]
        for _ in range(rng.randrange(1, 2 * q)):
            a, b = sorted(rng.sample(range(q), 2))
            c = Chord(A(a, q), A(b, q))
            if not any(linked(c, m) for m in leaves):
                leaves.append(c)
        out.append(FiniteLamination(rng.choice((2, 3)), leaves))
    return out


def test_face_walk_agrees_with_the_children_list_walk():
    lams = [parse_portrait(p.read_text()).build(d) for p in SHIPPED_PORTRAITS for d in range(7)]
    lams += hexagon_fixtures() + suites.sample_cubic_library(Lcg(1), 50)
    lams += shared_end_laminations(15, 300) + [FiniteLamination(3, ()), FiniteLamination(2, TRIANGLE)]
    assert len(SHIPPED_PORTRAITS) == 6
    shared = childless = 0
    for lam in lams:
        want = walk_oracle(lam)
        got = gaps(FiniteLamination._from_ring(lam.degree, *lam.ring))
        assert [(g.ring, g.arc_sides) for g in got] == [(g.ring, g.arc_sides) for g in want], lam
        assert all(type(g) is Gap for g in got)
        ends = [x for p in lam.ring[1] for x in p]
        shared += len(set(ends)) < len(ends)
        childless += sum(g.arc_sides == (0,) and len(g.ring[1]) == 2 for g in got)
    assert shared > 300 and childless > 10000


def test_critical_analysis_of_the_empty_lamination():
    analysis = critical_analysis(FiniteLamination(3, ()))
    assert analysis == lamination.CriticalAnalysis((), (), (), (), ())
    assert gaps(FiniteLamination(3, ())) == [Gap.whole_disk()]
