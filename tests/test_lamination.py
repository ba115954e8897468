import dataclasses
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lamina.lamination as lamination
from lamina.circle import Angle, Arc, ccw_offset, preimages, sigma
from lamina.chords import (
    Chord,
    _ring_disjoint,
    _ring_linked,
    chord_image,
    disjoint,
    greedy_no_loop,
    is_critical,
    linked,
    sibling_collections,
)
from lamina.formats import parse_portrait
from lamina.quad_minor import major_quadrilateral, qml_enumerate
from lamina.sampling import Lcg
from lamina.suites import _quad_portrait, heuristically_dendritic, hexagon_fixtures
from lamina.lamination import (
    FiniteLamination,
    Gap,
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
        sides = [(kind, Chord(u, v) if kind == "chord" else Arc(u, v)) for kind, u, v in face]
        k = verts.index(min(verts))
        result.append(Gap(vertices=tuple(verts[k:] + verts[:k]), sides=tuple(sides[k:] + sides[:k])))
    result.sort(key=lambda g: g.vertices)
    return result


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
    frames, pair, ids = lamination._nest(lam.leaves)
    expected_frames, expected_pair = angle_nest(lam.leaves)
    assert pair == expected_pair
    assert frames == expected_frames
    if frames is None:
        assert ids is None
    else:
        # the frames' leaves, in closing order, are exact leaf objects
        assert all(lam.leaves[i] is c for i, (c, _) in zip(ids, frames))
        assert len(ids) == len(lam)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_ring_nest_agrees_with_angle_oracle(data):
    # small denominators share endpoints; mixed ones put the leaves on a
    # ring whose N is a proper multiple of most denominators
    qs = data.draw(st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=3))
    point = st.sampled_from(qs).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: A(p, q)))
    chords = data.draw(st.lists(st.builds(Chord, point, point), max_size=14))
    if data.draw(st.booleans()):
        laminar = []
        for c in chords:
            if not any(linked(c, m) for m in laminar):
                laminar.append(c)
        chords = laminar + data.draw(st.lists(st.builds(Chord, point, point), max_size=2))
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
    monkeypatch.setattr(lamination, "ccw_offset", no_rotation_order)
    assert check_unlinked(lam) == (True, None)
    ok, pair = check_unlinked(crossing)
    assert not ok and C(0, 1, 1, 2) in pair
    # gaps reads the faces off the same sweep
    assert len(gaps(lam)) == len(lam) + 1
    with pytest.raises(ValueError, match="cross"):
        gaps(crossing)


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


def chord_pullback_build(d, portrait, depth, sectors=None):
    """Oracle for pullback_build: the same construction on Chords and
    Angles, with sigma, preimages and ccw_offset sector tests per leaf."""
    portrait = [c for c in portrait if not c.degenerate]
    if sectors is not None:
        sector_chords = list(sectors)
    else:
        sector_chords = greedy_no_loop(d, [c for c in portrait if is_critical(d, c)])
    parts = sector_partition(d, sector_chords)
    ambiguous_values = {sigma(d, e) for c in sector_chords for e in c.endpoints}

    def contains(sector, p, closed=False):
        for s, e in sector.arcs:
            t, length = ccw_offset(s, p), ccw_offset(s, e)
            if t < length or (closed and t == length):
                return True
        return closed and p in sector.corners

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
    if gen0:
        bound = len(gen0) * (d ** (min(depth, 64) + 1) - 1) // (d - 1)
        if bound > lamination.MAX_PULLBACK_LEAVES:
            at_least = "" if depth <= 64 else "at least "
            raise ValueError(
                f"depth {depth} could build {at_least}{bound} leaves from {len(gen0)} "
                f"generation-0 leaves; the limit is {lamination.MAX_PULLBACK_LEAVES}"
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
                    raise InconsistentPortrait(f"no unlinked pullback of {leaf} in sector {sector.arcs}")
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


def pullback_cases():
    """(d, portrait, sectors, depth) for the shipped portraits at depths
    0-5, every period <= 6 minor at depth 4, and 200 sampled cubic
    portraits at depth 3 (some of them inconsistent)."""
    cases = []
    for path in SHIPPED_PORTRAITS:
        spec = parse_portrait(path.read_text())
        for depth in range(6):
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
    inconsistent = 0
    for d, portrait, sectors, depth in pullback_cases():
        got = build_outcome(pullback_build, d, portrait, depth, sectors=sectors)
        assert got == build_outcome(chord_pullback_build, d, portrait, depth, sectors=sectors)
        inconsistent += got[0] is InconsistentPortrait
    assert inconsistent > 0


def test_pullback_build_takes_the_ambiguous_branch(monkeypatch):
    # 1/7 is the image of the rabbit's spike, so the leaves ending there pull
    # back through the joint search, whose candidates are filtered by linked
    calls = []

    def counting_linked(c1, c2):
        calls.append((c1, c2))
        return linked(c1, c2)

    monkeypatch.setattr(lamination, "linked", counting_linked)
    pullback_build(2, RABBIT_QUAD, 4, sectors=RABBIT_SPIKE)
    assert calls and all(isinstance(c, Chord) for pair in calls for c in pair)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_ring_predicates_agree_with_chord_predicates(data):
    N = data.draw(st.integers(min_value=1, max_value=40))
    point = st.integers(min_value=0, max_value=N - 1)
    p1 = tuple(sorted(data.draw(st.tuples(point, point))))
    p2 = tuple(sorted(data.draw(st.tuples(point, point))))
    c1, c2 = (Chord(A(x, N), A(y, N)) for x, y in (p1, p2))
    assert _ring_linked(p1, p2) == linked(c1, c2)
    assert _ring_disjoint(p1, p2) == disjoint(c1, c2)


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
        pullback_build(2, RABBIT_QUAD, 6, sectors=RABBIT_SPIKE),
        figure_orbit_lamination(),
    ]
    for lam in builds:
        assert len(gaps(lam)) == len(lam) + 1
        assert gaps(lam) == face_walk_gaps(lam)


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
