import functools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lamina.circle import THIRD, Angle
from lamina.chords import Chord
from lamina.formats import parse_portrait
from lamina.lamination import Gap, critical_analysis, pullback_build
from lamina.qc_portrait import COLLAPSING, _collapsing_quad, make_quadrilateral
from lamina.sampling import Lcg
from lamina.cubic_tags import (
    ConvexSet,
    FullPortrait,
    MixedTag,
    TagCaseReport,
    classify_tag_relation,
    cocritical_set,
    full_portraits_of,
    geometry_checks,
    linked_pair_cocritical_quads,
    mixed_tag,
    minor_set,
    reconstruct,
    separation_check,
    tags_relation,
)

A = Angle
F = Fraction


def C(*args):
    if len(args) == 4:
        return Chord(A(args[0], args[1]), A(args[2], args[3]))
    return Chord(A(args[0]), A(args[1]))


def S(*pts):
    return ConvexSet.of(pts)


TRIANGLE_SET = S(0, F(1, 3), F(2, 3))


def lam_triangle(depth=2):
    return pullback_build(3, [C(0, 1, 1, 3), C(1, 3, 2, 3), C(0, 1, 2, 3)], depth)


def lam_bicritical(depth=2):
    return pullback_build(3, [C(0, 1, 1, 3), C(1, 2, 5, 6)], depth)


def test_cocritical_examples():
    assert cocritical_set(TRIANGLE_SET) == TRIANGLE_SET
    assert cocritical_set(S(0, F(1, 3))) == S(F(2, 3))
    assert cocritical_set(S(0, F(1, 12))) == S(F(1, 3), F(5, 12), F(2, 3), F(3, 4))
    assert cocritical_set(S(F(1, 3), F(5, 12), F(2, 3), F(3, 4))) == S(0, F(1, 12))
    assert cocritical_set(S(F(1, 5))) == S(F(1, 5) + F(1, 3), F(1, 5) + F(2, 3))


def test_cocritical_rejects_separating_sets():
    with pytest.raises(ValueError):
        cocritical_set(S(0, F(1, 2)))  # two holes longer than 1/3


def test_mixed_tag_examples():
    lam = lam_triangle()
    tag = mixed_tag(lam, FullPortrait(TRIANGLE_SET, TRIANGLE_SET))
    assert tag.cocritical_factor == TRIANGLE_SET
    assert tag.minor_factor == S(0)

    lam2 = lam_bicritical()
    fp = FullPortrait(S(0, F(1, 3)), S(F(1, 2), F(5, 6)))
    tag2 = mixed_tag(lam2, fp)
    assert tag2.cocritical_factor == S(F(2, 3))
    assert tag2.minor_factor == S(F(1, 2))
    swapped = mixed_tag(lam2, FullPortrait(S(F(1, 2), F(5, 6)), S(0, F(1, 3))))
    assert swapped != tag2


def test_full_portrait_validation():
    with pytest.raises(ValueError):
        FullPortrait(S(0, F(1, 3)), S(0, F(1, 3)))  # equal degree-2 components
    assert minor_set(FullPortrait(TRIANGLE_SET, TRIANGLE_SET)) == S(0)


def test_mixed_tag_validates_membership():
    lam = lam_bicritical()
    with pytest.raises(ValueError):
        mixed_tag(lam, FullPortrait(S(0, F(1, 3)), S(F(1, 8), F(11, 24))))


def test_mixed_tag_refuses_a_point_as_a_critical_set():
    # a point has no sides to look up, and is neither a leaf nor a gap
    leaf, point = ConvexSet.hull_of(C(0, 1, 1, 3)), S(F(1, 5))
    for lam, fp in (
        (lam_bicritical(), FullPortrait(leaf, point)),
        (lam_bicritical(), FullPortrait(point, leaf)),
        (lam_triangle(), FullPortrait(TRIANGLE_SET, point)),
    ):
        with pytest.raises(ValueError) as exc:
            mixed_tag(lam, fp)
        assert str(exc.value) == "{1/5} is not a leaf of the lamination"
    # with no lamination to check against the tag is formed
    assert str(mixed_tag(None, FullPortrait(leaf, point))) == "{2/3} x {3/5}"


def test_convex_set_is_one_ring_from_every_constructor():
    # each set from two rings, with repeats and out of order: equal, equal
    # hashes, ints only on the ring, and the Angle views and texts as before
    cases = [
        (
            [
                S(0, F(1, 3), F(2, 3)),
                S(F(2, 3), 1, F(1, 3), F(4, 3)),
                ConvexSet.hull_of(Gap(3, (0, 1, 2))),
                ConvexSet.hull_of(Gap(9, (0, 3, 6))),
                ConvexSet(3, [2, 0, 1, 1]),
                ConvexSet(12, [8, 4, 0]),
            ],
            (3, (0, 1, 2)),
            "{0, 1/3, 2/3}",
        ),
        (
            [
                S(F(1, 12), 0),
                ConvexSet.hull_of(C(0, 1, 1, 12)),
                ConvexSet.hull_of(Gap(24, (0, 2))),
                ConvexSet(12, [1, 0, 1]),
                ConvexSet(36, [3, 0]),
            ],
            (12, (0, 1)),
            "{0, 1/12}",
        ),
        ([S(F(6, 5)), ConvexSet(5, [1]), ConvexSet(10, [2, 2])], (5, (1,)), "{1/5}"),
    ]
    for made, ring, text in cases:
        vertices = tuple(A(x, ring[0]) for x in ring[1])
        for h in made:
            assert h == made[0] and hash(h) == hash(made[0])
            assert h.ring == ring and all(type(x) is int for x in h.ring[1])
            assert h.vertices == vertices
            assert str(h) == text and repr(h) == f"ConvexSet({text})"
    for empty in (lambda: S(), lambda: ConvexSet(7, [])):
        with pytest.raises(ValueError, match="a convex set needs at least one vertex"):
            empty()


def test_tags_relation():
    lam2 = lam_bicritical()
    fp = FullPortrait(S(0, F(1, 3)), S(F(1, 2), F(5, 6)))
    t = mixed_tag(lam2, fp)
    assert tags_relation(t, t) == "equal"
    other = mixed_tag(lam2, FullPortrait(S(F(1, 2), F(5, 6)), S(0, F(1, 3))))
    assert tags_relation(t, other) == "disjoint"


def test_distinct_triangle_edges_have_disjoint_tags():
    lam = lam_triangle()
    fp1 = FullPortrait(S(0, F(1, 3)), S(F(1, 3), F(2, 3)))
    fp2 = FullPortrait(S(F(1, 3), F(2, 3)), S(0, F(1, 3)))
    t1, t2 = mixed_tag(lam, fp1), mixed_tag(lam, fp2)
    assert tags_relation(t1, t2) == "disjoint"
    rep = classify_tag_relation(lam, fp1, lam, fp2)
    assert rep.consistent and not rep.triangle_case


def test_classify_tag_relation_identity():
    lam = lam_bicritical(3)
    fp = full_portraits_of(lam)[0]
    rep = classify_tag_relation(lam, fp, lam, fp)
    assert rep.relation == "equal"
    assert rep.containment_case and rep.consistent

    tri = lam_triangle(3)
    fpt = FullPortrait(TRIANGLE_SET, TRIANGLE_SET)
    rep2 = classify_tag_relation(tri, fpt, tri, fpt)
    assert rep2.relation == "equal" and rep2.triangle_case and rep2.consistent


def test_reconstruction_identity():
    assert reconstruct(S(0, F(1, 3))) == S(0, F(1, 3))
    quad = S(F(1, 3), F(5, 12), F(2, 3), F(3, 4))
    assert reconstruct(quad) == quad


def test_separation_example():
    assert separation_check(S(0, F(1, 3)), S(F(1, 2), F(5, 6))) == F(1, 6)


def _separation_oracle(C1, C2):
    """separation_check as it read on Angle views, through shortest_dist."""
    from lamina.circle import shortest_dist

    return max(
        min(shortest_dist(p, v) for v in B.vertices) for A, B in ((C1, C2), (C2, C1)) for p in A.vertices
    )


def test_separation_on_the_ring_agrees_with_the_angle_oracle():
    hulls = random_hulls(36, 2400)
    pairs = list(zip(hulls[::2], hulls[1::2]))
    assert len(pairs) == 1200
    for C1, C2 in pairs:
        got, want = separation_check(C1, C2), _separation_oracle(C1, C2)
        assert got == want and str(got) == str(want)
    assert any(separation_check(C1, C2) == 0 for C1, C2 in pairs)


def test_linked_pair_cocritical_quads_fixture():
    q1, q2, rep = linked_pair_cocritical_quads(C(0, 1, 1, 12), C(1, 24, 1, 8))
    assert rep.linked
    assert q1.classification == "collapsing" and q2.classification == "collapsing"
    merged = [v for pair in zip(rep.witness[0], rep.witness[1]) for v in pair]
    assert merged == [A(n, 24) for n in (8, 9, 10, 11, 16, 17, 18, 19)]


def test_cocritical_set_of_a_short_chord_is_a_collapsing_quadrilateral():
    # why linked_pair_cocritical_quads and its callers test no classification:
    # the co-critical set of a chord x y shorter than a third is x+1/3, y+1/3,
    # x+2/3, y+2/3, which the one rule takes as make_quadrilateral does
    checked = 0
    for seed in range(1, 5):
        rng = Lcg(seed)
        for _ in range(150):
            for c in (rng.chord_in_window(), *rng.linked_pair_in_window()):
                coc = cocritical_set(ConvexSet.hull_of(c))
                assert set(coc.vertices) == {Angle(p + k * THIRD) for p in c for k in (1, 2)}, c
                quad = _collapsing_quad(3, coc)
                assert quad == make_quadrilateral(coc.vertices, 3), c
                assert quad.classification == COLLAPSING, c
                checked += 1
    assert checked == 1800


@pytest.mark.parametrize("chord", ["0 1/3", "1/5 1/5"])
def test_linked_pair_cocritical_quads_refuses_a_chord_with_no_quadrilateral(chord):
    # a critical chord's co-critical set is one point, a degenerate one's two
    c, other = Chord.parse(chord), C(1, 24, 1, 8)
    for pair in ((c, other), (other, c)):
        with pytest.raises(ValueError, match=f"co-critical set of {chord} is no collapsing quadrilateral"):
            linked_pair_cocritical_quads(*pair)


def test_geometry_checks_pass_on_fixtures():
    report = geometry_checks(
        lam_bicritical(3),
        linked_samples=[(C(0, 1, 1, 12), C(1, 24, 1, 8))],
    )
    assert report.ok, (
        report.colocation_failures,
        report.linkco_failures,
        report.reconstruction_failures,
        report.separation_failures,
    )


def test_geometry_checks_reconstruct_a_collapsing_quadrilateral_gap():
    # the shipped quadleaf portrait: one critical leaf and one collapsing
    # all-critical quadrilateral gap, each rebuilt from its co-critical set
    text = (Path(__file__).parent.parent / "portraits" / "cubic" / "quadleaf.portrait").read_text()
    report = geometry_checks(parse_portrait(text).build(3))
    assert report.checked["reconstructions"] == 2
    assert report.ok


def test_geometry_checks_counts_generator_samples():
    pairs = [(C(0, 1, 1, 12), C(1, 24, 1, 8))]
    report = geometry_checks(lam_bicritical(2), linked_samples=(p for p in pairs))
    assert report.checked["linked_samples"] == 1
    assert not report.linkco_failures


def test_full_portraits_of_bicritical():
    lam = lam_bicritical(3)
    fps = full_portraits_of(lam)
    assert len(fps) == 2
    firsts = {fp.first for fp in fps}
    assert firsts == {S(0, F(1, 3)), S(F(1, 2), F(5, 6))}


small_fraction = st.fractions(min_value=0, max_value=1, max_denominator=500)


@settings(max_examples=300, deadline=None)
@given(small_fraction, st.fractions(min_value=Fraction(1, 500), max_value=Fraction(33, 100), max_denominator=500))
def test_cocritical_involution_property(start, span):
    if span >= Fraction(1, 3):
        return
    chord_set = S(A(start), A(start + span))
    assert cocritical_set(cocritical_set(chord_set)) == chord_set


@settings(max_examples=300, deadline=None)
@given(small_fraction)
def test_reconstruction_of_random_critical_leaves(a):
    leaf = S(A(a), A(Fraction(a) + F(1, 3)))
    assert reconstruct(leaf) == leaf


def test_tuned_refinement_gives_nested_tags():
    # a tuned quadrilateral inside a hexagonal critical gap refines the
    # portrait; the tags nest and the classifier reports containment
    from lamina.lamination import critical_analysis, gap_degree
    from lamina.qc_portrait import tune_insert
    from lamina.suites import hexagon_fixtures

    lam = hexagon_fixtures(depth=3)[0]
    analysis = critical_analysis(lam)
    hex_gap = [g for g in analysis.critical_gaps if len(g.vertices) == 6][0]
    assert gap_degree(3, hex_gap) == 2
    leaf = [s for s in analysis.critical_sets if isinstance(s, Chord)][0]
    lam_tuned, quad = tune_insert(lam, hex_gap)

    coarse = FullPortrait(ConvexSet.of(hex_gap.vertices), ConvexSet.of(leaf.endpoints))
    fine = FullPortrait(ConvexSet.of(quad.hull), ConvexSet.of(leaf.endpoints))
    assert fine.refines(coarse)
    t_coarse = mixed_tag(lam, coarse)
    t_fine = mixed_tag(lam_tuned, fine)
    assert t_coarse.contains(t_fine)
    assert tags_relation(t_coarse, t_fine) != "disjoint"

    rep = classify_tag_relation(lam, coarse, lam_tuned, fine)
    assert rep.containment_case and rep.consistent


def classify_tag_relation_oracle(lamA, fpA, lamX, fpX):
    """The tag dichotomy on Chord sets: leaves of generation <= the common
    depth, compared and contained as frozensets."""
    from lamina.lamination import critical_analysis

    def up_to(lam, g):
        gens = lam.generations
        return frozenset(c for c in lam.leaves if not gens or gens.get(c, 0) <= g)

    relation = tags_relation(mixed_tag(lamA, fpA), mixed_tag(lamX, fpX))
    common = None
    if lamA.generations and lamX.generations:
        common = min(max(lamA.generations.values()), max(lamX.generations.values()))
    leavesA = up_to(lamA, common) if common is not None else frozenset(lamA.leaves)
    leavesX = up_to(lamX, common) if common is not None else frozenset(lamX.leaves)
    triangles = [v for v in critical_analysis(lamA).critical_clusters if len(v) == 3]
    triangle_case = containment_case = False
    if triangles and leavesA == leavesX:
        T = set(triangles[0])
        triangle_case = not (
            len(fpA.first.vertices) == len(fpX.first.vertices) == 2
            and set(fpA.first.vertices) <= T
            and set(fpX.first.vertices) <= T
            and fpA.first != fpX.first
        )
    if not triangles:
        containment_case = leavesA <= frozenset(lamX.leaves) and fpX.refines(fpA)
    return TagCaseReport(
        relation=relation,
        triangle_case=triangle_case,
        containment_case=containment_case,
        consistent=(relation != "disjoint") == (triangle_case or containment_case),
        common_depth=common,
    )


def test_classify_tag_relation_agrees_with_chord_set_oracle():
    from lamina.lamination import FiniteLamination, critical_analysis, gap_degree
    from lamina.qc_portrait import tune_insert
    from lamina.suites import hexagon_fixtures

    def tagged(lam, extra=()):
        return lam, full_portraits_of(lam) + list(extra)

    pairs = [
        (tagged(lam_bicritical(2)), tagged(lam_bicritical(3))),
        (tagged(lam_triangle(2)), tagged(lam_triangle(3))),
    ]
    pairs += [
        (tagged(lo), tagged(hi)) for lo, hi in zip(hexagon_fixtures(2), hexagon_fixtures(3))
    ]
    for lam in hexagon_fixtures(3):
        analysis = critical_analysis(lam)
        hex_gap = [g for g in analysis.critical_gaps if len(g.vertices) == 6][0]
        assert gap_degree(3, hex_gap) == 2
        leaf = [s for s in analysis.critical_sets if isinstance(s, Chord)][0]
        # tuning drops the generations
        lam_tuned, quad = tune_insert(lam, hex_gap)
        assert lam_tuned.max_generation is None
        fine = FullPortrait(ConvexSet.of(quad.hull), ConvexSet.hull_of(leaf))
        pairs.append((tagged(lam), tagged(lam_tuned, [fine])))
    lam = lam_bicritical(3)
    pairs.append((tagged(FiniteLamination(3, lam.leaves)), tagged(lam_bicritical(2))))

    reports = []
    for one, other in pairs:
        for (lamA, fpsA), (lamX, fpsX) in ((one, other), (other, one)):
            for fpA in fpsA:
                for fpX in fpsX:
                    rep = classify_tag_relation(lamA, fpA, lamX, fpX)
                    assert rep == classify_tag_relation_oracle(lamA, fpA, lamX, fpX)
                    reports.append(rep)
    assert {r.common_depth for r in reports} == {None, 2}
    assert any(r.triangle_case for r in reports) and any(r.containment_case for r in reports)
    assert any(r.relation == "disjoint" for r in reports)


# ---------------------------------------------------------------------------
# Oracles for the ring hulls, the kept co-critical sets and the maintag sweep
# ---------------------------------------------------------------------------


def cocritical_set_oracle(C):
    """The co-critical set on Angles and Fraction lengths, hole by hole."""
    from lamina.circle import THIRD, ccw_offset, preimages, sigma
    from lamina.lamination import boundary_degree

    v = C.vertices
    if boundary_degree(3, v) == 3:
        return C
    if len(v) == 1:
        holes = [(v[0], v[0], Fraction(1))]
    else:
        holes = [(s, e, ccw_offset(s, e)) for s, e in zip(v, v[1:] + v[:1])]
    long_holes = [h for h in holes if h[2] >= THIRD]
    if not long_holes:
        raise ValueError(f"{C} has no hole of length >= 1/3")
    if len(long_holes) > 1:
        strict = [h for h in long_holes if h[2] > THIRD]
        if len(strict) != 1:
            raise ValueError(f"{C} has several long holes; co-critical set undefined")
        long_holes = strict
    start, _, length = long_holes[0]
    points = {
        q
        for w in {sigma(3, x) for x in v}
        for q in preimages(3, w)
        if length >= 1 or ccw_offset(start, q) <= length
    } - set(v)
    if not points:
        raise ValueError(f"{C} has an empty co-critical set")
    return ConvexSet.of(points)


def intersects_oracle(P, Q):
    """Closed hulls meet: a shared vertex or two linked edges."""
    from lamina.chords import linked

    return bool(set(P.vertices) & set(Q.vertices)) or any(
        linked(e1, e2) for e1 in P.edges for e2 in Q.edges
    )


def check_cocritical(vertices):
    """Compare ``cocritical_set`` with the oracle on a fresh hull: the same
    set, or a ValueError with the same message.  Returns the outcome."""
    try:
        want = cocritical_set_oracle(ConvexSet.of(vertices))
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            cocritical_set(ConvexSet.of(vertices))
        assert str(info.value) == str(exc)
        return str(exc).split(" has ")[1]
    got = cocritical_set(ConvexSet.of(vertices))
    assert got == want and got.vertices == want.vertices and got.ring == want.ring
    return "set"


def random_hulls(seed, count, max_vertices=6):
    """Seeded hulls of 1 to ``max_vertices`` points with small mixed
    denominators, so that shared vertices, crossings and ties are common."""
    import random

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        points = {
            A(rng.randrange(q), q)
            for q in (rng.choice((2, 3, 4, 6, 9, 12, 18, 24, 27, 36)) for _ in range(rng.randrange(1, max_vertices + 1)))
        }
        out.append(ConvexSet.of(points))
    return out


@functools.cache
def cubic_libraries():
    """The maintag libraries of seeds 1-5 at 100 samples."""
    from lamina.sampling import Lcg
    from lamina.suites import sample_cubic_library

    return {seed: sample_cubic_library(Lcg(seed), 100) for seed in range(1, 6)}


def hexagon_tagged():
    """Tagged hexagon fixtures at depths 2 and 3: one portrait at two depths
    gives equal tags from distinct laminations."""
    from lamina.suites import hexagon_fixtures

    return tagged_library(hexagon_fixtures(2) + hexagon_fixtures(3))


def tagged_library(library):
    return [(idx, fp, mixed_tag(lam, fp)) for idx, lam in enumerate(library) for fp in full_portraits_of(lam)]


def test_ring_cocritical_set_agrees_with_fraction_oracle():
    outcomes = set()
    for library in cubic_libraries().values():
        for lam in library:
            for fp in full_portraits_of(lam):
                for S in (fp.first, fp.second, minor_set(fp)):
                    outcomes.add(check_cocritical(S.vertices))
    assert "set" in outcomes
    for hull in random_hulls(2014, 3000):
        outcomes.add(check_cocritical(hull.vertices))
    # the oracle's other two rejections cannot fire (see cocritical_set)
    assert outcomes == {"set", "several long holes; co-critical set undefined"}


def test_ring_hull_questions_agree_with_angle_views():
    from lamina.lamination import boundary_degree

    hulls = random_hulls(7, 400)
    for h in hulls:
        N, xs = h.ring
        assert tuple(A(x, N) for x in xs) == h.vertices
        assert h.image(3) == ConvexSet.of(3 * v for v in h.vertices)
        assert h.degree(3) == boundary_degree(3, h.vertices)
        assert h == ConvexSet.of(h.vertices) and hash(h) == hash(ConvexSet.of(h.vertices))
    for P, Q in zip(hulls, hulls[1:]):
        assert P.contains(Q) == (set(Q.vertices) <= set(P.vertices))
        assert (P == Q) == (P.vertices == Q.vertices)


def test_ring_intersects_agrees_with_linked_edges():
    hulls = random_hulls(3, 300)
    kinds = set()
    for i, P in enumerate(hulls):
        for Q in hulls[i:i + 40]:
            want = intersects_oracle(P, Q)
            assert P.intersects(Q) == want == Q.intersects(P), (P, Q)
            kinds.add((want, bool(set(P.vertices) & set(Q.vertices))))
    # disjoint, meeting at a vertex, and crossing without a shared vertex
    assert kinds == {(False, False), (True, True), (True, False)}


def all_pairs_meeting(hulls):
    return [
        (i, j) for i in range(len(hulls)) for j in range(i + 1, len(hulls)) if intersects_oracle(hulls[i], hulls[j])
    ]


def all_pairs_tag_failures(tagged):
    """The maintag pair scan over all pairs of tags."""
    failures = []
    for i in range(len(tagged)):
        for j in range(i + 1, len(tagged)):
            rel = tags_relation(tagged[i][2], tagged[j][2])
            if rel == "properly_overlapping":
                failures.append(
                    f"tags overlap: {tagged[i][2]} (lam {tagged[i][0]}) vs {tagged[j][2]} (lam {tagged[j][0]})"
                )
            elif rel == "equal" and tagged[i][0] != tagged[j][0]:
                failures.append(f"equal tags from distinct laminations {tagged[i][0]} / {tagged[j][0]}")
    return failures


def test_meeting_pairs_agrees_with_all_pairs_scan():
    from lamina.cubic_tags import _meeting_pairs
    from lamina.suites import _tag_pair_failures, hexagon_fixtures

    cases = [hexagon_tagged()]
    cases += [tagged_library(library + hexagon_fixtures()) for library in cubic_libraries().values()]
    for tagged in cases:
        minors = [tag.minor_factor for _, _, tag in tagged]
        assert list(_meeting_pairs(minors)) == all_pairs_meeting(minors)
        assert _tag_pair_failures(tagged) == all_pairs_tag_failures(tagged)
    lines = _tag_pair_failures(cases[0])
    assert lines and all(line.startswith("equal tags from distinct laminations") for line in lines)
    # polygons and chords that cross without sharing a vertex, and made-up
    # tags of random hulls, which overlap
    hulls = random_hulls(11, 250)
    assert list(_meeting_pairs(hulls)) == all_pairs_meeting(hulls)
    assert list(_meeting_pairs([])) == [] == list(_meeting_pairs(hulls[:1]))
    fake = [(k % 7, None, MixedTag(P, Q)) for k, (P, Q) in enumerate(zip(hulls, random_hulls(12, 250)))]
    fake += [(idx + 1, fp, tag) for idx, fp, tag in fake[:20]]
    # equal tags of one lamination, which are no failure
    fake += fake[20:23]
    lines = _tag_pair_failures(fake)
    assert lines == all_pairs_tag_failures(fake)
    assert {line.split(" ")[0] for line in lines} == {"tags", "equal"}


def test_cocritical_set_is_kept_and_a_rejection_is_not(monkeypatch):
    import lamina.cubic_tags as cubic_tags

    computed = []
    original = cubic_tags._cocritical_set

    def counting(C):
        computed.append(C)
        return original(C)

    monkeypatch.setattr(cubic_tags, "_cocritical_set", counting)
    held = [(lam, fp) for lam in cubic_libraries()[1][:12] for fp in full_portraits_of(lam)]
    tags = [mixed_tag(lam, fp) for lam, fp in held]
    assert len(computed) == len(held)
    computed.clear()
    for (lamA, fpA), (lamX, fpX) in zip(held, held[1:]):
        classify_tag_relation(lamA, fpA, lamX, fpX)
    assert [mixed_tag(lam, fp) for lam, fp in held] == tags
    assert computed == []
    separating = S(0, F(1, 2))
    for _ in range(2):
        with pytest.raises(ValueError):
            cocritical_set(separating)
    assert computed == [separating, separating]


def colocation_oracle(lam):
    """The colocation check of geometry_checks on Angles."""
    from lamina.circle import THIRD, ccw_offset, sigma

    failures = []
    for fp in full_portraits_of(lam):
        C, D = fp.first, fp.second
        try:
            coc = cocritical_set_oracle(C)
        except ValueError:
            continue
        v = coc.vertices
        if len(v) == 1:
            continue
        for s, t in zip(v, v[1:] + v[:1]):
            arc_len = ccw_offset(s, t)
            if any(0 < ccw_offset(s, p) < arc_len for p in C.vertices):
                continue
            e = str(Chord(s, t))
            if arc_len > THIRD:
                failures.append((str(C), e, "arc longer than 1/3"))
            img_span = ccw_offset(sigma(3, t), sigma(3, s))
            for w in sorted({sigma(3, x) for x in D.vertices}):
                if ccw_offset(sigma(3, t), w) > img_span:
                    failures.append((str(C), e, f"minor vertex {w} escapes the image arc"))
    return failures


def test_geometry_colocation_agrees_with_angle_oracle():
    # random cubic laminations with critical chords and a random triangle,
    # which is often a critical gap whose companion minor escapes
    import random

    from lamina.chords import linked
    from lamina.lamination import FiniteLamination

    rng = random.Random(5)
    denominators = (3, 6, 9, 12, 18, 24, 27, 36, 54)
    checked = failed = 0
    for _ in range(800):
        leaves = []
        for _ in range(rng.randrange(2, 10)):
            q = rng.choice(denominators)
            a = rng.randrange(q)
            b = (a + q // 3) % q if rng.random() < 0.5 else rng.randrange(q)
            c = Chord(A(a, q), A(b, q))
            if a != b and not any(linked(c, m) for m in leaves):
                leaves.append(c)
        q = rng.choice(denominators)
        x, y, z = (A(rng.randrange(q), q) for _ in range(3))
        if len({x, y, z}) == 3:
            triangle = [Chord(x, y), Chord(y, z), Chord(z, x)]
            leaves = [c for c in leaves if not any(linked(c, m) for m in triangle)] + triangle
        lam = FiniteLamination(3, leaves)
        want = colocation_oracle(lam)
        assert geometry_checks(lam).colocation_failures == want, lam.leaves
        checked += bool(full_portraits_of(lam))
        failed += bool(want)
    assert checked > 200 and failed > 5


def test_cocritical_set_is_defined_on_every_critical_set():
    # a cubic critical set of degree 2 has exactly one hole of length
    # >= 1/3 (a critical leaf has two, 1/3 and 2/3, and the strict test
    # keeps 2/3), and one of degree 3 is its own co-critical set, so
    # geometry_checks needs no guard around cocritical_set
    from lamina.lamination import critical_analysis
    from lamina.sampling import Lcg
    from lamina.suites import hexagon_fixtures, sample_cubic_library

    cubic = sorted((Path(__file__).parent.parent / "portraits" / "cubic").glob("*.portrait"))
    library = sample_cubic_library(Lcg(7), 60) + hexagon_fixtures()
    library += [parse_portrait(path.read_text()).build(3) for path in cubic]
    assert len(library) == 60 + 3 + 4
    checked = 0
    for lam in library:
        for s in critical_analysis(lam).critical_sets:
            C = ConvexSet.hull_of(s)
            assert C.degree(3) in (2, 3)
            assert isinstance(cocritical_set(C), ConvexSet)
            checked += 1
    assert checked >= len(library)


def validation_oracle(lam, sets):
    """The portrait-set validation on Angles: each hull's sides, sorted
    pairs of Angles in the order of ``ConvexSet.edges``, looked up by ``in``."""
    from lamina.chords import _sides

    for S in sets:
        vs = S.vertices
        missing = next((e for e in _sides(vs) if e not in lam), None)
        if missing is None and len(vs) > 1:
            continue
        if len(vs) <= 2:
            raise ValueError(f"{S} is not a leaf of the lamination")
        raise ValueError(f"{S} is not a gap of the lamination (missing edge {Chord(*missing)})")


def validation_outcome(validate, lam, sets):
    try:
        validate(lam, sets)
    except ValueError as exc:
        return str(exc)
    return "valid"


@functools.cache
def validation_laminations():
    """The shipped cubic portraits at depths 1-3 and the hexagon fixtures."""
    from lamina.suites import hexagon_fixtures

    cubic = sorted((Path(__file__).parent.parent / "portraits" / "cubic").glob("*.portrait"))
    return [parse_portrait(p.read_text()).build(d) for p in cubic for d in (1, 2, 3)] + hexagon_fixtures(2)


@st.composite
def hull_on_or_off(draw, lam):
    """A point, leaf or polygon of the lamination's leaf ends, its critical
    sets and leaves, one of those with a vertex moved off the ring by a
    fraction of a ring step, or points on or off its ring, mixed."""
    N, pairs = lam.ring
    kind = draw(st.sampled_from(("critical", "leaf", "near", "ends", "ring", "off")))
    if kind in ("critical", "near"):
        S = ConvexSet.hull_of(draw(st.sampled_from(critical_analysis(lam).critical_sets)))
        if kind == "critical":
            return S
        # just past a vertex on a ring p times finer, p a prime not dividing N
        M, xs = S.ring
        p = next(p for p in (5, 7, 11, 13) if N % p)
        k, step = draw(st.integers(0, len(xs) - 1)), draw(st.integers(1, p - 1))
        return ConvexSet(p * N, [p * x * (N // M) + (step if i == k else 0) for i, x in enumerate(xs)])
    if kind == "leaf":
        a, b = draw(st.sampled_from(pairs))
        return ConvexSet(N, (a, b))
    ends = sorted({x for p in pairs for x in p})
    n = draw(st.integers(1, 6))
    points = [Fraction(x, N) for x in draw(st.lists(st.sampled_from(ends), min_size=1, max_size=n))]
    if kind in ("ring", "off"):
        q = N if kind == "ring" else draw(st.sampled_from((5, 7, 2 * N, 3 * N)))
        points += [Fraction(x, q) for x in draw(st.lists(st.integers(0, q - 1), max_size=3))]
    return ConvexSet.of(points)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_portrait_set_validation_on_the_ring_agrees_with_the_angle_oracle(data):
    import lamina.cubic_tags as cubic_tags

    lam = data.draw(st.sampled_from(validation_laminations()))
    sets = (data.draw(hull_on_or_off(lam)), data.draw(hull_on_or_off(lam)))
    got = validation_outcome(cubic_tags._validate_portrait_sets, lam, sets)
    assert got == validation_outcome(validation_oracle, lam, sets)


def test_portrait_set_validation_names_the_first_missing_edge():
    # the ring 54 of lam_bicritical(2) holds no fifth, so 2/5 is off it,
    # but the first side 0 1/3 is a leaf: the side named is the second
    lam = lam_bicritical(2)
    leaf = S(0, F(1, 3))
    cases = {
        S(F(1, 2), F(5, 6)): "valid",
        S(0, F(1, 3), F(2, 5)): "{0, 1/3, 2/5} is not a gap of the lamination (missing edge 1/3 2/5)",
        S(0, F(1, 3), F(1, 2)): "{0, 1/3, 1/2} is not a gap of the lamination (missing edge 1/3 1/2)",
        S(F(1, 7), F(1, 2), F(5, 6)): "{1/7, 1/2, 5/6} is not a gap of the lamination (missing edge 1/7 1/2)",
        S(F(1, 2), F(4, 5)): "{1/2, 4/5} is not a leaf of the lamination",
    }
    for second, want in cases.items():
        for validate in (validation_oracle, lambda lam, sets: mixed_tag(lam, FullPortrait(*sets))):
            assert validation_outcome(validate, lam, (leaf, second)) == want


def strongly_linked_oracle(A_, B_):
    """Strong linkage on Angles: every presentation and rotation of each
    quadrilateral, merged a0 b0 a1 b1 ..., in product order, the first
    with at most one cyclic descent."""
    import itertools

    from lamina.circle import cyclic_descents

    for pa, i, pb, j in itertools.product(A_.presentations(), range(4), B_.presentations(), range(4)):
        ra, rb = pa[i:] + pa[:i], pb[j:] + pb[:j]
        merged = [ra[0], rb[0], ra[1], rb[1], ra[2], rb[2], ra[3], rb[3]]
        if cyclic_descents(merged) <= 1:
            return True, (ra, rb)
    return False, None


def test_geometry_linked_samples_on_the_ring_agree_with_the_angle_search():
    # linked pairs, pairs of window chords (often unlinked), and critical,
    # degenerate and long chords, which are refused with one message
    from lamina.lamination import FiniteLamination

    lam = FiniteLamination(3, ())
    rngs = [Lcg(seed) for seed in range(1, 5)]
    pairs = [rng.linked_pair_in_window() for rng in rngs for _ in range(500)]
    pairs += [(rng.chord_in_window(), rng.chord_in_window()) for rng in rngs for _ in range(100)]
    odd = [C(0, 1, 1, 3), C(1, 5, 1, 5), C(0, 1, 1, 2), C(1, 9, 2, 3)]
    pairs += [(c, C(1, 24, 1, 8)) for c in odd] + [(C(1, 24, 1, 8), c) for c in odd]
    verdicts = []
    for l1, l2 in pairs:
        try:
            q1, q2, report = linked_pair_cocritical_quads(l1, l2)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                geometry_checks(lam, [(l1, l2)])
            assert str(info.value) == str(exc)
            verdicts.append(str(exc).split(" is ")[-1].split("; ")[-1])
            continue
        failures = geometry_checks(lam, [(l1, l2)]).linkco_failures
        assert (report.linked, report.witness) == strongly_linked_oracle(q1, q2), (l1, l2)
        assert (not failures) == report.linked
        assert failures in ([], [(str(l1), str(l2), "not strongly linked")])
        verdicts.append(report.linked)
    assert verdicts[:2000] == [True] * 2000
    assert set(verdicts) == {True, False, "no collapsing quadrilateral", "co-critical set undefined"}


def random_quadrilaterals(seed, count):
    """Seeded critical quadrilaterals of degree 3 on small rings: collapsing
    ones, critical leaves and all-critical triangles."""
    import random

    from lamina.qc_portrait import make_quadrilateral

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = 3 * rng.choice((1, 2, 3, 4, 6, 8))
        x, y = (A(rng.randrange(q), q) for _ in range(2))
        kind = rng.randrange(3)
        if kind == 0:
            vs = [x, x, x + THIRD, x + 2 * THIRD]
        elif kind == 1:
            vs = [x, x, x + THIRD, x + THIRD]
        else:
            vs = [x, y, x + rng.choice((1, 2)) * THIRD, y + rng.choice((1, 2)) * THIRD]
        vs = sorted(A(v) for v in vs)  # circularly ordered, or refused below
        try:
            out.append(make_quadrilateral(vs, 3))
        except ValueError:
            continue
    return out


def test_strongly_linked_on_one_ring_agrees_with_the_angle_search():
    from lamina.qc_portrait import ALL_CRITICAL_TRIANGLE, strongly_linked

    quads = random_quadrilaterals(51, 120)
    kinds = {q.classification for q in quads}
    assert ALL_CRITICAL_TRIANGLE in kinds and len(kinds) >= 3
    outcomes = set()
    for A_ in quads:
        for B_ in quads[::4]:
            report = strongly_linked(A_, B_)
            assert (report.linked, report.witness) == strongly_linked_oracle(A_, B_), (A_, B_)
            outcomes.add((report.linked, len(A_.presentations()) * len(B_.presentations())))
    assert outcomes >= {(True, 1), (False, 1), (True, 3), (False, 3), (True, 9), (False, 9)}
