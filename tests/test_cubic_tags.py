from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lamina.circle import Angle
from lamina.chords import Chord
from lamina.lamination import pullback_build
from lamina.cubic_tags import (
    ConvexSet,
    FullPortrait,
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


def test_linked_pair_cocritical_quads_fixture():
    q1, q2, rep = linked_pair_cocritical_quads(C(0, 1, 1, 12), C(1, 24, 1, 8))
    assert rep.linked
    assert q1.classification == "collapsing" and q2.classification == "collapsing"
    merged = [v for pair in zip(rep.witness[0], rep.witness[1]) for v in pair]
    assert merged == [A(n, 24) for n in (8, 9, 10, 11, 16, 17, 18, 19)]


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
