import importlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lamina.circle import POSITIVE, Angle, circular_order, cyclic_descents, sigma
from lamina.chords import Chord, chord_image, linked, validate_collection
from lamina.lamination import FiniteLamination, orbit_classify, pullback_build
from lamina.qc_portrait import QcPortrait, make_quadrilateral
from lamina.accordion import (
    PERIODIC_GAP,
    SINGLE,
    SpikeChoice,
    THREE_LEAF,
    TWO_LEAF_DISJOINT,
    TWO_LEAF_FLIP,
    WANDERING,
    _order_kept,
    accordion,
    choose_unlinked_spikes,
    compgap_analyze,
    detect_collapse,
    order_preserving_accordions,
)
from lamina.suites import _compgap_universe, _survivor_pairs

A = Angle


def C(*args):
    if len(args) == 4:
        return Chord(A(args[0], args[1]), A(args[2], args[3]))
    return Chord(A(args[0]), A(args[1]))


def leaf_quad(a, b, d=3):
    return make_quadrilateral([a, a, b, b], d)


def test_accordion_against_lamination():
    lam = FiniteLamination(2, [C(1, 7, 2, 7), C(2, 7, 4, 7), C(1, 7, 4, 7)])
    rep = accordion(C(0, 1, 1, 2), lam)
    # the diameter crosses the long triangle edge only
    assert C(1, 7, 4, 7) in rep.members
    lam2 = FiniteLamination(2, [C(1, 16, 2, 16)])
    rep2 = accordion(C(0, 1, 1, 2), lam2)
    assert rep2.members == (C(0, 1, 1, 2),) and rep2.classification == SINGLE


def test_accordion_against_lamination_refuses_a_horizon_and_a_foreign_degree():
    # a lamination accordion follows no orbit, so a horizon would be reported
    # as horizon 0 and ignored, and a d other than the degree silently dropped
    lam = FiniteLamination(2, [C(1, 7, 2, 7), C(2, 7, 4, 7), C(1, 7, 4, 7)])
    axis = C(0, 1, 1, 2)
    with pytest.raises(ValueError, match="horizon"):
        accordion(axis, lam, horizon=5, d=3)
    for horizon in (0, 5):
        with pytest.raises(ValueError, match="horizon"):
            accordion(axis, lam, horizon=horizon)
    with pytest.raises(ValueError, match="degree 2"):
        accordion(axis, lam, d=3)
    assert accordion(axis, lam, d=2) == accordion(axis, lam)


def test_accordion_of_triangle_edge_orbit():
    rep = accordion(C(1, 7, 2, 7), C(1, 7, 2, 7), d=2)
    assert rep.classification == SINGLE and rep.exact


def test_accordion_period_six_sibling_orbit():
    M = C(1026, 2184, 1737, 2184)
    sibling = C(1009, 2184, 1754, 2184)
    rep = accordion(M, sibling, d=3, horizon=12)
    # the sibling orbit merges into the unlinked orbit of M after one step
    assert rep.members == (M,)
    assert rep.classification == SINGLE and rep.exact


def test_accordion_flip_classification():
    rep = accordion(C(1, 8, 3, 8), C(1, 4, 3, 4), d=3)
    assert rep.classification == TWO_LEAF_FLIP
    assert rep.order_preserving


def test_accordion_wandering_cutoff():
    # the partner's chord orbit closes after three steps; a one-step horizon
    # leaves the verdict provisional
    rep = accordion(C(1, 8, 3, 8), C(1, 26, 7, 26), d=3, horizon=1)
    assert not rep.exact
    assert rep.classification == WANDERING


@pytest.mark.parametrize("horizon", [-1, -3, 2.5, Fraction(1), True, "1"])
def test_accordion_refuses_a_horizon_that_is_not_a_nonnegative_int(horizon):
    # a negative horizon would slice the orbit from its end, and report this
    # flip pair as SINGLE; a float one would pass whenever the orbit closes first
    with pytest.raises(ValueError, match="horizon"):
        accordion(C(1, 8, 3, 8), C(1, 4, 3, 4), d=3, horizon=horizon)
    assert accordion(C(1, 8, 3, 8), C(1, 4, 3, 4), d=3, horizon=0).horizon == 0


def test_accordion_cut_off_before_any_crossing_is_wandering():
    # the flip partner's orbit is the one chord 1/4 3/4, which crosses the
    # axis; a horizon of 0 follows none of it, and a crossing seen nowhere
    # in a cut-off orbit says nothing about the rest of it
    axis, partner = C(1, 8, 3, 8), C(1, 4, 3, 4)
    rep = accordion(axis, partner, d=3, horizon=0)
    assert not rep.exact and rep.members == (axis,)
    assert rep.classification == WANDERING
    assert accordion(axis, partner, d=3).classification == TWO_LEAF_FLIP


def test_order_preserving_follows_orbits_only_past_the_four_ends(monkeypatch):
    # the package's ``accordion`` attribute is the function of that name
    accordion_module = importlib.import_module("lamina.accordion")
    calls = []
    ring_orbit = accordion_module._ring_orbit

    def counted(*args, **kwargs):
        calls.append(args)
        return ring_orbit(*args, **kwargs)

    monkeypatch.setattr(accordion_module, "_ring_orbit", counted)
    # the ends 0 < 1/8 < 3/8 < 1/2 triple to 0, 3/8, 1/8, 1/2: out of order
    assert not order_preserving_accordions(3, C(0, 1, 3, 8), C(1, 8, 1, 2))
    assert len(calls) == 0
    # the ends 1/8 < 1/4 < 3/8 < 3/4 triple to 3/8, 3/4, 1/8, 1/4: in order
    assert order_preserving_accordions(3, C(1, 8, 3, 8), C(1, 4, 3, 4))
    assert len(calls) == 2
    # the ends 0 < 1/13 < 10/13 < 11/13 triple to 0 < 3/13 < 4/13 < 7/13, in
    # order, but those triple to 0, 9/13, 12/13, 8/13: the lockstep's second
    # step refuses the pair before either orbit is followed
    calls.clear()
    assert not order_preserving_accordions(3, C(0, 1, 10, 13), C(1, 13, 11, 13))
    assert len(calls) == 0
    # these four ends come back in order, so both orbits are followed, and
    # the full check refuses the pair
    assert not order_preserving_accordions(3, C(0, 1, 1, 2), C(1, 8, 5, 8))
    assert len(calls) == 2


def test_order_preserving_examples():
    assert order_preserving_accordions(3, C(1, 8, 3, 8), C(1, 4, 3, 4))
    # a critical axis never has order preserving accordions
    assert not order_preserving_accordions(3, C(0, 1, 1, 3), C(1, 4, 2, 4))
    with pytest.raises(ValueError):
        order_preserving_accordions(3, C(0, 1, 1, 8), C(1, 2, 3, 4))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 4)), st.data())
def test_order_kept_is_distinct_images_in_circular_order(d, data):
    # on a ring mod a multiple of d, sigma_d is not one-to-one
    N = d * data.draw(st.integers(4, 12))
    points = sorted(data.draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=8, unique=True)))
    images = [d * p % N for p in points]
    expected = len(set(images)) == len(points) and (len(points) <= 2 or cyclic_descents(images) == 1)
    assert _order_kept(d, N, points) == expected


def _one_sided_oracle(d, axis, other):
    """Reference on Chords: both orbits followed with orbit_classify and
    chord_image, the circular order of each accordion's images read from
    ccw offsets."""
    info_a = orbit_classify(d, axis)
    info_b = orbit_classify(d, other)
    # (pre)critical leaves never have order preserving accordions
    if any(c.degenerate for c in info_a.orbit + info_b.orbit):
        return False
    axis_k = axis
    for _ in range(info_a.closes_at):
        pts = set(axis_k.endpoints)
        for c in info_b.orbit:
            if linked(c, axis_k):
                pts.update(c.endpoints)
        images = [sigma(d, p) for p in sorted(pts)]
        if len(set(images)) != len(pts):
            return False
        if len(images) >= 3 and circular_order(images) != POSITIVE:
            return False
        axis_k = chord_image(d, axis_k)
    return True


def _order_preserving_oracle(d, l1, l2):
    return _one_sided_oracle(d, l1, l2) and _one_sided_oracle(d, l2, l1)


# circle points with periodic denominators d^k - 1 (k <= 3) and preperiodic
# ones d^j (d^k - 1) (j, k <= 2); 8-28% of the linked pairs drawn from them
# reach a critical chord
_POINTS = {
    d: sorted(
        {
            Angle(n, q)
            for q in [d**k - 1 for k in (1, 2, 3)] + [d**j * (d**k - 1) for k in (1, 2) for j in (1, 2)]
            for n in range(q)
        }
    )
    for d in (2, 3, 4)
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from((2, 3, 4)), st.data())
def test_order_preserving_accordions_agrees_with_chord_oracle(d, data):
    pts = data.draw(st.lists(st.sampled_from(_POINTS[d]), min_size=4, max_size=4, unique=True))
    p0, p1, p2, p3 = sorted(pts)
    l1, l2 = Chord(p0, p2), Chord(p1, p3)
    assert order_preserving_accordions(d, l1, l2) == _order_preserving_oracle(d, l1, l2)
    assert order_preserving_accordions(d, l2, l1) == order_preserving_accordions(d, l1, l2)


@pytest.mark.parametrize(
    "d, denominators, survivors",
    [(3, (2, 8), 6), (3, (2, 8, 6, 24), 34), (4, (3, 15), 135), (2, (3, 7, 15), 2), (3, (2, 8, 13), 6)],
)
def test_order_preserving_accordions_exhaustive(d, denominators, survivors):
    pts = sorted({Angle(n, q) for q in denominators for n in range(q)})
    chords = [Chord(a, b) for i, a in enumerate(pts) for b in pts[i + 1 :]]
    pairs = [(u, v) for i, u in enumerate(chords) for v in chords[i + 1 :] if linked(u, v)]
    found = [(u, v) for u, v in pairs if order_preserving_accordions(d, u, v)]
    assert found == [(u, v) for u, v in pairs if _order_preserving_oracle(d, u, v)]
    assert len(found) == survivors


def test_compgap_survivors_on_small_universe_match_oracle():
    N, pts, _ = _compgap_universe(2)
    # leaf-eligible chords: equal endpoint periods, pairwise unlinked orbit
    eligible = []
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            c = Chord(Angle(a, N), Angle(b, N))
            orbit = orbit_classify(3, c).orbit
            if orbit_classify(3, c.a).period != orbit_classify(3, c.b).period:
                continue
            if not any(linked(x, y) for k, x in enumerate(orbit) for y in orbit[k + 1 :]):
                eligible.append(c)
    pairs = [(u, v) for i, u in enumerate(eligible) for v in eligible[i + 1 :] if linked(u, v)]
    ring_n, nlinked, survivors = _survivor_pairs(2)
    found = [
        (Chord(Angle(a1, ring_n), Angle(b1, ring_n)), Chord(Angle(a2, ring_n), Angle(b2, ring_n)))
        for (a1, b1), (a2, b2) in survivors
    ]
    assert nlinked == len(pairs)
    assert found == [(u, v) for u, v in pairs if _order_preserving_oracle(3, u, v)]
    assert found


@pytest.mark.parametrize("d", [1, 0, 2.0])
def test_order_preserving_accordions_rejects_bad_degree(d):
    with pytest.raises(ValueError):
        order_preserving_accordions(d, C(1, 8, 3, 8), C(1, 4, 3, 4))


def test_choose_unlinked_spikes():
    qcp = QcPortrait(3, (
        make_quadrilateral([Fraction(1, 3), Fraction(5, 12), Fraction(2, 3), Fraction(3, 4)], 3),
        leaf_quad(A(5, 6), A(1, 6)),
    ))
    # a leaf crossing the spike 5/12 3/4 forces the other diagonal
    axis = C(3, 8, 1, 2)
    assert linked(axis, C(5, 12, 3, 4)) and not linked(axis, C(1, 3, 2, 3))
    choice = choose_unlinked_spikes(qcp, axis)
    assert choice.spikes[0] == C(1, 3, 2, 3)
    assert all(not linked(s, axis) for s in choice.spikes)
    # avoidance of a named endpoint that is not forced
    choice2 = choose_unlinked_spikes(qcp, C(1, 48, 5, 48), avoid=A(3, 4))
    assert choice2.avoided
    assert all(not s.has_endpoint(A(3, 4)) for s in choice2.spikes)


def test_choose_unlinked_spikes_flags_forced_endpoint():
    qcp = QcPortrait(3, (leaf_quad(A(0), A(1, 3)), leaf_quad(A(1, 2), A(5, 6))))
    choice = choose_unlinked_spikes(qcp, C(1, 24, 2, 24), avoid=A(0))
    assert not choice.avoided  # the only spike of the first leaf uses 0


def _choose_unlinked_spikes_oracle(qcp, l1, avoid=None):
    """choose_unlinked_spikes as it read with three places setting
    ``avoided``, kept to check the one-place version (no special clusters)."""
    d = qcp.degree
    options = []
    for quad in qcp.quads:
        unlinked = [s for s in quad.spike_set if not linked(s, l1)]
        if not unlinked:
            raise ValueError(f"every spike of {quad} crosses {l1}")
        options.append(unlinked)
    avoided = True
    chosen = []
    if avoid is not None:
        for opts in options:
            clean = [s for s in opts if not s.has_endpoint(avoid)]
            if clean:
                chosen.append(clean[0])
            else:
                chosen.append(opts[0])
                avoided = False
    else:
        chosen = [opts[0] for opts in options]
    if not validate_collection(d, chosen).is_full_collection:
        for combo in itertools.product(*options):
            if validate_collection(d, combo).is_full_collection:
                chosen = list(combo)
                avoided = avoid is not None and not any(s.has_endpoint(avoid) for s in combo)
                break
        else:
            raise ValueError("no unlinked complete sample forms a full collection")
    return SpikeChoice(spikes=tuple(chosen), avoided=avoided if avoid is not None else True)


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


def test_choose_unlinked_spikes_agrees_with_oracle():
    # cubic qc-portraits of two quadrilaterals on (1/12)Z/Z: critical leaves
    # x x+1/3 and collapsing quadrilaterals x y x+1/3 y+1/3, so that spikes
    # are often shared (a loop, which sends the choice to its fallback)
    rng = random.Random(2014)
    third = Fraction(1, 3)
    quads = [leaf_quad(A(x, 12), A(Fraction(x, 12) + third)) for x in range(4)]
    quads += [
        make_quadrilateral([A(x, 12), A(y, 12), A(Fraction(x, 12) + third), A(Fraction(y, 12) + third)], 3)
        for x in range(12)
        for y in range(x + 1, x + 4)
    ]
    seen = {"avoided": 0, "forced": 0, "fallback": 0, "refused": 0}
    for _ in range(150):
        qcp = QcPortrait(3, (rng.choice(quads), rng.choice(quads)))
        a, b = rng.sample(range(24), 2)
        axis = C(a, 24, b, 24)
        vertices = sorted({v for q in qcp.quads for v in q.vertices})
        for avoid in [None] + vertices:
            got = _outcome(choose_unlinked_spikes, qcp, axis, avoid=avoid)
            assert got == _outcome(_choose_unlinked_spikes_oracle, qcp, axis, avoid=avoid)
            if isinstance(got, str):
                seen["refused"] += 1
                continue
            seen["avoided" if got.avoided else "forced"] += 1
            first = [next(s for s in q.spike_set if not linked(s, axis)) for q in qcp.quads]
            seen["fallback"] += avoid is None and list(got.spikes) != first
    assert all(seen.values()), seen


def test_detect_collapse_chain():
    # leaves whose shared-image endpoints are joined by spike chains in both
    # portraits
    qcp1 = QcPortrait(3, (leaf_quad(A(0), A(1, 3)), leaf_quad(A(1, 3), A(2, 3))))
    qcp2 = QcPortrait(3, (leaf_quad(A(0), A(1, 3)), leaf_quad(A(1, 3), A(2, 3))))
    l1 = C(0, 1, 7, 9)
    l2 = C(2, 3, 8, 9)
    assert sigma(3, A(0)) == sigma(3, A(2, 3))
    rep = detect_collapse(l1, l2, qcp1, qcp2)
    assert rep.kind == "chains"
    assert rep.junction == (A(0), A(2, 3))
    assert rep.chain1 == (C(0, 1, 1, 3), C(1, 3, 2, 3))


def test_detect_collapse_negative_and_special():
    qcp = QcPortrait(3, (leaf_quad(A(0), A(1, 3)), leaf_quad(A(1, 2), A(5, 6))))
    # endpoints with a common image but no chain through the spikes
    l1 = C(1, 12, 2, 3)
    l2 = C(5, 12, 3, 4)
    rep = detect_collapse(l1, l2, qcp, qcp)
    assert rep.kind == "none"
    special = [(A(0), A(1, 3), A(2, 3))]
    rep2 = detect_collapse(C(0, 1, 1, 3), C(1, 3, 2, 3), qcp, qcp, special_clusters=special)
    assert rep2.kind == "special_cluster"
    with pytest.raises(ValueError):
        detect_collapse(C(0, 1, 1, 8), C(1, 2, 5, 8), qcp, qcp)


def test_compgap_flip_case():
    rep = compgap_analyze(3, C(1, 8, 3, 8), C(1, 4, 3, 4))
    assert rep.classification == PERIODIC_GAP
    assert rep.vertices == (A(1, 8), A(1, 4), A(3, 8), A(3, 4))
    assert len(rep.orbit_groups) == 2
    assert set(rep.periods) == {2}
    assert rep.remap_is_identity is False


def test_compgap_requires_order_preservation():
    with pytest.raises(ValueError):
        compgap_analyze(3, C(0, 1, 1, 3), C(1, 4, 2, 4))


def test_smart_criticality_images_stay_close():
    # linked leaves of strongly linked portraits without chain collapse:
    # their images intersect at every step (equal, touching, or crossing)
    d = 3
    l1 = C(1, 8, 3, 8)
    l2 = C(1, 4, 3, 4)
    assert linked(l1, l2)
    a, b = l1, l2
    for _ in range(12):
        a, b = chord_image(d, a), chord_image(d, b)
        touching = bool(set(a.endpoints) & set(b.endpoints))
        assert a == b or touching or linked(a, b)


def test_accordion_three_leaf_search():
    # exhaustive small search over period-two chords finds flip pairs only;
    # three-leaf examples need period >= 3 data
    found = set()
    pts = [A(j, 26) for j in range(26)]
    chords = []
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            info_x, info_y = orbit_classify(3, x), orbit_classify(3, y)
            if info_x.period == info_y.period == 3 and info_x.preperiod == info_y.preperiod == 0:
                c = Chord(x, y)
                orbit = orbit_classify(3, c).orbit
                if all(
                    not linked(orbit[i], orbit[j])
                    for i in range(len(orbit))
                    for j in range(i + 1, len(orbit))
                ):
                    chords.append(c)
    for i, c1 in enumerate(chords):
        for c2 in chords:
            if c1 == c2 or not linked(c1, c2):
                continue
            try:
                if order_preserving_accordions(3, c1, c2):
                    found.add(accordion(c1, c2, d=3).classification)
            except ValueError:
                continue
    assert found <= {TWO_LEAF_FLIP, TWO_LEAF_DISJOINT, THREE_LEAF}
    assert THREE_LEAF in found


def test_accordion_reports_touching_leaves():
    lam = FiniteLamination(3, [C(0, 1, 1, 3), C(1, 3, 2, 3)])
    rep = accordion(C(0, 1, 2, 3), lam)
    assert rep.members == (C(0, 1, 2, 3),)
    assert set(rep.touching) == {C(0, 1, 1, 3), C(1, 3, 2, 3)}


def test_accordion_disjoint_orbit_label():
    # single crossing, no flip, equal periods, four distinct endpoint
    # orbits: the crossing pattern is labelled even though this pair is not
    # order preserving (no such order-preserving pair exists at small periods)
    axis, partner = C(1, 8, 3, 4), C(1, 4, 7, 8)
    rep = accordion(axis, partner, d=3)
    assert rep.classification == TWO_LEAF_DISJOINT
    assert rep.order_preserving is False


def test_period_six_strip_pair_is_unlinked():
    # regression fixture: the wide-strip sibling never crosses the original
    # leaf, so their accordion is trivial and order preservation is undefined
    M = Chord(A(1026, 2184), A(1737, 2184))
    Nprime = Chord(A(193, 2184), A(842, 2184))
    assert not linked(M, Nprime)
    with pytest.raises(ValueError):
        order_preserving_accordions(3, M, Nprime)
