import importlib
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lamina.circle import POSITIVE, Angle, _at, circular_order, cyclic_descents, sigma, sigma_power
from lamina.chords import Chord, _sides, chord_image, linked
from lamina.lamination import FiniteLamination, _chord, _ring_orbit, orbit_classify
from lamina.accordion import (
    PERIODIC_GAP,
    SINGLE,
    THREE_LEAF,
    TWO_LEAF_DISJOINT,
    TWO_LEAF_FLIP,
    WANDERING,
    _compgap_ring,
    _ends_orbit,
    _interiors_intersect,
    _order_kept,
    accordion,
    compgap_analyze,
    order_preserving_accordions,
)
from lamina.suites import _compgap_universe, _fixture_laminations, _survivor_pairs

A = Angle
# the package's ``accordion`` attribute is the function of that name
_ACCORDION = importlib.import_module("lamina.accordion")


def C(*args):
    if len(args) == 4:
        return Chord(A(args[0], args[1]), A(args[2], args[3]))
    return Chord(A(args[0]), A(args[1]))


def test_accordion_against_lamination():
    lam = FiniteLamination(2, [C(1, 7, 2, 7), C(2, 7, 4, 7), C(1, 7, 4, 7)])
    rep = accordion(C(0, 1, 1, 2), lam)
    # the diameter crosses the long triangle edge only
    assert C(1, 7, 4, 7) in rep.members
    lam2 = FiniteLamination(2, [C(1, 16, 2, 16)])
    rep2 = accordion(C(0, 1, 1, 2), lam2)
    assert rep2.members == (C(0, 1, 1, 2),) and rep2.classification == SINGLE


def test_accordion_against_lamination_refuses_a_horizon_and_a_foreign_degree():
    # accordion takes no horizon at all, and a lamination accordion follows
    # no orbit, so a d other than the degree would be silently dropped
    lam = FiniteLamination(2, [C(1, 7, 2, 7), C(2, 7, 4, 7), C(1, 7, 4, 7)])
    axis = C(0, 1, 1, 2)
    with pytest.raises(TypeError, match="horizon"):
        accordion(axis, lam, horizon=5)
    with pytest.raises(ValueError, match="degree 2"):
        accordion(axis, lam, d=3)
    assert accordion(axis, lam, d=2) == accordion(axis, lam)


def test_accordion_of_triangle_edge_orbit():
    rep = accordion(C(1, 7, 2, 7), C(1, 7, 2, 7), d=2)
    assert rep.classification == SINGLE


def test_accordion_period_six_sibling_orbit():
    M = C(1026, 2184, 1737, 2184)
    sibling = C(1009, 2184, 1754, 2184)
    rep = accordion(M, sibling, d=3)
    # the sibling orbit merges into the unlinked orbit of M after one step
    assert rep.members == (M,)
    assert rep.classification == SINGLE


def test_accordion_flip_classification():
    rep = accordion(C(1, 8, 3, 8), C(1, 4, 3, 4), d=3)
    assert rep.classification == TWO_LEAF_FLIP
    assert order_preserving_accordions(3, C(1, 8, 3, 8), C(1, 4, 3, 4))


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
    for d in (2, 3, 4, 5)
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from((2, 3, 4)), st.data())
def test_order_preserving_accordions_agrees_with_chord_oracle(d, data):
    pts = data.draw(st.lists(st.sampled_from(_POINTS[d]), min_size=4, max_size=4, unique=True))
    p0, p1, p2, p3 = sorted(pts)
    l1, l2 = Chord(p0, p2), Chord(p1, p3)
    assert order_preserving_accordions(d, l1, l2) == _order_preserving_oracle(d, l1, l2)
    assert order_preserving_accordions(d, l2, l1) == order_preserving_accordions(d, l1, l2)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_order_preserving_accordions_agrees_with_chord_oracle_in_degree_five(data):
    pts = data.draw(st.lists(st.sampled_from(_POINTS[5]), min_size=4, max_size=4, unique=True))
    p0, p1, p2, p3 = sorted(pts)
    l1, l2 = Chord(p0, p2), Chord(p1, p3)
    assert order_preserving_accordions(5, l1, l2) == _order_preserving_oracle(5, l1, l2)
    assert order_preserving_accordions(5, l2, l1) == order_preserving_accordions(5, l1, l2)


def _ends_come_back(d, N, ends):
    """The lockstep of ``_ends_orbit`` as it read: ``_order_kept``
    asked of the sorted four ends at every step, then their images sorted."""
    ends, seen = tuple(sorted(ends)), set()
    while ends not in seen:
        if not _order_kept(d, N, ends):
            return False
        seen.add(ends)
        ends = tuple(sorted(d * p % N for p in ends))
    return True


def _lockstep_oracle(d, N, c1, c2):
    """``_ends_orbit``'s decision as it read before the rotation step."""
    if not _ends_come_back(d, N, (*c1, *c2)):
        return False
    o1, o2 = _ring_orbit(d, N, c1)[1], _ring_orbit(d, N, c2)[1]
    for axes, others in ((o1, o2), (o2, o1)):
        for ax in axes:
            pts = set(ax)
            for c in others:
                if linked(ax, c):
                    pts.update(c)
            if not _order_kept(d, N, sorted(pts)):
                return False
    return True


def _agree_with_lockstep_oracle(d, N, pairs):
    """Each linked pair gets the oracle's verdict, and its chord orbits are
    followed exactly when the oracle's four ends come back; returns the
    number of pairs whose ends come back and the number that survive."""
    back = survive = 0
    with mock.patch.object(_ACCORDION, "_ring_orbit", wraps=_ring_orbit) as orbit:
        for c1, c2 in pairs:
            calls = orbit.call_count
            got = _ends_orbit(d, N, c1, c2) is not None, orbit.call_count > calls
            expected = _lockstep_oracle(d, N, c1, c2), _ends_come_back(d, N, (*c1, *c2))
            assert got == expected, (d, N, c1, c2)
            survive += got[0]
            back += got[1]
    return back, survive


@settings(max_examples=400, deadline=None)
@given(st.sampled_from((2, 3, 4, 5)), st.data())
def test_order_preserving_ring_agrees_with_the_lockstep_oracle(d, data):
    # rings where d divides N, so sigma_d is not one-to-one, and rings where
    # it does not; d^k - 1 and d^j (d^k - 1) hold periodic and preperiodic
    # points, whose ends come back more often
    N = data.draw(
        st.one_of(
            st.integers(2, 30).map(lambda m: d * m),
            st.integers(4, 120).filter(lambda n: n % d),
            st.integers(2, 4).map(lambda k: d**k - 1),
            st.tuples(st.integers(1, 2), st.integers(1, 3)).map(lambda jk: d ** jk[0] * (d ** jk[1] - 1)),
        ).filter(lambda n: n >= 4)
    )
    p0, p1, p2, p3 = sorted(data.draw(st.lists(st.integers(0, N - 1), min_size=4, max_size=4, unique=True)))
    c1, c2 = (p0, p2), (p1, p3)
    if data.draw(st.booleans()):
        c1, c2 = c2, c1
    _agree_with_lockstep_oracle(d, N, [(c1, c2)])


@pytest.mark.parametrize(
    "d, N, back, survive",
    [
        (2, 15, 90, 2),
        (2, 30, 720, 8),
        (3, 26, 1911, 186),
        (3, 24, 360, 34),
        (4, 15, 345, 135),
        (4, 30, 1860, 252),
        (5, 24, 2826, 1066),
        (5, 20, 175, 37),
    ],
)
def test_order_preserving_ring_agrees_with_the_lockstep_oracle_on_whole_rings(d, N, back, survive):
    # every linked pair of int chords on the ring, whether d divides N or not
    pairs = [((p0, p2), (p1, p3)) for p0, p1, p2, p3 in itertools.combinations(range(N), 4)]
    assert _agree_with_lockstep_oracle(d, N, pairs) == (back, survive)


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


def test_order_preserving_accordions_on_chords_of_the_whole_compgap_universe():
    # every linked pair of the 694 leaf-eligible chords with denominators
    # 2, 8, 26 and 80, through the public entry on Chords, both ways round
    N, nlinked, survivors = _survivor_pairs(4)
    _, pts, period = _compgap_universe(4)
    chords = []
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            if period[a] != period[b]:
                continue
            orbit = _ring_orbit(3, N, (a, b))[1]
            if not any(linked(u, v) for k, u in enumerate(orbit) for v in orbit[k + 1 :]):
                chords.append(_chord(N, (a, b)))
    pairs = [(u, v) for i, u in enumerate(chords) for v in chords[i + 1 :] if linked(u, v)]
    found = [(u, v) for u, v in pairs if order_preserving_accordions(3, u, v)]
    assert found == [(u, v) for u, v in pairs if order_preserving_accordions(3, v, u)]
    assert found == [(_chord(N, c1), _chord(N, c2)) for c1, c2 in survivors]
    assert (len(chords), len(pairs), nlinked, len(found)) == (694, 47103, 47103, 122)


def _universe_ring_chords():
    """The 694 leaf-eligible ring chords of the compgap universe (equal
    endpoint periods, a pairwise unlinked orbit) and its ring N."""
    N, pts, period = _compgap_universe(4)
    chords = []
    for a, b in itertools.combinations(pts, 2):
        if period[a] == period[b]:
            orbit = _ring_orbit(3, N, (a, b))[1]
            if not any(linked(u, v) for u, v in itertools.combinations(orbit, 2)):
                chords.append((a, b))
    return N, chords


def test_order_preserving_accordions_agrees_with_the_lockstep_oracle_on_every_ordered_pair():
    # every ordered linked pair of perfbench's accordions universe, the 694
    # leaf-eligible chords with denominators dividing 80, through the public
    # entry on Chords against the oracle on the ring
    N, chords = _universe_ring_chords()
    angles = {c: _chord(N, c) for c in chords}
    survivors = 0
    for c1, c2 in itertools.permutations(chords, 2):
        if linked(c1, c2):
            got = order_preserving_accordions(3, angles[c1], angles[c2])
            assert got == _lockstep_oracle(3, N, c1, c2), (c1, c2)
            survivors += got
    assert (len(chords), survivors) == (694, 244)


def _interiors_intersect_oracle(u, v):
    """``_interiors_intersect`` as it read, each pair of hull sides tested
    with ``linked``."""
    return u == v or any(linked(e1, e2) for e1 in _sides(u) for e2 in _sides(v))


def test_interiors_intersect_agrees_with_the_side_oracle():
    # every pair of 4-point hulls on nine points, hulls sharing vertices and
    # sides included, which the compgap survivors alone do not tell apart
    hulls = list(itertools.combinations(range(9), 4))
    for u, v in itertools.product(hulls, repeat=2):
        assert _interiors_intersect(u, v) == _interiors_intersect_oracle(u, v), (u, v)


def _compgap_ring_oracle(d, N, c1, c2):
    """``_compgap_ring`` as it read, following the hull orbit as frozensets
    with ``_ring_orbit`` and sorting each hull, and reading each vertex back
    with ``_at``."""
    preperiod, hulls = _ring_orbit(d, N, frozenset((*c1, *c2)))
    hulls = [tuple(sorted(h)) for h in hulls]
    period = len(hulls) - preperiod
    total = preperiod + 2 * period

    def hull_at(i):
        return hulls[i if i < len(hulls) else preperiod + (i - preperiod) % period]

    r = next(
        i
        for i in range(preperiod + period)
        if any(_interiors_intersect_oracle(hull_at(i), hull_at(j)) for j in range(i + 1, total + 1))
    )
    base = hull_at(r)
    step = next(t for t in range(1, total + 1) if _interiors_intersect_oracle(base, hull_at(r + t)))
    vertices = sorted(set().union(*_ring_orbit(d**step, N, frozenset(base))[1]))
    orbits = {v: _ring_orbit(d, N, v) for v in vertices}
    groups, periods = [], []
    remaining = set(vertices)
    while remaining:
        v = min(remaining)
        pre, orbit = orbits[v]
        members = sorted((set(orbit[pre:]) & remaining) | {v})
        groups.append(tuple(_at(N, x) for x in members))
        periods.append(len(orbit) - pre)
        remaining -= set(members)
    vop = _ring_orbit(d, N, frozenset(vertices), 256)
    remap_identity = None
    if vop is not None and vop[0] == 0:
        remap_identity = all(
            pre == 0 and len(vop[1]) % (len(orbit) - pre) == 0 for pre, orbit in orbits.values()
        )
    return PERIODIC_GAP, r, step, tuple(_at(N, v) for v in vertices), tuple(groups), tuple(periods), remap_identity


def test_compgap_ring_fed_the_lockstep_orbit_agrees_with_the_frozenset_orbit():
    # the lockstep's 4-tuples are the sorted hulls of the frozenset orbit,
    # with the same preperiod, the survivor keeps that orbit, and the
    # analysis fed it reports as before
    N, _, survivors = _survivor_pairs(4)
    for (c1, c2), (_, _, ends) in survivors.items():
        pre, hulls = _ring_orbit(3, N, frozenset((*c1, *c2)))
        assert ends == _ends_orbit(3, N, c1, c2) == (pre, [tuple(sorted(h)) for h in hulls])
        assert _compgap_fields(_compgap_ring(3, N, ends)) == _compgap_ring_oracle(3, N, c1, c2)
    assert len(survivors) == 122


def test_the_lockstep_returns_the_ascending_ends_orbit():
    # on the ring mod 8, the ends 0 < 1/8 < 3/8 < 1/2 triple to 0, 3/8, 1/8,
    # 1/2, out of order, and 1/8 < 1/4 < 3/8 < 3/4 triple to 3/8, 3/4, 1/8,
    # 1/4, the same set; on the ring mod 24, 0 < 1 < 2 < 5 triple to
    # 0 < 3 < 6 < 15, then 0 < 9 < 18 < 21, which triple back to 0, 3, 6, 15
    assert _ends_orbit(3, 8, (0, 3), (1, 4)) is None
    assert _ends_orbit(3, 8, (2, 6), (1, 3)) == (0, [(1, 2, 3, 6)])
    assert _ends_orbit(3, 24, (0, 2), (1, 5)) == (1, [(0, 1, 2, 5), (0, 3, 6, 15), (0, 9, 18, 21)])


@pytest.mark.parametrize("d", [True, 2.0, 1])
def test_a_bad_degree_keeps_its_message(d):
    for check in (order_preserving_accordions, compgap_analyze):
        with pytest.raises(ValueError) as info:
            check(d, C(1, 8, 3, 8), C(1, 4, 3, 4))
        assert str(info.value) == f"degree must be an integer >= 2, got {d!r}"


def test_the_entry_decides_degree_and_linkage_inline():
    # an int degree >= 2 and a linked pair call neither check, and an int
    # subclass that the degree check accepts is decided as its value
    class Three(int):
        pass

    refuse = mock.Mock(side_effect=AssertionError("called"))
    with mock.patch.object(_ACCORDION, "_check_degree", refuse), mock.patch.object(_ACCORDION, "linked", refuse):
        assert order_preserving_accordions(3, C(1, 8, 3, 8), C(1, 4, 3, 4))
        assert not order_preserving_accordions(3, C(0, 1, 3, 8), C(1, 8, 1, 2))
    assert order_preserving_accordions(Three(3), C(1, 8, 3, 8), C(1, 4, 3, 4))


# unlinked pairs: sharing an endpoint, one degenerate chord, equal chords
_UNLINKED = [(C(1, 8, 3, 8), C(1, 8, 3, 4)), (C(1, 4, 1, 4), C(1, 8, 3, 8)), (C(1, 8, 3, 8), C(1, 8, 3, 8))]


@pytest.mark.parametrize("l1, l2", _UNLINKED)
def test_an_unlinked_pair_is_refused_with_its_message(l1, l2):
    for a, b in ((l1, l2), (l2, l1)):
        with pytest.raises(ValueError) as info:
            order_preserving_accordions(3, a, b)
        assert str(info.value) == "order preserving accordions are defined for linked chords"
        with pytest.raises(ValueError) as info:
            compgap_analyze(3, a, b)
        assert str(info.value) == "hull analysis needs linked chords"


@pytest.mark.parametrize("l1, l2", _UNLINKED)
def test_a_bad_degree_is_refused_before_linkage(l1, l2):
    for check in (order_preserving_accordions, compgap_analyze):
        with pytest.raises(ValueError) as info:
            check(1, l1, l2)
        assert str(info.value) == "degree must be an integer >= 2, got 1"


@pytest.mark.parametrize("d", [1, 0, 2.0])
def test_order_preserving_accordions_rejects_bad_degree(d):
    with pytest.raises(ValueError):
        order_preserving_accordions(d, C(1, 8, 3, 8), C(1, 4, 3, 4))


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
    assert order_preserving_accordions(3, axis, partner) is False


def test_period_six_strip_pair_is_unlinked():
    # regression fixture: the wide-strip sibling never crosses the original
    # leaf, so their accordion is trivial and order preservation is undefined
    M = Chord(A(1026, 2184), A(1737, 2184))
    Nprime = Chord(A(193, 2184), A(842, 2184))
    assert not linked(M, Nprime)
    with pytest.raises(ValueError):
        order_preserving_accordions(3, M, Nprime)


def _accordion_oracle(axis, other, d=None):
    """``accordion`` as it read following orbits as Angles, with
    ``orbit_classify`` and ``sigma_power`` (arguments assumed valid), as
    the tuple of its report's fields."""
    if isinstance(other, FiniteLamination):
        chords = other.leaves
    else:
        chords = [c for c in orbit_classify(d, other).orbit if not c.degenerate]
    members = [axis] + [c for c in chords if linked(c, axis)]
    touching = [
        c
        for c in chords
        if c != axis and not linked(c, axis) and set(c.endpoints) & set(axis.endpoints)
    ]
    crossing = len(members) - 1
    if crossing == 0:
        classification = SINGLE
    elif isinstance(other, FiniteLamination):
        classification = None
    elif crossing == 1:
        partner = members[1]
        pinfo = orbit_classify(d, partner)
        if pinfo.preperiod > 0:
            classification = WANDERING
        elif sigma_power(d, partner.a, pinfo.period) == partner.b:
            classification = TWO_LEAF_FLIP
        else:
            classification = TWO_LEAF_DISJOINT
    elif crossing == 2:
        classification = THREE_LEAF
    else:
        classification = PERIODIC_GAP
    return tuple(members), tuple(touching), classification


def _fields(rep):
    return rep.members, rep.touching, rep.classification


def _compgap_oracle(d, l1, l2):
    """``compgap_analyze`` past its checks as it read following the hull,
    vertex and vertex-set orbits as Angles with ``orbit_classify``."""
    info = orbit_classify(d, l1.endpoints + l2.endpoints)
    hulls = [tuple(sorted(h)) for h in info.orbit]
    preperiod, period = info.preperiod, info.period
    total = preperiod + 2 * period

    def hull_at(i):
        if i < len(hulls):
            return hulls[i]
        return hulls[preperiod + (i - preperiod) % period]

    r = next(
        i
        for i in range(preperiod + period)
        if any(_interiors_intersect(hull_at(i), hull_at(j)) for j in range(i + 1, total + 1))
    )
    base = hull_at(r)
    step = next(t for t in range(1, total + 1) if _interiors_intersect(base, hull_at(r + t)))
    vertices = tuple(sorted(set().union(*orbit_classify(d**step, base).orbit)))
    infos = {v: orbit_classify(d, v) for v in vertices}
    groups = []
    remaining = set(vertices)
    while remaining:
        v = min(remaining)
        info = infos[v]
        members = sorted((set(info.orbit[info.preperiod :]) & remaining) | {v})
        groups.append(tuple(members))
        remaining -= set(members)
    periods = tuple(infos[g[0]].period for g in groups)
    vop = orbit_classify(d, vertices, max_steps=256)
    remap_identity = None
    if vop is not None and vop.preperiod == 0:
        remap_identity = all(
            info.preperiod == 0 and vop.period % info.period == 0 for info in infos.values()
        )
    return PERIODIC_GAP, r, step, vertices, tuple(groups), periods, remap_identity


def _compgap_fields(rep):
    fields = ("classification", "r", "step", "vertices", "orbit_groups", "periods", "remap_is_identity")
    return tuple(getattr(rep, f) for f in fields)


# small universes with periodic, preperiodic and critical chords for each degree
_SMALL = {2: (5, 6), 3: (8, 3), 4: (5, 3, 6)}


@pytest.mark.parametrize("d", sorted(_SMALL))
def test_accordion_on_the_ring_agrees_with_the_angle_oracle(d):
    pts = sorted({A(n, q) for q in _SMALL[d] for n in range(q)})
    chords = [Chord(a, b) for i, a in enumerate(pts) for b in pts[i + 1 :]]
    seen = set()
    for axis, other in itertools.product(chords, repeat=2):
        got = _fields(accordion(axis, other, d=d))
        assert got == _accordion_oracle(axis, other, d), (axis, other)
        seen.add(got[2])
    lams = [lam for lam in _fixture_laminations() if lam.degree == d]
    lams.append(FiniteLamination(d, chords[::7]))
    for lam, axis in itertools.product(lams, chords):
        got = _fields(accordion(axis, lam))
        assert got == _accordion_oracle(axis, lam), (axis, lam)
        seen.add(got[2])
    assert {SINGLE, WANDERING, TWO_LEAF_FLIP, TWO_LEAF_DISJOINT, THREE_LEAF, None} <= seen


def test_compgap_survivors_agree_with_the_angle_oracles():
    # the accordions both ways and the hull analysis of every compgap
    # survivor, on the ring and through the public entry point
    N, _, survivors = _survivor_pairs(4)
    cases = set()
    for (c1, c2), (_, _, ends) in survivors.items():
        l1, l2 = _chord(N, c1), _chord(N, c2)
        for axis, other in ((l1, l2), (l2, l1)):
            got = _fields(accordion(axis, other, d=3))
            assert got == _accordion_oracle(axis, other, d=3)
            cases.add(got[2])
        expected = _compgap_oracle(3, l1, l2)
        assert _compgap_fields(_compgap_ring(3, N, ends)) == expected
        assert _compgap_fields(compgap_analyze(3, l1, l2)) == expected
    assert len(survivors) == 122 and {TWO_LEAF_FLIP, THREE_LEAF} <= cases


def test_compgap_hulls_have_four_points():
    # _interiors_intersect reads a hull holding another as the two being
    # equal: order preservation keeps the four ends of a survivor distinct
    N, _, survivors = _survivor_pairs(4)
    sizes = {len(h) for c1, c2 in survivors for h in _ring_orbit(3, N, frozenset((*c1, *c2)))[1]}
    assert len(survivors) == 122 and sizes == {4}
