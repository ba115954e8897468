import hashlib
import itertools
from fractions import Fraction
from math import gcd

import pytest

import lamina.quad_minor as quad_minor
import lamina.suites as suites
from lamina.circle import THIRD, Angle, Arc, ccw_offset, preimages, shortest_dist
from lamina.chords import Chord, chord_image, disjoint, linked
from lamina.formats import lamination_text
from lamina.lamination import (
    FiniteLamination,
    _ring_orbit,
    check_invariance,
    check_unlinked,
    orbit_classify,
    pullback_build,
)
from lamina.quad_minor import (
    Strip,
    StripVerdict,
    build_from_minor,
    critical_strip,
    major_quadrilateral,
    minor_of,
    qml_enumerate,
    strip_between,
    strip_test,
)
from lamina.suites import run_suite

A = Angle


def C(p, q, r, s):
    return Chord(A(p, q), A(r, s))


class _OracleStrip:
    """A strip as two bounding chords plus a second copy of the region, its
    two closed between-arcs, tested with ``Arc.contains``: the independent
    oracle for ``Strip.meets_open``, which only compares endpoints."""

    def __init__(self, bounds, arcs):
        self.bounds, self.arcs = bounds, arcs

    @classmethod
    def between(cls, c1, c2):
        # both endpoints of c2 lie in one arc of c1; walk that arc positively
        # from its start and meet the nearer endpoint of c2 first
        start = c1.a if c1.a < c2.a < c1.b else c1.b
        end = c1.b if start == c1.a else c1.a
        x, y = sorted(c2.endpoints, key=lambda p: ccw_offset(start, p))
        return cls((c1, c2), (Arc(start, x), Arc(y, end)))

    @classmethod
    def critical(cls, c):
        """The halving preimages of the short arc u -> v of ``c``; a
        degenerate chord gives a diameter with no arcs."""
        if c.degenerate:
            half = Chord(*preimages(2, c.a))
            return cls((half,), None)
        u, v = (c.a, c.b) if ccw_offset(c.a, c.b) == c.length else (c.b, c.a)
        (u2, u2h), (v2, v2h) = preimages(2, u), preimages(2, v)
        if v < u:
            # the short arc passes 0: u/2 runs to (v + 1)/2, not to v/2
            v2, v2h = v2h, v2
        return cls((Chord(v2, u2h), Chord(v2h, u2)), (Arc(u2, v2), Arc(u2h, v2h)))

    def meets_open(self, c):
        if self.arcs is None or c.degenerate:
            return False
        if any(linked(c, b) for b in self.bounds):
            return True
        if c in self.bounds:
            return False
        return all(any(arc.contains(p, closed=True) for arc in self.arcs) for p in c.endpoints)


def _first_entry_oracle(strip, c):
    """Strip.first_entry's former loop: image after image, with a seen set,
    until one meets the open oracle strip or repeats."""
    seen = {c}
    current = c
    n = 0
    while True:
        n += 1
        current = chord_image(2, current)
        if strip.meets_open(current):
            return n, current
        if current in seen:
            return None
        seen.add(current)


def strip_test_enumeration(period_bound):
    """Oracle for qml_enumerate: every pair of angles of period <=
    period_bound at distance in (0, 1/3) that passes the oracle strip test.
    Tests O(A^2) pairs, so it is only run at small bounds."""
    angles = sorted({A(j, 2**k - 1) for k in range(1, period_bound + 1) for j in range(2**k - 1)})
    return sorted(
        Chord(a, b)
        for i, a in enumerate(angles)
        for b in angles[i + 1 :]
        if 0 < shortest_dist(a, b) < THIRD
        and _first_entry_oracle(_OracleStrip.critical(Chord(a, b)), Chord(a, b)) is None
    )


def _periodic_points(max_period):
    return sorted({A(j, 2**k - 1) for k in range(1, max_period + 1) for j in range(2**k - 1)})


def test_critical_strip_construction():
    s = critical_strip(C(1, 7, 2, 7))
    assert Strip.__match_args__ == ("bound1", "bound2", "degenerate")
    assert {s.bound1, s.bound2} == {C(1, 7, 4, 7), C(1, 14, 9, 14)}
    assert s.bound1.length == s.bound2.length
    # inside each between-arc, 1/14 .. 1/7 and 4/7 .. 9/14
    assert s.meets_open(C(1, 12, 1, 8)) and s.meets_open(C(3, 5, 5, 8))
    # behind each bound
    assert not s.meets_open(C(1, 5, 1, 2)) and not s.meets_open(C(3, 4, 1, 20))


def _wrapping_chords():
    # the three chords whose short arc passes 0, then every chord of length
    # < 1/3 on the points of period <= 6
    points = _periodic_points(6)
    chords = [Chord(a, b) for i, a in enumerate(points) for b in points[i + 1 :]]
    named = [C(1, 31, 30, 31), C(1, 7, 6, 7), C(0, 1, 21, 31)]
    return named + [c for c in chords if c.length < THIRD]


def test_critical_strip_is_bounded_by_the_majors():
    # a chord whose short arc passes 0 must not get the two short sides of
    # its preimage quadrilateral as bounds
    for c in _wrapping_chords():
        s = critical_strip(c)
        assert {s.bound1, s.bound2} == set(major_quadrilateral(c)[2]), c
        for bound in (s.bound1, s.bound2):
            assert chord_image(2, bound) == c
            assert bound.length == (1 - c.length) / 2, c


def test_meets_open_agrees_with_arc_oracle():
    # every strip between two disjoint chords on the points of period <= 3,
    # in both orders, against every chord on the points of period <= 4,
    # degenerate ones included
    small = list(itertools.combinations(_periodic_points(3), 2))
    small = [Chord(a, b) for a, b in small]
    points = _periodic_points(4)
    probes = [Chord(a, b) for i, a in enumerate(points) for b in points[i:]]
    pairs = [(s, t) for s, t in itertools.permutations(small, 2) if disjoint(s, t)]
    assert len(pairs) > 100
    for s, t in pairs:
        strip, oracle = strip_between(s, t), _OracleStrip.between(s, t)
        for c in probes:
            assert strip.meets_open(c) == oracle.meets_open(c), (s, t, c)


def test_critical_strip_degenerate_and_boundary():
    s = critical_strip(Chord(A(0), A(0)))
    assert s.degenerate
    assert not s.meets_open(C(1, 4, 3, 4))
    with pytest.raises(ValueError):
        critical_strip(C(1, 3, 2, 3))


@pytest.mark.parametrize("a", [A(0), A(1, 3), A(2, 7), A(5, 12)])
def test_degenerate_strip_is_a_diameter_with_no_arcs_that_meets_nothing(a):
    # a degenerate strip is one diameter twice, and meets nothing
    s = critical_strip(Chord(a, a))
    assert s.degenerate
    assert s.bound1 == s.bound2 == Chord(A(a / 2), A(a / 2 + Fraction(1, 2)))
    for c in (C(1, 4, 3, 4), s.bound1, C(1, 9, 2, 9), Chord(A(a / 2), A(a / 2 + Fraction(1, 3)))):
        assert not s.meets_open(c)
    assert s.first_entry(C(1, 7, 2, 7)) is None
    # strips with interior meet chords inside each between-arc, and not
    # those behind each bound
    strip = critical_strip(C(1, 7, 2, 7))
    assert not strip.degenerate
    assert strip.meets_open(C(1, 12, 1, 8)) and strip.meets_open(C(3, 5, 5, 8))
    assert not strip.meets_open(C(1, 5, 1, 2)) and not strip.meets_open(C(3, 4, 1, 20))
    # between 0 1/2 and 1/8 3/8 the arcs are 0 .. 1/8 and 3/8 .. 1/2
    strip = strip_between(C(0, 1, 1, 2), C(1, 8, 3, 8))
    assert not strip.degenerate
    assert strip.meets_open(C(1, 20, 1, 10)) and strip.meets_open(C(2, 5, 9, 20))
    assert not strip.meets_open(C(1, 5, 3, 10)) and not strip.meets_open(C(3, 5, 4, 5))


def test_strip_membership():
    s = critical_strip(C(1, 7, 2, 7))
    assert s.meets_open(C(1, 14, 4, 7))  # strip diagonal
    assert not s.meets_open(C(1, 7, 4, 7))  # the boundary chord itself
    assert s.meets_open(C(1, 10, 1, 2))  # crossing one boundary chord
    assert not s.meets_open(C(2, 7, 1, 2))  # entirely outside


def test_strip_test_examples():
    good = strip_test(C(1, 7, 2, 7))
    assert good.passes
    bad = strip_test(C(2, 7, 4, 7))
    assert not bad.passes
    assert bad.fail_index is not None
    assert strip_test(Chord(A(1, 5), A(1, 5))).passes


def test_first_entry_agrees_with_seen_loop_oracle():
    # every chord, degenerate ones included, with endpoints of period <= 6
    # under doubling that has a critical strip
    points = _periodic_points(6)
    chords = [Chord(a, b) for i, a in enumerate(points) for b in points[i:]]
    chords = [c for c in chords if c.length < THIRD]
    hits = 0
    for c in chords:
        got = critical_strip(c).first_entry(c)
        assert got == _first_entry_oracle(_OracleStrip.critical(c), c), c
        hits += got is not None
    assert 0 < hits < len(chords)
    # the strips between two majors, as the qml-unlinked suite reads them,
    # against the first image of each major and of every chord above
    for m in qml_enumerate(5):
        majors = major_quadrilateral(m)[2]
        strip, oracle = strip_between(*majors), _OracleStrip.between(*majors)
        for c in majors + tuple(chords[::7]):
            assert strip.first_entry(c) == _first_entry_oracle(oracle, c), (m, c)


def test_minor_of_examples():
    rabbit = build_from_minor(C(1, 7, 2, 7), 4)
    rep = minor_of(rabbit)
    assert rep.minor == C(1, 7, 2, 7)
    assert set(rep.majors) == {C(1, 14, 9, 14), C(1, 7, 4, 7)}

    dia = FiniteLamination(2, [C(0, 1, 1, 2)])
    rep2 = minor_of(dia)
    assert rep2.minor.degenerate and rep2.majors == (C(0, 1, 1, 2),)

    basilica = build_from_minor(C(1, 3, 2, 3), 4)
    assert minor_of(basilica).minor == C(1, 3, 2, 3)


def test_minor_of_rejects_ambiguity():
    # two longest leaves with distinct doubling images
    lam = FiniteLamination(2, [C(0, 1, 1, 4), C(1, 3, 7, 12)])
    with pytest.raises(ValueError):
        minor_of(lam)


def test_qml_enumerate_small():
    q3 = qml_enumerate(3)
    assert C(1, 7, 2, 7) in q3
    assert C(2, 7, 4, 7) not in q3
    assert len(q3) == 3  # the three period-3 minor chords
    q4 = qml_enumerate(4)
    assert all(c in q4 for c in q3)
    for i, c1 in enumerate(q4):
        for c2 in q4[i + 1 :]:
            assert not linked(c1, c2)


@pytest.mark.parametrize("n", range(1, 7))
def test_lavaurs_matches_strip_test_enumeration(n):
    assert qml_enumerate(n) == strip_test_enumeration(n)


def test_strip_test_failure_raises(monkeypatch):
    real = quad_minor.strip_test
    rigged = lambda c: StripVerdict(False, 1, c) if c == C(1, 7, 2, 7) else real(c)
    monkeypatch.setattr(suites, "strip_test", rigged)
    res = run_suite("qml-unlinked", 0, 1)
    assert not res.passed
    assert "Lavaurs chord 1/7 2/7 fails the strip test" in res.failures
    assert any("1/7 2/7" in f for f in res.failures)


def test_crossing_enumeration_fails_the_suite(monkeypatch):
    pair = (C(1, 7, 2, 7), C(3, 15, 4, 15))
    monkeypatch.setattr(suites, "check_unlinked", lambda lam: (False, pair))
    res = run_suite("qml-unlinked", 0, 1)
    assert not res.passed
    assert res.failures == ["enumerated chords cross: 1/7 2/7 x 1/5 4/15"]


def test_every_lavaurs_chord_passes_the_strip_test():
    # qml_enumerate draws by Lavaurs' algorithm alone and refuses periods
    # above 12; every smaller bound returns a subset (see the next test),
    # so this covers every chord it can return
    q = qml_enumerate(12)
    assert len(q) == 4014
    failing = [c for c in q if not strip_test(c).passes]
    assert failing == []
    assert check_unlinked(FiniteLamination(2, q)) == (True, None)


def test_smaller_bounds_are_the_short_period_chords_of_period_twelve():
    q12 = qml_enumerate(12)
    period = {c: orbit_classify(2, c.a).period for c in q12}
    for n in range(1, 12):
        assert qml_enumerate(n) == [c for c in q12 if period[c] <= n], n


def test_period_twelve_enumeration_is_pinned():
    text = lamination_text(FiniteLamination(2, qml_enumerate(12)))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "07efd11d1e478a128e3f2e987cc88cfd78d0c21ac16ec6e0e46998cba4185129"


def test_period_points_agree_with_the_ring_orbit():
    # the necklace rule against the cycle length of each j's doubling orbit
    for k in range(1, 13):
        q = 2**k - 1
        cycle = {}
        for j in range(q):
            pre, orbit = _ring_orbit(2, q, j)
            cycle[j] = len(orbit) - pre
        assert quad_minor._period_points(k) == [j for j in range(q) if cycle[j] == k], k


@pytest.mark.parametrize("n", range(1, 13))
def test_lavaurs_chords_are_the_checked_chords(n):
    # the sweep forms its Chords unchecked, from sorted ring pairs
    for c in qml_enumerate(n):
        assert type(c) is Chord and c == Chord(c.a, c.b)
        for x in c:
            assert type(x) is Angle and gcd(x.numerator, x.denominator) == 1
        assert Chord.parse(str(c)) == c


@pytest.mark.parametrize("bound", [True, False, 7.0, Fraction(7), "7", None, 0, 13, -1])
def test_qml_enumerate_refuses_a_bound_that_is_not_an_int_from_1_to_12(bound):
    with pytest.raises(ValueError, match="period bound must be an integer between 1 and 12"):
        qml_enumerate(bound)


def test_major_quadrilateral():
    verts, edges, majors = major_quadrilateral(C(1, 7, 2, 7))
    assert verts == [A(1, 14), A(1, 7), A(4, 7), A(9, 14)]
    assert set(majors) == {C(1, 7, 4, 7), C(9, 14, 1, 14)}
    assert all(chord_image(2, m) == C(1, 7, 2, 7) for m in majors)


def _major_quadrilateral_oracle(minor):
    """major_quadrilateral on Angles: the four halving preimages, sorted,
    their sides in circular order, and the pair of opposite sides whose
    first is at least as long as the side after it."""
    verts = sorted(preimages(2, minor.a) + preimages(2, minor.b))
    edges = [Chord(verts[i], verts[(i + 1) % 4]) for i in range(4)]
    majors = (edges[0], edges[2]) if edges[0].length >= edges[1].length else (edges[1], edges[3])
    return verts, edges, majors


def test_major_quadrilateral_agrees_with_preimage_oracle():
    # the chords whose short arc passes 0, every chord of length < 1/3 on
    # the points of period <= 6, every chord on the points of period <= 4
    # of any length, 1/3 and over included, and two diameters, whose four
    # sides tie
    points = _periodic_points(4)
    chords = _wrapping_chords() + [Chord(a, b) for i, a in enumerate(points) for b in points[i + 1 :]]
    chords += [C(0, 1, 1, 2), C(1, 6, 2, 3)]
    for c in chords:
        got = major_quadrilateral(c)
        assert got == _major_quadrilateral_oracle(c), c
        assert all(type(v) is A for v in got[0])
        assert all(type(e) is Chord for e in [*got[1], *got[2]])


def test_build_from_minor_refuses_a_minor_longer_than_a_third():
    # no QML minor is longer than 1/3, whether or not its short arc passes 0
    for minor, length in ((C(0, 1, 1, 2), "1/2"), (C(0, 1, 2, 5), "2/5"), (C(1, 10, 7, 10), "2/5")):
        with pytest.raises(ValueError, match=f"^a quadratic minor is at most 1/3 long, got length {length}$"):
            build_from_minor(minor, 3)
    # the period-2 minor is exactly 1/3 long and stays allowed
    lam = build_from_minor(C(1, 3, 2, 3), 3)
    assert minor_of(lam).minor == C(1, 3, 2, 3)


def test_build_from_minor_hands_the_build_what_its_chords_would():
    # the quadrilateral's edges and spike, as int pairs on its ring, build
    # the lamination that the same Chords build
    for m in qml_enumerate(6):
        verts, edges, _ = major_quadrilateral(m)
        lam = build_from_minor(m, 3)
        again = pullback_build(2, edges, 3, sectors=[Chord(verts[0], verts[2])])
        assert lam == again and lam.generations == again.generations
    # on a ring the sectors are not read off the portrait
    with pytest.raises(ValueError, match="^pullback_build needs the sectors with N$"):
        pullback_build(2, [(1, 2), (2, 4)], 3, N=7)


def test_strip_between_and_central_strip_property():
    for m in qml_enumerate(4):
        lam = build_from_minor(m, 3)
        rep = minor_of(lam)
        if len(rep.majors) != 2:
            continue
        strip = strip_between(*rep.majors)
        img = rep.majors[0]
        seen = set()
        while img not in seen:
            seen.add(img)
            img = chord_image(2, img)
            assert not strip.meets_open(img)


def test_degenerate_minor_builds_from_its_critical_diameter():
    lam = build_from_minor(Chord(A(1, 3), A(1, 3)), 4)
    assert lam == pullback_build(2, [C(1, 6, 2, 3)], 4)
    assert len(lam) == 31
    assert check_unlinked(lam) == (True, None)
    assert check_invariance(lam, 4).ok


def test_builds_are_unlinked():
    for m in qml_enumerate(3):
        assert check_unlinked(build_from_minor(m, 4))[0]


def test_cubic_orbit_violates_strip_property():
    # negative control: the period-six cubic orbit's first image lands inside
    # the strip between its fourth image and that image's sibling
    from lamina.circle import Angle as A2
    from lamina.lamination import orbit_classify

    Q = lambda n: Chord(A2(n[0], 2184), A2(n[1], 2184))
    M = Q((1026, 1737))
    orbit = orbit_classify(3, M).orbit
    N = orbit[4]
    assert N == Q((114, 921))
    Nprime = Q((193, 842))
    wide = strip_between(N, Nprime)
    assert wide.meets_open(chord_image(3, M))


def test_strip_between_wrapping_chord():
    # the outer chord spans the zero point; the between-arcs must be the
    # short arcs joining the two chords, not their complements
    inner = C(2, 5, 3, 5)
    outer = C(1, 10, 9, 10)
    strip = strip_between(inner, outer)
    assert strip.meets_open(C(1, 2, 19, 20))   # crosses both chords
    assert strip.meets_open(C(1, 8, 3, 10))    # inside 1/10 .. 2/5
    assert strip.meets_open(C(13, 20, 17, 20))  # inside 3/5 .. 9/10
    assert strip.meets_open(C(1, 10, 2, 5))    # joining the ends of one arc
    assert not strip.meets_open(C(12, 25, 14, 25))  # behind the inner chord
    assert not strip.meets_open(C(19, 20, 1, 20))   # behind the outer chord


def test_enumeration_counts_match_necklace_formula():
    # independent oracle: the number of admissible period-n chords equals
    # (1/2) * sum_{d | n} mu(n/d) (2^d - 1) for n >= 3; the single period-2
    # chord has length exactly 1/3 and is excluded by the strict length rule
    from lamina.lamination import orbit_classify

    def mobius(n):
        result, m, p = 1, n, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                result = -result
            p += 1
        return -result if m > 1 else result

    def expected(n):
        total = sum(mobius(n // d) * (2**d - 1) for d in range(1, n + 1) if n % d == 0)
        return total // 2

    q = qml_enumerate(10)
    by_period = {}
    for c in q:
        n = orbit_classify(2, c.a).period
        assert orbit_classify(2, c.b).period == n
        by_period[n] = by_period.get(n, 0) + 1
    assert by_period == {n: expected(n) for n in range(3, 11)}
    assert expected(2) == 1 and 2 not in by_period
