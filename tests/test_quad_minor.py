from fractions import Fraction

import pytest

import lamina.quad_minor as quad_minor
from lamina.circle import THIRD, Angle, shortest_dist
from lamina.chords import Chord, chord_image, linked
from lamina.lamination import FiniteLamination, check_unlinked
from lamina.quad_minor import (
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


def strip_test_enumeration(period_bound):
    """Oracle for qml_enumerate: every pair of angles of period <=
    period_bound at distance in (0, 1/3) that passes the strip test.
    Tests O(A^2) pairs, so it is only run at small bounds."""
    angles = sorted({A(j, 2**k - 1) for k in range(1, period_bound + 1) for j in range(2**k - 1)})
    return sorted(
        Chord(a, b)
        for i, a in enumerate(angles)
        for b in angles[i + 1 :]
        if 0 < shortest_dist(a, b) < THIRD and strip_test(Chord(a, b)).passes
    )


def test_critical_strip_construction():
    s = critical_strip(C(1, 7, 2, 7))
    assert {s.bound1, s.bound2} == {C(1, 7, 4, 7), C(1, 14, 9, 14)}
    assert s.bound1.length == s.bound2.length
    arcs = {(a.start, a.end) for a in (s.arc1, s.arc2)}
    assert arcs == {(A(1, 14), A(1, 7)), (A(4, 7), A(9, 14))}


def test_critical_strip_degenerate_and_boundary():
    s = critical_strip(Chord(A(0), A(0)))
    assert s.degenerate
    assert not s.meets_open(C(1, 4, 3, 4))
    with pytest.raises(ValueError):
        critical_strip(C(1, 3, 2, 3))


@pytest.mark.parametrize("a", [A(0), A(1, 3), A(2, 7), A(5, 12)])
def test_degenerate_strip_is_a_diameter_with_no_arcs_that_meets_nothing(a):
    # only a degenerate strip has no arcs, and meets_open returns before it
    # would read them
    s = critical_strip(Chord(a, a))
    assert s.degenerate and s.arc1 is None and s.arc2 is None
    assert s.bound1 == s.bound2 == Chord(A(a / 2), A(a / 2 + Fraction(1, 2)))
    for c in (C(1, 4, 3, 4), s.bound1, C(1, 9, 2, 9), Chord(A(a / 2), A(a / 2 + Fraction(1, 3)))):
        assert not s.meets_open(c)
    # strips with interior have both arcs
    for strip in (critical_strip(C(1, 7, 2, 7)), strip_between(C(0, 1, 1, 2), C(1, 8, 3, 8))):
        assert not strip.degenerate and strip.arc1 is not None and strip.arc2 is not None


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


def _first_entry_oracle(strip, c):
    """Strip.first_entry's former loop: image after image, with a seen set,
    until one meets the open strip or repeats."""
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


def test_first_entry_agrees_with_seen_loop_oracle():
    # every chord, degenerate ones included, with endpoints of period <= 6
    # under doubling that has a critical strip
    points = sorted({A(j, 2**k - 1) for k in range(1, 7) for j in range(2**k - 1)})
    chords = [Chord(a, b) for i, a in enumerate(points) for b in points[i:]]
    chords = [c for c in chords if c.length < THIRD]
    hits = 0
    for c in chords:
        strip = critical_strip(c)
        got = strip.first_entry(c)
        assert got == _first_entry_oracle(strip, c), c
        hits += got is not None
    assert 0 < hits < len(chords)


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
    monkeypatch.setattr(quad_minor, "strip_test", rigged)
    with pytest.raises(AssertionError, match="1/7 2/7"):
        qml_enumerate(3)
    res = run_suite("qml-unlinked", 0, 1)
    assert not res.passed
    assert any("1/7 2/7" in f for f in res.failures)


def test_major_quadrilateral():
    verts, edges, majors = major_quadrilateral(C(1, 7, 2, 7))
    assert verts == [A(1, 14), A(1, 7), A(4, 7), A(9, 14)]
    assert set(majors) == {C(1, 7, 4, 7), C(9, 14, 1, 14)}
    assert all(chord_image(2, m) == C(1, 7, 2, 7) for m in majors)


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
    arcs = {(a.start, a.end) for a in (strip.arc1, strip.arc2)}
    assert arcs == {(A(3, 5), A(9, 10)), (A(1, 10), A(2, 5))}
    assert strip.meets_open(C(1, 2, 19, 20))   # crosses both chords
    assert strip.meets_open(C(1, 8, 3, 10))    # inside one between-arc
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
