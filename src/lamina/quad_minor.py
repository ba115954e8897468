"""Quadratic machinery: critical strips, the minor test, QML enumeration.

A chord of length < 1/3 determines a *critical strip*, the region between
its two majors (a degenerate minor's diameter is its one bound).  A strip
is its two bounding chords; ``meets_open`` compares the six ends of a
chord and both bounds as ints on one ring, as sorted pairs, as
:func:`linked` decides a crossing.  A chord belongs to the quadratic minor
lamination exactly when no forward image under doubling meets the open
strip, and ``first_entry`` follows that orbit with ``_ring_orbit`` on the
same ring.  The majors of a minor x/N y/N are the long opposite sides of
the quadrilateral of its four distinct halving preimages x, x + N, y and
y + N on the ring mod 2N, whose sides compare as ints; its Angles and
Chords are formed once, at the end, and ``build_from_minor`` hands its
edges and spike to the build as ints.
``minor_of`` reads leaf lengths on the lamination's ring.  Nothing here
does ``Fraction`` arithmetic or imports ``fractions``.

``qml_enumerate`` draws the QML chords up to a period bound by Lavaurs'
algorithm alone, swept on one ring mod L = lcm(2^k - 1 : k <= bound): the
angles of exact period k come from the necklace rule, events sort as ints,
a chord is kept when 3 * min(b - a, L - b + a) < L, and only the output
becomes Chords.  It refuses a bound that is no int from 1 to 12, bools
included, and checks nothing it draws: the ``qml-unlinked`` suite and the
tests strip-test its chords.
"""

from __future__ import annotations

from math import lcm

from .circle import THIRD, _at, _check_int, _record, _ring, preimages
from .chords import Chord, _ring_image, _sides, chord_image, disjoint
from .lamination import FiniteLamination, _chord, _ring_orbit, pullback_build

__all__ = [
    "Strip",
    "critical_strip",
    "strip_between",
    "StripVerdict",
    "strip_test",
    "MinorReport",
    "minor_of",
    "qml_enumerate",
    "major_quadrilateral",
    "build_from_minor",
]


def _meets_open(s0: int, s1: int, t0: int, t1: int, a: int, b: int) -> bool:
    """Does the sorted pair a b meet the open strip between the disjoint
    sorted pairs s0 s1 and t0 t1, ints on one ring?  Yes when it crosses a
    bound, or when it is no bound and each end is an end of a bound or on
    the side of each bound that faces the other.  A point never meets it.
    """
    if a == b or (a == s0 and b == s1) or (a == t0 and b == t1):
        return False
    if a < s0 < b < s1 or s0 < a < s1 < b or a < t0 < b < t1 or t0 < a < t1 < b:
        return True
    # the side of s facing t is the one holding t's ends, and vice versa
    t_in_s, s_in_t = s0 < t0 < s1, t0 < s0 < t1
    for p in (a, b):
        if not (p == s0 or p == s1 or p == t0 or p == t1 or ((s0 < p < s1) == t_in_s and (t0 < p < t1) == s_in_t)):
            return False
    return True


@_record("bound1", "bound2", degenerate=False, frozen=True)
class Strip:
    """Closed region bounded by two disjoint chords and the two circle arcs
    between them; ``degenerate`` strips (a single diameter) have no interior."""

    def meets_open(self, c: Chord) -> bool:
        """Does the chord meet the interior of the strip?"""
        return not self.degenerate and _meets_open(*_ring(self.bound1 + self.bound2 + c)[1])

    def first_entry(self, c: Chord):
        """(n, sigma_2^n(c)) for the first doubling image of ``c`` meeting
        the open strip, or None once the orbit closes without one."""
        if self.degenerate:
            return None
        N, (s0, s1, t0, t1, a, b) = _ring(self.bound1 + self.bound2 + c)
        pre, orbit = _ring_orbit(2, N, (a, b))
        # the images 1 .. closes_at; the last one is the first repeat
        for n, image in enumerate(orbit[1:] + orbit[pre : pre + 1], 1):
            if _meets_open(s0, s1, t0, t1, *image):
                return n, _chord(N, image)
        return None


def strip_between(c1: Chord, c2: Chord) -> Strip:
    """The strip between two disjoint nondegenerate chords (no shared
    endpoints, no crossing)."""
    if c1.degenerate or c2.degenerate:
        raise ValueError("strip_between needs nondegenerate chords")
    if not disjoint(c1, c2):
        raise ValueError("strip_between needs disjoint chords")
    return Strip(c1, c2)


def critical_strip(c: Chord) -> Strip:
    """The strip between the two majors of a chord of length < 1/3 (strict):
    the hull of the two halving preimages of its short closed arc.  A
    degenerate chord collapses the strip to a diameter with empty
    interior."""
    if c.degenerate:
        half = Chord(*preimages(2, c.a))
        return Strip(half, half, True)
    if c.length >= THIRD:
        raise ValueError(f"critical strip needs length < 1/3, got {c.length}")
    # the majors are opposite sides of a quadrilateral, so disjoint
    return Strip(*major_quadrilateral(c)[2])


@_record(
    "passes",
    "fail_index",             # n with sigma^n meeting the open strip, or None
    "fail_chord",             # that image, a Chord, or None
    frozen=True,
)
class StripVerdict:
    pass


def strip_test(c: Chord) -> StripVerdict:
    """Iterate angle doubling on the chord and test every image against the
    open critical strip of ``c``.  Exact: a rational chord orbit closes."""
    hit = critical_strip(c).first_entry(c)
    if hit is None:
        return StripVerdict(True, None, None)
    return StripVerdict(False, *hit)


@_record("minor", "majors", frozen=True)
class MinorReport:
    pass


def minor_of(lam: FiniteLamination) -> MinorReport:
    """The image of a longest leaf, plus the major pair (or single critical
    major).  Raises when two longest leaves disagree about their image."""
    if lam.degree != 2:
        raise ValueError("minors are defined for degree-2 laminations")
    if not lam:
        raise ValueError("empty lamination has no minor")
    # on the lamination's ring a leaf's length is b - a or N - (b - a)
    N, pairs = lam.ring
    lengths = [t if t + t <= N else N - t for t in [b - a for a, b in pairs]]
    top = max(lengths)
    longest = [p for p, length in zip(pairs, lengths) if length == top]
    images = {_ring_image(2, N, p) for p in longest}
    if len(images) != 1:
        raise ValueError(f"longest leaves have distinct images: {sorted(str(_chord(N, p)) for p in images)}")
    majors = tuple(_chord(N, p) for p in longest)
    return MinorReport(minor=chord_image(2, majors[0]), majors=majors)


def _period_points(k: int) -> list[int]:
    """The j mod q = 2^k - 1, ascending, whose angle j/q has exact period k
    under doubling: j*2^m != j (mod q) for each proper divisor m of k (the
    necklace rule), that is, q/(2^m - 1) does not divide j."""
    q = 2**k - 1
    short = {j for m in range(1, k) if k % m == 0 for j in range(0, q, q // (2**m - 1))}
    return [j for j in range(q) if j not in short]


def qml_enumerate(period_bound: int) -> list[Chord]:
    """The chords of QML with both endpoints of period <= period_bound and
    length < 1/3, canonically sorted.

    Lavaurs' algorithm draws them period by period: for k = 2..period_bound
    the angles of exact period k are swept together with the endpoints of
    the chords drawn so far, which places each angle in a region (the
    innermost drawn chord around it, or the outer region); within each
    region the new angles are joined in consecutive pairs in angle order.
    The period-2 chord 1/3 2/3 stays drawn during the sweep and is dropped
    at the end with every other chord of length >= 1/3.
    """
    _check_int("period bound", period_bound, 1, 12)
    L = lcm(*(2**k - 1 for k in range(1, period_bound + 1)))
    drawn = {}  # a -> b for each drawn chord, its sorted pair on the ring mod L
    for k in range(2, period_bound + 1):
        step = L // (2**k - 1)
        new = {j * step for j in _period_points(k)}
        stack, regions = [], {}
        # every endpoint is a distinct point: each angle is drawn at most once
        for x in sorted([*drawn, *drawn.values(), *new]):
            if x in new:
                regions.setdefault(stack[-1] if stack else None, []).append(x)
            elif x in drawn:
                stack.append(x)
            else:
                stack.pop()
        for xs in regions.values():
            drawn.update(zip(xs[::2], xs[1::2]))
    # a chord's length is min(b - a, L - b + a), and a sorted pair is a Chord as it stands
    pairs = sorted((a, b) for a, b in drawn.items() if 3 * min(b - a, L - b + a) < L)
    return [tuple.__new__(Chord, (_at(L, a), _at(L, b))) for a, b in pairs]


def major_quadrilateral(minor: Chord):
    """The doubling-preimage quadrilateral of a nondegenerate minor: its
    vertices, its four edges in circular order, and the major pair (the two
    long opposite edges)."""
    if minor.degenerate:
        raise ValueError("degenerate minor has a critical major, not a quadrilateral")
    N, (a, b) = _ring(minor)
    M, xs = 2 * N, sorted((a, a + N, b, b + N))
    # a side's length on the ring is the shorter way round
    lengths = [min(y - x, M - y + x) for x, y in _sides(xs)]
    verts = [_at(M, x) for x in xs]
    edges = [tuple.__new__(Chord, e) for e in _sides(verts)]  # ascending vertices give sorted sides
    majors = (edges[0], edges[2]) if lengths[0] >= lengths[1] else (edges[1], edges[3])
    return verts, edges, majors


def build_from_minor(minor: Chord, depth: int) -> FiniteLamination:
    """Pullback lamination generated by the major data of a minor chord:
    its quadrilateral's edges, and the spike joining the first and third
    vertex as sector.  Raises ValueError for a minor longer than 1/3."""
    if minor.degenerate:
        return pullback_build(2, [critical_strip(minor).bound1], depth)
    N, (a, b) = _ring(minor)
    if 3 * min(b - a, N - b + a) > N:
        raise ValueError(f"a quadratic minor is at most 1/3 long, got length {minor.length}")
    xs = sorted((a, a + N, b, b + N))
    return pullback_build(2, _sides(xs), depth, sectors=[(xs[0], xs[2])], N=2 * N)
