"""Quadratic machinery: critical strips, the minor test, QML enumeration.

A chord of length < 1/3 determines a *critical strip*, the hull of the two
halving preimages of its short arc.  A chord belongs to the quadratic minor
lamination exactly when no forward image under angle doubling meets the open
strip.  The finite approximations of QML used by the CLI and suites (all
chords with periodic endpoints up to a period bound) are built by Lavaurs'
algorithm, and the strip test verifies each chord it draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .circle import THIRD, Angle, Arc, ccw_offset, preimages
from .chords import Chord, chord_image, disjoint, linked
from .lamination import FiniteLamination, _chord, check_unlinked, orbit_classify, pullback_build

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


@dataclass(frozen=True)
class Strip:
    """Closed region bounded by two disjoint chords and the two circle arcs
    between them; ``degenerate`` strips (a single diameter) have no interior."""

    bound1: Chord
    bound2: Chord
    arc1: Arc | None
    arc2: Arc | None
    degenerate: bool = False

    def meets_open(self, c: Chord) -> bool:
        """Does the chord meet the interior of the strip?

        True when it crosses a boundary chord, or when both endpoints lie on
        the closed strip arcs and the chord is not a boundary chord itself.
        Circle points never lie in the interior, so degenerate chords never
        meet it.
        """
        if self.degenerate or c.degenerate:
            return False
        if linked(c, self.bound1) or linked(c, self.bound2):
            return True
        if c == self.bound1 or c == self.bound2:
            return False
        on_arcs = all(
            (self.arc1 is not None and self.arc1.contains(p, closed=True))
            or (self.arc2 is not None and self.arc2.contains(p, closed=True))
            for p in c.endpoints
        )
        return on_arcs

    def first_entry(self, c: Chord):
        """(n, sigma_2^n(c)) for the first doubling image of ``c`` meeting
        the open strip, or None once the orbit closes without one."""
        info = orbit_classify(2, c)
        pre = info.preperiod
        # the images 1 .. closes_at; the last one is the first repeat
        images = info.orbit[1:] + info.orbit[pre : pre + 1]
        for n, image in enumerate(images, 1):
            if self.meets_open(image):
                return n, image
        return None


def strip_between(c1: Chord, c2: Chord) -> Strip:
    """The strip between two disjoint nondegenerate chords (no shared
    endpoints, no crossing)."""
    if c1.degenerate or c2.degenerate:
        raise ValueError("strip_between needs nondegenerate chords")
    if not disjoint(c1, c2):
        raise ValueError("strip_between needs disjoint chords")
    # both endpoints of c2 lie in one arc of c1; walk that arc positively
    # from its start and meet the nearer endpoint of c2 first
    start = c1.a if c1.a < c2.a < c1.b else c1.b
    end = c1.b if start == c1.a else c1.a
    x, y = sorted(c2.endpoints, key=lambda p: ccw_offset(start, p))
    return Strip(c1, c2, Arc(start, x), Arc(y, end), False)


def critical_strip(c: Chord) -> Strip:
    """The hull of the two halving preimages of the short closed arc of a
    chord of length < 1/3 (strict); a degenerate chord collapses the strip
    to a diameter with empty interior."""
    if c.degenerate:
        half = Chord(Angle(c.a / 2), Angle(c.a / 2 + Fraction(1, 2)))
        return Strip(half, half, None, None, True)
    if c.length >= THIRD:
        raise ValueError(f"critical strip needs length < 1/3, got {c.length}")
    if ccw_offset(c.a, c.b) <= Fraction(1, 2):
        u, v = c.a, c.b
    else:
        u, v = c.b, c.a
    u2, v2 = Angle(u / 2), Angle(v / 2)
    u2h, v2h = Angle(u2 + Fraction(1, 2)), Angle(v2 + Fraction(1, 2))
    return Strip(
        bound1=Chord(v2, u2h),
        bound2=Chord(v2h, u2),
        arc1=Arc(u2, v2),
        arc2=Arc(u2h, v2h),
        degenerate=False,
    )


@dataclass(frozen=True)
class StripVerdict:
    passes: bool
    fail_index: int | None    # n with sigma^n meeting the open strip
    fail_chord: Chord | None


def strip_test(c: Chord) -> StripVerdict:
    """Iterate angle doubling on the chord and test every image against the
    open critical strip of ``c``.  Exact: a rational chord orbit closes."""
    hit = critical_strip(c).first_entry(c)
    if hit is None:
        return StripVerdict(True, None, None)
    return StripVerdict(False, *hit)


@dataclass(frozen=True)
class MinorReport:
    minor: Chord
    majors: tuple


def minor_of(lam: FiniteLamination) -> MinorReport:
    """The image of a longest leaf, plus the major pair (or single critical
    major).  Raises when two longest leaves disagree about their image."""
    if lam.degree != 2:
        raise ValueError("minors are defined for degree-2 laminations")
    if not lam:
        raise ValueError("empty lamination has no minor")
    # on the lamination's ring a leaf's length is min(b - a, N - b + a)
    N, pairs = lam.ring
    lengths = [min(b - a, N - b + a) for a, b in pairs]
    top = max(lengths)
    majors = tuple(_chord(N, p) for p, length in zip(pairs, lengths) if length == top)
    images = {chord_image(2, c) for c in majors}
    if len(images) != 1:
        raise ValueError(f"longest leaves have distinct images: {sorted(map(str, images))}")
    return MinorReport(minor=next(iter(images)), majors=majors)


def qml_enumerate(period_bound: int) -> list[Chord]:
    """The chords of QML with both endpoints of period <= period_bound and
    length < 1/3, canonically sorted.

    Lavaurs' algorithm draws them period by period: for k = 2..period_bound
    the angles of exact period k are swept together with the endpoints of
    the chords drawn so far, which places each angle in a region (the
    innermost drawn chord around it, or the outer region); within each
    region the new angles are joined in consecutive pairs in angle order.
    The period-2 chord 1/3 2/3 stays drawn during the sweep and is dropped
    at the end with every other chord of length >= 1/3.  Each returned
    chord is then verified exactly by the strip test, and the set by
    :func:`check_unlinked`; a failure of either raises AssertionError.
    """
    if not 1 <= period_bound <= 12:
        raise ValueError("period bound must be between 1 and 12")
    drawn = []
    for k in range(2, period_bound + 1):
        q = 2**k - 1
        new = [a for a in (Angle(j, q) for j in range(q)) if orbit_classify(2, a).period == k]
        events = sorted(
            [(c.a, c) for c in drawn] + [(c.b, c) for c in drawn] + [(a, None) for a in new],
            key=lambda e: e[0],
        )
        stack, regions = [], {}
        for x, c in events:
            if c is None:
                regions.setdefault(stack[-1] if stack else None, []).append(x)
            elif x == c.a:
                stack.append(c)
            else:
                stack.pop()
        for xs in regions.values():
            drawn += [Chord(a, b) for a, b in zip(xs[::2], xs[1::2])]
    chords = sorted(c for c in drawn if c.length < THIRD)
    for c in chords:
        if not strip_test(c).passes:
            raise AssertionError(f"Lavaurs chord {c} fails the strip test")
    ok, pair = check_unlinked(FiniteLamination(2, chords))
    if not ok:
        raise AssertionError(f"enumerated chords cross: {pair[0]} x {pair[1]}")
    return chords


def major_quadrilateral(minor: Chord):
    """The doubling-preimage quadrilateral of a nondegenerate minor: its
    vertices, its four edges in circular order, and the major pair (the two
    long opposite edges)."""
    if minor.degenerate:
        raise ValueError("degenerate minor has a critical major, not a quadrilateral")
    verts = sorted(set(preimages(2, minor.a)) | set(preimages(2, minor.b)))
    assert len(verts) == 4
    edges = [Chord(verts[i], verts[(i + 1) % 4]) for i in range(4)]
    pair_a = (edges[0], edges[2])
    pair_b = (edges[1], edges[3])
    majors = pair_a if edges[0].length >= edges[1].length else pair_b
    return verts, edges, majors


def build_from_minor(minor: Chord, depth: int) -> FiniteLamination:
    """Pullback lamination generated by the major data of a minor chord."""
    if minor.degenerate:
        diameter = Chord(Angle(minor.a / 2), Angle(minor.a / 2 + Fraction(1, 2)))
        return pullback_build(2, [diameter], depth)
    verts, edges, _ = major_quadrilateral(minor)
    spike = Chord(verts[0], verts[2])
    return pullback_build(2, edges, depth, sectors=[spike])
