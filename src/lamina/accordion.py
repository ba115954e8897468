"""Accordions of linked leaves, order preservation, and collision structure.

The accordion of an axis chord collects the leaves of another lamination
(or of a chord's forward orbit) crossing it.  For mutually order-preserving
linked pairs the possible exact patterns are rigid: one extra crossing leaf
(periodic flip or four disjoint endpoint orbits), two crossing images, or a
periodic polygon swept out by the pair's convex hull.

Everything runs on one integer ring mod N, the common denominator of the
chords' endpoints: a pair of chords goes there by the one pair-ring rule
``circle._pair_ring``, a chord and a lamination's leaves by
``circle._ring``, crossings are decided on the sorted int pairs, and
Angles are formed only for reports.  An accordion follows its chord's
orbit once with ``lamination._ring_orbit``.  The module imports none of
``cubic_tags``, ``qc_portrait``, ``orbit_classify`` and ``sigma_power``.

One lockstep, ``_ends_orbit``, decides mutual order preservation.  It
follows a linked pair's four ends, asking at each step whether sigma_d
keeps their circular order: while it does, the images stay linked, so each
image of the second chord lies in the accordion of the matching image of
the first, and sigma_d keeps the order of every part of a set whose order
it keeps.  The ends are one strictly ascending 4-tuple of ring ints, and a
step takes their images ``d*x % N`` and keeps the one rotation of them that
ascends strictly, or refuses the pair when none does.  For four points this
is ``_order_kept``'s rule, exactly one cyclic descent of the images: a
strictly ascending rotation has its one descent at the wrap, and a cycle
with exactly one descent, which counts equal neighbours, is strictly
ascending from just past it; that rotation is also the sorted tuple of the
images.  Most pairs are refused at the first step, before any set is
formed.  Only a pair whose four ends come back follows the two chord
orbits, checked with ``_order_kept`` by ``_orbits_kept``.  The lockstep
returns its orbit of 4-tuples only for a pair that passes both, and every
reader takes that orbit: ``order_preserving_accordions`` asks whether there
is one, and, the ends being distinct and ascending, it is the orbit of
sorted hulls that the hull analysis ``_compgap_ring`` starts from.
"""

from __future__ import annotations

import itertools

from .circle import _check_degree, _pair_ring, _record, _ring, _ring_angles
from .chords import Chord, _sides, linked
from .lamination import FiniteLamination, _chord, _ring_orbit

__all__ = [
    "AccordionReport",
    "accordion",
    "order_preserving_accordions",
    "CompgapReport",
    "compgap_analyze",
]

SINGLE = "single"
TWO_LEAF_FLIP = "two_leaf_periodic_flip"
TWO_LEAF_DISJOINT = "two_leaf_periodic_disjoint_orbits"
THREE_LEAF = "three_leaf"
WANDERING = "wandering_up_to_horizon"
PERIODIC_GAP = "periodic_gap"


@_record(
    "axis",
    "members",                # axis plus every leaf strictly crossing it
    "touching",               # leaves sharing an endpoint with the axis only
    "classification",         # a str, or None
    frozen=True,
)
class AccordionReport:
    """An accordion and its crossing pattern.  It has no order-preservation
    field, since ``_ends_orbit`` is the one place that is decided, and no
    horizon, since a chord's orbit is followed in full."""


def accordion(axis: Chord, other, d: int | None = None) -> AccordionReport:
    """Accordion of ``axis`` with respect to a lamination or to the forward
    orbit of a second chord.

    With a chord, the whole orbit is followed, and classification labels the
    crossing pattern.  With a lamination, the members are its leaves
    crossing the axis and the classification is ``single`` or undetermined
    (None); a ``d`` must be its degree.  The axis and the leaves or the
    orbit share one ring.  A single crossing chord of the orbit is its k-th
    chord, so it is preperiodic iff k is below the orbit's preperiod, and a
    flip iff d^period * x = y on the ring for its ends x < y.
    """
    if isinstance(other, FiniteLamination):
        if d is not None and d != other.degree:
            raise ValueError(f"d={d!r} differs from the lamination's degree {other.degree}")
        N, xs = _ring((*axis, *itertools.chain.from_iterable(other.leaves)))
        chords, pre = list(zip(xs[2::2], xs[3::2])), None
    elif d is None:
        raise ValueError("chord-orbit accordions need the degree d")
    else:
        _check_degree(d)
        N, xs = _pair_ring(axis, other)
        pre, chords = _ring_orbit(d, N, (xs[2], xs[3]))
    # the orbit index k of each crossing chord; a degenerate one touches nothing
    ax = (xs[0], xs[1])
    crossing = [k for k, c in enumerate(chords) if linked(c, ax)]
    members = (axis, *(_chord(N, chords[k]) for k in crossing))
    touching = tuple(_chord(N, c) for c in chords if c != ax and c[0] != c[1] and set(c) & set(ax))

    if not crossing:
        classification = SINGLE
    elif pre is None:
        classification = None
    elif len(crossing) == 1:
        # the partner, the orbit's k-th chord, is preperiodic iff k < pre
        k = crossing[0]
        x, y = chords[k]
        if k < pre:
            # crosses once and the closed orbit never returns to the axis
            classification = WANDERING
        elif pow(d, len(chords) - pre, N) * x % N == y:
            # the chord returns after its period, endpoints swapped or fixed
            classification = TWO_LEAF_FLIP
        else:
            classification = TWO_LEAF_DISJOINT
    elif len(crossing) == 2:
        classification = THREE_LEAF
    else:
        classification = PERIODIC_GAP
    return AccordionReport(axis, members, touching, classification)


def _order_kept(d: int, N: int, points) -> bool:
    """Does sigma_d keep the ascending, pairwise distinct ring points mod N
    distinct and in positive circular order?  Exactly when one cyclic step
    of the images fails to ascend."""
    turns, prev = 0, d * points[-1] % N
    for p in points:
        x = d * p % N
        if prev >= x:
            turns += 1
        prev = x
    return turns == 1


def _ends_orbit(d: int, N: int, c1, c2):
    """Mutual order preservation of two linked sorted int pairs on the ring
    mod N, by the lockstep of their four ends: (preperiod, orbit), the orbit
    being their ascending 4-tuples up to one full cycle, or None when sigma_d
    breaks their circular order at some step, or when the ends come back and
    ``_orbits_kept`` refuses the chord orbits.  A pair refused at the first
    step forms no set or dict and follows no chord orbit."""
    (a1, b1), (a2, b2) = c1, c2
    # linked sorted pairs interleave one way or the other
    start = p, q, r, s = (a1, a2, b1, b2) if a1 < a2 else (a2, a1, b2, b1)
    orbit = index = None
    while True:
        p, q, r, s = d * p % N, d * q % N, d * r % N, d * s % N
        # the one rotation of the images that ascends strictly, if any
        if q < r < s < p:
            p, q, r, s = q, r, s, p
        elif r < s < p < q:
            p, q, r, s = r, s, p, q
        elif s < p < q < r:
            p, q, r, s = s, p, q, r
        elif not p < q < r < s:
            return None
        if orbit is None:
            orbit, index = [start], {start: 0}
        ends = p, q, r, s
        if ends in index:
            return (index[ends], orbit) if _orbits_kept(d, N, c1, c2) else None
        index[ends] = len(orbit)
        orbit.append(ends)


def _orbits_kept(d: int, N: int, c1, c2) -> bool:
    """Is sigma_d injective and positively order preserving on the accordion
    of each chord of either orbit of the sorted int pairs c1, c2 with
    respect to the other orbit?  Crossings are tested on the sorted pairs,
    as ``linked`` tests them."""
    o1, o2 = _ring_orbit(d, N, c1)[1], _ring_orbit(d, N, c2)[1]
    for axes, others in ((o1, o2), (o2, o1)):
        for a, b in axes:
            pts = {a, b}
            for x, y in others:
                if a < x < b < y or x < a < y < b:
                    pts.add(x)
                    pts.add(y)
            if not _order_kept(d, N, sorted(pts)):
                return False
    return True


def order_preserving_accordions(d: int, l1: Chord, l2: Chord) -> bool:
    """Mutual order preservation: at every step, sigma_d is injective and
    positively order preserving on the accordion of each chord's image with
    respect to the other's forward orbit.  Exact for rational data (orbits
    close); after ``d``, linkage is checked on the ints of ``_pair_ring``,
    and ``_ends_orbit`` decides the rest."""
    if type(d) is not int or d < 2:
        _check_degree(d)
    N, (a1, b1, a2, b2) = _pair_ring(l1, l2)
    if not (a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1):
        raise ValueError("order preserving accordions are defined for linked chords")
    return _ends_orbit(d, N, (a1, b1), (a2, b2)) is not None


# ---------------------------------------------------------------------------
# Convex-hull collision structure
# ---------------------------------------------------------------------------


def _interiors_intersect(u, v) -> bool:
    """Interiors of the convex hulls of two sorted tuples of four distinct
    circle points each, so one hull holds the other only when they are equal.
    The hull sides come from ``chords._sides`` and are sorted pairs, whose
    crossings are tested as ``linked`` tests them."""
    if u == v:
        return True
    sides = _sides(v)
    for a, b in _sides(u):
        for x, y in sides:
            if a < x < b < y or x < a < y < b:
                return True
    return False


@_record(
    "classification",          # PERIODIC_GAP
    "r",                       # first index whose image hull recurs
    "step",                    # return time of the hull at index r
    "vertices",                # the periodic polygon's vertex set
    "orbit_groups",            # vertices grouped by sigma_d-orbit
    "periods",                 # period of each group
    "remap_is_identity",       # a bool, or None
    frozen=True,
)
class CompgapReport:
    """The hull analysis of :func:`compgap_analyze`.  It has no horizon:
    order preservation keeps the four ends distinct, so ``r`` and ``step``
    are always ints."""


def compgap_analyze(d: int, l1: Chord, l2: Chord) -> CompgapReport:
    """Follow the convex hull of two linked, mutually order-preserving
    chords; locate the first recurring image and the periodic polygon its
    orbit sweeps out, reporting vertex orbits and the return behavior.
    After ``d``, both checks and the analysis run on the ring ints of the
    four ends from ``_pair_ring``, and ``_ends_orbit``, which decides order
    preservation, hands its orbit of hulls to the analysis."""
    _check_degree(d)
    N, (a1, b1, a2, b2) = _pair_ring(l1, l2)
    c1, c2 = (a1, b1), (a2, b2)
    if not linked(c1, c2):
        raise ValueError("hull analysis needs linked chords")
    ends = _ends_orbit(d, N, c1, c2)
    if ends is None:
        raise ValueError("hull analysis needs mutually order preserving accordions")
    return _compgap_ring(d, N, ends)


def _compgap_ring(d: int, N: int, ends) -> CompgapReport:
    """:func:`compgap_analyze` on the ring mod N, Angles formed only for the
    report.  ``ends`` is the (preperiod, orbit) that ``_ends_orbit`` returns
    for a linked, mutually order-preserving pair: order preservation keeps
    the four ends distinct and ascending, so its 4-tuples are the sorted
    hulls, and the hull at the preperiod meets itself one period later:
    ``r`` and ``step`` exist.  The polygon swept under sigma_{d^step}, the
    vertex orbits and the vertex-set orbit are each followed with
    ``_ring_orbit``."""
    preperiod, hulls = ends
    period = len(hulls) - preperiod
    total = preperiod + 2 * period

    def hull_at(i):
        return hulls[i if i < len(hulls) else preperiod + (i - preperiod) % period]

    r = next(
        i
        for i in range(preperiod + period)
        if any(_interiors_intersect(hull_at(i), hull_at(j)) for j in range(i + 1, total + 1))
    )
    base = hull_at(r)
    step = next(t for t in range(1, total + 1) if _interiors_intersect(base, hull_at(r + t)))
    # the hulls the base sweeps out under sigma_d^step = sigma_{d^step}
    vertices = sorted(set().union(*_ring_orbit(d**step, N, frozenset(base))[1]))
    orbits = {v: _ring_orbit(d, N, v) for v in vertices}
    at = _ring_angles(N, vertices)

    groups, periods = [], []
    remaining = set(vertices)
    while remaining:
        v = min(remaining)
        pre, orbit = orbits[v]
        members = sorted((set(orbit[pre:]) & remaining) | {v})
        groups.append(tuple(at[x] for x in members))
        periods.append(len(orbit) - pre)
        remaining -= set(members)
    vop = _ring_orbit(d, N, frozenset(vertices), 256)
    remap_identity = None
    if vop is not None and vop[0] == 0:
        # a periodic vertex whose period divides the gap's is fixed by it
        remap_identity = all(
            pre == 0 and len(vop[1]) % (len(orbit) - pre) == 0 for pre, orbit in orbits.values()
        )
    return CompgapReport(
        classification=PERIODIC_GAP,
        r=r,
        step=step,
        vertices=tuple(at.values()),
        orbit_groups=tuple(groups),
        periods=tuple(periods),
        remap_is_identity=remap_identity,
    )
