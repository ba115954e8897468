"""Accordions of linked leaves, order preservation, and collision structure.

The accordion of an axis chord collects the leaves of another lamination
(or of a chord's forward orbit) crossing it.  For mutually order-preserving
linked pairs the possible exact patterns are rigid: one extra crossing leaf
(periodic flip or four disjoint endpoint orbits), two crossing images, or a
periodic polygon swept out by the pair's convex hull.

Everything runs on one integer ring mod N, the common denominator of the
chords' endpoints: a pair of chords goes there by the one pair-ring rule
``circle._pair_ring``, a chord and a lamination's leaves by
``circle._ring``, linkage is decided by ``linked`` on the int pairs, and
Angles are formed only for reports.  Every orbit is followed with
``lamination._ring_orbit``: an accordion follows its chord's orbit once,
and so does the hull analysis ``_compgap_ring``.  The module imports none
of ``cubic_tags``, ``qc_portrait``, ``orbit_classify`` and ``sigma_power``.

Order preservation first follows the pair's four ends in lockstep, asking
at each step whether sigma_d keeps their circular order: while it does,
the images stay linked, so each image of the second chord lies in the
accordion of the matching image of the first, and sigma_d keeps the order
of every part of a set whose order it keeps.  The ends are one strictly
ascending 4-tuple of ring ints, and a step takes their images ``d*x % N``
and keeps the one rotation of them that ascends strictly, or refuses the
pair when none does.  For four points this is ``_order_kept``'s rule,
exactly one cyclic descent of the images: a strictly ascending rotation
has its one descent at the wrap, and a cycle with exactly one descent,
which counts equal neighbours, is strictly ascending from just past it;
that rotation is also the sorted tuple of the images.  Only a pair whose
four ends come back follows the two chord orbits, checked with
``_order_kept``.  The ``compgap`` suite decides each pair with
``_order_preserving_ring`` in ``suites._survivor_pairs`` and hands the
survivors to ``_compgap_ring``, so each is decided once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .circle import _at, _check_degree, _check_int, _pair_ring, _ring
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


@dataclass(frozen=True)
class AccordionReport:
    """An accordion and its crossing pattern; it has no order-preservation
    field, since :func:`order_preserving_accordions` is the one place that
    is decided."""

    axis: Chord
    members: tuple            # axis plus every leaf strictly crossing it
    touching: tuple           # leaves sharing an endpoint with the axis only
    horizon: int
    exact: bool               # orbit closed within the horizon
    classification: str | None


def accordion(axis: Chord, other, horizon: int | None = None, d: int | None = None) -> AccordionReport:
    """Accordion of ``axis`` with respect to a lamination or to the forward
    orbit of a second chord.

    With a chord, the orbit is followed to closure (exact) or to the horizon
    (flagged non-exact and classified ``wandering_up_to_horizon``, since a
    crossing may lie past it); classification labels the crossing pattern.
    With a lamination, the members are its leaves crossing the axis and the
    classification is ``single`` or undetermined (None); it takes no
    ``horizon``, and a ``d`` must be its degree.  A ``horizon`` must be an
    int >= 0 when given.  The axis and the leaves or the orbit share one
    ring.  A single crossing chord of an exact orbit is its k-th chord, so
    it is preperiodic iff k is below the orbit's preperiod, and a flip iff
    d^period * x = y on the ring for its ends x < y.
    """
    if horizon is not None:
        _check_int("horizon", horizon)
    if isinstance(other, FiniteLamination):
        if horizon is not None:
            raise ValueError("a lamination accordion takes no horizon")
        if d is not None and d != other.degree:
            raise ValueError(f"d={d!r} differs from the lamination's degree {other.degree}")
        N, xs = _ring((*axis, *itertools.chain.from_iterable(other.leaves)))
        chords, steps, exact, pre = list(zip(xs[2::2], xs[3::2])), 0, True, None
    elif d is None:
        raise ValueError("chord-orbit accordions need the degree d")
    else:
        _check_degree(d)
        N, xs = _pair_ring(axis, other)
        pre, chords = _ring_orbit(d, N, (xs[2], xs[3]))
        steps = len(chords) if horizon is None else min(horizon, len(chords))
        exact = steps == len(chords)
        chords = chords[:steps]
    # the orbit index k of each crossing chord; a degenerate one touches nothing
    ax = (xs[0], xs[1])
    crossing = [k for k, c in enumerate(chords) if linked(c, ax)]
    members = (axis, *(_chord(N, chords[k]) for k in crossing))
    touching = tuple(_chord(N, c) for c in chords if c != ax and c[0] != c[1] and set(c) & set(ax))

    if not exact:
        # a crossing may fall in the part of the orbit past the horizon
        classification = WANDERING
    elif not crossing:
        classification = SINGLE
    elif pre is None:
        classification = None
    elif len(crossing) == 1:
        # exact, so chords is the whole orbit: its k-th chord, the partner, is
        # preperiodic iff k < pre and periodic of the orbit's period
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
    return AccordionReport(axis, members, touching, steps, exact, classification)


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


def _order_preserving_ring(d: int, N: int, c1, c2) -> bool:
    """Mutual order preservation of the orbits of two linked sorted int pairs
    on the ring mod N: sigma_d is injective and positively order preserving
    on the accordion of each chord of either orbit with respect to the other
    orbit.

    The four ends go first, by the module's rotation step, and a step that
    breaks their order refuses the pair with the verdict of the full check.
    Only a pair whose four ends come back follows both chord orbits; every
    chord of them has then passed the distinctness test, so none is
    critical."""
    (a1, b1), (a2, b2) = c1, c2
    # linked sorted pairs interleave one way or the other
    p, q, r, s = (a1, a2, b1, b2) if a1 < a2 else (a2, a1, b2, b1)
    seen = set()
    while (p, q, r, s) not in seen:
        seen.add((p, q, r, s))
        p, q, r, s = d * p % N, d * q % N, d * r % N, d * s % N
        # the one rotation of the images that ascends strictly, if any
        if q < r < s < p:
            p, q, r, s = q, r, s, p
        elif r < s < p < q:
            p, q, r, s = r, s, p, q
        elif s < p < q < r:
            p, q, r, s = s, p, q, r
        elif not p < q < r < s:
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


def order_preserving_accordions(d: int, l1: Chord, l2: Chord) -> bool:
    """Mutual order preservation: at every step, sigma_d is injective and
    positively order preserving on the accordion of each chord's image with
    respect to the other's forward orbit.  Exact for rational data (orbits
    close); after ``d``, linkage is checked on the ints of ``_pair_ring``,
    and the four ends are followed in lockstep before either full orbit."""
    _check_degree(d)
    N, (a1, b1, a2, b2) = _pair_ring(l1, l2)
    c1, c2 = (a1, b1), (a2, b2)
    if not linked(c1, c2):
        raise ValueError("order preserving accordions are defined for linked chords")
    return _order_preserving_ring(d, N, c1, c2)


# ---------------------------------------------------------------------------
# Convex-hull collision structure
# ---------------------------------------------------------------------------


def _interiors_intersect(u, v) -> bool:
    """Interiors of the convex hulls of two sorted tuples of four distinct
    circle points each, so one hull holds the other only when they are equal.
    The hull sides come from ``chords._sides`` and are tested with
    ``linked`` as they are."""
    if u == v:
        return True
    sides = _sides(v)
    return any(linked(e1, e2) for e1 in _sides(u) for e2 in sides)


@dataclass(frozen=True)
class CompgapReport:
    """The hull analysis of :func:`compgap_analyze`.  It has no horizon:
    order preservation keeps the four ends distinct, so ``r`` and ``step``
    are always ints."""

    classification: str        # PERIODIC_GAP
    r: int                     # first index whose image hull recurs
    step: int                  # return time of the hull at index r
    vertices: tuple            # the periodic polygon's vertex set
    orbit_groups: tuple        # vertices grouped by sigma_d-orbit
    periods: tuple             # period of each group
    remap_is_identity: bool | None


def compgap_analyze(d: int, l1: Chord, l2: Chord) -> CompgapReport:
    """Follow the convex hull of two linked, mutually order-preserving
    chords; locate the first recurring image and the periodic polygon its
    orbit sweeps out, reporting vertex orbits and the return behavior.
    After ``d``, both checks and the analysis run on the ring ints of the
    four ends from ``_pair_ring``."""
    _check_degree(d)
    N, (a1, b1, a2, b2) = _pair_ring(l1, l2)
    c1, c2 = (a1, b1), (a2, b2)
    if not linked(c1, c2):
        raise ValueError("hull analysis needs linked chords")
    if not _order_preserving_ring(d, N, c1, c2):
        raise ValueError("hull analysis needs mutually order preserving accordions")
    return _compgap_ring(d, N, c1, c2)


def _compgap_ring(d: int, N: int, c1, c2) -> CompgapReport:
    """:func:`compgap_analyze` on linked, mutually order-preserving sorted int
    pairs mod N, Angles formed only for the report.  Order preservation keeps
    the four ends distinct, so the hull at the preperiod meets itself one
    period later: ``r`` and ``step`` exist.  The hull orbit, the polygon
    swept under sigma_{d^step}, the vertex orbits and the vertex-set orbit
    are each followed with ``_ring_orbit``."""
    preperiod, hulls = _ring_orbit(d, N, frozenset((*c1, *c2)))
    hulls = [tuple(sorted(h)) for h in hulls]
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
        # a periodic vertex whose period divides the gap's is fixed by it
        remap_identity = all(
            pre == 0 and len(vop[1]) % (len(orbit) - pre) == 0 for pre, orbit in orbits.values()
        )
    return CompgapReport(
        classification=PERIODIC_GAP,
        r=r,
        step=step,
        vertices=tuple(_at(N, v) for v in vertices),
        orbit_groups=tuple(groups),
        periods=tuple(periods),
        remap_is_identity=remap_identity,
    )
