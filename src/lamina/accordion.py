"""Accordions of linked leaves, order preservation, and collision structure.

The accordion of an axis chord collects the leaves of another lamination
(or of a chord's forward orbit) crossing it.  For mutually order-preserving
linked pairs the possible exact patterns are rigid: one extra crossing leaf
(periodic flip or four disjoint endpoint orbits), two crossing images, or a
periodic polygon swept out by the pair's convex hull.  Order preservation
puts both chords on one integer ring mod N, the common denominator of their
endpoints.  It first follows the pair's four ends in lockstep, asking at
each step whether sigma_d keeps their circular order: while it does, the
images stay linked, so each image of the second chord lies in the
accordion of the matching image of the first, and sigma_d keeps the order
of every part of a set whose order it keeps.  Only a pair whose four ends
come back in order follows the two orbits as int pairs with
``lamination._ring_orbit``, the loop behind every orbit; the ``compgap``
suite calls the same ring entry point.  Smart-criticality
helpers pick full spike collections unlinked with a given leaf and detect
collapses around chains of spikes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .circle import Angle, _check_degree, _ring, ccw_offset, sigma, sigma_power
from .chords import Chord, _sides, disjoint, is_critical, linked, validate_collection
from .lamination import FiniteLamination, _ring_orbit, orbit_classify
from .qc_portrait import QcPortrait, complete_samples

__all__ = [
    "AccordionReport",
    "accordion",
    "order_preserving_accordions",
    "SpikeChoice",
    "choose_unlinked_spikes",
    "CollapseReport",
    "detect_collapse",
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
    axis: Chord
    members: tuple            # axis plus every leaf strictly crossing it
    touching: tuple           # leaves sharing an endpoint with the axis only
    horizon: int
    exact: bool               # orbit closed within the horizon
    order_preserving: bool | None
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
    int >= 0 when given.
    """
    if horizon is not None and (not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 0):
        raise ValueError(f"horizon must be an integer >= 0, got {horizon!r}")
    if isinstance(other, FiniteLamination):
        if horizon is not None:
            raise ValueError("a lamination accordion takes no horizon")
        if d is not None and d != other.degree:
            raise ValueError(f"d={d!r} differs from the lamination's degree {other.degree}")
        chords, steps, exact, op = other.leaves, 0, True, None
    elif d is None:
        raise ValueError("chord-orbit accordions need the degree d")
    else:
        info = orbit_classify(d, other)
        steps = info.closes_at if horizon is None else min(horizon, info.closes_at)
        exact = steps >= info.closes_at
        chords = [c for c in info.orbit[:steps] if not c.degenerate]
        op = order_preserving_accordions(d, axis, other) if linked(axis, other) else None
    members = [axis] + [c for c in chords if linked(c, axis)]
    touching = [
        c
        for c in chords
        if c != axis and not linked(c, axis) and set(c.endpoints) & set(axis.endpoints)
    ]

    crossing = len(members) - 1
    if not exact:
        # a crossing may fall in the part of the orbit past the horizon
        classification = WANDERING
    elif crossing == 0:
        classification = SINGLE
    elif isinstance(other, FiniteLamination):
        classification = None
    elif crossing == 1:
        partner = members[1]
        pinfo = orbit_classify(d, partner)
        if pinfo.preperiod > 0:
            # crosses once and the closed orbit never returns to the axis
            classification = WANDERING
        elif sigma_power(d, partner.a, pinfo.period) == partner.b:
            # the chord returns after its period, endpoints swapped or fixed
            classification = TWO_LEAF_FLIP
        else:
            classification = TWO_LEAF_DISJOINT
    elif crossing == 2:
        classification = THREE_LEAF
    else:
        classification = PERIODIC_GAP
    return AccordionReport(
        axis=axis,
        members=tuple(members),
        touching=tuple(touching),
        horizon=steps,
        exact=exact,
        order_preserving=op,
        classification=classification,
    )


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

    The pair's four ends are followed in lockstep first: while sigma_d keeps
    them in order the images stay linked, so each image of c2 lies in the
    accordion of the matching image of c1, and a step that breaks their
    order refuses the pair with the verdict of the full check.  Only a pair
    whose four ends come back follows both chord orbits; every chord of
    them has then passed the distinctness test, so none is critical."""
    ends, seen = tuple(sorted((*c1, *c2))), set()
    while ends not in seen:
        if not _order_kept(d, N, ends):
            return False
        seen.add(ends)
        ends = tuple(sorted(d * p % N for p in ends))
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
    close); both chords are followed on one integer ring, their four ends in
    lockstep before either full orbit."""
    _check_degree(d)
    if not linked(l1, l2):
        raise ValueError("order preserving accordions are defined for linked chords")
    N, (a1, b1, a2, b2) = _ring((l1.a, l1.b, l2.a, l2.b))
    return _order_preserving_ring(d, N, (a1, b1), (a2, b2))


# ---------------------------------------------------------------------------
# Smart criticality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpikeChoice:
    spikes: tuple
    avoided: bool  # True when no chosen spike has the avoided endpoint


def choose_unlinked_spikes(
    qcp: QcPortrait,
    l1: Chord,
    avoid: Angle | None = None,
    special_clusters=(),
) -> SpikeChoice:
    """One spike per portrait quadrilateral, each unlinked with ``l1``;
    optionally avoiding a named endpoint when possible.

    Fails when ``l1`` is a special critical leaf (inside a special cluster),
    for which no unlinked full collection needs to exist.
    """
    d = qcp.degree
    if is_critical(d, l1):
        for cluster in special_clusters:
            if set(l1.endpoints) <= set(cluster):
                raise ValueError("special critical leaves admit no unlinked spike choice")
    options = []
    for quad in qcp.quads:
        unlinked = [s for s in quad.spike_set if not linked(s, l1)]
        if not unlinked:
            raise ValueError(f"every spike of {quad} crosses {l1}")
        options.append(unlinked)
    # the first spike of each quadrilateral, clear of ``avoid`` where one is
    chosen = tuple(
        next((s for s in opts if avoid is None or not s.has_endpoint(avoid)), opts[0])
        for opts in options
    )
    if not validate_collection(d, chosen).is_full_collection:
        # fall back to any full collection among the unlinked choices
        chosen = next(
            (c for c in itertools.product(*options) if validate_collection(d, c).is_full_collection),
            None,
        )
        if chosen is None:
            raise ValueError("no unlinked complete sample forms a full collection")
    avoided = avoid is None or not any(s.has_endpoint(avoid) for s in chosen)
    return SpikeChoice(spikes=chosen, avoided=avoided)


@dataclass(frozen=True)
class CollapseReport:
    kind: str                  # "chains" | "special_cluster" | "none"
    junction: tuple | None     # the adjacent endpoints (a, x) with equal image
    chain1: tuple | None
    chain2: tuple | None


def _chain_between(sample, start: Angle, end: Angle):
    """Concatenation of sample spikes from start to end whose junction
    points move monotonically along the positive arc [start, end]."""
    span = ccw_offset(start, end)

    def pos(p):
        return ccw_offset(start, p)

    best = None

    def dfs(point, used, chain):
        nonlocal best
        if best is not None:
            return
        if point == end:
            best = tuple(chain)
            return
        for s in sample:
            if s in used or not s.has_endpoint(point):
                continue
            nxt = s.other_endpoint(point)
            if pos(nxt) <= pos(point) and nxt != end:
                continue
            if pos(nxt) > span:
                continue
            dfs(nxt, used | {s}, chain + [s])

    dfs(start, frozenset(), [])
    return best


def detect_collapse(
    l1: Chord,
    l2: Chord,
    qcp1: QcPortrait,
    qcp2: QcPortrait,
    special_clusters=(),
) -> CollapseReport:
    """Do the two leaves collapse around chains of spikes?

    Requires non-disjoint leaves with a pair of adjacent endpoints sharing a
    sigma_d-image; searches both portraits for spike chains joining those
    endpoints monotonically.  Leaves inside a common special cluster are
    reported as that case instead.
    """
    d = qcp1.degree
    if l1 == l2 or disjoint(l1, l2):
        raise ValueError("collapse detection needs non-disjoint distinct leaves")
    for cluster in special_clusters:
        cset = set(cluster)
        if set(l1.endpoints) <= cset and set(l2.endpoints) <= cset:
            return CollapseReport("special_cluster", None, None, None)
    pairs = [
        (u, v)
        for u in l1.endpoints
        for v in l2.endpoints
        if u != v and sigma(d, u) == sigma(d, v)
    ]
    if not pairs:
        raise ValueError("no adjacent endpoints with a common image")
    others = set(l1.endpoints) | set(l2.endpoints)
    for u, v in pairs:
        for start, end in ((u, v), (v, u)):
            arc_len = ccw_offset(start, end)
            if any(0 < ccw_offset(start, p) < arc_len for p in others - {start, end}):
                continue  # not the adjacent side
            chain1, chain2 = (
                next(filter(None, (_chain_between(s, start, end) for s in complete_samples(q))), None)
                for q in (qcp1, qcp2)
            )
            if chain1 and chain2:
                return CollapseReport("chains", (start, end), chain1, chain2)
    return CollapseReport("none", None, None, None)


# ---------------------------------------------------------------------------
# Convex-hull collision structure
# ---------------------------------------------------------------------------


def _interiors_intersect(u, v) -> bool:
    """Interiors of convex hulls of circle points (sorted tuples)."""
    if len(u) < 2 or len(v) < 2:
        return False
    if set(u) <= set(v) or set(v) <= set(u):
        return True
    sides = _sides(v)
    return any(linked(e1, e2) for e1 in _sides(u) for e2 in sides)


@dataclass(frozen=True)
class CompgapReport:
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
    Order preservation keeps the four ends distinct, so the hull at the
    preperiod meets itself one period later: ``r`` and ``step`` exist."""
    if not linked(l1, l2):
        raise ValueError("hull analysis needs linked chords")
    if not order_preserving_accordions(d, l1, l2):
        raise ValueError("hull analysis needs mutually order preserving accordions")

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
    step = next(
        t for t in range(1, total + 1) if _interiors_intersect(base, hull_at(r + t))
    )
    # the hulls the base sweeps out under sigma_d^step = sigma_{d^step}
    vertices = tuple(sorted(set().union(*orbit_classify(d**step, base).orbit)))
    infos = {v: orbit_classify(d, v) for v in vertices}

    groups = []
    remaining = set(vertices)
    while remaining:
        v = min(remaining)
        info = infos[v]
        cycle = set(info.orbit[info.preperiod :])
        members = sorted((cycle & remaining) | {v})
        groups.append(tuple(members))
        remaining -= set(members)
    periods = tuple(infos[g[0]].period for g in groups)
    vop = orbit_classify(d, vertices, max_steps=256)
    remap_identity = None
    if vop is not None and vop.preperiod == 0:
        # a periodic vertex whose period divides the gap's is fixed by it
        remap_identity = all(
            info.preperiod == 0 and vop.period % info.period == 0 for info in infos.values()
        )
    return CompgapReport(
        classification=PERIODIC_GAP,
        r=r,
        step=step,
        vertices=vertices,
        orbit_groups=tuple(groups),
        periods=periods,
        remap_is_identity=remap_identity,
    )

