"""Finite laminations: unlinkedness, gaps, invariance, pullbacks, criticality.

A FiniteLamination is a canonical finite set of pairwise-unlinked chords of
fixed degree d (degenerate leaves are implied and not stored).  The disk
minus the chords decomposes into gaps, read off the same nesting sweep that
checks the leaves are unlinked.  The sweep sorts its events as ints on the
ring of the leaf endpoints, where critical leaves are read off too.
Laminations are generated from critical portraits by the standard pullback
scheme, with branches chosen inside the complementary sectors of a full
collection of critical chords.

Pullbacks and invariance checks run on one integer ring (1/N)Z/Z: sigma_d
never enlarges a denominator and each pullback generation multiplies it by
at most d, so a depth-k build lives on N = N0 * d**k, N0 the common
denominator of its generation-0 leaves and sector chords, and a finished
lamination on the common denominator of its endpoints.  There a leaf is a
sorted pair of ints, sigma_d is ``d*x % N``, the preimages of an endpoint X
of a leaf still to be pulled back are X//d + k*(N//d), and the circle order
is the order of the ints.  Chords are built once per leaf, for the result.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .circle import Angle, Arc, _angle, _ring, ccw_offset, sigma, shortest_dist
from .chords import (
    Chord,
    _ring_disjoint,
    _ring_image,
    chord_image,
    greedy_no_loop,
    is_critical,
    linked,
    validate_collection,
)

__all__ = [
    "FiniteLamination",
    "Gap",
    "OrbitInfo",
    "InvarianceReport",
    "CriticalAnalysis",
    "InconsistentPortrait",
    "check_unlinked",
    "check_invariance",
    "gaps",
    "gap_degree",
    "boundary_degree",
    "orbit_classify",
    "pullback_build",
    "sector_partition",
    "critical_analysis",
    "prune_isolated",
    "MAX_PULLBACK_LEAVES",
]


class InconsistentPortrait(ValueError):
    """Raised when a pullback portrait crosses itself or its critical chords."""


class FiniteLamination:
    """Degree d plus a canonically sorted set of nondegenerate chords.

    Construction canonicalizes (sorts, dedupes, drops degenerate chords) but
    does not enforce unlinkedness; use :func:`check_unlinked`.  The optional
    ``generations`` mapping records the pullback generation of each leaf and
    is metadata: it does not participate in equality.
    """

    __slots__ = ("degree", "leaves", "generations", "_leaf_set", "_analysis")

    def __init__(self, degree: int, leaves=(), generations=None):
        if not isinstance(degree, int) or degree < 2:
            raise ValueError(f"degree must be an integer >= 2, got {degree!r}")
        # dict.fromkeys keeps input order, so sorted input sorts in one pass
        canon = sorted(dict.fromkeys(c for c in leaves if not c.degenerate))
        self.degree = degree
        self.leaves = tuple(canon)
        self._leaf_set = frozenset(canon)
        self.generations = dict(generations) if generations else None
        self._analysis = None

    def __eq__(self, other):
        if not isinstance(other, FiniteLamination):
            return NotImplemented
        return self.degree == other.degree and self.leaves == other.leaves

    def __hash__(self):
        return hash((self.degree, self.leaves))

    def __len__(self):
        return len(self.leaves)

    def __iter__(self):
        return iter(self.leaves)

    def __contains__(self, chord):
        return chord in self._leaf_set

    def __repr__(self):
        return f"FiniteLamination(degree={self.degree}, leaves={len(self.leaves)})"

    @property
    def leaf_set(self) -> frozenset:
        return self._leaf_set

    @property
    def max_generation(self) -> int:
        if not self.generations:
            return 0
        return max(self.generations.values())

    def leaves_up_to(self, generation: int) -> frozenset:
        """Leaves of pullback generation <= generation (all, if untracked)."""
        if not self.generations:
            return self._leaf_set
        return frozenset(c for c in self.leaves if self.generations.get(c, 0) <= generation)

    def with_leaves(self, extra) -> "FiniteLamination":
        return FiniteLamination(self.degree, list(self.leaves) + list(extra))


@dataclass(frozen=True)
class Gap:
    """Closure of one complementary component of the disk minus the leaves.

    ``vertices`` lists the boundary circle points in positive circular order
    starting from the smallest; ``sides[i]`` joins vertices[i] to
    vertices[i+1] (cyclically) and is ("chord", Chord) or ("arc", Arc).  The
    gap of the empty lamination is the whole disk (no vertices).
    """

    vertices: tuple
    sides: tuple
    is_disk: bool = False

    @classmethod
    def whole_disk(cls) -> "Gap":
        return cls(vertices=(), sides=(), is_disk=True)

    @property
    def finite(self) -> bool:
        return not self.is_disk and all(kind == "chord" for kind, _ in self.sides)

    @property
    def edges(self) -> tuple:
        return tuple(obj for kind, obj in self.sides if kind == "chord")

    @property
    def arcs(self) -> tuple:
        return tuple(obj for kind, obj in self.sides if kind == "arc")

    def __str__(self):
        if self.is_disk:
            return "Gap(disk)"
        return "Gap(" + ", ".join(str(v) for v in self.vertices) + ")"


def _ring_leaves(leaves) -> tuple[int, list[tuple[int, int]]]:
    """The leaves on the ring of their endpoints (see ``circle._ring``): N
    and the (a, b) ints of each leaf."""
    N, xs = _ring([e for c in leaves for e in (c.a, c.b)])
    return N, list(zip(xs[::2], xs[1::2]))


def _nest(leaves):
    """Non-crossing sweep over the leaf endpoints in circle order, O(N log N).

    Pairwise unlinked leaves nest like parentheses.  At each endpoint the
    leaves ending there close innermost first (largest ``a``), and each must
    be the top of the stack of open leaves; then the leaves starting there
    open outermost first (largest ``b``).  A closing leaf that is not the
    top crosses the top.  A stack frame is (leaf, the leaves directly inside
    it in circle order), over the root frame (None, the top-level leaves).

    The sweep runs on the ring of the endpoints (see ``circle._ring``),
    where circle order is int order: an event is (position, 0 to close or
    1 to open, minus the other end, leaf index), and the stack top is
    matched by leaf index.

    Returns (the frames in closing order with the root last, None, the
    leaf index of each frame but the root), or (None, (c1, c2), None) with
    c1 < c2 a crossing pair.
    """
    _, ring = _ring_leaves(leaves)
    events = sorted(
        [(b, 0, -a, i) for i, (a, b) in enumerate(ring)]
        + [(a, 1, -b, i) for i, (a, b) in enumerate(ring)]
    )
    stack = [(None, [])]
    open_ids = [-1]
    closed, closed_ids = [], []
    for _, opens, _, i in events:
        if opens:
            stack.append((leaves[i], []))
            open_ids.append(i)
        elif open_ids[-1] == i:
            closed_ids.append(open_ids.pop())
            frame = stack.pop()
            closed.append(frame)
            stack[-1][1].append(frame[0])
        else:
            return None, tuple(sorted((leaves[i], stack[-1][0]))), None
    return closed + stack, None, closed_ids


def check_unlinked(lam: FiniteLamination):
    """(True, None) if the leaves are pairwise unlinked, else (False, (c1, c2))
    with c1 < c2 a crossing pair, not necessarily the lexicographically
    first one; see :func:`_nest`."""
    frames, pair, _ = _nest(lam.leaves)
    return frames is not None, pair


def _face(children, start, end, closing) -> Gap:
    """The gap whose boundary runs from ``start`` through ``children``
    (leaves in circle order, joined by circle arcs) to ``end``, then back
    along the side ``closing``."""
    sides, p = [], start
    for c in children:
        if p != c.a:
            sides.append((p, ("arc", Arc(p, c.a))))
        sides.append((c.a, ("chord", c)))
        p = c.b
    if p != end:
        sides.append((p, ("arc", Arc(p, end))))
    sides.append((end, closing))
    verts, sides = zip(*sides)
    return Gap(vertices=verts, sides=sides)


def gaps(lam: FiniteLamination) -> list[Gap]:
    """All gaps of an unlinked lamination, including arc-bearing ones, sorted
    by vertices.  They are read off the sweep of :func:`check_unlinked`: the
    gap just inside each leaf, bounded by it and the leaves directly inside
    it, and the outer gap, bounded by the top-level leaves.

    Raises ValueError naming a crossing pair when the leaves cross.
    """
    leaves = lam.leaves
    if not leaves:
        return [Gap.whole_disk()]
    frames, pair, ids = _nest(leaves)
    if pair is not None:
        raise ValueError(f"leaves cross, so there are no gaps: {pair[0]} x {pair[1]}")
    # The vertices of a face run in circle order from the first end of its
    # leaf, and of two leaves from one point the shorter one's face has the
    # smaller vertices (the longer one's next vertex is the end of a leaf
    # from that point), so the faces inside the leaves sort as the leaves
    # do.  The outer face runs from the first end of the first top-level
    # leaf and sorts after every face from that point.
    result = [None] * len(leaves)
    for i, (c, children) in zip(ids, frames):
        result[i] = _face(children, c.a, c.b, ("chord", c))
    top = frames[-1][1]
    first, last = top[0].a, top[-1].b
    outer = _face(top, first, last, ("arc", Arc(last, first)))
    result.insert(bisect_right(leaves, first, key=lambda c: c.a), outer)
    return result


def boundary_degree(d: int, vertices) -> int:
    """Degree of sigma_d on the boundary of the convex hull of circle points.

    ``vertices`` must be listed in circular order.  If the image is a single
    point the degree is the vertex count; otherwise it counts how many times
    the boundary wraps around the image boundary.
    """
    vertices = list(vertices)
    imgs = [sigma(d, v) for v in vertices]
    distinct = sorted(set(imgs))
    if len(distinct) == 1:
        return len(vertices)
    rank = {v: i for i, v in enumerate(distinct)}
    m = len(distinct)
    total = sum((rank[imgs[(i + 1) % len(imgs)]] - rank[imgs[i]]) % m for i in range(len(imgs)))
    if total % m:
        raise ValueError("boundary map is not a positively oriented covering")
    return total // m


def gap_degree(d: int, g: Gap) -> int:
    """Degree of a finite gap; > 1 means critical."""
    if g.is_disk or not g.finite:
        raise ValueError("degree of an arc-bearing gap is unsupported")
    return boundary_degree(d, g.vertices)


@dataclass(frozen=True)
class OrbitInfo:
    """Exact eventual periodicity data of a sigma_d orbit."""

    preperiod: int
    period: int
    orbit: tuple  # the preperiodic tail followed by one full cycle

    @property
    def closes_at(self) -> int:
        return self.preperiod + self.period


def orbit_classify(d: int, x, max_steps: int | None = None) -> OrbitInfo | None:
    """Preperiod and minimal period of an angle, a chord or a vertex set
    under sigma_d.

    A vertex set (set, frozenset, tuple or list of angles) is followed as a
    frozenset of its images.  With ``max_steps``, returns None when the orbit
    has not closed within that many images.
    """
    if isinstance(x, Chord):
        step = lambda c: chord_image(d, c)
    elif isinstance(x, (set, frozenset, tuple, list)):
        x = frozenset(Angle(v) for v in x)
        step = lambda vs: frozenset(sigma(d, v) for v in vs)
    else:
        x = Angle(x)
        step = lambda a: sigma(d, a)
    seen = {x: 0}
    orbit = [x]
    current = x
    while max_steps is None or len(orbit) <= max_steps:
        current = step(current)
        if current in seen:
            pre = seen[current]
            return OrbitInfo(preperiod=pre, period=len(orbit) - pre, orbit=tuple(orbit))
        seen[current] = len(orbit)
        orbit.append(current)
    return None


# ---------------------------------------------------------------------------
# Pullback construction
# ---------------------------------------------------------------------------


class _Sector:
    """One complementary component of a full collection of critical chords.

    ``arcs`` are its half-open circle arcs [start, end); ``corners`` are
    boundary vertices not on any of its arcs (meeting points of two chords),
    which belong to the closure only.
    """

    __slots__ = ("arcs", "corners", "_spans")

    def __init__(self, arcs, corners=()):
        self.arcs = tuple(arcs)
        self.corners = frozenset(corners)
        self._spans = tuple((s, ccw_offset(s, e)) for s, e in self.arcs)

    def contains_closed(self, p) -> bool:
        if p in self.corners:
            return True
        for s, length in self._spans:
            if ccw_offset(s, p) <= length:
                return True
        return False

    @property
    def measure(self) -> Fraction:
        return sum((length for _, length in self._spans), Fraction(0))


def sector_partition(d: int, critical_chords) -> list[_Sector]:
    """The d complementary components of a full collection of d-1 pairwise
    unlinked critical chords, as half-open circle arc unions.

    A point falling on a component boundary belongs to the component that
    contains its positively adjacent arc.
    """
    critical_chords = list(critical_chords)
    report = validate_collection(d, critical_chords)
    if not report.is_full_collection:
        raise InconsistentPortrait(
            f"critical chords do not form a full collection: {list(map(str, critical_chords))}"
        )
    mini = FiniteLamination(d, critical_chords)
    if not check_unlinked(mini)[0]:
        raise InconsistentPortrait("critical chords of the portrait cross each other")
    faces = gaps(mini)
    sectors = []
    for g in faces:
        arcs = [(a.start, a.end) for a in g.arcs]
        if arcs:
            probe = _Sector(arcs)
            corners = [v for v in g.vertices if not probe.contains_closed(v)]
            sectors.append(_Sector(arcs, corners))
    if len(sectors) != d or any(s.measure != Fraction(1, d) for s in sectors):
        raise InconsistentPortrait("critical chords do not cut the circle into d equal parts")
    return sectors


# pullback_build refuses a depth at which the leaf count could pass this
MAX_PULLBACK_LEAVES = 1_000_000


def pullback_build(d: int, portrait, depth: int, sectors=None) -> FiniteLamination:
    """Pullback construction: forward orbits of the portrait chords plus all
    iterated sector preimages up to ``depth`` generations.

    ``portrait`` is the ordered list of initial chords (critical chords
    and/or edges of critical quadrilaterals); its critical chords must form
    a full collection, which determines the d pullback branches.  Passing
    ``sectors`` (a list of critical chords) overrides that default, e.g. to
    use quadrilateral spikes that should not become leaves.  Leaf
    generations are recorded on the result.

    Branch choice: each leaf pulls back once per complementary sector of
    the critical chords.  Endpoint preimages are unique inside a sector
    except when the leaf endpoint is the image of a critical chord, in
    which case both chord ends qualify; the choice is then filtered by
    unlinkedness against everything built so far and against the leaf's
    other sector preimages, preferring the end whose positively adjacent
    arc lies in the sector.

    The pullbacks run on one integer ring mod N = N0 * d**depth, where N0
    is the common denominator of the generation-0 leaves and the sector
    chords: the preimages of X/N are (X + kN)/(dN), and a generation-g leaf
    has numerators divisible by d**(depth - g), so every leaf the build can
    reach is a pair of ints mod N.  Each leaf's Chord is built once, when
    the leaf is recorded.

    Raises InconsistentPortrait when the forward orbit of a portrait chord
    crosses itself, another portrait chord's orbit or a sector chord, and
    ValueError when ``depth`` is not a non-negative int or when the leaf
    bound |gen0| * (d**(depth+1) - 1) / (d - 1) (every leaf pulls back to d
    leaves per generation) exceeds MAX_PULLBACK_LEAVES.
    """
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
        raise ValueError(f"depth must be an integer >= 0, got {depth!r}")
    portrait = [c for c in portrait if not c.degenerate]
    if sectors is not None:
        sector_chords = list(sectors)
    else:
        # maximal no-loop subset of the portrait's critical chords (an
        # all-critical polygon contributes all edges as leaves but only a
        # spanning subset as branch cuts)
        sector_chords = greedy_no_loop(d, [c for c in portrait if is_critical(d, c)])
    parts = sector_partition(d, sector_chords)

    generations: dict[Chord, int] = {}
    for c in portrait:
        for leaf in orbit_classify(d, c).orbit:
            if not leaf.degenerate:
                generations.setdefault(leaf, 0)

    gen0 = sorted(generations)
    if gen0:
        # past depth 64 d**depth alone is over the limit; do not form it
        bound = len(gen0) * (d ** (min(depth, 64) + 1) - 1) // (d - 1)
        if bound > MAX_PULLBACK_LEAVES:
            at_least = "" if depth <= 64 else "at least "
            raise ValueError(
                f"depth {depth} could build {at_least}{bound} leaves from {len(gen0)} "
                f"generation-0 leaves; the limit is {MAX_PULLBACK_LEAVES}"
            )
    ok, pair = check_unlinked(FiniteLamination(d, gen0 + sector_chords))
    if not ok:
        raise InconsistentPortrait(f"portrait chords or their orbits cross: {pair[0]} x {pair[1]}")
    if not gen0:
        # nothing to pull back (an empty portrait, say), and the depth may
        # be too large to form d**depth
        return FiniteLamination(d, (), generations=generations)

    ends = [e for c in gen0 + sector_chords for e in c.endpoints]
    N, xs = _ring(ends)
    scale = d**depth
    N *= scale
    on_ring = {a: x * scale for a, x in zip(ends, xs)}
    step = N // d
    # the half-open sector arcs tile the circle: the arc starting at
    # starts[i] belongs to sector owner[i], and the last one wraps past 0
    tiles = sorted((on_ring[s], k) for k, sector in enumerate(parts) for s, _ in sector.arcs)
    starts = [s for s, _ in tiles]
    owner = [k for _, k in tiles]
    # the points of each closed sector outside its half-open arcs: the arc
    # ends and the corners
    closure = [
        {on_ring[p] for p in sector.corners.union(e for _, e in sector.arcs)} for sector in parts
    ]
    ambiguous_values = {d * on_ring[e] % N for c in sector_chords for e in c.endpoints}

    def sector_of(q: int) -> int:
        return owner[bisect_right(starts, q) - 1]

    def chord_at(x, y) -> Chord:
        g, h = gcd(x, N), gcd(y, N)
        return Chord(_angle(x // g, N // g), _angle(y // h, N // h))

    def candidates(X: int, k: int) -> list[int]:
        """Preimages of X in the closed sector k, half-open-assigned ones first."""
        pre = range(X // d, N, step)
        return [q for q in pre if sector_of(q) == k] + [
            q for q in pre if sector_of(q) != k and q in closure[k]
        ]

    leaves: dict[tuple, Chord] = {}  # int pair -> its Chord, in record order
    by_image: dict[tuple, list] = {}
    current = []
    for c in gen0:
        p = (on_ring[c.a], on_ring[c.b])
        leaves[p] = c
        by_image.setdefault(_ring_image(d, N, p), []).append(p)
        current.append(p)

    def record(p, chord, generation: int, new: list):
        if p not in leaves:
            chord = chord or chord_at(*p)
            leaves[p] = chord
            generations[chord] = generation
            by_image.setdefault(_ring_image(d, N, p), []).append(p)
            new.append(p)

    def pull_leaf(leaf, generation: int, new: list):
        a, b = leaf
        if a not in ambiguous_values and b not in ambiguous_values:
            # interior preimages: each sector holds exactly one preimage of
            # each endpoint
            xs, ys = [0] * d, [0] * d
            for q in range(a // d, N, step):
                xs[sector_of(q)] = q
            for q in range(b // d, N, step):
                ys[sector_of(q)] = q
            for x, y in zip(xs, ys):
                record((x, y) if x < y else (y, x), None, generation, new)
            return
        # an endpoint is the image of a critical chord, so several chord
        # ends qualify in the adjacent sectors; search the d sector choices
        # jointly for a pairwise disjoint, non-crossing set, preferring
        # leaves already present with this image (a periodic leaf must
        # appear in its own sibling collection)
        existing = set(by_image.get(leaf, ()))
        options = []
        for k, sector in enumerate(parts):
            cands = []
            for x in candidates(a, k):
                for y in candidates(b, k):
                    if x == y:
                        continue
                    p = (x, y) if x < y else (y, x)
                    cand = leaves.get(p) or chord_at(*p)
                    if not any(linked(cand, m) for m in leaves.values()):
                        cands.append((p, cand))
            if not cands:
                raise InconsistentPortrait(
                    f"no unlinked pullback of {leaves[leaf]} in sector {sector.arcs}"
                )
            cands.sort(key=lambda pc: pc[0] not in existing)
            options.append(cands)

        # exhaustive over the tiny option product: prefer assignments
        # containing as many already-present same-image leaves as possible,
        # then the first in preference order
        chosen = None
        best_score = -1

        def search(idx, picked, used, score):
            nonlocal chosen, best_score
            if idx == len(options):
                if score > best_score:
                    best_score = score
                    chosen = list(picked)
                return
            for p, cand in options[idx]:
                if p[0] in used or p[1] in used:
                    continue
                picked.append((p, cand))
                used |= {p[0], p[1]}
                search(idx + 1, picked, used, score + (p in existing))
                used -= {p[0], p[1]}
                picked.pop()

        search(0, [], set(), 0)
        if chosen is None:
            raise InconsistentPortrait(f"no disjoint pullback collection for {leaves[leaf]}")
        for p, cand in chosen:
            record(p, cand, generation, new)

    for g in range(1, depth + 1):
        new: list[tuple] = []
        for leaf in current:
            pull_leaf(leaf, g, new)
        current = new
    # ring order is circle order, so the leaves arrive sorted
    return FiniteLamination(d, [leaves[p] for p in sorted(leaves)], generations=generations)


# ---------------------------------------------------------------------------
# Invariance checking
# ---------------------------------------------------------------------------


@dataclass
class InvarianceReport:
    """Per-condition violations of sibling invariance.

    condition1: leaves whose image is neither degenerate nor a leaf.
    condition2: leaves with no pullback among the leaves.
    condition3: leaves with no complete sibling collection among the leaves.
    Leaves of the deepest pullback generation are exempt from (2) and (3):
    finite truncations cannot provide pullbacks at the frontier.
    """

    condition1: list = field(default_factory=list)
    condition2: list = field(default_factory=list)
    condition3: list = field(default_factory=list)
    exempt: int = 0

    @property
    def ok(self) -> bool:
        return not (self.condition1 or self.condition2 or self.condition3)


def check_invariance(lam: FiniteLamination, boundary_depth: int) -> InvarianceReport:
    """Sibling invariance of ``lam`` (see :class:`InvarianceReport`), checked
    with the leaves on one integer ring mod N, the common denominator of
    their endpoints; sigma_d maps the ring into itself."""
    d = lam.degree
    report = InvarianceReport()
    gens = lam.generations or {}
    report.exempt = sum(g >= boundary_depth for g in gens.values())

    N, pairs = _ring_leaves(lam.leaves)
    leaf_pairs = set(pairs)
    images = [_ring_image(d, N, p) for p in pairs]
    by_image: dict[tuple, list] = {}
    for p, img in zip(pairs, images):
        by_image.setdefault(img, []).append(p)

    for c, p, img in zip(lam.leaves, pairs, images):
        degenerate = img[0] == img[1]
        if not degenerate and img not in leaf_pairs:
            report.condition1.append(c)
        g = gens.get(c)
        if g is not None and g >= boundary_depth:
            continue
        if p not in by_image:
            report.condition2.append(c)
        if not degenerate:
            # a sibling collection is c plus d - 1 leaves with its image, all
            # pairwise disjoint, so matching the image's preimages one to one
            others = [m for m in by_image[img] if _ring_disjoint(m, p)]
            if not any(
                all(_ring_disjoint(u, v) for u, v in itertools.combinations(rest, 2))
                for rest in itertools.combinations(others, d - 1)
            ):
                report.condition3.append(c)
    return report


# ---------------------------------------------------------------------------
# Critical sets and clusters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalAnalysis:
    critical_leaves: tuple
    critical_gaps: tuple       # finite gaps of degree > 1
    all_critical_sets: tuple   # critical leaves and all-critical gaps
    critical_clusters: tuple   # vertex tuples of maximal convex unions of critical leaves
    critical_sets: tuple       # maximal critical sets: gaps plus free critical leaves
    skipped_infinite_gaps: int = 0


def _cluster_polygons(component_vertices, leaf_set):
    """Inclusion-maximal convex polygons whose hull edges are all critical
    leaves of the component.  Brute force; components are tiny."""
    verts = sorted(component_vertices)
    if len(verts) < 3 or len(verts) > 14:
        polys = []
        if len(verts) >= 3:
            hull_ok = all(
                Chord(verts[i], verts[(i + 1) % len(verts)]) in leaf_set for i in range(len(verts))
            )
            if hull_ok:
                polys.append(tuple(verts))
        return polys
    found = []
    for size in range(len(verts), 2, -1):
        for subset in itertools.combinations(verts, size):
            if any(set(subset) < set(p) for p in found):
                continue
            if all(Chord(subset[i], subset[(i + 1) % size]) in leaf_set for i in range(size)):
                found.append(tuple(subset))
    return [p for p in found if not any(set(p) < set(q) for q in found)]


def critical_analysis(lam: FiniteLamination) -> CriticalAnalysis:
    """Critical leaves, gaps, clusters and sets of ``lam``, computed on first
    use and kept on the lamination (whose leaves never change)."""
    if lam._analysis is None:
        lam._analysis = _critical_analysis(lam)
    return lam._analysis


def _critical_analysis(lam: FiniteLamination) -> CriticalAnalysis:
    d = lam.degree
    # a leaf is critical when its ends share an image, d*x_a == d*x_b mod N
    N, pairs = _ring_leaves(lam.leaves)
    crit_leaves = tuple(c for c, (a, b) in zip(lam.leaves, pairs) if d * a % N == d * b % N)

    crit_gaps = []
    all_crit_gaps = []
    skipped = 0
    for g in gaps(lam):
        if g.is_disk:
            continue
        if not g.finite:
            skipped += 1
            continue
        if gap_degree(d, g) > 1:
            crit_gaps.append(g)
            if all(is_critical(d, e) for e in g.edges):
                all_crit_gaps.append(g)

    # clusters: group critical leaves by shared endpoints, then extract
    # maximal convex polygons with all hull edges present
    leaf_set = set(crit_leaves)
    adjacency: dict = {}
    for c in crit_leaves:
        adjacency.setdefault(c.a, set()).add(c)
        adjacency.setdefault(c.b, set()).add(c)
    unvisited = set(crit_leaves)
    clusters = []
    while unvisited:
        stack = [unvisited.pop()]
        component = set(stack)
        while stack:
            c = stack.pop()
            for v in c.endpoints:
                for m in adjacency[v]:
                    if m not in component:
                        component.add(m)
                        unvisited.discard(m)
                        stack.append(m)
        vertices = {v for c in component for v in c.endpoints}
        polygons = _cluster_polygons(vertices, leaf_set)
        covered = set()
        for poly in polygons:
            clusters.append(poly)
            pset = set(poly)
            covered |= {c for c in component if c.a in pset and c.b in pset}
        for c in sorted(component - covered):
            clusters.append((c.a, c.b))

    gap_edges = {e for g in crit_gaps for e in g.edges}
    free_leaves = tuple(c for c in crit_leaves if c not in gap_edges)
    return CriticalAnalysis(
        critical_leaves=crit_leaves,
        critical_gaps=tuple(crit_gaps),
        all_critical_sets=tuple(crit_leaves) + tuple(all_crit_gaps),
        critical_clusters=tuple(sorted(clusters)),
        critical_sets=tuple(crit_gaps) + free_leaves,
        skipped_infinite_gaps=skipped,
    )


def prune_isolated(lam: FiniteLamination, tol, rounds: int = 8) -> FiniteLamination:
    """Finite-depth approximation of dropping isolated leaves.

    A leaf survives a round when some other leaf approximates it within
    circle distance ``tol`` at both endpoints.  This is a desk-scale stand-in
    for extracting the perfect sublamination and is label-approximate only.
    """
    tol = Fraction(tol)
    leaves = list(lam.leaves)
    for _ in range(rounds):
        kept = []
        for c in leaves:
            close = False
            for m in leaves:
                if m == c:
                    continue
                if (
                    max(shortest_dist(m.a, c.a), shortest_dist(m.b, c.b)) <= tol
                    or max(shortest_dist(m.a, c.b), shortest_dist(m.b, c.a)) <= tol
                ):
                    close = True
                    break
            if close:
                kept.append(c)
        if len(kept) == len(leaves):
            break
        leaves = kept
    return FiniteLamination(lam.degree, leaves)
