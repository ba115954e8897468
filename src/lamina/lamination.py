"""Finite laminations: unlinkedness, gaps, invariance, pullbacks, criticality.

A FiniteLamination is a canonical finite set of pairwise-unlinked chords of
fixed degree d (degenerate leaves are implied and not stored).  The disk
minus the chords decomposes into gaps, extracted here by a planar face walk;
laminations are generated from critical portraits by the standard pullback
scheme, with branches chosen inside the complementary sectors of a full
collection of critical chords.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .circle import Angle, Arc, ccw_offset, preimages, sigma, shortest_dist
from .chords import (
    Chord,
    chord_image,
    greedy_no_loop,
    is_critical,
    linked,
    sibling_collections,
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
        canon = sorted({c for c in leaves if not c.degenerate})
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


def check_unlinked(lam: FiniteLamination):
    """Non-crossing sweep over the leaf endpoints in circle order, O(N log N).

    Pairwise unlinked leaves nest like parentheses.  At each endpoint the
    leaves ending there close innermost first (largest ``a``), and each must
    be the top of the stack of open leaves; then the leaves starting there
    open outermost first (largest ``b``).  A closing leaf that is not the
    top crosses the top.

    Returns (True, None) or (False, (c1, c2)) with c1 < c2 a crossing pair,
    not necessarily the lexicographically first one.
    """
    events = sorted(
        [(c.b, False, -c.a, c) for c in lam.leaves] + [(c.a, True, -c.b, c) for c in lam.leaves]
    )
    stack = []
    for _, opens, _, c in events:
        if opens:
            stack.append(c)
        elif stack[-1] is c:
            stack.pop()
        else:
            return False, tuple(sorted((c, stack[-1])))
    return True, None


_ZERO = Angle(0)


def _face_walk(leaves):
    """Faces of the disk subdivision induced by pairwise unlinked chords.

    Each face is a list of directed edges ("chord", u, v) or ("arc", p, q);
    interior faces keep the region on the left, so boundaries come out in
    positive circular order.
    """
    points = sorted({e for c in leaves for e in c.endpoints})
    n = len(points)
    succ = {points[i]: points[(i + 1) % n] for i in range(n)}
    chords_at: dict = {p: [] for p in points}
    for c in leaves:
        chords_at[c.a].append(c.b)
        chords_at[c.b].append(c.a)
    # outgoing candidates at v, sorted by the rotation parameter
    # t = (w - v) mod 1; the counterclockwise arc leaves at t -> 0+.
    out_sorted = {}
    for v in points:
        cands = [(ccw_offset(v, w), ("chord", v, w)) for w in chords_at[v]]
        cands.append((_ZERO, ("arc", v, succ[v])))
        cands.sort(key=lambda x: x[0])
        out_sorted[v] = cands

    def next_edge(edge):
        kind, u, v = edge
        if kind == "arc":
            # arcs arrive along the circle, so their reverse points clockwise
            # (parameter 1) and every outgoing candidate precedes it
            return out_sorted[v][-1][1]
        t_rev = ccw_offset(v, u)
        best = None
        for t, cand in out_sorted[v]:
            if t < t_rev:
                best = cand
            else:
                break
        if best is None:
            raise AssertionError("face walk found no outgoing edge")
        return best

    all_edges = [("arc", p, succ[p]) for p in points]
    for c in leaves:
        all_edges.append(("chord", c.a, c.b))
        all_edges.append(("chord", c.b, c.a))
    seen = set()
    faces = []
    for start in all_edges:
        if start in seen:
            continue
        face = []
        edge = start
        while True:
            face.append(edge)
            seen.add(edge)
            edge = next_edge(edge)
            if edge == start:
                break
        faces.append(face)
    return faces


def gaps(lam: FiniteLamination) -> list[Gap]:
    """All gaps of an unlinked lamination, including arc-bearing ones."""
    if not lam.leaves:
        return [Gap.whole_disk()]
    result = []
    for face in _face_walk(lam.leaves):
        verts = [edge[1] for edge in face]
        sides = []
        for kind, u, v in face:
            if kind == "chord":
                sides.append(("chord", Chord(u, v)))
            else:
                sides.append(("arc", Arc(u, v)))
        # canonical rotation: start at the smallest vertex
        k = verts.index(min(verts))
        verts = verts[k:] + verts[:k]
        sides = sides[k:] + sides[:k]
        result.append(Gap(vertices=tuple(verts), sides=tuple(sides)))
    result.sort(key=lambda g: g.vertices)
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

    def contains(self, p) -> bool:
        for s, length in self._spans:
            if ccw_offset(s, p) < length:
                return True
        return False

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


def _preimage_in(d: int, p: Angle, sector: _Sector) -> Angle:
    for q in preimages(d, p):
        if sector.contains(q):
            return q
    raise AssertionError(f"no preimage of {p} in sector {sector.arcs}")


def _preimage_candidates(d: int, p: Angle, sector: _Sector) -> list[Angle]:
    """Preimages of p in the closed sector, half-open-assigned ones first."""
    preferred, closure_only = [], []
    for q in preimages(d, p):
        if sector.contains(q):
            preferred.append(q)
        elif sector.contains_closed(q):
            closure_only.append(q)
    return preferred + sorted(closure_only)


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
    ambiguous_values = {sigma(d, e) for c in sector_chords for e in c.endpoints}

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

    by_image: dict[Chord, list] = {}
    for c in generations:
        by_image.setdefault(chord_image(d, c), []).append(c)

    def record(c: Chord, generation: int, new: list):
        if c not in generations:
            generations[c] = generation
            by_image.setdefault(chord_image(d, c), []).append(c)
            new.append(c)

    def pull_leaf(leaf: Chord, generation: int, new: list):
        if leaf.a not in ambiguous_values and leaf.b not in ambiguous_values:
            # interior preimages: one unambiguous choice per sector
            chosen = [
                Chord(_preimage_in(d, leaf.a, sector), _preimage_in(d, leaf.b, sector))
                for sector in parts
            ]
        else:
            # an endpoint is the image of a critical chord, so several chord
            # ends qualify in the adjacent sectors; search the d sector
            # choices jointly for a pairwise disjoint, non-crossing set,
            # preferring leaves already present with this image (a periodic
            # leaf must appear in its own sibling collection)
            existing = set(by_image.get(leaf, ()))
            options = []
            for sector in parts:
                cands = []
                for pa in _preimage_candidates(d, leaf.a, sector):
                    for pb in _preimage_candidates(d, leaf.b, sector):
                        if pa == pb:
                            continue
                        cand = Chord(pa, pb)
                        if not any(linked(cand, m) for m in generations):
                            cands.append(cand)
                if not cands:
                    raise InconsistentPortrait(
                        f"no unlinked pullback of {leaf} in sector {sector.arcs}"
                    )
                cands.sort(key=lambda c: (c not in existing,))
                options.append(cands)

            # exhaustive over the tiny option product: prefer assignments
            # containing as many already-present same-image leaves as
            # possible, then the first in preference order
            chosen = None
            best_score = -1

            def search(idx, picked, used, score):
                nonlocal chosen, best_score
                if idx == len(options):
                    if score > best_score:
                        best_score = score
                        chosen = list(picked)
                    return
                for cand in options[idx]:
                    if cand.a in used or cand.b in used:
                        continue
                    picked.append(cand)
                    used |= {cand.a, cand.b}
                    search(idx + 1, picked, used, score + (cand in existing))
                    used -= {cand.a, cand.b}
                    picked.pop()

            search(0, [], set(), 0)
            if chosen is None:
                raise InconsistentPortrait(f"no disjoint pullback collection for {leaf}")
        for c in chosen:
            record(c, generation, new)

    current = gen0
    for g in range(1, depth + 1):
        if not current:
            break  # nothing left to pull back (an empty portrait, say)
        new: list[Chord] = []
        for leaf in current:
            pull_leaf(leaf, g, new)
        current = new
    return FiniteLamination(d, generations.keys(), generations=generations)


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
    d = lam.degree
    report = InvarianceReport()
    gens = lam.generations or {}
    exempt = {c for c, g in gens.items() if g >= boundary_depth}
    report.exempt = len(exempt)

    by_image: dict[Chord, list] = {}
    for c in lam.leaves:
        by_image.setdefault(chord_image(d, c), []).append(c)

    for c in lam.leaves:
        img = chord_image(d, c)
        if not img.degenerate and img not in lam:
            report.condition1.append(c)
        if c in exempt:
            continue
        if c not in by_image:
            report.condition2.append(c)
        if not img.degenerate:
            found = False
            for coll in sibling_collections(d, c):
                if all(member == c or member in lam for member in coll):
                    found = True
                    break
            if not found:
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
    crit_leaves = tuple(c for c in lam.leaves if is_critical(d, c))

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
