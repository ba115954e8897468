"""Cubic tagging: co-critical sets, minor sets, mixed tags, tag relations.

A cubic critical set of degree two has a unique long hole; the points of
that closed hole (off the set itself) mapping into the set's image span the
*co-critical set*.  An ordered pair of critical sets tags a lamination by
the product coc(first) x sigma3(second) in the bidisk; tags of distinct
dendritic-style laminations are expected to be disjoint or equal, and
refining a portrait inside its critical sets shrinks the tag.  A set is a
``ConvexSet``, kept as its ring ints like a lamination and its faces.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, lcm

from .circle import _at, _record, _ring
from .chords import Chord, _sides
from .lamination import (
    FiniteLamination,
    Gap,
    _image_degree,
    critical_analysis,
)
from .qc_portrait import _collapsing_quad, strongly_linked

__all__ = [
    "ConvexSet",
    "FullPortrait",
    "MixedTag",
    "cocritical_set",
    "minor_set",
    "mixed_tag",
    "tags_relation",
    "classify_tag_relation",
    "TagCaseReport",
    "geometry_checks",
    "GeometryReport",
    "full_portraits_of",
    "reconstruct",
    "separation_check",
    "linked_pair_cocritical_quads",
]


class ConvexSet:
    """Convex hull of finitely many circle points: a point, chord or polygon.

    ``ConvexSet(N, xs)`` takes ring points mod N (see ``circle._ring``) in
    any order, with repeats, and keeps ``ring`` = (N, ascending xs) with
    gcd(N, *xs) divided out, so equal sets have equal rings and every
    question below is asked of ints; ``vertices`` is an Angle view.  Its
    co-critical set and its text are formed on first use and kept.
    """

    __slots__ = ("ring", "_cocritical", "_text")

    def __init__(self, N: int, xs):
        xs = sorted(set(xs))
        if not xs:
            raise ValueError("a convex set needs at least one vertex")
        g = gcd(N, *xs)
        self.ring = N // g, tuple(x // g for x in xs)
        self._cocritical = self._text = None

    @classmethod
    def of(cls, points) -> "ConvexSet":
        return cls(*_ring(points))

    @classmethod
    def hull_of(cls, s: Chord | Gap) -> "ConvexSet":
        """The hull of a chord or of a finite gap, e.g. a critical set."""
        return cls(*_ring(s)) if isinstance(s, Chord) else cls(*s.ring)

    def __eq__(self, other):
        return isinstance(other, ConvexSet) and self.ring == other.ring

    def __hash__(self):
        return hash(self.ring)

    def __repr__(self):
        return f"ConvexSet({self})"

    @property
    def vertices(self) -> tuple:
        N, xs = self.ring
        return tuple(_at(N, x) for x in xs)

    @property
    def edges(self) -> tuple:
        return tuple(Chord(a, b) for a, b in _sides(self.vertices))

    def holes(self):
        """Positive arcs between consecutive vertices as (start, end, length)
        on the ring: ints mod N, a length N for the one hole of a point, the
        full circle."""
        N, xs = self.ring
        return [(s, e, (e - s) % N or N) for s, e in zip(xs, xs[1:] + xs[:1])]

    def intersects(self, other: "ConvexSet") -> bool:
        """Whether the closed hulls meet: they share a vertex, or the vertices
        of ``other`` lie in two or more holes of this set, so that an edge of
        each crosses.  Each vertex of ``other`` finds its hole by bisection,
        both sets put on the ring mod N*M by cross-multiplying."""
        (N, xs), (M, ys) = self.ring, other.ring
        n = len(xs)
        if n == len(ys) == 1:  # the commonest case, two points
            return xs[0] * M == ys[0] * N
        if N != M:
            xs, ys = [x * M for x in xs], [y * N for y in ys]
        hole = None
        for y in ys:
            i = bisect_left(xs, y)
            if i < n and xs[i] == y:
                return True
            # hole i runs from xs[i - 1] to xs[i]; past the last vertex is hole 0
            i %= n
            if hole is None:
                hole = i
            elif hole != i:
                return True
        return False

    def contains(self, other: "ConvexSet") -> bool:
        (N, xs), (M, ys) = self.ring, other.ring
        # a vertex of self lies on the ring mod N, so M divides N
        return not N % M and set(xs).issuperset(y * (N // M) for y in ys)

    def image(self, d: int) -> "ConvexSet":
        N, xs = self.ring
        return ConvexSet(N, [d * x % N for x in xs])

    def degree(self, d: int) -> int:
        N, xs = self.ring
        return _image_degree([d * x % N for x in xs])

    def __str__(self) -> str:
        if self._text is None:
            self._text = "{" + ", ".join(map(str, self.vertices)) + "}"
        return self._text


def cocritical_set(C: ConvexSet) -> ConvexSet:
    """Co-critical set of a cubic critical leaf or gap, computed once per set
    and kept on it.

    Degree-3 sets are their own co-critical set.  Otherwise the unique hole
    of length > 1/3 is selected (a tied length-1/3 hole loses); the result
    is the hull of the points of the closed hole, excluding points of the
    set itself, whose tripling image lies in the image of the set.

    Rejects sets with two holes of length > 1/3 (they separate the two
    critical sets and carry no co-critical data); a rejection is not kept.
    No other set is rejected.  Holes all shorter than 1/3 would wind the
    image boundary around three times, so a set of another degree has a
    hole of length >= 1/3.  The chosen hole (s, e) holds a point to keep:
    s + 1/3 when it is longer than 1/3, and otherwise a preimage of a
    vertex off its ends, which exists since the set is no triangle.

    The work is on ints: the tripling preimages of a point w of the ring
    mod N are w, w + N and w + 2N on the ring mod 3N, where a vertex x of
    the set sits at 3x and its hole (s, e) of length l becomes (3s, 3e) of
    length 3l.
    """
    if C._cocritical is None:
        C._cocritical = _cocritical_set(C)
    return C._cocritical


def _cocritical_set(C: ConvexSet) -> ConvexSet:
    N, xs = C.ring
    images = [3 * x % N for x in xs]
    if _image_degree(images) == 3:
        return C
    # a hole of length l is at least a third of the circle iff 3l >= N
    long_holes = [h for h in C.holes() if 3 * h[2] >= N]
    if len(long_holes) > 1:
        long_holes = [h for h in long_holes if 3 * h[2] > N]
        if len(long_holes) != 1:
            raise ValueError(f"{C} has several long holes; co-critical set undefined")
    start, _, length = long_holes[0]
    M, s, l = 3 * N, 3 * start, 3 * length
    own = {3 * x for x in xs}
    points = [
        p
        for w in set(images)
        for p in (w, w + N, w + 2 * N)
        if (p - s) % M <= l and p not in own
    ]
    return ConvexSet(M, points)


@_record("first", "second", frozen=True)
class FullPortrait:
    """Ordered pair of cubic critical sets; equal components only for the
    unique degree-3 critical set of a unicritical lamination."""

    def __post_init__(self):
        if self.first == self.second and self.first.degree(3) != 3:
            raise ValueError("equal full-portrait components must be the degree-3 set")

    def __iter__(self):
        return iter((self.first, self.second))

    def refines(self, other: "FullPortrait") -> bool:
        return other.first.contains(self.first) and other.second.contains(self.second)

    def __str__(self) -> str:
        return f"({self.first}, {self.second})"


def minor_set(fp: FullPortrait) -> ConvexSet:
    return fp.second.image(3)


@_record("cocritical_factor", "minor_factor", frozen=True)
class MixedTag:
    def intersects(self, other: "MixedTag") -> bool:
        return self.cocritical_factor.intersects(
            other.cocritical_factor
        ) and self.minor_factor.intersects(other.minor_factor)

    def contains(self, other: "MixedTag") -> bool:
        return self.cocritical_factor.contains(
            other.cocritical_factor
        ) and self.minor_factor.contains(other.minor_factor)

    def __str__(self) -> str:
        return f"{self.cocritical_factor} x {self.minor_factor}"


def _validate_portrait_sets(lam: FiniteLamination, fp: FullPortrait):
    # the sides of a hull, sorted pairs of Angles in the order of
    # ConvexSet.edges, are looked up on the lamination's ring by `in`; a
    # point has no sides and is no critical set
    for S in fp:
        vs = S.vertices
        missing = next((e for e in _sides(vs) if e not in lam), None)
        if missing is None and len(vs) > 1:
            continue
        if len(vs) <= 2:
            raise ValueError(f"{S} is not a leaf of the lamination")
        raise ValueError(f"{S} is not a gap of the lamination (missing edge {Chord(*missing)})")


def mixed_tag(lam: FiniteLamination | None, fp: FullPortrait) -> MixedTag:
    """The tag coc(first) x sigma3(second); the lamination, when supplied,
    is used to validate that the portrait sets are leaves or gaps of it."""
    if lam is not None:
        if lam.degree != 3:
            raise ValueError("mixed tags are cubic")
        _validate_portrait_sets(lam, fp)
    return MixedTag(cocritical_set(fp.first), minor_set(fp))


def tags_relation(t1: MixedTag, t2: MixedTag) -> str:
    """"disjoint", "equal", or the forbidden "properly_overlapping"."""
    if t1 == t2:
        return "equal"
    if not t1.intersects(t2):
        return "disjoint"
    return "properly_overlapping"


def _meeting_pairs(hulls):
    """Yield the index pairs (i, j), i < j, of the hulls that meet, in
    ascending order.

    Two hulls meet iff they share a vertex or an edge of one crosses an edge
    of the other (see :meth:`ConvexSet.intersects`).  Shared vertices come
    from bucketing the hulls by vertex.  Crossings come from one sweep over
    all edges (a, b), a < b, on the ring mod L, the lcm of the hulls' rings,
    where circle order is int order: the edges from a ascend by start, and
    the open edges (c, d), c < a < d, sit in a heap by end d.  An open edge
    crosses (a, b) iff d < b, and those are read off the top of the heap.
    For M vertices and edges and K pairs yielded that is O(M log M + K),
    where comparing every pair is O(n^2) for n hulls.  The pairs of hull i
    are formed when i is reached, so only the crossings are held at once.
    """
    L = lcm(*(h.ring[0] for h in hulls))
    corners = [[x * (L // N) for x in xs] for N, xs in (h.ring for h in hulls)]
    through = {}  # vertex -> the hulls through it, ascending
    edges = []
    for i, vs in enumerate(corners):
        for v in vs:
            through.setdefault(v, []).append(i)
        edges += [(a, b, i) for a, b in _sides(vs)]
    crossing = {}  # i -> the hulls j > i with an edge crossing one of i
    edges.sort()
    open_edges = []  # a heap of (end, hull)
    k = 0
    while k < len(edges):
        a = edges[k][0]
        while open_edges and open_edges[0][0] <= a:
            heapq.heappop(open_edges)  # ends before a or at it: crosses nothing from a on
        start = k
        while k < len(edges) and edges[k][0] == a:
            _, b, i = edges[k]
            k += 1
            # the entries below b form a subtree at the top of the heap
            stack = [0]
            while stack:
                n = stack.pop()
                if n < len(open_edges) and open_edges[n][0] < b:
                    j = open_edges[n][1]  # edges of one convex hull never cross
                    crossing.setdefault(min(i, j), set()).add(max(i, j))
                    stack += (2 * n + 1, 2 * n + 2)
        for _, b, i in edges[start:k]:
            heapq.heappush(open_edges, (b, i))
    for i, vs in enumerate(corners):
        partners = crossing.pop(i, set())
        for v in vs:
            owners = through[v]
            partners.update(owners[bisect_right(owners, i):])
        for j in sorted(partners):
            yield i, j


def full_portraits_of(lam: FiniteLamination):
    """All full portraits formed from the lamination's maximal critical
    sets: both orderings of two distinct sets, or the doubled degree-3 set."""
    return _full_portraits([ConvexSet.hull_of(s) for s in critical_analysis(lam).critical_sets])


def _full_portraits(sets) -> list:
    """The full portraits of the hulls of a lamination's critical sets."""
    if len(sets) == 1 and sets[0].degree(3) == 3:
        return [FullPortrait(sets[0], sets[0])]
    return [FullPortrait(*sets), FullPortrait(*sets[::-1])] if len(sets) == 2 else []


# ---------------------------------------------------------------------------
# Tag relation classifier
# ---------------------------------------------------------------------------


@_record(
    "relation",
    "triangle_case",           # equal laminations through an all-critical triangle
    "containment_case",        # lamination containment with portrait refinement
    "consistent",              # (non-disjoint) == (triangle_case or containment_case)
    "common_depth",            # an int, or None
)
class TagCaseReport:
    pass


def classify_tag_relation(lamA, fpA: FullPortrait, lamX, fpX: FullPortrait) -> TagCaseReport:
    """Decide which side of the tag-intersection dichotomy holds for a
    dendritic-candidate lamination against another tagged lamination.

    Non-disjoint tags should coincide with one of: the laminations agree
    and share an all-critical triangle whose first portrait sets are not
    distinct edges of it; or the first lamination's leaves are contained in
    the second's with the first portrait componentwise larger.  Containment
    is checked at the minimum common build depth and is depth-limited.
    """
    tagA = mixed_tag(lamA, fpA)
    tagX = mixed_tag(lamX, fpX)
    relation = tags_relation(tagA, tagX)

    depthA, depthX = lamA.max_generation, lamX.max_generation
    if depthA is None or depthX is None:
        common = None
        truncA, truncX = lamA, lamX
    else:
        common = min(depthA, depthX)
        # up_to is the lamination itself at or past its depth
        truncA, truncX = lamA.up_to(common), lamX.up_to(common)

    # a cubic all-critical polygon is a triangle
    triangles = [v for v in critical_analysis(lamA).critical_clusters if len(v) == 3]
    triangle_case = False
    if triangles and truncA == truncX:
        T = set(triangles[0])
        first_edges_distinct = (
            len(fpA.first.ring[1]) == 2
            and len(fpX.first.ring[1]) == 2
            and set(fpA.first.vertices) <= T
            and set(fpX.first.vertices) <= T
            and fpA.first != fpX.first
        )
        triangle_case = not first_edges_distinct
    containment_case = False
    if not triangles:
        containment_case = fpX.refines(fpA) and truncA.issubset(lamX)
    consistent = (relation != "disjoint") == (triangle_case or containment_case)
    return TagCaseReport(
        relation=relation,
        triangle_case=triangle_case,
        containment_case=containment_case,
        consistent=consistent,
        common_depth=common,
    )


# ---------------------------------------------------------------------------
# Geometry checks
# ---------------------------------------------------------------------------


def separation_check(C1: ConvexSet, C2: ConvexSet) -> Fraction:
    """Largest circle distance from a vertex of one set to the nearest vertex
    of the other; distinct cubic critical sets should give at least 1/12.
    Both sets' ring points go on the ring mod L, the lcm of theirs, where the
    distance of x and y is the shorter of (x - y) % L and its complement."""
    (N, xs), (M, ys) = C1.ring, C2.ring
    L = lcm(N, M)
    xs, ys = [x * (L // N) for x in xs], [y * (L // M) for y in ys]

    def dist(x, y):
        r = (x - y) % L
        return min(r, L - r)

    return Fraction(max(min(dist(p, v) for v in B) for A, B in ((xs, ys), (ys, xs)) for p in A), L)


@_record(
    colocation_failures=list,
    linkco_failures=list,
    reconstruction_failures=list,
    separation_failures=list,
    checked=dict,
)
class GeometryReport:
    @property
    def ok(self) -> bool:
        return not (
            self.colocation_failures
            or self.linkco_failures
            or self.reconstruction_failures
            or self.separation_failures
        )


def reconstruct(C: ConvexSet) -> ConvexSet:
    """Hull of the thirds-translates of the co-critical set; equals the
    original set for critical leaves and collapsing quadrilaterals."""
    N, xs = cocritical_set(C).ring
    # x/N + k/3 is (3x + kN)/3N
    return ConvexSet(3 * N, [(3 * x + k * N) % (3 * N) for k in (1, 2) for x in xs])


def linked_pair_cocritical_quads(l1: Chord, l2: Chord):
    """The co-critical quadrilaterals of two linked chords shorter than a
    third, and their strong-linkage report.  A chord x y, x < y, has its set
    refused for 1/3 < y - x < 2/3, under four points if critical or
    degenerate (a ValueError here), and else x+1/3, y+1/3, x+2/3, y+2/3."""
    quads = []
    for c in (l1, l2):
        quad = _collapsing_quad(3, cocritical_set(ConvexSet.hull_of(c)))
        if quad is None:
            raise ValueError(f"the co-critical set of {c} is no collapsing quadrilateral")
        quads.append(quad)
    return quads[0], quads[1], strongly_linked(*quads)


def geometry_checks(lam: FiniteLamination, linked_samples=()) -> GeometryReport:
    """Bundle of cubic co-critical geometry checks on a lamination.

    (i) each co-critical edge with a hole off the critical set maps
    injectively, with the companion minor set inside the complementary
    image arc; (ii) supplied linked chord pairs produce strongly linked
    collapsing co-critical quadrilaterals; (iii) critical leaves and
    collapsing quadrilaterals reconstruct from their co-critical sets;
    (iv) two distinct critical sets are at least 1/12 apart.
    """
    if lam.degree != 3:
        raise ValueError("geometry checks are cubic")
    linked_samples = tuple(linked_samples)
    report = GeometryReport()
    analysis = critical_analysis(lam)
    # each critical set's hull, once: portraits, separations, reconstructions
    sets = [ConvexSet.hull_of(s) for s in analysis.critical_sets]
    hulls = dict(zip(analysis.critical_sets, sets))
    portraits = _full_portraits(sets)
    report.checked["portraits"] = len(portraits)

    for fp in portraits:
        C, D = fp.first, fp.second
        # a critical set has degree 2 (one long hole) or 3: never refused
        coc = cocritical_set(C)
        if len(coc.ring[1]) == 1:
            continue  # its one hole is the whole circle, behind no edge
        # the three sets on one ring mod L
        minor = D.image(3)
        L = lcm(coc.ring[0], C.ring[0], minor.ring[0])
        crit, ends = ([x * (L // S.ring[0]) for x in S.ring[1]] for S in (C, minor))
        k = L // coc.ring[0]
        for s, t, arc_len in coc.holes():
            s, t, arc_len = s * k, t * k, arc_len * k
            if any(0 < (p - s) % L < arc_len for p in crit):
                continue  # hole meets the critical set
            e = str(Chord(_at(L, s), _at(L, t)))
            if 3 * arc_len > L:
                report.colocation_failures.append((str(C), e, "arc longer than 1/3"))
            # the image arc runs from sigma3(t) to sigma3(s)
            img_span = 3 * (s - t) % L
            for w in ends:
                if (w - 3 * t) % L > img_span:
                    report.colocation_failures.append(
                        (str(C), e, f"minor vertex {_at(L, w)} escapes the image arc")
                    )

    for l1, l2 in linked_samples:
        if not linked_pair_cocritical_quads(l1, l2)[2].linked:
            report.linkco_failures.append((str(l1), str(l2), "not strongly linked"))
    report.checked["linked_samples"] = len(linked_samples)

    recon_targets = [hulls.get(c) or ConvexSet.hull_of(c) for c in analysis.critical_leaves]
    recon_targets += [hulls[g] for g in analysis.critical_gaps if _collapsing_quad(3, g) is not None]
    for C in recon_targets:
        if reconstruct(C) != C:
            report.reconstruction_failures.append(str(C))
    report.checked["reconstructions"] = len(recon_targets)

    if len(sets) >= 2:
        for A, B in itertools.combinations(sets, 2):
            gap = separation_check(A, B)
            if gap < Fraction(1, 12):
                report.separation_failures.append((str(A), str(B), str(gap)))
        report.checked["separations"] = len(sets) * (len(sets) - 1) // 2
    return report
