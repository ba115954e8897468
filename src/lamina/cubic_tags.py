"""Cubic tagging: co-critical sets, minor sets, mixed tags, tag relations.

A cubic critical set of degree two has a unique long hole; the points of
that closed hole (off the set itself) mapping into the set's image span the
*co-critical set*.  An ordered pair of critical sets tags a lamination by
the product coc(first) x sigma3(second) in the bidisk; tags of distinct
dendritic-style laminations are expected to be disjoint or equal, and
refining a portrait inside its critical sets shrinks the tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .circle import THIRD, Angle, ccw_offset, shortest_dist, sigma, preimages
from .chords import Chord, linked
from .lamination import (
    FiniteLamination,
    Gap,
    boundary_degree,
    critical_analysis,
)
from .qc_portrait import make_quadrilateral, strongly_linked, COLLAPSING

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
    "set_distance",
    "linked_pair_cocritical_quads",
]


@dataclass(frozen=True)
class ConvexSet:
    """Convex hull of finitely many circle points: a point, chord or polygon.

    Vertices are stored ascending (positive circular order from the
    smallest).  Closed-disk intersection with another such set is decided by
    shared vertices and edge crossings.
    """

    vertices: tuple

    @classmethod
    def of(cls, points) -> "ConvexSet":
        vs = tuple(sorted({Angle(p) for p in points}))
        if not vs:
            raise ValueError("a convex set needs at least one vertex")
        return cls(vs)

    @classmethod
    def hull_of(cls, s: Chord | Gap) -> "ConvexSet":
        """The hull of a chord or of a finite gap, e.g. a critical set."""
        return cls.of(s.endpoints if isinstance(s, Chord) else s.vertices)

    @property
    def edges(self) -> tuple:
        v = self.vertices
        if len(v) < 2:
            return ()
        if len(v) == 2:
            return (Chord(v[0], v[1]),)
        return tuple(Chord(v[i], v[(i + 1) % len(v)]) for i in range(len(v)))

    def holes(self):
        """Positive arcs between consecutive vertices as (start, end, length);
        a single point has the full circle as its one hole."""
        v = self.vertices
        if len(v) == 1:
            return [(v[0], v[0], Fraction(1))]
        out = []
        for i in range(len(v)):
            s, e = v[i], v[(i + 1) % len(v)]
            out.append((s, e, ccw_offset(s, e)))
        return out

    def intersects(self, other: "ConvexSet") -> bool:
        if set(self.vertices) & set(other.vertices):
            return True
        for e1 in self.edges:
            for e2 in other.edges:
                if linked(e1, e2):
                    return True
        return False

    def contains(self, other: "ConvexSet") -> bool:
        return set(other.vertices) <= set(self.vertices)

    def image(self, d: int) -> "ConvexSet":
        return ConvexSet.of(sigma(d, v) for v in self.vertices)

    def degree(self, d: int) -> int:
        return boundary_degree(d, self.vertices)

    def __str__(self) -> str:
        return "{" + ", ".join(str(v) for v in self.vertices) + "}"


def _in_closed_arc(p, start, end, length) -> bool:
    if length >= 1:
        return True
    return ccw_offset(start, p) <= length


def cocritical_set(C: ConvexSet) -> ConvexSet:
    """Co-critical set of a cubic critical leaf or gap.

    Degree-3 sets are their own co-critical set.  Otherwise the unique hole
    of length > 1/3 is selected (a tied length-1/3 hole loses); the result
    is the hull of the points of the closed hole, excluding points of the
    set itself, whose tripling image lies in the image of the set.

    Rejects sets with two holes of length > 1/3 (they separate the two
    critical sets and carry no co-critical data).
    """
    if C.degree(3) == 3:
        return C
    long_holes = [h for h in C.holes() if h[2] >= THIRD]
    if not long_holes:
        raise ValueError(f"{C} has no hole of length >= 1/3")
    if len(long_holes) > 1:
        strict = [h for h in long_holes if h[2] > THIRD]
        if len(strict) != 1:
            raise ValueError(f"{C} has several long holes; co-critical set undefined")
        hole = strict[0]
    else:
        hole = long_holes[0]
    start, end, length = hole
    image_points = {sigma(3, v) for v in C.vertices}
    points = set()
    for w in image_points:
        for q in preimages(3, w):
            if _in_closed_arc(q, start, end, length):
                points.add(q)
    points -= set(C.vertices)
    if not points:
        raise ValueError(f"{C} has an empty co-critical set")
    return ConvexSet.of(points)


@dataclass(frozen=True)
class FullPortrait:
    """Ordered pair of cubic critical sets; equal components only for the
    unique degree-3 critical set of a unicritical lamination."""

    first: ConvexSet
    second: ConvexSet

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


@dataclass(frozen=True)
class MixedTag:
    cocritical_factor: ConvexSet
    minor_factor: ConvexSet

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
    for S in fp:
        if len(S.vertices) == 2:
            if Chord(S.vertices[0], S.vertices[1]) not in lam:
                raise ValueError(f"{S} is not a leaf of the lamination")
        elif len(S.vertices) >= 3:
            for e in S.edges:
                if e not in lam:
                    raise ValueError(f"{S} is not a gap of the lamination (missing edge {e})")


def mixed_tag(lam: FiniteLamination | None, fp: FullPortrait) -> MixedTag:
    """The tag coc(first) x sigma3(second); the lamination, when supplied,
    is used to validate that the portrait sets are leaves or gaps of it."""
    if lam is not None:
        if lam.degree != 3:
            raise ValueError("mixed tags are cubic")
        _validate_portrait_sets(lam, fp)
    return MixedTag(cocritical_set(fp.first), fp.second.image(3))


def tags_relation(t1: MixedTag, t2: MixedTag) -> str:
    """"disjoint", "equal", or the forbidden "properly_overlapping"."""
    if t1 == t2:
        return "equal"
    if not t1.intersects(t2):
        return "disjoint"
    return "properly_overlapping"


def full_portraits_of(lam: FiniteLamination):
    """All full portraits formed from the lamination's maximal critical
    sets: both orderings of two distinct sets, or the doubled degree-3 set."""
    sets = [ConvexSet.hull_of(s) for s in critical_analysis(lam).critical_sets]
    portraits = []
    if len(sets) == 1 and sets[0].degree(3) == 3:
        portraits.append(FullPortrait(sets[0], sets[0]))
    elif len(sets) == 2:
        portraits.append(FullPortrait(sets[0], sets[1]))
        portraits.append(FullPortrait(sets[1], sets[0]))
    return portraits


# ---------------------------------------------------------------------------
# Tag relation classifier
# ---------------------------------------------------------------------------


@dataclass
class TagCaseReport:
    relation: str
    triangle_case: bool        # equal laminations through an all-critical triangle
    containment_case: bool     # lamination containment with portrait refinement
    consistent: bool           # (non-disjoint) == (triangle_case or containment_case)
    common_depth: int | None
    caveats: tuple


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

    caveats = ["dendritic filtering is heuristic at finite depth"]
    if lamA.generations and lamX.generations:
        common = min(lamA.max_generation, lamX.max_generation)
        caveats.append(f"leaf containment checked at common depth {common}")
    else:
        common = None

    leavesA = lamA.leaves_up_to(common) if common is not None else lamA.leaf_set
    leavesX = lamX.leaves_up_to(common) if common is not None else lamX.leaf_set

    # a cubic all-critical polygon is a triangle
    triangles = [v for v in critical_analysis(lamA).critical_clusters if len(v) == 3]
    triangle_case = False
    if triangles:
        same = leavesA == leavesX
        if same:
            T = set(triangles[0])
            first_edges_distinct = (
                len(fpA.first.vertices) == 2
                and len(fpX.first.vertices) == 2
                and set(fpA.first.vertices) <= T
                and set(fpX.first.vertices) <= T
                and fpA.first != fpX.first
            )
            triangle_case = not first_edges_distinct
    containment_case = False
    if not triangles:
        containment_case = leavesA <= lamX.leaf_set and fpX.refines(fpA)
    consistent = (relation != "disjoint") == (triangle_case or containment_case)
    return TagCaseReport(
        relation=relation,
        triangle_case=triangle_case,
        containment_case=containment_case,
        consistent=consistent,
        common_depth=common,
        caveats=tuple(caveats),
    )


# ---------------------------------------------------------------------------
# Geometry checks
# ---------------------------------------------------------------------------


def set_distance(p, S: ConvexSet) -> Fraction:
    """Circle distance from a point to the nearest vertex of a convex set."""
    return min(shortest_dist(p, v) for v in S.vertices)


def separation_check(C1: ConvexSet, C2: ConvexSet) -> Fraction:
    """Largest circle distance from a point of one set to the other set;
    distinct cubic critical sets should give at least 1/12."""
    d12 = max(set_distance(p, C2) for p in C1.vertices)
    d21 = max(set_distance(p, C1) for p in C2.vertices)
    return max(d12, d21)


@dataclass
class GeometryReport:
    colocation_failures: list = field(default_factory=list)
    linkco_failures: list = field(default_factory=list)
    reconstruction_failures: list = field(default_factory=list)
    separation_failures: list = field(default_factory=list)
    checked: dict = field(default_factory=dict)

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
    coc = cocritical_set(C)
    pts = [Angle(v + THIRD) for v in coc.vertices]
    pts += [Angle(v + 2 * THIRD) for v in coc.vertices]
    return ConvexSet.of(pts)


def linked_pair_cocritical_quads(l1: Chord, l2: Chord):
    """Co-critical quadrilaterals of two linked chords spanning at most a
    third of the circle; they should come out strongly linked and
    collapsing."""
    q1 = cocritical_set(ConvexSet.hull_of(l1))
    q2 = cocritical_set(ConvexSet.hull_of(l2))
    quad1 = make_quadrilateral(q1.vertices, 3)
    quad2 = make_quadrilateral(q2.vertices, 3)
    return quad1, quad2, strongly_linked(quad1, quad2)


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
    portraits = full_portraits_of(lam)
    report.checked["portraits"] = len(portraits)

    for fp in portraits:
        C, D = fp.first, fp.second
        try:
            coc = cocritical_set(C)
        except ValueError:
            continue
        if len(coc.vertices) == 1:
            continue  # its one hole is the whole circle, behind no edge
        cset = set(C.vertices)
        for s, t, arc_len in coc.holes():
            if any(0 < ccw_offset(s, p) < arc_len for p in cset):
                continue  # hole meets the critical set
            e = str(Chord(s, t))
            if arc_len > THIRD:
                report.colocation_failures.append((str(C), e, "arc longer than 1/3"))
            img_span = ccw_offset(sigma(3, t), sigma(3, s))
            for w in D.image(3).vertices:
                if ccw_offset(sigma(3, t), w) > img_span:
                    report.colocation_failures.append(
                        (str(C), e, f"minor vertex {w} escapes the image arc")
                    )

    for l1, l2 in linked_samples:
        quad1, quad2, rep = linked_pair_cocritical_quads(l1, l2)
        if not rep.linked:
            report.linkco_failures.append((str(l1), str(l2), "not strongly linked"))
        if quad1.classification != COLLAPSING or quad2.classification != COLLAPSING:
            report.linkco_failures.append((str(l1), str(l2), "not collapsing"))
    report.checked["linked_samples"] = len(linked_samples)

    analysis = critical_analysis(lam)
    recon_targets = [ConvexSet.hull_of(c) for c in analysis.critical_leaves]
    for g in analysis.critical_gaps:
        if len(g.vertices) == 4:
            try:
                quad = make_quadrilateral(g.vertices, 3)
            except ValueError:
                continue
            if quad.classification == COLLAPSING:
                recon_targets.append(ConvexSet.hull_of(g))
    for C in recon_targets:
        if reconstruct(C) != C:
            report.reconstruction_failures.append(str(C))
    report.checked["reconstructions"] = len(recon_targets)

    sets = [ConvexSet.hull_of(s) for s in analysis.critical_sets]
    if len(sets) >= 2:
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                gap = separation_check(sets[i], sets[j])
                if gap < Fraction(1, 12):
                    report.separation_failures.append((str(sets[i]), str(sets[j]), str(gap)))
        report.checked["separations"] = len(sets) * (len(sets) - 1) // 2
    return report
