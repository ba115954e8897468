"""Critical quadrilaterals, qc-portraits, tuning and the pair classifier.

A critical quadrilateral is a circularly ordered 4-tuple (repeats allowed)
whose diagonals (*spikes*) are critical chords.  A qc-portrait is an ordered
(d-1)-tuple of such quadrilaterals for which any complete sample of spikes
(one spike per quadrilateral) is a full collection.  Two portraits compare
by strong linkage / spike sharing per index, with a suffix of associated
pairs allowed to sit in a common critical cluster.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .circle import Angle, cyclic_descents, sigma
from .chords import Chord, chord_image, greedy_no_loop, is_critical, validate_collection
from .lamination import (
    FiniteLamination,
    Gap,
    _all_critical,
    boundary_degree,
    critical_analysis,
    gap_degree,
)

__all__ = [
    "CriticalQuadrilateral",
    "make_quadrilateral",
    "strongly_linked",
    "StrongLinkReport",
    "QcPortrait",
    "validate_qc_portrait",
    "complete_samples",
    "qc_portrait_exists",
    "derive_qc_portrait",
    "tune_insert",
    "classify_pair",
    "PairReport",
    "CriticalPattern",
    "pattern_refines",
]

COLLAPSING = "collapsing"
CRITICAL_LEAF = "critical_leaf"
ALL_CRITICAL_TRIANGLE = "all_critical_triangle"
ALL_CRITICAL_QUADRILATERAL = "all_critical_quadrilateral"


@dataclass(frozen=True)
class CriticalQuadrilateral:
    """Circular 4-tuple [a0, a1, a2, a3] with critical diagonals.

    The four rotations are the same quadrilateral; the stored tuple is the
    lexicographically smallest rotation.
    """

    degree: int
    vertices: tuple

    @property
    def spikes(self) -> tuple:
        v = self.vertices
        return (Chord(v[0], v[2]), Chord(v[1], v[3]))

    @property
    def spike_set(self) -> tuple:
        s1, s2 = self.spikes
        return (s1,) if s1 == s2 else (s1, s2)

    @property
    def hull(self) -> tuple:
        return tuple(sorted(set(self.vertices)))

    @property
    def image(self) -> Chord:
        return Chord(sigma(self.degree, self.vertices[0]), sigma(self.degree, self.vertices[1]))

    @property
    def classification(self) -> str:
        distinct = len(set(self.vertices))
        if distinct == 2:
            return CRITICAL_LEAF
        if distinct == 3:
            return ALL_CRITICAL_TRIANGLE
        return COLLAPSING if not self.image.degenerate else ALL_CRITICAL_QUADRILATERAL

    @property
    def edges(self) -> tuple:
        v = self.vertices
        return tuple(
            Chord(v[i], v[(i + 1) % 4]) for i in range(4) if v[i] != v[(i + 1) % 4]
        )

    def presentations(self) -> list[tuple]:
        """All vertex 4-tuples presenting the same convex hull.

        An all-critical triangle {x, y, z} admits three: one doubled vertex
        each; other hulls determine the tuple uniquely.
        """
        if self.classification == ALL_CRITICAL_TRIANGLE:
            x, y, z = self.hull
            return [(x, x, y, z), (x, y, y, z), (x, y, z, z)]
        return [self.vertices]

    def __str__(self) -> str:
        return "[" + ", ".join(str(v) for v in self.vertices) + "]"


def make_quadrilateral(vertices, d: int) -> CriticalQuadrilateral:
    """Validated, canonicalized critical quadrilateral.

    Rejects tuples that are not circularly ordered or whose diagonals are
    not both critical under sigma_d.
    """
    vs = tuple(Angle(v) for v in vertices)
    if len(vs) != 4:
        raise ValueError("a quadrilateral needs four vertices")
    # weakly increasing around the circle: at most one strict descent
    if cyclic_descents(vs) > 1:
        raise ValueError(f"vertices are not in circular order: {vs}")
    for diag in (Chord(vs[0], vs[2]), Chord(vs[1], vs[3])):
        if not is_critical(d, diag):
            raise ValueError(f"diagonal {diag} is not critical under sigma_{d}")
    rotations = [vs[i:] + vs[:i] for i in range(4)]
    return CriticalQuadrilateral(degree=d, vertices=min(rotations))


@dataclass(frozen=True)
class StrongLinkReport:
    linked: bool
    witness: tuple | None  # (numbering of A, numbering of B)


def strongly_linked(A: CriticalQuadrilateral, B: CriticalQuadrilateral) -> StrongLinkReport:
    """Search for vertex numberings a0 <= b0 <= a1 <= b1 <= ... <= a0 around
    the circle (non-strict).  All-critical triangles are tried in all their
    quadrilateral presentations."""
    for pa, i, pb, j in itertools.product(A.presentations(), range(4), B.presentations(), range(4)):
        ra, rb = pa[i:] + pa[:i], pb[j:] + pb[:j]
        merged = [ra[0], rb[0], ra[1], rb[1], ra[2], rb[2], ra[3], rb[3]]
        if cyclic_descents(merged) <= 1:
            return StrongLinkReport(True, (ra, rb))
    return StrongLinkReport(False, None)


@dataclass(frozen=True)
class QcPortrait:
    """Ordered (d-1)-tuple of critical quadrilaterals."""

    degree: int
    quads: tuple

    def __str__(self) -> str:
        return "; ".join(str(q) for q in self.quads)


def complete_samples(p: QcPortrait):
    """Every choice of one spike per quadrilateral (ordered)."""
    return itertools.product(*(q.spike_set for q in p.quads))


def validate_qc_portrait(p: QcPortrait) -> bool:
    """True iff the portrait has d-1 quadrilaterals and every complete
    sample of spikes is a full collection."""
    if len(p.quads) != p.degree - 1:
        return False
    for sample in complete_samples(p):
        if not validate_collection(p.degree, sample).is_full_collection:
            return False
    return True


def qc_portrait_exists(lam: FiniteLamination) -> bool:
    """A lamination admits a qc-portrait iff every critical set is a
    collapsing quadrilateral or an all-critical set.  Arc-bearing gaps are
    frontier artifacts of finite truncation and are ignored."""
    analysis = critical_analysis(lam)
    for g in analysis.critical_gaps:
        if _all_critical(lam.degree, g):
            continue
        if len(g.vertices) != 4 or gap_degree(lam.degree, g) != 2:
            return False
        try:
            quad = make_quadrilateral(g.vertices, lam.degree)
        except ValueError:
            return False
        if quad.classification != COLLAPSING:
            return False
    return True


def derive_qc_portrait(lam: FiniteLamination) -> QcPortrait:
    """Assemble a qc-portrait from a lamination's critical sets: collapsing
    quadrilateral gaps as they stand, plus a maximal no-loop collection of
    critical leaves presented as degenerate quadrilaterals."""
    d = lam.degree
    analysis = critical_analysis(lam)
    quads = []
    for g in analysis.critical_gaps:
        if len(g.vertices) == 4 and not _all_critical(d, g):
            quads.append(make_quadrilateral(g.vertices, d))
    for c in greedy_no_loop(d, analysis.critical_leaves):
        quads.append(make_quadrilateral((c.a, c.a, c.b, c.b), d))
    quads.sort(key=lambda q: q.vertices)
    portrait = QcPortrait(degree=d, quads=tuple(quads))
    if not validate_qc_portrait(portrait):
        raise ValueError("lamination does not admit a qc-portrait from its critical sets")
    return portrait


def tune_insert(lam: FiniteLamination, critical_set: Gap, choice: Chord | None = None):
    """Insert a collapsing quadrilateral sharing a pair of opposite edges
    with a degree-2 critical gap.

    Returns (augmented lamination, quadrilateral).  A gap that already is a
    collapsing quadrilateral is returned unchanged; all-critical sets and
    degree-1 gaps are rejected.
    """
    d = lam.degree
    if not critical_set.finite:
        raise ValueError("tuning needs a finite gap")
    deg = gap_degree(d, critical_set)
    if _all_critical(d, critical_set):
        raise ValueError("all-critical sets need no quadrilateral insertion")
    if deg != 2 or len(critical_set.vertices) < 4:
        raise ValueError("tuning needs a degree-2 gap with at least four vertices")
    if len(critical_set.vertices) == 4:
        quad = make_quadrilateral(critical_set.vertices, d)
        if quad.classification == COLLAPSING:
            return lam, quad
    edges = critical_set.edges
    candidates = [choice] if choice is not None else edges
    for e in candidates:
        if e not in edges or chord_image(d, e).degenerate:
            continue
        for e2 in edges:
            if e2 == e or set(e.endpoints) & set(e2.endpoints):
                continue
            if chord_image(d, e2) != chord_image(d, e):
                continue
            verts = sorted(set(e.endpoints) | set(e2.endpoints))
            quad = make_quadrilateral(verts, d)
            extra = [c for c in quad.edges if c not in lam]
            return lam.with_leaves(extra), quad
    raise ValueError("gap has no opposite edge pair with a common image")


# ---------------------------------------------------------------------------
# Linked / essentially equal classification
# ---------------------------------------------------------------------------


def _shares_spike(A: CriticalQuadrilateral, B: CriticalQuadrilateral) -> bool:
    return bool(set(A.spike_set) & set(B.spike_set))


def _in_common_cluster(A, B, common_clusters) -> bool:
    for cluster in common_clusters:
        cset = set(cluster)
        if set(A.vertices) <= cset and set(B.vertices) <= cset:
            return True
    return False


@dataclass(frozen=True)
class PairReport:
    verdict: str                 # "linked" | "essentially_equal" | "neither"
    k: int | None                # number of index pairs classified by linkage
    detail: tuple                # per-index status for the winning alignment


def _classify_fixed(qcp1: QcPortrait, qcp2: QcPortrait, common_clusters) -> PairReport:
    n = qcp1.degree - 1
    status = []
    for q1, q2 in zip(qcp1.quads, qcp2.quads):
        if _shares_spike(q1, q2):
            status.append("shares_spike")
        elif strongly_linked(q1, q2).linked:
            status.append("strongly_linked")
        else:
            status.append("none")
    cluster_ok = [
        _in_common_cluster(q1, q2, common_clusters)
        for q1, q2 in zip(qcp1.quads, qcp2.quads)
    ]
    best = None
    for k in range(n, -1, -1):
        if any(status[i] == "none" for i in range(k)):
            continue
        if not all(cluster_ok[i] for i in range(k, n)):
            continue
        detail = tuple(status[:k]) + tuple("common_cluster" for _ in range(k, n))
        if all(s == "shares_spike" for s in status[:k]):
            return PairReport("essentially_equal", k, detail)
        if best is None:
            best = PairReport("linked", k, detail)
    return best if best is not None else PairReport("neither", None, tuple(status))


def classify_pair(
    lam1: FiniteLamination,
    qcp1: QcPortrait,
    lam2: FiniteLamination,
    qcp2: QcPortrait,
) -> PairReport:
    """Classify two laminations with qc-portraits as linked, essentially
    equal, or neither.

    A suffix of associated pairs may sit in a common critical cluster of
    both laminations; the remaining pairs must share a spike (essentially
    equal when all of them do) or be strongly linked.  Indices are aligned
    by position.
    """
    if qcp1.degree != qcp2.degree or lam1.degree != lam2.degree or lam1.degree != qcp1.degree:
        raise ValueError("degree mismatch")
    if not (validate_qc_portrait(qcp1) and validate_qc_portrait(qcp2)):
        raise ValueError("both portraits must be valid qc-portraits")
    clusters1 = set(critical_analysis(lam1).critical_clusters)
    clusters2 = set(critical_analysis(lam2).critical_clusters)
    return _classify_fixed(qcp1, qcp2, sorted(clusters1 & clusters2))


# ---------------------------------------------------------------------------
# Critical patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalPattern:
    """Ordered (d-1)-tuple of critical sets (as vertex tuples) where a set
    of degree m appears exactly m-1 times."""

    degree: int
    sets: tuple

    def __post_init__(self):
        if len(self.sets) != self.degree - 1:
            raise ValueError(f"a degree-{self.degree} pattern needs {self.degree - 1} sets")
        for s in set(self.sets):
            m = boundary_degree(self.degree, s)
            count = sum(1 for t in self.sets if t == s)
            if count != m - 1:
                raise ValueError(
                    f"set {s} has degree {m} and must appear {m - 1} times, appears {count}"
                )


def pattern_refines(finer, coarser) -> bool:
    """Componentwise containment of vertex sets: finer <= coarser."""
    if len(finer.sets) != len(coarser.sets):
        return False
    return all(set(f) <= set(c) for f, c in zip(finer.sets, coarser.sets))
