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

from .circle import Angle, _record, cyclic_descents, sigma
from .chords import Chord, chord_image, greedy_no_loop, is_critical, validate_collection
from .lamination import (
    FiniteLamination,
    Gap,
    _all_critical,
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
]

COLLAPSING = "collapsing"
CRITICAL_LEAF = "critical_leaf"
ALL_CRITICAL_TRIANGLE = "all_critical_triangle"
ALL_CRITICAL_QUADRILATERAL = "all_critical_quadrilateral"


@_record("degree", "vertices", frozen=True)
class CriticalQuadrilateral:
    """Circular 4-tuple [a0, a1, a2, a3] with critical diagonals.

    The four rotations are the same quadrilateral; the stored tuple is the
    lexicographically smallest rotation.
    """

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
        each; other hulls determine the tuple uniquely.  Three distinct
        vertices are exactly that triangle, so no image is taken.
        """
        if len(self.hull) == 3:
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


@_record(
    "linked",
    "witness",  # (numbering of A, numbering of B), or None
    frozen=True,
)
class StrongLinkReport:
    pass


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


@_record("degree", "quads", frozen=True)
class QcPortrait:
    """Ordered (d-1)-tuple of critical quadrilaterals."""

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


def _collapsing_quad(d: int, g: Gap) -> CriticalQuadrilateral | None:
    """The collapsing quadrilateral of a finite gap, or None: the one rule for
    which gap is one.  It has four vertices, critical diagonals and sides not
    all critical (so degree 2); its ascending vertices are the least rotation."""
    N, xs = g.ring
    images = [d * x % N for x in xs]
    if len(xs) != 4 or images[0] != images[2] or images[1] != images[3] or images[0] == images[1]:
        return None
    return CriticalQuadrilateral(degree=d, vertices=g.vertices)


def qc_portrait_exists(lam: FiniteLamination) -> bool:
    """A lamination admits a qc-portrait iff every critical set is a
    collapsing quadrilateral or an all-critical set.  Arc-bearing gaps are
    frontier artifacts of finite truncation and are ignored."""
    d = lam.degree
    return all(
        _all_critical(d, g) or _collapsing_quad(d, g) is not None
        for g in critical_analysis(lam).critical_gaps
    )


def derive_qc_portrait(lam: FiniteLamination) -> QcPortrait:
    """Assemble a qc-portrait from a lamination's critical sets: collapsing
    quadrilateral gaps as they stand, plus a maximal no-loop collection of
    critical leaves presented as degenerate quadrilaterals."""
    d = lam.degree
    analysis = critical_analysis(lam)
    quads = [_collapsing_quad(d, g) for g in analysis.critical_gaps]
    quads = [q for q in quads if q is not None]
    for c in greedy_no_loop(d, analysis.critical_leaves):
        quads.append(make_quadrilateral((c.a, c.a, c.b, c.b), d))
    quads.sort(key=lambda q: q.vertices)
    portrait = QcPortrait(degree=d, quads=tuple(quads))
    if not validate_qc_portrait(portrait):
        raise ValueError("lamination does not admit a qc-portrait from its critical sets")
    return portrait


def tune_insert(lam: FiniteLamination, critical_set: Gap):
    """Insert a collapsing quadrilateral sharing a pair of opposite edges
    with a degree-2 critical gap.

    Returns (augmented lamination, quadrilateral).  A gap that already is a
    collapsing quadrilateral is returned unchanged; all-critical sets and
    degree-1 gaps are rejected.
    """
    d = lam.degree
    if not critical_set.finite:
        raise ValueError("tuning needs a finite gap")
    if _all_critical(d, critical_set):
        raise ValueError("all-critical sets need no quadrilateral insertion")
    if gap_degree(d, critical_set) != 2 or len(critical_set.vertices) < 4:
        raise ValueError("tuning needs a degree-2 gap with at least four vertices")
    quad = _collapsing_quad(d, critical_set)
    if quad is not None:
        return lam, quad
    edges = critical_set.edges
    for e in edges:
        if chord_image(d, e).degenerate:
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


@_record(
    "verdict",                   # "linked" | "essentially_equal" | "neither"
    "k",                         # number of index pairs classified by linkage, or None
    "detail",                    # per-index status for the winning alignment
    frozen=True,
)
class PairReport:
    pass


def _pair_verdict(status, clustered) -> PairReport:
    """The verdict on the per-index statuses and common-cluster flags:
    essentially equal with k the first status that is not "shares_spike",
    when every pair from k on is clustered; else linked with k the first
    "none", on the same condition; else neither."""
    n = len(status)
    for verdict, k in (
        ("essentially_equal", next((i for i, s in enumerate(status) if s != "shares_spike"), n)),
        ("linked", status.index("none") if "none" in status else n),
    ):
        if all(clustered[k:]):
            return PairReport(verdict, k, tuple(status[:k]) + ("common_cluster",) * (n - k))
    return PairReport("neither", None, tuple(status))


def _classify_fixed(qcp1: QcPortrait, qcp2: QcPortrait, common_clusters) -> PairReport:
    status = []
    for q1, q2 in zip(qcp1.quads, qcp2.quads):
        if _shares_spike(q1, q2):
            status.append("shares_spike")
        elif strongly_linked(q1, q2).linked:
            status.append("strongly_linked")
        else:
            status.append("none")
    clustered = [_in_common_cluster(q1, q2, common_clusters) for q1, q2 in zip(qcp1.quads, qcp2.quads)]
    return _pair_verdict(status, clustered)


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
