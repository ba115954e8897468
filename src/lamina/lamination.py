"""Finite laminations: unlinkedness, gaps, invariance, pullbacks, criticality.

A FiniteLamination is a canonical finite set of pairwise-unlinked chords of
fixed degree d (degenerate leaves are implied and not stored).  The disk
minus the chords decomposes into gaps, read off the same nesting sweep that
checks the leaves are unlinked: the sweep gives each leaf the leaf directly
around it, and the gap inside a leaf is bounded by the leaves it directly
surrounds.  The sweep sorts its events as ints on the ring of the leaf
endpoints (``FiniteLamination.ring``, the lamination's stored form), where
every check reads the leaves and critical leaves are read off too.
:func:`check_unlinked` and :func:`gaps` share that one sweep, and a face
is its ring too: the ints of its vertices and the indices of its arc
sides, walked once and kept like the sweep.  :func:`critical_analysis`
reads the faces once per lamination, takes the boundary degree of each
finite one on the ring (sigma_d is ``d*x % N``) and keeps the arc-bearing
ones for later readers.  Its critical clusters are the all-critical gaps,
merged where they share an edge, plus each critical leaf that lies in no
merged polygon.  Laminations are generated from critical portraits by the
standard pullback scheme, with branches chosen inside the complementary
sectors of a full collection of critical chords: :func:`sector_partition`
returns the faces of those chords, all arc-bearing.

Orbits, pullbacks and invariance checks run on one integer ring (1/N)Z/Z:
sigma_d never enlarges a denominator and each pullback generation
multiplies it by at most d, so a depth-k build lives on N = N0 * d**k, N0
the common denominator of its portrait and sector chords, and a finished
lamination on the common denominator of its endpoints.  There a leaf is a
sorted pair of ints, sigma_d is ``d*x % N``, the preimages of an endpoint X
of a leaf still to be pulled back are X//d + k*(N//d), and the circle order
is the order of the ints, so ``linked`` and ``disjoint`` take the pairs as
they take Chords (a Chord is the sorted pair of its angles).  One loop,
:func:`_ring_orbit`, follows every orbit; a build's generation 0 is the
portrait chords' orbits, each stopped before its first degenerate image,
and is refused by one bound while it is followed (see
:func:`pullback_build`).  Chords are a view of the ring, formed on first
read; a check builds Chords only for the leaves it returns, and membership
and truncation by pullback generation build none.

A build scales the sector faces' rings onto its own and reads them through
one preimage table, :func:`_preimage_rows`.  Of the d preimages of an end
X, one lies in each sector's half-open arcs, and which one lies in which
sector changes only where one of them passes a sector arc start s, that is
where X//d passes s % (N//d).  Those values, times d, and 0 are the table's
ascending cuts, and each cut keeps a row that gives each sector the offset
k*(N//d) of its preimage.  So an end's preimage in each sector is X//d plus
the row of the last cut at or below X: one bisection per end, where
bisecting the arc starts per preimage takes d.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from math import gcd
from numbers import Rational

from .circle import Arc, _at, _check_degree, _check_int, _on_ring, _record, _ring, _ring_angles, cyclic_descents, sigma
from .chords import (
    Chord,
    _in_sibling_collection,
    _ring_collection,
    _ring_image,
    _sides,
    greedy_no_loop,
    is_critical,
    linked,
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
    "MAX_PULLBACK_LEAVES",
]


class InconsistentPortrait(ValueError):
    """Raised when a pullback portrait crosses itself or its critical chords."""


_UNREAD = object()  # a slot not yet filled on first read


class FiniteLamination:
    """Degree d plus a canonically sorted set of nondegenerate chords, stored
    as its ring (see ``circle._ring``): N, the lcm of the reduced endpoint
    denominators, and the sorted int pair of each leaf, so equal laminations
    have equal rings.  Construction canonicalizes (sorts, dedupes, drops
    degenerate chords) but does not enforce unlinkedness; use
    :func:`check_unlinked`.  The optional ``generations`` mapping records the
    pullback generation of each leaf and is metadata: it does not participate
    in equality.  That mapping, its ``max_generation``, the Chords
    (``leaves``), the nesting sweep, the faces of :func:`gaps` and
    :func:`critical_analysis` are formed on first read and kept.
    """

    __slots__ = (
        "degree", "ring", "_gens", "_leaves", "_generations", "_analysis", "_depth", "_nested",
        "_faces",
    )

    def __init__(self, degree: int, leaves=(), generations=None):
        _check_degree(degree)
        leaves = [c for c in leaves if not c.degenerate]
        N, xs = _ring([e for c in leaves for e in c])
        # ring order is circle order, so sorting the pairs sorts the Chords
        canon = sorted(dict(zip(zip(xs[::2], xs[1::2]), leaves)).items())
        chords = tuple(c for _, c in canon)
        gens = tuple(generations.get(c) for c in chords) if generations else None
        self._init(degree, (N, tuple(p for p, _ in canon)), gens, chords)

    def _init(self, degree: int, ring, gens, leaves=None) -> None:
        """Set every slot; those not given are formed on first read."""
        self.degree = degree
        self.ring = ring
        self._gens = gens
        self._leaves = leaves
        self._generations = self._analysis = self._nested = self._faces = None
        self._depth = _UNREAD

    @classmethod
    def _from_ring(cls, degree: int, N: int, pairs, generations=None) -> "FiniteLamination":
        """The lamination of sorted, distinct, nondegenerate int pairs mod N
        and their generations; dividing out gcd(N, *ints) makes N canonical."""
        g = gcd(N, *itertools.chain.from_iterable(pairs))
        lam = cls.__new__(cls)
        ring = N // g, tuple(pairs if g == 1 else [(a // g, b // g) for a, b in pairs])
        lam._init(degree, ring, None if generations is None else tuple(generations))
        return lam

    def __eq__(self, other):
        if not isinstance(other, FiniteLamination):
            return NotImplemented
        return self.degree == other.degree and self.ring == other.ring

    def __hash__(self):
        return hash((self.degree, self.ring))

    def __len__(self):
        return len(self.ring[1])

    def __iter__(self):
        return iter(self.leaves)

    def __contains__(self, chord):
        """Whether a sorted pair of angles is a leaf, looked up among the
        sorted ring pairs.  Anything else is no leaf: a pair whose ends are
        not both rationals (floats, strings, None), a pair out of order, and
        a pair with an end off the ring."""
        if not isinstance(chord, tuple) or len(chord) != 2:
            return False
        a, b = chord
        if not (isinstance(a, Rational) and isinstance(b, Rational)):
            return False
        N, pairs = self.ring
        p = (_on_ring(N, a), _on_ring(N, b))
        if None in p:
            return False
        i = bisect_left(pairs, p)
        return i < len(pairs) and pairs[i] == p

    def __repr__(self):
        return f"FiniteLamination(degree={self.degree}, leaves={len(self)})"

    @property
    def leaves(self) -> tuple:
        if self._leaves is None:
            N, pairs = self.ring
            at = _ring_angles(N, itertools.chain.from_iterable(pairs))
            # a ring pair is sorted, so it is a Chord as it stands
            self._leaves = tuple([tuple.__new__(Chord, (at[a], at[b])) for a, b in pairs])
        return self._leaves

    @property
    def generations(self) -> dict | None:
        if self._gens is not None and self._generations is None:
            self._generations = {c: g for c, g in zip(self.leaves, self._gens) if g is not None}
        return self._generations

    @property
    def max_generation(self) -> int | None:
        """The deepest recorded pullback generation, None when none is;
        found on first read and kept."""
        if self._depth is _UNREAD:
            self._depth = max((g for g in self._gens or () if g is not None), default=None)
        return self._depth

    def up_to(self, generation: int) -> "FiniteLamination":
        """The leaves of pullback generation <= ``generation``, an int >= 0,
        a leaf with no recorded generation counting as 0; an untracked
        lamination, or one with no leaf past ``generation``, is all of
        itself.  The result's ring is canonical, so truncations compare with
        ``==``."""
        _check_int("generation", generation)
        if self._gens is None or generation >= (self.max_generation or 0):
            return self
        N, pairs = self.ring
        kept = [(p, g) for p, g in zip(pairs, self._gens) if (g or 0) <= generation]
        return self._from_ring(self.degree, N, [p for p, _ in kept], [g for _, g in kept])

    def issubset(self, other: "FiniteLamination") -> bool:
        """Whether every leaf is a leaf of ``other``; N is canonical, so the
        leaves' ends all lie on the ring of ``other`` iff N divides its."""
        (N, pairs), (M, others) = self.ring, other.ring
        k, r = divmod(M, N)
        return not r and set(others).issuperset((a * k, b * k) for a, b in pairs)

    def with_leaves(self, extra) -> "FiniteLamination":
        return FiniteLamination(self.degree, list(self.leaves) + list(extra))


def _chord(N: int, pair) -> Chord:
    """The Chord of a sorted int pair on the ring mod N."""
    return tuple.__new__(Chord, (_at(N, pair[0]), _at(N, pair[1])))


class Gap:
    """Closure of one complementary component of the disk minus the leaves,
    kept on its lamination's ring: ``ring`` is (N, xs), xs the ascending ints
    of its boundary points, and ``arc_sides`` the indices i of the sides from
    xs[i] to xs[i + 1] (cyclically) that are circle arcs, not leaves.  The
    whole disk has no points.  ``vertices``, ``sides``, ``edges`` and
    ``arcs`` are Angle views formed on read.  Equality and hash divide
    gcd(N, *xs) out, so one face read off two rings compares equal; nothing
    else forms that reduced ring, and readers such as
    ``suites.heuristically_dendritic`` and ``render`` take a face on its
    lamination's ring."""

    __slots__ = ("ring", "arc_sides")

    def __init__(self, N: int, xs, arc_sides=()):
        self.ring = N, tuple(xs)
        self.arc_sides = tuple(arc_sides)

    @classmethod
    def whole_disk(cls) -> "Gap":
        return cls(1, ())

    def _reduced(self) -> tuple:
        N, xs = self.ring
        g = gcd(N, *xs)
        return N // g, tuple(x // g for x in xs), self.arc_sides

    def __eq__(self, other):
        return isinstance(other, Gap) and self._reduced() == other._reduced()

    def __hash__(self):
        return hash(self._reduced())

    def __repr__(self):
        return f"Gap({self.ring[0]}, {self.ring[1]}, {self.arc_sides})"

    @property
    def is_disk(self) -> bool:
        return not self.ring[1]

    @property
    def finite(self) -> bool:
        return bool(self.ring[1]) and not self.arc_sides

    @property
    def vertices(self) -> tuple:
        return tuple(_at(self.ring[0], x) for x in self.ring[1])

    @property
    def sides(self) -> tuple:
        vs = self.vertices
        pairs = enumerate(zip(vs, vs[1:] + vs[:1]))
        return tuple(("arc", Arc(*p)) if i in self.arc_sides else ("chord", Chord(*p)) for i, p in pairs)

    @property
    def edges(self) -> tuple:
        return tuple(obj for kind, obj in self.sides if kind == "chord")

    @property
    def arcs(self) -> tuple:
        return tuple(obj for kind, obj in self.sides if kind == "arc")

    def __str__(self):
        return f"Gap({', '.join(map(str, self.vertices)) or 'disk'})"


def _nest(lam: FiniteLamination):
    """The nesting sweep of ``lam`` (see :func:`_sweep`), run on first use and
    kept on the lamination: :func:`check_unlinked` and :func:`gaps` share
    it, and a crossing lamination names the same pair every time."""
    if lam._nested is None:
        lam._nested = _sweep(*lam.ring)
    return lam._nested


def _sweep(N: int, ring):
    """Non-crossing sweep over the leaf endpoints in circle order, O(N log N).

    Pairwise unlinked leaves nest like parentheses.  At each endpoint the
    leaves ending there close innermost first (largest ``a``), and each must
    be the top of the stack of open leaves; then the leaves starting there
    open outermost first (largest ``b``), each directly inside the top.  A
    closing leaf that is not the top crosses the top.

    The sweep runs on the leaves' ring pairs mod N, where circle order is int
    order: an event is (position, 0 to close or 1 to open, minus the other
    end, leaf index), and the stack holds leaf indices.

    Returns (parent, None), where parent[i] is the index of the leaf
    directly around leaf i or -1 for a top-level leaf, or (None, (c1, c2))
    with c1 < c2 a crossing pair, the only Chords it builds.
    """
    events = sorted(
        [(b, 0, -a, i) for i, (a, b) in enumerate(ring)]
        + [(a, 1, -b, i) for i, (a, b) in enumerate(ring)]
    )
    parent = [-1] * len(ring)
    stack = [-1]
    for _, opens, _, i in events:
        if opens:
            parent[i] = stack[-1]
            stack.append(i)
        elif stack[-1] == i:
            stack.pop()
        else:
            return None, tuple(_chord(N, p) for p in sorted((ring[i], ring[stack[-1]])))
    return parent, None


def check_unlinked(lam: FiniteLamination):
    """(True, None) if the leaves are pairwise unlinked, else (False, (c1, c2))
    with c1 < c2 a crossing pair, not necessarily the lexicographically
    first one; see :func:`_nest`."""
    parent, pair = _nest(lam)
    return parent is not None, pair


def gaps(lam: FiniteLamination) -> list[Gap]:
    """All gaps of an unlinked lamination, including arc-bearing ones, sorted
    by vertices.  They are read off the parents of :func:`_nest`, the sweep
    of :func:`check_unlinked`: the gap just inside each leaf, bounded by it
    and its children, and the outer gap, bounded by the top-level leaves.
    The children of a leaf do not nest, so leaf order is their circle order.
    They are walked once and kept, like the sweep; each call returns a copy.

    Raises ValueError naming a crossing pair when the leaves cross, on every
    call, since a crossing lamination keeps no faces.
    """
    if lam._faces is None:
        lam._faces = _walk(lam)
    return list(lam._faces)


def _walk(lam: FiniteLamination) -> tuple:
    """The faces of :func:`gaps`, in its order, on the lamination's ring."""
    N, pairs = lam.ring
    if not pairs:
        return (Gap.whole_disk(),)
    parent, pair = _nest(lam)
    if pair is not None:
        raise ValueError(f"leaves cross, so there are no gaps: {pair[0]} x {pair[1]}")
    # a list of children only for a leaf that has some; the last is the top level
    children = [None] * (len(pairs) + 1)
    for i, p in enumerate(parent):
        if children[p] is None:
            children[p] = []
        children[p].append(i)
    top = children[-1]
    # the outer gap runs from the first end of the first top-level leaf to
    # the last end of the last one, and back along the arc between them
    bounds = [*pairs, (pairs[top[0]][0], pairs[top[-1]][1])]
    result = []
    new = object.__new__
    for k, ((x, y), inside) in enumerate(zip(bounds, children)):
        g = new(Gap)
        result.append(g)
        if inside is None:  # a childless leaf: its face is the leaf and the arc under it
            g.ring, g.arc_sides = (N, (x, y)), (0,)
            continue
        # an arc of length 0 between two children that share an end is left out
        xs, arcs = [x], []
        for j in inside:
            a, b = pairs[j]
            if xs[-1] != a:
                arcs.append(len(xs) - 1)
                xs.append(a)
            xs.append(b)
        if xs[-1] != y:
            arcs.append(len(xs) - 1)
            xs.append(y)
        if k == len(pairs):  # the outer gap closes along an arc, the others along their leaf
            arcs.append(len(xs) - 1)
        g.ring, g.arc_sides = (N, tuple(xs)), tuple(arcs)
    # The vertices of a face run in circle order from the first end of its
    # leaf, and of two leaves from one point the shorter one's face has the
    # smaller vertices (the longer one's next vertex is the end of a leaf
    # from that point), so the faces inside the leaves sort as the leaves
    # do.  The outer face sorts after every face from its first vertex.
    result.insert(bisect_right(pairs, (pairs[top[0]][0], N)), result.pop())
    return tuple(result)


def _image_degree(images) -> int:
    """The boundary degree of a hull whose vertex images, in the vertices'
    circular order, are ``images``; see :func:`boundary_degree`."""
    if len(set(images)) == 1:
        return len(images)
    return cyclic_descents(images)


def boundary_degree(d: int, vertices) -> int:
    """Degree of sigma_d on the boundary of the convex hull of circle points.

    ``vertices`` must be listed in circular order.  If the image is a single
    point the degree is the vertex count; otherwise it counts how many times
    the boundary wraps around the image boundary, one descent of the image
    sequence per wrap.  Raises ValueError on an empty vertex list.
    """
    imgs = [sigma(d, v) for v in vertices]
    if not imgs:
        raise ValueError("the boundary degree of an empty vertex set is undefined")
    return _image_degree(imgs)


def gap_degree(d: int, g: Gap) -> int:
    """Degree of a finite gap, taken on its ring ints; > 1 means critical."""
    if not g.finite:
        raise ValueError("degree of an arc-bearing gap is unsupported")
    return _image_degree([d * x % g.ring[0] for x in g.ring[1]])


def _all_critical(d: int, g: Gap) -> bool:
    """Whether every side of a finite gap is critical: its vertices share one image."""
    return len({d * x % g.ring[0] for x in g.ring[1]}) == 1


@_record(
    "preperiod",
    "period",
    "orbit",  # the preperiodic tail followed by one full cycle
    frozen=True,
)
class OrbitInfo:
    """Exact eventual periodicity data of a sigma_d orbit."""

    @property
    def closes_at(self) -> int:
        return self.preperiod + self.period


def _ring_orbit(d: int, N: int, x, max_steps: int | None = None, stop_degenerate: bool = False):
    """The sigma_d orbit of a point of the ring mod N: an int, a sorted int
    pair (a chord) or a frozenset of ints (a vertex set).

    Returns (preperiod, orbit), the orbit being the preperiodic tail
    followed by one full cycle, or None when the orbit has not closed
    within ``max_steps`` images.  A degenerate pair maps to a degenerate
    pair, so an orbit holds one iff its last element is one; with
    ``stop_degenerate`` the orbit ends before that first degenerate pair
    instead, all tail, and n chords fit in n ``max_steps`` either way.
    """
    pair = isinstance(x, tuple)
    point = not pair and isinstance(x, int)
    seen = {x}
    orbit = [x]
    while max_steps is None or len(orbit) <= max_steps:
        if pair:
            a, b = d * x[0] % N, d * x[1] % N
            if a == b and stop_degenerate:
                return len(orbit), orbit
            x = (a, b) if a <= b else (b, a)
        elif point:
            x = d * x % N
        else:
            x = frozenset(d * v % N for v in x)
        if x in seen:
            return orbit.index(x), orbit
        seen.add(x)
        orbit.append(x)
    return None


def orbit_classify(d: int, x, max_steps: int | None = None) -> OrbitInfo | None:
    """Preperiod and minimal period of an angle, a chord or a vertex set
    under sigma_d.

    A vertex set (set, frozenset, tuple or list of angles) is followed as a
    frozenset of its images.  With ``max_steps``, an int >= 0, returns None
    when the orbit has not closed within that many images.  It is followed
    on the ring of the denominators of ``x``, read back as Angles at the end.
    """
    _check_degree(d)
    if max_steps is not None:
        _check_int("max_steps", max_steps)
    if isinstance(x, Chord):
        N, (a, b) = _ring(x)
        found = _ring_orbit(d, N, (a, b), max_steps)
        # each distinct end of the orbit read back once
        at = _ring_angles(N, itertools.chain.from_iterable(found[1])) if found else None
        back = lambda c: tuple.__new__(Chord, (at[c[0]], at[c[1]]))
    elif isinstance(x, (set, frozenset, tuple, list)):
        N, vs = _ring(x)
        found = _ring_orbit(d, N, frozenset(vs), max_steps)
        back = lambda vs: frozenset(_at(N, v) for v in vs)
    else:
        N, (a,) = _ring((x,))
        found = _ring_orbit(d, N, a, max_steps)
        back = lambda v: _at(N, v)
    if found is None:
        return None
    pre, orbit = found
    return OrbitInfo(preperiod=pre, period=len(orbit) - pre, orbit=tuple(map(back, orbit)))


# ---------------------------------------------------------------------------
# Pullback construction
# ---------------------------------------------------------------------------


def sector_partition(d: int, critical_chords) -> list[Gap]:
    """The d complementary components of a full collection of d-1 pairwise
    unlinked critical chords, as the faces of the chords' lamination.

    A component is the union of its face's half-open arc sides; a vertex
    that starts no arc belongs to its closure only.  So a point falling on
    a component boundary belongs to the component that contains its
    positively adjacent arc.  Raises InconsistentPortrait when the chords
    are no full collection or cross each other, decided on their ring.
    """
    N, xs = _ring([e for c in critical_chords for e in c])
    return _sector_faces(d, N, list(zip(xs[::2], xs[1::2])))


def _sector_faces(d: int, N: int, pairs) -> list[Gap]:
    """:func:`sector_partition` of sorted int pairs on the ring mod N."""
    if not _ring_collection(d, N, pairs).is_full_collection:
        raise InconsistentPortrait(
            f"critical chords do not form a full collection: {[str(_chord(N, p)) for p in pairs]}"
        )
    lam = FiniteLamination._from_ring(d, N, sorted(pairs))
    if not check_unlinked(lam)[0]:
        raise InconsistentPortrait("critical chords of the portrait cross each other")
    # d - 1 unlinked critical chords with no loop close no polygon, so all
    # their faces bear arcs: d of them, each with arcs of total length 1/d;
    # gaps reads the sweep that check_unlinked kept
    return gaps(lam)


# pullback_build refuses a depth at which the leaf count could pass this
MAX_PULLBACK_LEAVES = 1_000_000


def _preimage_rows(d: int, N: int, faces) -> tuple[list[int], list[list[int]]]:
    """The preimage table of the sector faces on the ring mod N (see the
    module docstring), each face given as (arc side indices, vertex ints):
    ascending ``cuts`` from 0 and one row per cut.  For X from cuts[i] up to
    the next cut, the preimage of X in the half-open arcs of sector k is
    X//d + rows[i][k]."""
    step = N // d
    # the arc starting at starts[i] belongs to sector tiles[i][1], and the
    # last one wraps past 0
    tiles = sorted((xs[i], k) for k, (arcs, xs) in enumerate(faces) for i in arcs)
    starts = [s for s, _ in tiles]
    cuts = sorted({s % step * d for s in starts} | {0})
    rows = []
    for c in cuts:
        row = [0] * d
        for o in range(0, d * step, step):
            row[tiles[bisect_right(starts, c // d + o) - 1][1]] = o
        rows.append(row)
    return cuts, rows


def pullback_build(d: int, portrait, depth: int, sectors=None, *, N: int | None = None) -> FiniteLamination:
    """Pullback construction: forward orbits of the portrait chords plus all
    iterated sector preimages up to ``depth`` generations.

    ``portrait`` is the ordered list of initial chords (critical chords
    and/or edges of critical quadrilaterals); its critical chords must form
    a full collection, which determines the d pullback branches.  Passing
    ``sectors`` (a list of critical chords) overrides that default, e.g. to
    use quadrilateral spikes that should not become leaves.  Leaf
    generations are recorded on the result.  With ``N``, both the portrait
    and the sectors, which must then be given, are sorted int pairs mod N.

    Branch choice: each leaf pulls back once per complementary sector of the
    critical chords.  Endpoint preimages are unique inside a sector except
    when the leaf endpoint is the image of a critical chord, in which case
    both chord ends qualify; the choice is then filtered by unlinkedness
    against generation 0 and the leaves built so far in the candidate's own
    sector, and against the leaf's other sector preimages, preferring the
    end whose positively adjacent arc lies in the sector, and then the
    leaves already present with the leaf's image.  The other sectors' leaves
    cannot cross the candidate: a pullback into a sector has both ends on
    its closed arcs, the closed sectors are convex and meet only along
    critical chords, and no pullback is critical.  Only generation-0 leaves
    are indexed by image: a pullback's image is the leaf it came from, and
    each leaf is pulled back once, so no later leaf has the image of a leaf
    still to be pulled back.  The other leaves pull back inline to the
    preimage of each end in each sector's half-open arcs, which the
    ambiguous search also tries first.

    Generation 0 (gen0) is the forward orbits of the portrait chords, each
    up to its first degenerate image, followed as int pairs on the ring mod
    N0 of the portrait and sector chords, where the sectors are checked.
    The pullbacks run on the ring mod N = N0 * d**depth: the preimages of
    X/N are (X + kN)/(dN), and a generation-g leaf has numerators divisible
    by d**(depth - g), so every leaf the build can reach is a pair of ints
    mod N.  The result is handed over as those pairs, so the build makes no
    Chord.

    Every leaf pulls back to d leaves a generation, so the build has at most
    |gen0| * g leaves, g = (d**(depth+1) - 1) // (d - 1).  Raises ValueError
    when |gen0| > MAX_PULLBACK_LEAVES // g, as soon as the orbits show it,
    and when ``depth`` is not a non-negative int; and InconsistentPortrait
    when the forward orbit of a portrait chord crosses itself, another one's
    orbit or a sector chord.
    """
    _check_int("depth", depth)
    portrait = [c for c in portrait if c[0] != c[1]]
    if sectors is not None:
        sector_chords = list(sectors)
    elif N is not None:
        raise ValueError("pullback_build needs the sectors with N")
    else:
        # maximal no-loop subset of the portrait's critical chords (an
        # all-critical polygon contributes all edges as leaves but only a
        # spanning subset as branch cuts)
        sector_chords = greedy_no_loop(d, [c for c in portrait if is_critical(d, c)])
    pairs = portrait + sector_chords
    if N is None:
        N, xs = _ring([e for c in pairs for e in c])
        pairs = list(zip(xs[::2], xs[1::2]))
    parts = _sector_faces(d, N, pairs[len(portrait) :])

    # the most gen0 leaves depth can pull back within the limit; past depth
    # 64 it is 0, so d**depth is not formed
    cap = MAX_PULLBACK_LEAVES // ((d ** (min(depth, 64) + 1) - 1) // (d - 1))
    gen0: set[tuple] = set()
    for p in pairs[: len(portrait)]:
        if p in gen0:
            continue
        found = _ring_orbit(d, N, p, cap, stop_degenerate=True)
        gen0.update(found[1] if found else ())
        if found is None or len(gen0) > cap:
            raise ValueError(
                f"the forward orbits of the portrait chords have more than {cap} generation-0 "
                f"leaves, the most depth {depth} can pull back; the limit is "
                f"{MAX_PULLBACK_LEAVES} leaves"
            )

    base = FiniteLamination._from_ring(d, N, sorted(gen0.union(pairs[len(portrait) :])))
    ok, pair = check_unlinked(base)
    if not ok:
        raise InconsistentPortrait(f"portrait chords or their orbits cross: {pair[0]} x {pair[1]}")
    if not gen0:
        # nothing to pull back (an empty portrait, say), and the depth may
        # be too large to form d**depth
        return FiniteLamination(d, ())

    scale = d**depth
    N *= scale
    step = N // d
    # each face's ring, of sector chord ends, scaled onto N
    faces = [(g.arc_sides, [x * (N // g.ring[0]) for x in g.ring[1]]) for g in parts]
    cuts, rows = _preimage_rows(d, N, faces)
    # the points of each closed sector outside its half-open arcs
    closure = [{x for i, x in enumerate(xs) if i not in arcs} for arcs, xs in faces]
    ambiguous_values = {d * x * scale % N for p in pairs[len(portrait) :] for x in p}

    def own(X: int) -> list[int]:
        """The preimage of X in each sector's half-open arcs, by sector: they
        have length 1/d in all and sigma_d maps them onto the circle 1-to-1."""
        return [X // d + o for o in rows[bisect_right(cuts, X) - 1]]

    # int pair -> its generation, in record order
    generations: dict[tuple, int] = {(a * scale, b * scale): 0 for a, b in sorted(gen0)}
    # before a leaf is pulled back, the leaves with its image are of
    # generation 0 (see above), so only those are indexed by image
    by_image: dict[tuple, list] = {}
    for p in generations:
        by_image.setdefault(_ring_image(d, N, p), []).append(p)
    first = list(generations)
    # the pullbacks by the sector they were pulled into, in record order
    placed: list[list] = [[] for _ in range(d)]

    def pull_leaf(leaf) -> tuple:
        """The d pullbacks of a leaf with an end that is the image of a
        critical chord: several chord ends qualify in the adjacent sectors,
        so the d sector choices are searched jointly for a pairwise
        disjoint, non-crossing set, preferring leaves already present with
        this image (a periodic leaf must appear in its own sibling
        collection)."""
        existing = set(by_image.get(leaf, ()))
        ends = []
        for X in leaf:  # the preimages of X in each closed sector, its own one first
            pre = range(X // d, N, step)
            ends.append([[q] + [x for x in pre if x != q and x in closure[k]] for k, q in enumerate(own(X))])
        options = []
        for k, (arcs, xs) in enumerate(faces):
            cands = []
            for x in ends[0][k]:
                for y in ends[1][k]:  # preimages of distinct ends differ
                    p = (x, y) if x < y else (y, x)
                    if not any(linked(p, m) for m in itertools.chain(first, placed[k])):
                        cands.append(p)
            if not cands:
                # the sectors' arcs tile the circle, so they name the sector
                sector = " ".join(f"({_at(N, xs[i])}, {_at(N, xs[(i + 1) % len(xs)])})" for i in arcs)
                raise InconsistentPortrait(f"no unlinked pullback of {_chord(N, leaf)} in sector {sector}")
            options.append(cands)

        # exhaustive over the tiny option product: the assignments with 2d
        # distinct ends, most already-present same-image leaves first, then
        # the first in preference order (max keeps the first maximum)
        chosen = max(
            (ps for ps in itertools.product(*options) if len({e for p in ps for e in p}) == 2 * d),
            key=lambda ps: sum(p in existing for p in ps),
            default=None,
        )
        if chosen is None:
            raise InconsistentPortrait(f"no disjoint pullback collection for {_chord(N, leaf)}")
        return chosen

    current = first
    for g in range(1, depth + 1):
        new: list[tuple] = []
        for leaf in current:
            a, b = leaf
            if a in ambiguous_values or b in ambiguous_values:
                for sector, p in zip(placed, pull_leaf(leaf)):
                    if p not in generations:
                        generations[p] = g
                        new.append(p)
                        sector.append(p)
                continue
            # interior preimages: the one of each end in each sector, own(a)
            # and own(b) read inline and each recorded as it is formed, the
            # hot loop of a build
            x, y = a // d, b // d
            for sector, i, j in zip(placed, rows[bisect_right(cuts, a) - 1], rows[bisect_right(cuts, b) - 1]):
                p = (x + i, y + j) if x + i < y + j else (y + j, x + i)
                if p not in generations:
                    generations[p] = g
                    new.append(p)
                    sector.append(p)
        current = new
    leaves = sorted(generations)
    return FiniteLamination._from_ring(d, N, leaves, [generations[p] for p in leaves])


# ---------------------------------------------------------------------------
# Invariance checking
# ---------------------------------------------------------------------------


@_record(condition1=list, condition2=list, condition3=list, exempt=0)
class InvarianceReport:
    """Per-condition violations of sibling invariance.

    condition1: leaves whose image is neither degenerate nor a leaf.
    condition2: leaves with no pullback among the leaves.
    condition3: leaves with no complete sibling collection among the leaves.
    Leaves of the deepest pullback generation are exempt from (2) and (3):
    finite truncations cannot provide pullbacks at the frontier.
    """

    @property
    def ok(self) -> bool:
        return not (self.condition1 or self.condition2 or self.condition3)


def check_invariance(lam: FiniteLamination, boundary_depth: int) -> InvarianceReport:
    """Sibling invariance of ``lam`` (see :class:`InvarianceReport`), checked
    with the leaves on one integer ring mod N, the common denominator of
    their endpoints; sigma_d maps the ring into itself.

    Condition 3 is decided once per image group, the leaves with one image,
    and only for a group with a leaf that is not exempt: a leaf has a
    sibling collection among the leaves iff it lies in d pairwise disjoint
    leaves of its group.  Raises ValueError unless ``boundary_depth`` is an
    int >= 0.
    """
    _check_int("boundary_depth", boundary_depth)
    d = lam.degree
    report = InvarianceReport()
    N, pairs = lam.ring
    gens = lam._gens or [None] * len(pairs)

    leaf_pairs = set(pairs)
    images = [_ring_image(d, N, p) for p in pairs]
    by_image: dict[tuple, list] = {}
    for p, img in zip(pairs, images):
        by_image.setdefault(img, []).append(p)
    tested = {img for img, g in zip(images, gens) if img[0] != img[1] and (g is None or g < boundary_depth)}
    siblings = _in_sibling_collection(d, [by_image[img] for img in tested])

    for p, img, g in zip(pairs, images, gens):
        degenerate = img[0] == img[1]
        if not degenerate and img not in leaf_pairs:
            report.condition1.append(_chord(N, p))
        if g is not None and g >= boundary_depth:
            report.exempt += 1
            continue
        if p not in by_image:
            report.condition2.append(_chord(N, p))
        if not degenerate and p not in siblings:
            report.condition3.append(_chord(N, p))
    return report


# ---------------------------------------------------------------------------
# Critical sets and clusters
# ---------------------------------------------------------------------------


@_record(
    "critical_leaves",
    "critical_gaps",           # finite gaps of degree > 1
    "critical_clusters",       # vertex tuples of maximal convex unions of critical leaves
    "critical_sets",           # maximal critical sets: gaps plus free critical leaves
    "arc_gaps",                # the arc-bearing gaps, which are skipped
    frozen=True,
)
class CriticalAnalysis:
    @property
    def skipped_infinite_gaps(self) -> int:
        return len(self.arc_gaps)


def critical_analysis(lam: FiniteLamination) -> CriticalAnalysis:
    """Critical leaves, gaps, clusters and sets of ``lam``, computed on first
    use and kept on the lamination (whose leaves never change)."""
    if lam._analysis is None:
        lam._analysis = _critical_analysis(lam)
    return lam._analysis


def _critical_analysis(lam: FiniteLamination) -> CriticalAnalysis:
    d = lam.degree
    # a leaf is critical when its ends share an image, d*x_a == d*x_b mod N
    N, pairs = lam.ring
    crit = [p for p in pairs if d * p[0] % N == d * p[1] % N]

    crit_gaps = []
    arc_gaps = []
    # Clusters: the vertices joined by critical leaves share one image, so
    # every chord between them is critical, and a leaf inside a polygon of
    # critical sides joins two of its vertices.  The faces inside it are
    # all-critical gaps, and a maximal such polygon is the union of the
    # all-critical gaps that share edges.  A gap shares an edge with a
    # polygon exactly when it shares two vertices with it: a chord between
    # two vertices that is no side runs through the polygon's inside.
    polygons = []
    for g in gaps(lam):
        if g.arc_sides:
            arc_gaps.append(g)
            continue
        xs = g.ring[1]
        if not xs:
            continue  # the whole disk
        images = [d * x % N for x in xs]
        if _image_degree(images) > 1:
            crit_gaps.append(g)
            # every side is critical exactly when all vertices share one image
            if len(set(images)) == 1:
                merged = set(xs)
                touching = [p for p in polygons if len(p & merged) >= 2]
                polygons = [p for p in polygons if len(p & merged) < 2]
                polygons.append(merged.union(*touching))
    clusters = [tuple(sorted(p)) for p in polygons]
    clusters += [(a, b) for a, b in crit if not any(a in p and b in p for p in polygons)]

    gap_edges = {e for g in crit_gaps for e in _sides(g.ring[1])}
    leaves = {p: _chord(N, p) for p in crit}
    return CriticalAnalysis(
        critical_leaves=tuple(leaves.values()),
        critical_gaps=tuple(crit_gaps),
        critical_clusters=tuple(tuple(_at(N, x) for x in c) for c in sorted(clusters)),
        critical_sets=tuple(crit_gaps) + tuple(leaves[p] for p in crit if p not in gap_edges),
        arc_gaps=tuple(arc_gaps),
    )
