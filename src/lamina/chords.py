"""Chords of the closed disk: linking, criticality, siblings, loop detection.

A chord is an unordered pair of circle angles (possibly degenerate).  Two
chords are *linked* when they cross inside the open disk; a chord is
*critical* under sigma_d when its endpoints share an image.  Collections of
critical chords are validated against loops (closed concatenations or
repeated chords), and sibling collections enumerate the ways a chord extends
to d pairwise disjoint chords with a common image.

Code that puts its chords on one integer ring mod N (pullbacks, invariance,
order preservation) uses the int-pair forms ``_ring_image``,
``_ring_linked`` and ``_ring_disjoint`` of the image and the two tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .circle import Angle, shortest_dist, sigma, preimages

__all__ = [
    "Chord",
    "linked",
    "disjoint",
    "chord_image",
    "is_critical",
    "sibling_collections",
    "validate_collection",
    "greedy_no_loop",
    "CollectionReport",
]


@dataclass(frozen=True, order=True)
class Chord:
    """Unordered pair of angles, stored canonically as (min, max)."""

    a: Angle
    b: Angle

    def __post_init__(self):
        a, b = Angle(self.a), Angle(self.b)
        if b < a:
            a, b = b, a
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def parse(cls, text: str) -> "Chord":
        parts = text.split()
        if len(parts) != 2:
            raise ValueError(f"chord text must be two angle tokens: {text!r}")
        return cls(Angle(parts[0]), Angle(parts[1]))

    @property
    def degenerate(self) -> bool:
        return self.a == self.b

    @property
    def length(self):
        return shortest_dist(self.a, self.b)

    @property
    def endpoints(self) -> tuple[Angle, Angle]:
        return (self.a, self.b)

    def has_endpoint(self, x) -> bool:
        return self.a == x or self.b == x

    def other_endpoint(self, x) -> Angle:
        if self.a == x:
            return self.b
        if self.b == x:
            return self.a
        raise ValueError(f"{x} is not an endpoint of {self}")

    def __str__(self) -> str:
        return f"{self.a} {self.b}"

    def __iter__(self):
        return iter((self.a, self.b))


def linked(c1: Chord, c2: Chord) -> bool:
    """True iff the chords strictly cross inside the open disk.

    Degenerate chords never link; chords sharing an endpoint never link.
    """
    a, b = c1.a, c1.b
    x, y = c2.a, c2.b
    # endpoints interleave iff exactly one endpoint of c2 lies in the open
    # interval (a, b).  Chords are stored with a <= b and x <= y, so that is
    # already False for degenerate chords and when a == y or b == x; equal
    # chords and the other touching ones share a first or a second endpoint.
    if a == x or b == y:
        return False
    return (a < x < b) != (a < y < b)


def disjoint(c1: Chord, c2: Chord) -> bool:
    """True iff the chords share no endpoint and do not cross."""
    return not (c1.a in (c2.a, c2.b) or c1.b in (c2.a, c2.b) or linked(c1, c2))


def _ring_image(d: int, N: int, c) -> tuple[int, int]:
    """``chord_image`` for a sorted int pair on one ring mod N."""
    x, y = d * c[0] % N, d * c[1] % N
    return (x, y) if x <= y else (y, x)


def _ring_linked(c1, c2) -> bool:
    """``linked`` for chords on one integer ring mod N, each a sorted pair
    of numerators over N: the circle order is the order of the ints."""
    a, b = c1
    x, y = c2
    if a == x or b == y:
        return False
    return (a < x < b) != (a < y < b)


def _ring_disjoint(c1, c2) -> bool:
    """``disjoint`` for sorted int pairs on one ring (see ``_ring_linked``)."""
    a, b = c1
    x, y = c2
    if a == x or a == y or b == x or b == y:
        return False
    return (a < x < b) == (a < y < b)


def chord_image(d: int, c: Chord) -> Chord:
    """Apply sigma_d to both endpoints; the image may be degenerate."""
    return Chord(sigma(d, c.a), sigma(d, c.b))


def is_critical(d: int, c: Chord) -> bool:
    """A nondegenerate chord whose endpoints share a sigma_d-image."""
    return not c.degenerate and chord_image(d, c).degenerate


def sibling_collections(d: int, c: Chord) -> list[list[Chord]]:
    """All collections of d pairwise disjoint chords containing ``c`` whose
    members all map onto chord_image(d, c).

    Disjoint means no shared endpoints and no crossings.  Rejects chords
    with degenerate image (critical or degenerate input), for which sibling
    collections are not defined.
    """
    img = chord_image(d, c)
    if img.degenerate:
        raise ValueError(f"chord {c} has degenerate image; no sibling collections")
    pre_a = preimages(d, img.a)
    pre_b = preimages(d, img.b)
    if sigma(d, c.a) == img.a:
        ca, cb = c.a, c.b
    else:
        ca, cb = c.b, c.a
    rest_a = [p for p in pre_a if p != ca]
    rest_b = [q for q in pre_b if q != cb]
    collections = []
    for perm in itertools.permutations(rest_b):
        coll = [c] + [Chord(p, q) for p, q in zip(rest_a, perm)]
        if all(disjoint(u, v) for u, v in itertools.combinations(coll, 2)):
            collections.append(coll)
    return collections


@dataclass(frozen=True)
class CollectionReport:
    has_loop: bool
    is_full_collection: bool


def validate_collection(d: int, chords) -> CollectionReport:
    """Loop detection and full-collection test for an ordered chord list.

    A loop is a subset concatenating into a closed curve, or two equal
    chords.  A full collection is exactly d-1 critical chords with no loop.
    """
    chords = list(chords)
    has_loop = len(set(chords)) != len(chords)
    if not has_loop:
        # union-find on endpoint angles; an edge joining an already
        # connected pair closes a curve
        parent: dict[Angle, Angle] = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for ch in chords:
            if ch.degenerate:
                continue
            ra, rb = find(ch.a), find(ch.b)
            if ra == rb:
                has_loop = True
                break
            parent[ra] = rb
    full = (
        not has_loop
        and len(chords) == d - 1
        and all(is_critical(d, ch) for ch in chords)
    )
    return CollectionReport(has_loop=has_loop, is_full_collection=full)


def greedy_no_loop(d: int, chords) -> list[Chord]:
    """The chords, in order, that do not close a loop with those kept before."""
    chosen: list[Chord] = []
    for c in chords:
        if not validate_collection(d, chosen + [c]).has_loop:
            chosen.append(c)
    return chosen
