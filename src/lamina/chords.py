"""Chords of the closed disk: linking, criticality, siblings, loop detection.

A chord is an unordered pair of circle angles (possibly degenerate), stored
as the sorted pair (a, b): ``Chord`` is a tuple.  Two chords are *linked*
when they cross inside the open disk; a chord is *critical* under sigma_d
when its endpoints share an image.  Collections of critical chords are
validated against loops (closed concatenations or repeated chords) by
the one union-find pass of ``greedy_no_loop``, and sibling collections
enumerate the ways a chord extends to d pairwise disjoint chords with a
common image.

``linked`` and ``disjoint`` read only that pair, so they also take sorted
int pairs on one integer ring mod N, where circle order is int order; with
``_ring_image`` for the image, pullbacks, order preservation and the checks
on a lamination's own ring (``FiniteLamination.ring``) run on such pairs.
On Chords of Angles, ``linked`` and ``chord_image`` read the ends' ints in
``lamina.circle``, the one module that names Fraction's slots; ``linked``
lives there and is exported here.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass

from .circle import Angle, _sigma_pair, linked, shortest_dist, sigma, preimages

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


def _chord_tokens(text: str) -> list[str]:
    """The two angle tokens of a chord's text form "a b"."""
    parts = text.split()
    if len(parts) != 2:
        raise ValueError(f"chord text must be two angle tokens: {text!r}")
    return parts


class Chord(namedtuple("Chord", "a b")):
    """Unordered pair of angles, stored canonically as the tuple (min, max);
    equality, order and hash are the tuple's."""

    __slots__ = ()

    def __new__(cls, a, b):
        a, b = Angle(a), Angle(b)
        if b < a:
            a, b = b, a
        return tuple.__new__(cls, (a, b))

    @classmethod
    def parse(cls, text: str) -> "Chord":
        s, t = _chord_tokens(text)
        return cls(Angle(s), Angle(t))

    @property
    def degenerate(self) -> bool:
        return self.a == self.b

    @property
    def length(self):
        return shortest_dist(self.a, self.b)

    @property
    def endpoints(self) -> tuple[Angle, Angle]:
        return (self.a, self.b)

    def __str__(self) -> str:
        return f"{self.a} {self.b}"


def disjoint(c1, c2) -> bool:
    """True iff the chords (as in :func:`linked`) share no endpoint and do
    not cross."""
    a, b = c1[0], c1[1]
    x, y = c2[0], c2[1]
    if a == x or a == y or b == x or b == y:
        return False
    return (a < x < b) == (a < y < b)


def _sides(vertices) -> list:
    """The sides of the hull of circularly ordered points (Angles or ring
    ints): consecutive pairs, then the first with the last point.  Two points
    give one side, one none; ascending points give sorted pairs."""
    sides = list(zip(vertices, vertices[1:]))
    if len(vertices) > 2:
        sides.append((vertices[0], vertices[-1]))
    return sides


def _ring_image(d: int, N: int, c) -> tuple[int, int]:
    """``chord_image`` for a sorted int pair on one ring mod N."""
    x, y = d * c[0] % N, d * c[1] % N
    return (x, y) if x <= y else (y, x)


def chord_image(d: int, c: Chord) -> Chord:
    """Apply sigma_d to both endpoints; the image may be degenerate."""
    return tuple.__new__(Chord, _sigma_pair(d, c[0], c[1]))


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

    A loop (a closed concatenation or two equal chords) makes
    :func:`greedy_no_loop` drop a chord.  A full collection is exactly d-1
    critical chords with no loop.
    """
    chords = list(chords)
    has_loop = len(greedy_no_loop(d, chords)) != len(chords)
    full = (
        not has_loop
        and len(chords) == d - 1
        and all(is_critical(d, ch) for ch in chords)
    )
    return CollectionReport(has_loop=has_loop, is_full_collection=full)


def greedy_no_loop(d: int, chords) -> list[Chord]:
    """The chords, in order, that repeat no kept chord and join no two
    endpoints the kept ones connect: one union-find pass on the endpoints."""
    chosen: list[Chord] = []
    parent: dict[Angle, Angle] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in chords:
        ra, rb = find(c.a), find(c.b)
        # ra == rb for a degenerate chord, so joining them is a no-op
        if ra != rb or (c.degenerate and c not in chosen):
            parent[ra] = rb
            chosen.append(c)
    return chosen
