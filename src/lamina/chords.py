"""Chords of the closed disk: linking, criticality, siblings, loop detection.

A chord is an unordered pair of circle angles (possibly degenerate), stored
as the sorted pair (a, b): ``Chord`` is a tuple, with the tuple's equality,
order and hash.  Two chords are *linked* when they cross inside the open
disk; a chord is *critical* under sigma_d when its endpoints share an
image.  Collections of critical chords are validated against loops (closed
concatenations or repeated chords) by the one union-find pass of
``greedy_no_loop``: it keeps each chord, in order, unless it repeats a kept
chord or joins two endpoints the kept chords already connect, and a
degenerate chord joins nothing; ``validate_collection`` reports a loop
exactly when that pass drops a chord.  Sibling collections enumerate the
ways a chord extends to d pairwise disjoint chords with a common image.

``linked`` and ``disjoint`` read only that pair, so they also take sorted
int pairs on one integer ring mod N, where circle order is int order; with
``_ring_image`` for the image, pullbacks, order preservation and the checks
on a lamination's own ring (``FiniteLamination.ring``) run on such pairs.
On Chords of Angles, ``linked``, ``chord_image`` and a Chord's text read
the ends' ints in ``lamina.circle``, the one module that names Fraction's
slots; ``linked`` lives there and is the same function object here.  It
makes at most three ordered comparisons and no equality test, and it is
exact for sorted pairs only.  ``chord_image`` is one ``circle._sigma_pair``
call, its sorted pair made a Chord as is.  The private ``_sides`` turns
circularly ordered points, Angles or ring ints, into hull sides, and every
hull side in the package comes from it.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .circle import Angle, _pair_text, _record, _ring, _sigma_pair, linked, shortest_dist, sigma, preimages

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

    # "a b", each end's text read off its slots in lamina.circle
    __str__ = _pair_text


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


def _in_sibling_collection(d: int, groups) -> set:
    """The leaves (ring int pairs) of the image groups that lie in d pairwise
    disjoint leaves of their group, a sibling collection: a run of d leaves
    in group order, grown one leaf at a time from the disjoint pairs, each
    pair tested once.  A leaf lies in one group, so a run never leaves it."""
    apart = [p for group in groups for p in itertools.combinations(group, 2) if disjoint(*p)]
    runs = apart
    if d > 2:
        after: dict[tuple, list] = {}  # leaf -> the later leaves of its group disjoint from it
        for v, w in apart:
            after.setdefault(v, []).append(w)
        for _ in range(d - 2):
            runs = [r + (w,) for r in runs for w in after.get(r[-1], ()) if all(w in after[u] for u in r[:-1])]
    return set(itertools.chain.from_iterable(runs))


@_record("has_loop", "is_full_collection", frozen=True)
class CollectionReport:
    pass


def validate_collection(d: int, chords) -> CollectionReport:
    """Loop detection and full-collection test for an ordered chord list.

    A loop (a closed concatenation or two equal chords) makes
    :func:`greedy_no_loop` drop a chord.  A full collection is exactly d-1
    critical chords with no loop.  Both are decided on the chords' ring.
    """
    N, xs = _ring([e for c in chords for e in c])
    return _ring_collection(d, N, list(zip(xs[::2], xs[1::2])))


def _ring_collection(d: int, N: int, pairs) -> CollectionReport:
    """:func:`validate_collection` of sorted int pairs on the ring mod N: a
    pair is critical when its ends differ and ``d*a % N == d*b % N``."""
    has_loop = len(greedy_no_loop(d, pairs)) != len(pairs)
    full = not has_loop and len(pairs) == d - 1 and all(a != b and d * a % N == d * b % N for a, b in pairs)
    return CollectionReport(has_loop=has_loop, is_full_collection=full)


def greedy_no_loop(d: int, chords) -> list:
    """The chords or ring int pairs, in order, that repeat no kept one and
    join no two endpoints the kept ones connect: one union-find pass."""
    chosen: list = []
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in chords:
        a, b = c
        ra, rb = find(a), find(b)
        # ra == rb for a degenerate chord, so joining them is a no-op
        if ra != rb or (a == b and c not in chosen):
            parent[ra] = rb
            chosen.append(c)
    return chosen
