"""Exact arithmetic on the circle R/Z.

Angles are reduced fractions in [0, 1); everything downstream (chords,
laminations, tags) is built on top of them.  No floating point enters any
computation here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Angle",
    "Arc",
    "THIRD",
    "sigma",
    "sigma_power",
    "preimages",
    "shortest_dist",
    "circular_order",
    "in_arc",
    "cyclic_descents",
    "POSITIVE",
    "NEGATIVE",
    "NEITHER",
]

POSITIVE = "positively_ordered"
NEGATIVE = "negatively_ordered"
NEITHER = "neither"

_RATIONAL = re.compile(r"[+-]?\d+(?:/0*[1-9]\d*)?")


class Angle(Fraction):
    """A point of the circle R/Z stored as a reduced fraction in [0, 1).

    Accepts integers, rationals and "p/q" strings ("0" is 0/1); floats and
    decimal or exponent strings are rejected since the whole library is
    exact.  Values are reduced mod 1, so ``Angle(7, 3) == Angle(1, 3)``;
    ``Angle(a)`` of an Angle ``a`` returns ``a`` itself.
    Ordering and hashing are inherited from Fraction, which matches the
    positive (counterclockwise) parametrization of the circle by [0, 1).
    """

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        if type(numerator) is cls and denominator is None:
            return numerator  # already reduced; immutable, so safe to share
        if isinstance(numerator, float) or isinstance(denominator, float):
            raise TypeError("Angle is exact: floats are not accepted")
        if isinstance(numerator, str) and not _RATIONAL.fullmatch(numerator.strip()):
            raise ValueError(f"angle must be an integer or p/q with q > 0: {numerator!r}")
        value = Fraction(numerator, denominator) % 1
        return super().__new__(cls, value)

    def __repr__(self) -> str:
        return f"Angle({self!s})"


THIRD = Angle(1, 3)


@dataclass(frozen=True)
class Arc:
    """The open circle arc traversed positively from ``start`` to ``end``.

    Degenerate arcs (start == end) are rejected; the full circle is not an
    Arc.  ``length`` is (end - start) mod 1.
    """

    start: Angle
    end: Angle

    def __post_init__(self):
        start, end = Angle(self.start), Angle(self.end)
        if start == end:
            raise ValueError("degenerate arc (start == end)")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)

    @property
    def length(self) -> Fraction:
        return (self.end - self.start) % 1

    def contains(self, x, closed: bool = False) -> bool:
        """Membership of ``x`` in the arc, open by default."""
        t = (Fraction(x) - self.start) % 1
        if closed:
            return t <= self.length
        return 0 < t < self.length

    def __str__(self) -> str:
        return f"({self.start}, {self.end})"


def sigma(d: int, a) -> Angle:
    """The angle d-tupling map a -> d*a mod 1."""
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"degree must be an integer >= 2, got {d!r}")
    return Angle(d * Fraction(a))


def sigma_power(d: int, a, n: int) -> Angle:
    """The n-th iterate of sigma(d, .), in closed form d**n * a mod 1."""
    return Angle(d**n * Fraction(a))


def preimages(d: int, a) -> list[Angle]:
    """The d preimages (a+k)/d of ``a`` under sigma(d, .), sorted ascending."""
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"degree must be an integer >= 2, got {d!r}")
    a = Angle(a)
    return [Angle((a + k) / d) for k in range(d)]


def shortest_dist(a, b) -> Fraction:
    """Length of the shortest circle arc joining a and b; lies in [0, 1/2]."""
    t = (Fraction(b) - Fraction(a)) % 1
    return min(t, 1 - t)


def circular_order(points) -> str:
    """Classify a cyclic sequence of >= 3 pairwise distinct angles.

    Returns POSITIVE when the points appear in counterclockwise order,
    NEGATIVE for clockwise, NEITHER otherwise.  Rotating the input list does
    not change the verdict.
    """
    pts = [Angle(p) for p in points]
    if len(pts) < 3:
        raise ValueError("circular order needs at least three points")
    if len(set(pts)) != len(pts):
        raise ValueError("circular order needs pairwise distinct points")
    offsets = [(p - pts[0]) % 1 for p in pts[1:]]
    if all(offsets[i] < offsets[i + 1] for i in range(len(offsets) - 1)):
        return POSITIVE
    if all(offsets[i] > offsets[i + 1] for i in range(len(offsets) - 1)):
        return NEGATIVE
    return NEITHER


def cyclic_descents(values) -> int:
    """Number of cyclic positions i with values[i] > values[i + 1]."""
    n = len(values)
    return sum(1 for i in range(n) if values[i] > values[(i + 1) % n])


def in_arc(x, arc: Arc, closed: bool = False) -> bool:
    """Strict membership of x in the open positive arc (closed on request)."""
    return arc.contains(x, closed=closed)
