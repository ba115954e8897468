"""Deterministic sampling for the verification suites.

The generator is a 64-bit linear congruential generator,

    state_{n+1} = (6364136223846793005 * state_n + 1442695040888963407) mod 2^64,

seeded directly with the user seed, an int from 0 to 2^64 - 1, and
emitting the top 32 bits of each new state.  It is fully specified here so
independent implementations can reproduce every suite sample from the seed
alone.
"""

from __future__ import annotations

from fractions import Fraction

from .circle import THIRD, Angle, _check_int, shortest_dist
from .chords import Chord, disjoint, linked

__all__ = ["Lcg"]

_MASK = (1 << 64) - 1
_MULT = 6364136223846793005
_INC = 1442695040888963407


class Lcg:
    """The suites' generator at state ``seed``, an int from 0 to 2^64 - 1,
    else a ValueError: a seed outside that range would repeat the samples
    of one inside it."""

    def __init__(self, seed: int):
        _check_int("seed", seed, 0, _MASK)
        self.state = seed

    def next_u32(self) -> int:
        self.state = (_MULT * self.state + _INC) & _MASK
        return self.state >> 32

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n) by reduction (documented bias is
        irrelevant at suite scale and keeps the generator portable)."""
        return self.next_u32() % n

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def angle(self) -> Angle:
        """An angle p/q with 2 <= q <= 360."""
        q = self.below(359) + 2
        p = self.below(q)
        return Angle(p, q)

    def preperiodic_cubic_angle(self) -> Angle:
        """An angle strictly preperiodic under tripling, with a short orbit:
        denominator 3^j * m, j >= 1, m dividing some 3^k - 1 (k <= 4)."""
        while True:
            j = self.below(2) + 1
            m = self.choice([2, 8, 13, 26, 40, 80])
            q = 3**j * m
            a = Angle(self.below(q), q)
            if a.denominator % 3 == 0:
                return a

    def chord_in_window(self) -> Chord:
        """Nondegenerate chord of length < 1/3."""
        while True:
            a = self.angle()
            span = Fraction(self.below(10**6) + 1, 10**6) * THIRD
            b = Angle(a + span * Fraction(self.below(997) + 1, 998))
            if a != b and shortest_dist(a, b) < THIRD:
                return Chord(a, b)

    def linked_pair_in_window(self):
        """Two linked chords with all endpoints inside a closed arc of
        length 1/3, interleaved as a < x < b < y."""
        while True:
            w = self.angle()
            offs = sorted({Fraction(self.below(10**6), 3 * 10**6) for _ in range(4)})
            if len(offs) != 4:
                continue
            a, x, b, y = (Angle(w + t) for t in offs)
            c1, c2 = Chord(a, b), Chord(x, y)
            if linked(c1, c2):
                return c1, c2

    def critical_cubic_chord(self) -> Chord:
        a = self.preperiodic_cubic_angle()
        return Chord(a, Angle(a + Fraction(1, 3)))

    def disjoint_critical_pair(self):
        """Two unlinked cubic critical chords with distinct endpoints."""
        while True:
            c1 = self.critical_cubic_chord()
            c2 = self.critical_cubic_chord()
            if disjoint(c1, c2):
                return c1, c2
