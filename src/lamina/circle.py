"""Exact arithmetic on the circle R/Z.

Angles are reduced fractions in [0, 1); everything downstream (chords,
laminations, tags) is built on top of them.  No floating point enters any
computation here.  Arc membership is ``Arc.contains``; there is no
``in_arc`` wrapper.

The hot operations run on the integers n, q of an angle n/q rather than
through Fraction's generic arithmetic: reading an angle token as its
reduced ints (``_ratio``), construction of a known-reduced value
(``_angle``), ``sigma``, ``sigma_power``, ``preimages``, the
counterclockwise offset ``ccw_offset`` and comparisons and hashing between
Angles.  Results are the same Angle values Fraction arithmetic gives.  This
is the one module that reads or writes Fraction's ``_numerator`` and
``_denominator`` slots.
``linked``, the crossing test that ``lamina.chords`` exports, lives here
to compare two Chords of Angles on their ends' ints in one frame, by
cross-multiplied int comparisons (int pairs, Fraction pairs and mixed kinds
keep the comparison chain); ``_sigma_pair`` forms ``chord_image``'s two
images at once, ordered by one cross-multiplication, and ``_pair_text``,
which is ``Chord.__str__``, prints the ends from their ints.
Loops that follow whole orbits go one step further: ``_ring`` puts their
angles on one integer ring mod N, where no Angle is built at all, as
``_pair_ring`` does for two pairs in one step; ``_at`` reads a ring point
back as an Angle, ``_ring_angles`` reads many in one pass, each distinct
point once, and ``_on_ring`` puts one angle on a given ring.

One rule, ``_check_int``, refuses an int argument of the library that is
no int, is a bool or lies out of range, with one message shape: ``depth``,
``boundary_depth``, ``horizon``, the period bound, ``--samples``,
``orbit_classify``'s ``max_steps``, ``sigma_power``'s iterate count,
``up_to``'s generation and ``Lcg``'s seed.

The library's records, ``Arc`` here and the results and reports of the
other modules, are made by ``_record``, not by ``dataclasses``: importing
dataclasses pulls in ``inspect``, and its decorator compiles each method
of each class on its own, a fixed cost of every process that imports
lamina.  ``tests/test_records.py`` holds each record to a dataclass twin.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "Angle",
    "Arc",
    "THIRD",
    "sigma",
    "sigma_power",
    "preimages",
    "ccw_offset",
    "shortest_dist",
    "circular_order",
    "cyclic_descents",
    "POSITIVE",
    "NEGATIVE",
    "NEITHER",
]

POSITIVE = "positively_ordered"
NEGATIVE = "negatively_ordered"
NEITHER = "neither"

_HASH_MODULUS = sys.hash_info.modulus
# ASCII digits only: \d and int() also take other scripts' digits and "_"
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(f"({_INTEGER.pattern})" + r"(?:/(0*[1-9][0-9]*))?")
# the same rule for a token per line, capturing its numerator and denominator
_RATIONAL_LINES = re.compile(f"^{_RATIONAL.pattern}$", re.M)


class Angle(Fraction):
    """A point of the circle R/Z stored as a reduced fraction in [0, 1).

    Accepts integers, rationals and "p/q" strings ("0" is 0/1); floats and
    decimal or exponent strings are rejected since the whole library is
    exact.  Values are reduced mod 1, so ``Angle(7, 3) == Angle(1, 3)``;
    ``Angle(a)`` of an Angle ``a`` returns ``a`` itself.
    Ordering matches the positive (counterclockwise) parametrization of the
    circle by [0, 1).  Between two Angles it compares integers; against any
    other number it is Fraction's.  The hash is Fraction's, computed once,
    so an Angle finds the equal Fraction's dict entry and vice versa.
    """

    __slots__ = ("_hash",)

    def __new__(cls, numerator=0, denominator=None):
        if denominator is None:
            t = type(numerator)
            if t is cls:
                return numerator  # already reduced; immutable, so safe to share
            if t is str:  # a parsed token, the commonest input after an Angle
                return _angle(*_ratio(numerator))
            if t is Fraction:
                q = numerator._denominator
                return _angle(numerator._numerator % q, q)
        if isinstance(numerator, float) or isinstance(denominator, float):
            raise TypeError("Angle is exact: floats are not accepted")
        if isinstance(numerator, str):
            _ratio(numerator)  # a bad string is a ValueError; Fraction does the rest
        value = Fraction(numerator, denominator)
        q = value._denominator
        return _angle(value._numerator % q, q)

    def __repr__(self) -> str:
        return f"Angle({self!s})"

    def __hash__(self):
        h = self._hash
        if h is None:
            # the numeric hash of n/q for n >= 0 (see "Hashing of numeric
            # types" in the Python reference), as Fraction computes it
            try:
                h = hash(hash(self._numerator) * pow(self._denominator, -1, _HASH_MODULUS))
            except ValueError:  # q is a multiple of the modulus
                h = Fraction.__hash__(self)
            self._hash = h
        return h

    # n/q and m/r are reduced with q, r > 0, so equality is equality of the
    # pairs and n/q < m/r iff n*r < m*q.
    def __eq__(self, other):
        if type(other) is Angle:
            return self._numerator == other._numerator and self._denominator == other._denominator
        return Fraction.__eq__(self, other)

    def __lt__(self, other):
        if type(other) is Angle:
            return self._numerator * other._denominator < other._numerator * self._denominator
        return Fraction.__lt__(self, other)

    def __le__(self, other):
        if type(other) is Angle:
            return self._numerator * other._denominator <= other._numerator * self._denominator
        return Fraction.__le__(self, other)

    def __gt__(self, other):
        if type(other) is Angle:
            return self._numerator * other._denominator > other._numerator * self._denominator
        return Fraction.__gt__(self, other)

    def __ge__(self, other):
        if type(other) is Angle:
            return self._numerator * other._denominator >= other._numerator * self._denominator
        return Fraction.__ge__(self, other)


def _angle(n: int, q: int) -> Angle:
    """The Angle n/q for coprime ints with 0 <= n < q, built without checks.

    Sets Fraction's two slots directly, as Python 3.12's
    ``Fraction._from_coprime_ints`` does.
    """
    self = object.__new__(Angle)
    self._numerator = n
    self._denominator = q
    self._hash = None
    return self


def _ratio(text: str) -> tuple[int, int]:
    """The reduced ints n, q of the angle n/q, 0 <= n < q, of an integer or
    "p/q" string with q > 0, blanks around it allowed; anything else is a
    ValueError."""
    digits = text.strip()
    if not _RATIONAL.fullmatch(digits):
        raise ValueError(f"angle must be an integer or p/q with q > 0: {text!r}")
    # the match leaves only "p" or "p/q" with q > 0 for int()
    p, _, q = digits.partition("/")
    q = int(q) if q else 1
    n = int(p) % q
    g = gcd(n, q)
    return n // g, q // g


def _integer(text: str) -> int:
    """The int of a decimal integer string, blanks around it allowed, else a
    ValueError: the one rule for degree headers, LAMINA_SEED and CLI numbers."""
    if not _INTEGER.fullmatch(text.strip()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _record(*names, frozen=False, **defaults):
    """Class decorator: a record of the fields ``names``, then the keys of
    ``defaults`` with their defaults (a callable one is a factory, called
    once per instance).  The class gets what ``@dataclass``, or
    ``@dataclass(frozen=True)``, gives it: ``__init__``, which calls
    ``__post_init__`` if the class has one, ``__repr__``, ``__eq__``
    between records of one class, the hash of the field tuple if frozen
    (no hash if not), the refusal to set or delete a field if frozen, and
    ``__match_args__``, the field tuple."""
    fields = names + tuple(defaults)
    factories = {f"_{n}": v for n, v in defaults.items() if callable(v)}
    missing = object()

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def decorate(cls):
        put = "_set(self, {0!r}, {1})" if frozen else "self.{0} = {1}"
        body = [put.format(n, f"_{n}() if {n} is _M else {n}" if f"_{n}" in factories else n) for n in fields]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        mine, theirs = (f"({''.join(f'{o}.{n}, ' for n in fields)})" for o in ("self", "other"))
        # the hot methods are compiled, one line each, as namedtuple compiles
        # its __new__: generic ones over attrgetter(*fields) build 2-6x and
        # compare 1.6-1.8x slower
        ns = {"_M": missing, "_set": object.__setattr__, **factories}
        exec(
            f"def __init__(self, {', '.join(fields)}): {'; '.join(body)}\n"
            f"def __eq__(self, other): return {mine} == {theirs} if other.__class__ is self.__class__ else NotImplemented\n"
            f"def __hash__(self): return hash({mine})",
            ns,
        )
        ns["__init__"].__defaults__ = tuple(missing if callable(v) else v for v in defaults.values()) or None
        cls.__init__, cls.__eq__, cls.__repr__, cls.__match_args__ = ns["__init__"], ns["__eq__"], __repr__, fields
        cls.__hash__ = ns["__hash__"] if frozen else None  # a mutable record is unhashable
        if frozen:
            cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
        return cls

    return decorate


THIRD = Angle(1, 3)


@_record("start", "end", frozen=True)
class Arc:
    """The open circle arc traversed positively from ``start`` to ``end``.

    Degenerate arcs (start == end) are rejected; the full circle is not an
    Arc.  ``length`` is (end - start) mod 1.
    """

    def __post_init__(self):
        start, end = Angle(self.start), Angle(self.end)
        if start == end:
            raise ValueError("degenerate arc (start == end)")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)

    @property
    def length(self) -> Angle:
        return ccw_offset(self.start, self.end)

    def contains(self, x, closed: bool = False) -> bool:
        """Membership of ``x`` in the arc, open by default."""
        t = ccw_offset(self.start, x)
        if closed:
            return t <= self.length
        return 0 < t < self.length

    def __str__(self) -> str:
        return f"({self.start}, {self.end})"


def _check_int(name: str, value, low: int = 0, high: int | None = None) -> None:
    """Refuse an int argument that is not an int, is a bool, or lies outside low..high."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"between {low} and {high}"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


def _check_degree(d) -> None:
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"degree must be an integer >= 2, got {d!r}")


def sigma(d: int, a) -> Angle:
    """The angle d-tupling map a -> d*a mod 1."""
    _check_degree(d)
    a = Angle(a)
    q = a._denominator
    n = d * a._numerator % q
    g = gcd(n, q)
    return _angle(n // g, q // g)


def sigma_power(d: int, a, n: int) -> Angle:
    """The n-th iterate of sigma(d, .), int n >= 0, in closed form d**n * a mod 1."""
    _check_degree(d)
    _check_int("iterate count", n)
    a = Angle(a)
    q = a._denominator
    m = a._numerator * pow(d, n, q) % q
    g = gcd(m, q)
    return _angle(m // g, q // g)


def preimages(d: int, a) -> list[Angle]:
    """The d preimages (a+k)/d of ``a`` under sigma(d, .), sorted ascending."""
    _check_degree(d)
    a = Angle(a)
    n, q = a._numerator, a._denominator
    out = []
    # n + k*q is prime to q, so gcd(n + k*q, d*q) = gcd(n + k*q, d)
    for m in range(n, d * q, q):
        g = gcd(m, d)
        out.append(_angle(m // g, d * q // g))
    return out


def _sigma_pair(d: int, a, b) -> tuple[Angle, Angle]:
    """``sorted((sigma(d, a), sigma(d, b)))`` with the degree checked once
    and the images built and ordered on their ints."""
    _check_degree(d)
    a, b = Angle(a), Angle(b)
    q, r = a._denominator, b._denominator
    n, m = d * a._numerator % q, d * b._numerator % r
    g, h = gcd(n, q), gcd(m, r)
    n, q, m, r = n // g, q // g, m // h, r // h
    if m * q < n * r:
        return _angle(m, r), _angle(n, q)
    return _angle(n, q), _angle(m, r)


def linked(c1, c2) -> bool:
    """True iff the chords strictly cross inside the open disk.

    Each chord is a Chord, a sorted pair of rationals or a sorted int pair
    on one ring: both pairs must be sorted, a <= b and x <= y, and a pair
    that starts with an Angle holds Angles or Fractions.  Degenerate chords
    never link; chords sharing an endpoint never link.  ``lamina.chords``
    exports it; it lives here to compare Angles on their slots.
    """
    a, b = c1[0], c1[1]
    x, y = c2[0], c2[1]
    # sorted pairs interleave iff a < x < b < y or x < a < y < b; a shared
    # first endpoint, a degenerate chord and every shared or touching end
    # break the strict chain, so no equality test is needed
    if type(a) is Angle is type(x):
        # Angle.__lt__ inline, n/q < m/r iff n*r < m*q for reduced ends;
        # each end's ints are read once, and only as far as the chain gets
        an, aq, xn, xq = a._numerator, a._denominator, x._numerator, x._denominator
        if an * xq < xn * aq:
            bn, bq = b._numerator, b._denominator
            return xn * bq < bn * xq and bn * y._denominator < y._numerator * bq
        if xn * aq < an * xq:
            yn, yq = y._numerator, y._denominator
            return an * yq < yn * aq and yn * b._denominator < b._numerator * yq
        return False
    if a < x:
        return x < b < y
    if x < a:
        return a < y < b
    return False


def _pair_text(p) -> str:
    """``f"{a} {b}"`` for a pair (a, b) of angles, ``Chord.__str__``: each
    Angle's text, "n/q" or "0", from its slots; Fraction's text for a pair
    with an end that is no Angle."""
    a, b = p
    if type(a) is not Angle or type(b) is not Angle:
        return f"{a} {b}"
    n, m = a._numerator, b._numerator
    if n and m:  # nearly every pair: one f-string, not three
        return f"{n}/{a._denominator} {m}/{b._denominator}"
    s = f"{n}/{a._denominator}" if n else "0"
    t = f"{m}/{b._denominator}" if m else "0"
    return f"{s} {t}"


def _ring(angles) -> tuple[int, list[int]]:
    """Put Angles on one ring: their common denominator N and each angle's
    numerator over N.

    sigma_d never enlarges a denominator, so the forward orbits of the
    angles stay in (1/N)Z/Z, where sigma_d is ``d*x % N`` and the circle
    order is the order of the ints.
    """
    # callers pass thousands of Angles, for which Angle() is a no-op call
    angles = [a if type(a) is Angle else Angle(a) for a in angles]
    N = lcm(*[a._denominator for a in angles])
    return N, [a._numerator * (N // a._denominator) for a in angles]


def _pair_ring(p, q) -> tuple[int, list[int]]:
    """``_ring((*p, *q))`` for two pairs of angles, each end read once: the
    entry cost of the linked-pair checks, which mostly refuse at once."""
    (a, b), (x, y) = p, q
    a = a if type(a) is Angle else Angle(a)
    b = b if type(b) is Angle else Angle(b)
    x = x if type(x) is Angle else Angle(x)
    y = y if type(y) is Angle else Angle(y)
    qa, qb, qx, qy = a._denominator, b._denominator, x._denominator, y._denominator
    N = lcm(qa, qb, qx, qy)
    return N, [a._numerator * (N // qa), b._numerator * (N // qb), x._numerator * (N // qx), y._numerator * (N // qy)]


def _at(N: int, x: int) -> Angle:
    """The Angle x/N of a point 0 <= x < N of the ring mod N, reduced."""
    g = gcd(x, N)
    return _angle(x // g, N // g)


def _ring_angles(N: int, xs) -> dict:
    """``{x: _at(N, x)}`` for points xs of the ring mod N, each distinct
    point's Angle made once, inline, in one pass."""
    at = dict.fromkeys(xs)
    for x in at:
        g = gcd(x, N)
        at[x] = a = object.__new__(Angle)
        a._numerator, a._denominator, a._hash = x // g, N // g, None
    return at


def _on_ring(N: int, a) -> int | None:
    """The int of a rational ``a`` on the ring mod N, or None off the ring."""
    if type(a) is Angle:  # its slots, not Fraction's properties
        n, q = a._numerator, a._denominator
    else:
        n, q = a.numerator, a.denominator
    return n * (N // q) if N % q == 0 else None


def ccw_offset(a, b) -> Angle:
    """How far b lies counterclockwise of a: (b - a) mod 1, as an Angle."""
    a, b = Angle(a), Angle(b)
    n, q = a._numerator, a._denominator
    m, r = b._numerator, b._denominator
    qr = q * r
    t = (m * q - n * r) % qr
    g = gcd(t, qr)
    return _angle(t // g, qr // g)


def shortest_dist(a, b) -> Angle:
    """Length of the shortest circle arc joining a and b; lies in [0, 1/2]."""
    t = ccw_offset(a, b)
    n, q = t._numerator, t._denominator
    return t if 2 * n <= q else _angle(q - n, q)


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
    # a positive cycle of distinct points descends once, where it wraps
    # past 0, and a negative one at every step but that one
    descents = cyclic_descents(pts)
    if descents == 1:
        return POSITIVE
    if descents == len(pts) - 1:
        return NEGATIVE
    return NEITHER


def cyclic_descents(values) -> int:
    """Number of cyclic positions i with values[i] > values[i + 1]."""
    # one pass over adjacent pairs; a plain loop beats sum() over a generator
    descents = 0
    for u, v in zip(values, [*values[1:], *values[:1]]):
        if u > v:
            descents += 1
    return descents
