"""Deterministic SVG rendering of laminations and tag factors.

Chords are drawn as hyperbolic geodesics of the Poincare disk: circular
arcs orthogonal to the unit circle, with diameters as straight lines.  All
geometry is carried as exact rationals until emission, where each value is
printed with the 12 significant digits of its 30-digit mpmath evaluation,
so identical inputs produce byte-identical SVG on any platform.

Every disk of a picture draws its chords through one path on integers:
the points of the disk lie on one ring mod N (``circle._ring``), a
lamination's own ``ring`` or the ring of a chord list's endpoints (and
of the shaded gaps' vertices), where a chord is a sorted int pair, circle
order is int order and a degenerate pair is drawn as a point.  Each disk
has one ``_Canvas`` and evaluates every distinct quantity once: one loop
(``_Canvas.xy``) prints the "x,y" string of every ring point of the
disk's paths, and one loop (``_geodesics``) builds the path data of all
its chords, printing the arc radius of each chord length the first time
it occurs; both are kept in dicts keyed by their ints.  The geodesic
joining ring points a and b, with shortest distance l (``b - a`` or
``N - b + a``, over N), is the circle orthogonal to the unit circle
through both points; its radius is tan(pi*l), with no cancellation
however near l is to 1/2.  The arc bends toward the disk centre, which
fixes its sweep flag exactly: drawn from a to b it is 1 iff b lies less
than half a turn counterclockwise of a.  The dicts live and die with
their disk: nothing is cached across calls.

The printed bytes are those of the mpf formula at 30 digits: pixel
coordinates c + R*cospi(t) and c - R*sinpi(t) of an angle a, with
t = 2*mpf(n)/q for a = n/q, c = size/2 and R = 0.45*size (1.06*R for
labels), and arc radii tan(pi*l)*R, each printed by ``nstr(x, 12)``, which
calls mpmath's ``to_str(x, 12)``.  The fallback evaluates that formula
with mpf objects at 30 digits.

Most values are printed from a certified binary64 evaluation instead, in
the manner of Ziv's correctly rounded elementary functions (ACM TOMS,
1991); the mpf fallback prints the rest.

* Reduction, exact in integers.  For a = n/q, ``k, r = divmod(8n, q)``
  writes 2*pi*a = (pi/4)(k + r/q): an octant k and a residual.  Turning
  by j = round(k/2) quarter turns leaves psi = (pi/4)*r/q for even k and
  psi = -(pi/4)*(q - r)/q for odd k, so |psi| <= pi/4; the quarter turn
  only swaps and negates.  A length l = n/q reduces with
  ``divmod(4n, q)``: tan(pi*l) is sin/cos of psi = (pi/4)*r/q for
  l < 1/4, and cos/sin of psi = (pi/4)(q - r)/q from 1/4 on, so its
  relative error stays bounded as l -> 1/2.  In binary64, psi is
  fl(fl(m/q) * fl(pi/4)): an int true division, which is correctly
  rounded, and one product, a relative error below 2.93e-16.
* cos and sin without libm.  The Taylor polynomials of degree 16 and 17,
  evaluated by Horner's rule in s = psi**2, truncate below 2.1e-18 and
  8.4e-20 on |psi| <= pi/4.  A running error bound of the evaluation
  (each coefficient and each operation rounded to nearest) is 4.1e-16
  for cos and |psi|*2.9e-16 for sin before its last product.  With the
  error of psi, each of cos and sin is within 5.8e-16 of the exact value.
  A tangent s/c or c/s is within 1.6e-15 relative, the quotient
  included: the error of psi enters multiplied by at most
  psi/(sin(psi)*cos(psi)) <= pi/2.  Only IEEE binary64 arithmetic with
  round to nearest is involved, so the bounds hold on every platform.
* The bound e.  A pixel value v = fl(c + fl(R*x)), with R = fl(size*0.45),
  times 1.06 for labels (relative error below 3.9e-16), is within
  0.477*size*(5.8e-16 + 3.9e-16 + 1.2e-16) + 1.2e-16*size of the exact
  value.  The mpf value is within 1e-29*size of it, so v is within
  6.4e-16*size of the mpf value.  A radius fl(R*tan) is within 1.9e-15
  relative of the mpf value.  That covers mpmath's rounding of pi*t
  before it takes tan, which tan near pi/2 amplifies by at most 5e13 for
  l below ``_STRAIGHT_FROM``: about 2e-17.  The certificate takes
  e = 1e-15*size for a coordinate and e = 4e-15*v for a radius.
* The certificate.  ``to_str(x, 12)`` truncates x to at least 15 digits,
  an error below 1.5e-17*x, and rounds half up on the 13th.  That is the
  correct rounding of x to 12 digits unless x lies within the truncation
  error above a tie (a 13-digit decimal ending in 5).  ``"%.11e" % f`` is
  the correct rounding of the binary value f: CPython formats floats with
  its own dtoa (``sys.float_repr_style == "short"``).  If
  ``"%.11e" % (v - e)`` equals ``"%.11e" % (v + e)``, no tie lies strictly
  between the two ends, and the common string is the one 12-digit number
  between the ties that enclose that open interval.  e exceeds the error
  bound plus the truncation error plus the rounding of v -+ e, so the mpf
  value and its truncation lie strictly inside, and ``to_str`` prints that
  number too.  ``"%.12g"`` rounds to the same 12 digits as ``"%.11e"``, so
  the check compares ``"%.12g"`` strings, which are already in ``to_str``'s
  layout: fixed point for -5 < exponent < 12 with trailing zeros stripped,
  ``e+N``/``e-N`` otherwise.  Only a bare integer mantissa needs its
  ``.0`` back and the exponent its zero padding dropped.  When the ends
  differ, for well under one value in a hundred (0.2-0.6% in the random
  oracles of ``tests/test_render.py``), the mpf fallback prints the value.

The binary64 path runs for integer sizes 1 <= size <= 2**52, where size/2
and size*0.45 stay exact or within the bounds above, and for lengths with
m/q >= 2**-1000, where no product leaves the normal range.  Other sizes,
and a CPython without its own float formatting, take the mpf fallback
throughout.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd, lcm

import mpmath

from .chords import Chord, _sides
from .circle import Angle, _at, _on_ring, _ring
from .lamination import FiniteLamination, Gap

__all__ = ["RenderSpec", "render_svg"]

_STYLE = (
    "circle.boundary{fill:none;stroke:#222;stroke-width:1.5}"
    ".leaf{fill:none;stroke:#3366aa;stroke-width:1}"
    ".hl{fill:none;stroke:#cc2222;stroke-width:2}"
    ".shade{fill:#88aadd;fill-opacity:0.25;stroke:none}"
    "text{font-family:monospace;font-size:10px;fill:#333}"
)


@dataclass(frozen=True)
class RenderSpec:
    size: int = 800
    geodesic_style: str = "hyperbolic"  # or "straight"
    labels: bool = False
    highlight: tuple = field(default_factory=tuple)


# A chord at least this long, within 1e-14 of a diameter, bows away from
# the straight segment by less than 1e-14 of the canvas size, below what
# the 12 significant digits of an emitted coordinate can show; it is drawn
# straight.
_STRAIGHT_FROM = Angle(Fraction(1, 2) - Fraction(1, 10**14))
_STRAIGHT_N, _STRAIGHT_Q = _STRAIGHT_FROM.numerator, _STRAIGHT_FROM.denominator


def _fmt(x) -> str:
    return mpmath.nstr(x, 12)


# the certified binary64 path; see the module docstring for the bounds
_FAST = sys.float_repr_style == "short"
_MAX_FAST_SIZE = 2**52
_PIX_ERR = 1e-15  # times size
_RADIUS_ERR = 4e-15  # times the radius
_TINY = 2.0**-1000
_PI_4 = 0.7853981633974483  # fl(pi/4)
# Taylor coefficients of cos and of sin/psi in s = psi**2, highest first
_C8, _C7, _C6, _C5, _C4, _C3, _C2, _C1 = ((-1) ** i / factorial(2 * i) for i in range(8, 0, -1))
_S8, _S7, _S6, _S5, _S4, _S3, _S2, _S1 = ((-1) ** i / factorial(2 * i + 1) for i in range(8, 0, -1))


def _cos_sin(m: int, q: int) -> tuple[float, float]:
    """cos and sin of psi = (pi/4)*m/q, 0 <= m <= q, in binary64 by the
    Taylor polynomials, with no libm."""
    psi = m / q * _PI_4
    s = psi * psi
    c = _C7 + s * _C8
    c = _C5 + s * (_C6 + s * c)
    c = _C3 + s * (_C4 + s * c)
    c = 1.0 + s * (_C1 + s * (_C2 + s * c))
    sn = _S7 + s * _S8
    sn = _S5 + s * (_S6 + s * sn)
    sn = _S3 + s * (_S4 + s * sn)
    sn = psi * (1.0 + s * (_S1 + s * (_S2 + s * sn)))
    return c, sn


def _certified(v: float, e: float):
    """What ``to_str(x, 12)`` prints for every real x strictly between
    v - e and v + e, 0 < e < v, or None when a 12-digit rounding boundary
    may lie in between."""
    t = "%.12g" % (v - e)
    if t != "%.12g" % (v + e):
        return None
    # "%.12g" is to_str's layout but for a ".0" on a bare integer
    # mantissa and a zero-padded exponent
    if "e" not in t:
        return t if "." in t else t + ".0"
    m, x = t.split("e")
    return f"{m if '.' in m else m + '.0'}e{int(x):+d}"


class _Canvas:
    """Maps the unit disk to SVG pixel coordinates (y axis flipped) for the
    points of its ring mod N, and keeps the arc radius of each chord length
    of that ring.

    ``xy``, ``pix`` and ``geodesic_radius`` take fractions n/q that need not
    be reduced.  Values are printed from the certified binary64 evaluation
    when it decides them, and otherwise by the mpf fallback: the module
    docstring's formula evaluated with mpf objects at the context
    precision, from the reduced fraction.
    """

    def __init__(self, size: int, N: int):
        self.N = N
        self.center = mpmath.mpf(size) / 2
        self.radius = mpmath.mpf(size) * mpmath.mpf("0.45")
        self.label_radius = self.radius * mpmath.mpf("1.06")
        self.radii: dict = {}  # chord length on the ring -> its arc radius
        # c, R and 1.06*R in binary64 (c exact, the radii within the
        # module docstring's bounds) and the bound e, for the fast path;
        # its int divisions are correctly rounded, so n/q need not be
        # reduced there
        self._fast = _FAST and type(size) is int and 1 <= size <= _MAX_FAST_SIZE
        if self._fast:
            self._c = size / 2
            self._r = size * 0.45
            self._label_r = self._r * 1.06
            self._e = size * _PIX_ERR

    def xy(self, q: int, ns, label: bool = False) -> list[str]:
        """The "x,y" strings of the points n/q for n in ns, 0 <= n < q: the
        formatted pixel coordinates center + R*x and center - R*y of the
        point (x, y) at angle n/q, R the disk radius, or 1.06 times it for a
        label."""
        if not self._fast:
            return [self._mpf_xy(n, q, label) for n in ns]
        c, R, e = self._c, (self._label_r if label else self._r), self._e
        out = []
        for n in ns:
            k, r = divmod(8 * n, q)
            if k & 1:
                cos, sin = _cos_sin(q - r, q)
                sin = -sin
            else:
                cos, sin = _cos_sin(r, q)
            j = (k + 1) >> 1 & 3
            if j == 0:
                x, y = cos, sin
            elif j == 1:
                x, y = -sin, cos
            elif j == 2:
                x, y = -cos, -sin
            else:
                x, y = sin, -cos
            px = _certified(c + R * x, e)
            py = _certified(c - R * y, e)
            out.append(f"{px},{py}" if px is not None and py is not None else self._mpf_xy(n, q, label))
        return out

    def _mpf_xy(self, n: int, q: int, label: bool) -> str:
        g = gcd(n, q)
        t = 2 * mpmath.mpf(n // g) / (q // g)
        R = self.label_radius if label else self.radius
        return f"{_fmt(self.center + R * mpmath.cospi(t))},{_fmt(self.center - R * mpmath.sinpi(t))}"

    def pix(self, n: int, q: int, label: bool = False) -> tuple[str, str]:
        """The formatted pixel coordinates of the one point n/q of ``xy``."""
        px, py = self.xy(q, (n,), label)[0].split(",")
        return px, py

    def geodesic_radius(self, n: int, q: int) -> str:
        """The formatted pixel radius tan(pi*n/q)*R of a geodesic of
        shortest length n/q, below 1/2."""
        if self._fast:
            k, m = divmod(4 * n, q)
            if k:
                m = q - m
            if m / q >= _TINY:
                c, s = _cos_sin(m, q)
                v = self._r * (c / s if k else s / c)
                r = _certified(v, v * _RADIUS_ERR)
                if r is not None:
                    return r
        g = gcd(n, q)
        t = mpmath.mpf(n // g) / (q // g)
        return _fmt(mpmath.tan(mpmath.pi * t) * self.radius)


def _geodesics(canvas: _Canvas, xy: dict, pairs, straight: bool) -> list[str]:
    """Path data drawing the geodesic from a (the current point) to b, for
    each pair (a, b) of ring points; ``xy`` holds the "x,y" string of each
    b."""
    if straight:
        return [f"L {xy[b]}" for _, b in pairs]
    N, radii, out = canvas.N, canvas.radii, []
    bound = N * _STRAIGHT_N
    for a, b in pairs:
        t = (b - a) % N
        # the geodesic is the minor arc bending toward the disk centre, so
        # the sweep flag is the sign of sin 2pi(b - a), decided exactly
        sweep = 1 if 2 * t < N else 0
        length = t if sweep else N - t  # the shortest distance, times N
        if length * _STRAIGHT_Q < bound:
            r = radii.get(length)
            if r is None:
                r = radii[length] = canvas.geodesic_radius(length, N)
            out.append(f"A {r} {r} 0 0 {sweep} {xy[b]}")
        else:
            out.append(f"L {xy[b]}")
    return out


def _shade_vertices(gap: Gap, N: int) -> list[int]:
    """The vertices of a shaded gap on the ring mod N, a multiple of the
    gap's ring, or 0 and 1/2 for the whole disk."""
    n, xs = gap.ring
    return [0, N // 2] if gap.is_disk else [x * (N // n) for x in xs]


def _gap_shade_path(canvas: _Canvas, xy: dict, gap: Gap, straight: bool) -> str:
    r, N = _fmt(canvas.radius), canvas.N
    verts = _shade_vertices(gap, N)
    if gap.is_disk:
        # the whole disk: two counterclockwise half circles
        zero, half = xy[verts[0]], xy[verts[1]]
        return f"M {zero} A {r} {r} 0 1 0 {half} A {r} {r} 0 1 0 {zero} Z"
    sides, arcs = list(zip(verts, verts[1:] + verts[:1])), gap.arc_sides
    chords = iter(_geodesics(canvas, xy, [s for i, s in enumerate(sides) if i not in arcs], straight))
    # an arc side runs counterclockwise, which is sweep 0 with y flipped
    parts = [
        next(chords) if i not in arcs else f"A {r} {r} 0 {1 if 2 * ((b - a) % N) > N else 0} 0 {xy[b]}"
        for i, (a, b) in enumerate(sides)
    ]
    return f"M {xy[verts[0]]} {' '.join(parts)} Z"


def render_svg(target, spec: RenderSpec = RenderSpec(), shaded=()) -> str:
    """Render a lamination, a list of chords, or a pair of tag factors
    (``ConvexSet``s) to an SVG document string."""
    with mpmath.workdps(30):
        return _render(target, spec, shaded)


def _render(target, spec: RenderSpec, shaded) -> str:
    canonical = isinstance(target, FiniteLamination)  # its ring pairs are sorted and distinct
    if canonical:
        rings = [target.ring]
    elif isinstance(target, (list, tuple)) and (not target or isinstance(target[0], Chord)):
        # the chords' endpoints on one ring, each chord its sorted int pair
        N, xs = _ring([e for c in target for e in c])
        rings = [(N, list(zip(xs[::2], xs[1::2])))]
    else:
        # tag factors: two convex sets rendered side by side, each its own
        # ring's sides, a point as a degenerate chord
        rings = [(N, _sides(xs) or [(xs[0], xs[0])]) for N, xs in (f.ring for f in target)]

    size = spec.size
    width = size * len(rings)
    straight = spec.geodesic_style == "straight"
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{size}" '
        f'viewBox="0 0 {width} {size}">',
        f"<style>{_STYLE}</style>",
    ]
    # the shaded gaps are drawn on every disk, so their points join its ring
    shaded = tuple(shaded)
    shade_q = [g.ring[0] for g in shaded] + [2 for g in shaded if g.is_disk]
    for idx, (N, pairs) in enumerate(rings):
        M = lcm(N, *shade_q)
        if M != N:
            pairs = [(a * (M // N), b * (M // N)) for a, b in pairs]
            N = M
        canvas = _Canvas(size, N)
        drawn = pairs if canonical else sorted(set(pairs))
        # every point of the disk's paths, each evaluated once
        points = {x for p in drawn for x in p}
        for g in shaded:
            points.update(_shade_vertices(g, N))
        xy = dict(zip(points, canvas.xy(N, points)))
        offset = idx * size
        out.append(f'<g transform="translate({offset},0)">')
        out.append(
            f'<circle class="boundary" cx="{_fmt(canvas.center)}" cy="{_fmt(canvas.center)}" '
            f'r="{_fmt(canvas.radius)}"/>'
        )
        for g in shaded:
            out.append(f'<path class="shade" d="{_gap_shade_path(canvas, xy, g, straight)}"/>')
        highlight = {(_on_ring(N, a), _on_ring(N, b)) for a, b in spec.highlight}
        lit = []
        for p, path in zip(drawn, _geodesics(canvas, xy, drawn, straight)):
            a, b = p
            if p in highlight:
                lit.append(f'<path class="hl" d="M {xy[a]} {path}"/>')
            elif a == b:
                px, py = xy[a].split(",")
                out.append(f'<circle class="leaf" cx="{px}" cy="{py}" r="2"/>')
            else:
                out.append(f'<path class="leaf" d="M {xy[a]} {path}"/>')
        out += lit
        if spec.labels:
            # each endpoint once, in the order the chords list them
            ends = list(dict.fromkeys(itertools.chain.from_iterable(pairs)))
            for x, s in zip(ends, canvas.xy(N, ends, label=True)):
                lx, ly = s.split(",")
                out.append(f'<text x="{lx}" y="{ly}" text-anchor="middle">{_at(N, x)}</text>')
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
