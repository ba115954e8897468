"""Deterministic SVG rendering of laminations and tag factors.

Chords are drawn as hyperbolic geodesics of the Poincare disk: circular
arcs orthogonal to the unit circle, with diameters as straight lines.  All
geometry is carried as exact rationals until emission, where each value is
printed as the 12-digit rounding, half up, of its exact value, so identical
inputs produce byte-identical SVG on any platform.  Rendering needs the
standard library alone.

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

The printed values are the pixel coordinates c + R*cos(2*pi*a) and
c - R*sin(2*pi*a) of an angle a, with c = size/2 and R = 0.45*size
(0.477*size for labels), and the arc radii tan(pi*l)*R, each rounded to 12
significant digits, half up, in the layout of mpmath's ``to_str(x, 12)``:
fixed point for -5 < exponent < 12, with trailing zeros stripped down to
one after the point, ``e+N``/``e-N`` otherwise.

Most values are printed from a certified binary64 evaluation, in the
manner of Ziv's correctly rounded elementary functions (ACM TOMS, 1991);
an exact evaluator in ``decimal`` prints the rest.

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
  0.477*size*(5.8e-16 + 3.9e-16 + 1.2e-16) + 1.2e-16*size, below
  6.4e-16*size, of the exact value.  A radius fl(R*tan) is within 1.9e-15
  relative of it.  The certificate takes e = 1e-15*size for a coordinate
  and e = 4e-15*v for a radius.
* The certificate.  CPython formats floats with its own dtoa
  (``sys.float_repr_style == "short"``), so ``"%.12g" % f`` is the correct
  12-digit rounding of the binary value f.  If it is the same string for
  v - e and v + e, no rounding boundary (a 13-digit decimal ending in 5)
  lies between them, and e exceeds the error bound plus the rounding of
  v -+ e, so that string is the rounding of the exact value, in
  ``to_str``'s layout but for the ``.0`` of a bare integer mantissa and
  the exponent's zero padding.  When the ends differ, for well under one
  value in a hundred (0.2-0.6% in the random oracles of
  ``tests/test_render.py``), the exact evaluator prints the value.
* The exact evaluator takes m/q from the same reduction and works in
  ``decimal`` at p >= 20 digits, u = 10**(1 - p).  With pi/4 from Machin's
  formula in integers, psi and psi**2 are within 1.5u and 3.5u relative.
  The Taylor polynomials of cos and sin(psi)/psi in psi**2 up to the first
  k with (2k)! > 10**p (k <= p/2 + 1), by Horner's rule with fused
  multiply-adds, are within (k/2 + 2.5)*u.  So cos and sin are within p*u
  relative, a coordinate c + R*x (R*|x| <= 21*v) within 22*p*u*v and a
  radius within 3*p*u*v.  It prints once v -+ e, e = 100*p*u*v, round
  alike to 12 digits, half up, and otherwise doubles p; no irrational
  value is a tie, so the loop ends.  By Niven's theorem, only cos 0, sin 0,
  sin(pi/6) = 1/2 and tan(pi/4) = 1 are rational on [0, pi/4]; they are
  exact, e = 0, as are c, R and c + R*x then: p exceeds size's digits + 4.

The binary64 path runs for integer sizes 1 <= size <= 2**52, where size/2
and size*0.45 stay exact or within the bounds above, and for lengths with
m/q >= 2**-1000, where no product leaves the normal range.  Other sizes,
and a CPython without its own float formatting, take the exact evaluator
throughout.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from functools import cache
from math import factorial, lcm

from .chords import Chord, _sides
from .circle import Angle, _at, _check_int, _on_ring, _ring
from .lamination import FiniteLamination, Gap

__all__ = ["RenderSpec", "render_svg"]

_STYLE = (
    "circle.boundary{fill:none;stroke:#222;stroke-width:1.5}"
    ".leaf{fill:none;stroke:#3366aa;stroke-width:1}"
    ".hl{fill:none;stroke:#cc2222;stroke-width:2}"
    ".shade{fill:#88aadd;fill-opacity:0.25;stroke:none}"
    "text{font-family:monospace;font-size:10px;fill:#333}"
)


def _highlight_chord(entry) -> Chord:
    """A highlight entry as a Chord, so a pair in either order is drawn
    highlighted."""
    if not isinstance(entry, str):  # a string would unpack into its characters
        try:
            return Chord(*entry)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"highlight entry {entry!r} is not a pair of angles")


@dataclass(frozen=True)
class RenderSpec:
    size: int = 800
    geodesic_style: str = "hyperbolic"  # or "straight"
    labels: bool = False
    highlight: tuple = field(default_factory=tuple)

    def __post_init__(self):
        _check_int("size", self.size, 1)
        if self.geodesic_style not in ("hyperbolic", "straight"):
            raise ValueError(f"geodesic_style must be 'hyperbolic' or 'straight', got {self.geodesic_style!r}")
        object.__setattr__(self, "highlight", tuple(map(_highlight_chord, self.highlight)))


# A chord at least this long, within 1e-14 of a diameter, bows away from
# the straight segment by less than 1e-14 of the canvas size, below what
# the 12 significant digits of an emitted coordinate can show; it is drawn
# straight.
_STRAIGHT_FROM = Angle(Fraction(1, 2) - Fraction(1, 10**14))
_STRAIGHT_N, _STRAIGHT_Q = _STRAIGHT_FROM.numerator, _STRAIGHT_FROM.denominator


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


# the exact evaluator; see the module docstring for the bounds
_TWELVE = Context(prec=12, rounding=ROUND_HALF_UP, Emin=MIN_EMIN, Emax=MAX_EMAX)


@cache
def _series(p: int) -> tuple[Context, Decimal, list[tuple[Decimal, Decimal]]]:
    """A context of p digits, pi/4 = 4*atan(1/5) - atan(1/239) in it, and the
    Taylor coefficients of cos and sin(psi)/psi in psi**2, highest first."""
    ctx, one, quarter_pi = Context(prec=p, Emin=MIN_EMIN, Emax=MAX_EMAX), 10 ** (2 * p), 0
    for c, x in ((4, 5), (-1, 239)):
        power, k = one // x, 1
        while power:
            quarter_pi += c * (-(power // k) if k & 2 else power // k)
            power, k = power // (x * x), k + 2
    top = next(k for k in itertools.count(1) if factorial(2 * k) > 10**p)
    coefs = [(ctx.divide((-1) ** k, factorial(2 * k)), ctx.divide((-1) ** k, factorial(2 * k + 1))) for k in range(top, -1, -1)]
    return ctx, ctx.divide(quarter_pi, one), coefs


def _cos_sin_exact(m: int, q: int, p: int) -> tuple[Context, Decimal, Decimal]:
    """The context of p digits, and cos and sin of psi = (pi/4)*m/q,
    0 <= m <= q, by Horner's rule in it; exact where they are rational."""
    ctx, quarter_pi, coefs = _series(p)
    if m == 0:
        return ctx, Decimal(1), Decimal(0)
    psi = ctx.divide(ctx.multiply(quarter_pi, m), q)
    s = ctx.multiply(psi, psi)
    c = sn = Decimal(0)
    for a, b in coefs:
        c, sn = ctx.fma(c, s, a), ctx.fma(sn, s, b)
    return ctx, c, (Decimal("0.5") if 3 * m == 2 * q else ctx.multiply(psi, sn))


def _round12(v: Decimal, ctx: Context | None = None) -> str | None:
    """The 12-digit rounding of v >= 0, half up, in ``to_str``'s layout; given
    ``ctx``, that of all reals in the evaluator's bound of v, or None."""
    err = ctx.multiply(v, ctx.scaleb(ctx.prec, 3 - ctx.prec)) if ctx else 0
    d = _TWELVE.plus((ctx or _TWELVE).subtract(v, err))
    if ctx and d != _TWELVE.plus(ctx.add(v, err)):
        return None
    m, x = f"{d:.11e}".split("e")
    e, digits = (int(x) if d else 0), (m[0] + m[2:]).rstrip("0") or "0"
    if not -5 < e < 12:
        return f"{digits[0]}.{digits[1:] or '0'}e{e:+d}"
    digits, point = ("0" * -e + digits, 1) if e < 0 else (digits.ljust(e + 1, "0"), e + 1)
    return f"{digits[:point]}.{digits[point:] or '0'}"


class _Canvas:
    """Maps the unit disk to SVG pixel coordinates (y axis flipped) for the
    points of its ring mod N, and keeps the arc radius of each chord length
    of that ring.

    ``xy``, ``pix`` and ``geodesic_radius`` take fractions n/q that need not
    be reduced.  Values are printed from the certified binary64 evaluation
    when it decides them, and otherwise by the exact evaluator, which
    doubles its precision from ``_p`` digits until the value is decided.
    """

    def __init__(self, size: int, N: int):
        self.N = N
        self._p = 20 + size.bit_length() // 3
        exact = _series(self._p)[0]  # c, R and 1.06*R exact: p exceeds size's digits
        self.center, self.radius, self.label_radius = (exact.multiply(size, Decimal(f)) for f in ("0.5", "0.45", "0.477"))
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
            return [self._exact_xy(n, q, label) for n in ns]
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
            out.append(f"{px},{py}" if px is not None and py is not None else self._exact_xy(n, q, label))
        return out

    def _exact_xy(self, n: int, q: int, label: bool) -> str:
        """The "x,y" string of the point n/q from the exact evaluator."""
        k, r = divmod(8 * n, q)
        m, j, neg = (q - r if k & 1 else r), (k + 1) >> 1 & 3, Decimal.copy_negate
        # whether x and y are rational: cos and sin, swapped for odd j
        exact_x, exact_y = (m == 0, m == 0 or 3 * m == 2 * q)[:: -1 if j & 1 else 1]
        c, R = self.center, (self.label_radius if label else self.radius)
        for p in (self._p << i for i in itertools.count()):  # Ziv's loop
            ctx, cos, sin = _cos_sin_exact(m, q, p)
            sin = neg(sin) if k & 1 else sin
            x, y = ((cos, sin), (neg(sin), cos), (neg(cos), neg(sin)), (sin, neg(cos)))[j]
            px = _round12(ctx.fma(R, x, c), None if exact_x else ctx)
            py = _round12(ctx.fma(R, neg(y), c), None if exact_y else ctx)
            if px and py:
                return f"{px},{py}"

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
        return self._exact_radius(n, q)

    def _exact_radius(self, n: int, q: int) -> str:
        """``geodesic_radius`` from the exact evaluator."""
        k, m = divmod(4 * n, q)
        m = q - m if k else m
        if m == q:  # tan(pi/4) = 1
            return _round12(self.radius)
        for p in (self._p << i for i in itertools.count()):
            ctx, c, s = _cos_sin_exact(m, q, p)
            r = _round12(ctx.multiply(self.radius, ctx.divide(c, s) if k else ctx.divide(s, c)), ctx)
            if r:
                return r


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
    r, N = _round12(canvas.radius), canvas.N
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
            f'<circle class="boundary" cx="{_round12(canvas.center)}" cy="{_round12(canvas.center)}" '
            f'r="{_round12(canvas.radius)}"/>'
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
