"""Deterministic SVG rendering of laminations and tag factors.

Chords are drawn as hyperbolic geodesics of the Poincare disk: circular
arcs orthogonal to the unit circle, with diameters as straight lines.  All
geometry is carried as exact rationals until emission, where fixed-precision
evaluation (mpmath at 30 digits) is rounded to 12 significant digits, so
identical inputs produce byte-identical SVG on any platform.

Each disk of a picture has one ``_Canvas``, which evaluates every distinct
quantity once: the point (cos 2*pi*a, sin 2*pi*a) and the formatted "x,y"
string of each endpoint, keyed by Angle, and the formatted arc radius of
each chord length.  The geodesic joining angles a and b, with shortest
distance l = shortest_dist(a, b), is the circle orthogonal to the unit
circle through both points; its radius is tan(pi*l), with no cancellation
however near l is to 1/2.  The arc bends toward the disk centre, which
fixes its sweep flag exactly: drawn from a to b it is 1 iff b lies less
than half a turn counterclockwise of a.  The memo lives and dies with its
canvas: nothing is cached across calls.

Each endpoint is evaluated once, on raw mpf values through mpmath's
``libmp``: ``mpf_cos_sin_pi`` gives cosine and sine together,
``mpf_mul``/``mpf_add``/``mpf_sub`` the pixel coordinates and ``to_str``
the 12-digit strings.  These are the functions, in the same order and with
the same rounding, that the mpf operators, ``cospi``/``sinpi`` and
``nstr`` call, so the bytes are those of the mpf formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
from mpmath.libmp import (
    from_int,
    mpf_add,
    mpf_cos_sin_pi,
    mpf_div,
    mpf_mul,
    mpf_mul_int,
    mpf_pos,
    mpf_sub,
    to_str,
)

from .chords import Chord
from .circle import Angle, ccw_offset
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
_HALF = Angle(1, 2)


def _fmt(x) -> str:
    return mpmath.nstr(x, 12)


# every rounding of the canvas is to nearest, as the mpf operators round
_RND = "n"


class _Canvas:
    """Maps the unit disk to SVG pixel coordinates (y axis flipped),
    evaluating each endpoint and each arc radius once.

    Endpoints go through mpmath's low-level ``libmp`` functions on raw mpf
    values at the context precision, calling the same functions in the
    same order as the mpf operators, ``cospi``/``sinpi`` and ``nstr`` would.
    """

    def __init__(self, size: int):
        self.center = mpmath.mpf(size) / 2
        self.radius = mpmath.mpf(size) * mpmath.mpf("0.45")
        self._label_radius = (self.radius * mpmath.mpf("1.06"))._mpf_
        self._prec = mpmath.mp.prec
        self._points: dict = {}
        self._xy: dict = {}
        self._radii: dict = {}

    def point(self, angle: Fraction):
        """(cos 2*pi*angle, sin 2*pi*angle) as raw mpf values."""
        p = self._points.get(angle)
        if p is None:
            prec = self._prec
            # 2 * mpf(n) / q
            t = mpf_mul_int(mpf_pos(from_int(angle.numerator), prec, _RND), 2, prec, _RND)
            t = mpf_div(t, from_int(angle.denominator), prec, _RND)
            p = self._points[angle] = mpf_cos_sin_pi(t, prec, _RND)
        return p

    def pix(self, angle: Fraction, radius=None) -> tuple[str, str]:
        """The formatted pixel coordinates center + radius*x and
        center - radius*y of the angle's point (x, y), ``radius`` a raw mpf
        value (the disk radius by default)."""
        x, y = self.point(angle)
        prec, c = self._prec, self.center._mpf_
        r = self.radius._mpf_ if radius is None else radius
        px = mpf_add(c, mpf_mul(r, x, prec, _RND), prec, _RND)
        py = mpf_sub(c, mpf_mul(r, y, prec, _RND), prec, _RND)
        return to_str(px, 12), to_str(py, 12)

    def svg_xy(self, angle: Fraction) -> str:
        s = self._xy.get(angle)
        if s is None:
            s = self._xy[angle] = ",".join(self.pix(angle))
        return s

    def label_xy(self, angle: Fraction) -> tuple[str, str]:
        """The formatted position of a label, 1.06 disk radii out."""
        return self.pix(angle, self._label_radius)

    def arc_radius(self, length: Fraction) -> str:
        """The formatted pixel radius of a geodesic of this shortest length."""
        r = self._radii.get(length)
        if r is None:
            t = mpmath.mpf(length.numerator) / length.denominator
            r = self._radii[length] = _fmt(mpmath.tan(mpmath.pi * t) * self.radius)
        return r


def _geodesic_to(canvas: _Canvas, start: Angle, end: Angle, straight: bool) -> str:
    """Path data drawing the geodesic from ``start`` (the current point) to ``end``."""
    if not straight:
        t = ccw_offset(start, end)
        # the geodesic is the minor arc bending toward the disk centre, so
        # the sweep flag is the sign of sin 2pi(end - start), decided exactly
        sweep = 1 if t < _HALF else 0
        length = t if sweep else 1 - t  # shortest_dist(start, end)
        if length < _STRAIGHT_FROM:
            r = canvas.arc_radius(length)
            return f"A {r} {r} 0 0 {sweep} {canvas.svg_xy(end)}"
    return f"L {canvas.svg_xy(end)}"


def _geodesic_path(canvas: _Canvas, chord: Chord, straight: bool) -> str:
    return f"M {canvas.svg_xy(chord.a)} {_geodesic_to(canvas, chord.a, chord.b, straight)}"


def _gap_shade_path(canvas: _Canvas, gap: Gap, straight: bool) -> str:
    r = _fmt(canvas.radius)
    if gap.is_disk:
        # the whole disk: two counterclockwise half circles
        zero, half = canvas.svg_xy(Angle(0)), canvas.svg_xy(_HALF)
        return f"M {zero} A {r} {r} 0 1 0 {half} A {r} {r} 0 1 0 {zero} Z"
    verts = gap.vertices
    parts = [f"M {canvas.svg_xy(verts[0])}"]
    for i, (kind, side) in enumerate(gap.sides):
        start, end = verts[i], verts[(i + 1) % len(verts)]
        if kind == "arc":
            # the boundary runs counterclockwise, which is sweep 0 with y flipped
            large = 1 if side.length > _HALF else 0
            parts.append(f"A {r} {r} 0 {large} 0 {canvas.svg_xy(end)}")
        else:
            parts.append(_geodesic_to(canvas, start, end, straight))
    parts.append("Z")
    return " ".join(parts)


def render_svg(target, spec: RenderSpec = RenderSpec(), shaded=()) -> str:
    """Render a lamination, a list of chords, or a pair of tag factors
    (``ConvexSet``s) to an SVG document string."""
    with mpmath.workdps(30):
        return _render(target, spec, shaded)


def _render(target, spec: RenderSpec, shaded) -> str:
    if isinstance(target, FiniteLamination):
        chords = list(target.leaves)
        disks = [chords]
    elif isinstance(target, (list, tuple)) and target and isinstance(target[0], Chord):
        chords = list(target)
        disks = [chords]
    else:
        # tag factors: two convex sets rendered side by side, a point as a
        # degenerate chord
        disks = [list(f.edges) or [Chord(f.vertices[0], f.vertices[0])] for f in target]

    size = spec.size
    width = size * len(disks)
    straight = spec.geodesic_style == "straight"
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{size}" '
        f'viewBox="0 0 {width} {size}">',
        f"<style>{_STYLE}</style>",
    ]
    highlight = set(spec.highlight)
    for idx, chord_list in enumerate(disks):
        canvas = _Canvas(size)
        offset = idx * size
        out.append(f'<g transform="translate({offset},0)">')
        out.append(
            f'<circle class="boundary" cx="{_fmt(canvas.center)}" cy="{_fmt(canvas.center)}" '
            f'r="{_fmt(canvas.radius)}"/>'
        )
        for g in shaded:
            out.append(f'<path class="shade" d="{_gap_shade_path(canvas, g, straight)}"/>')
        plain = [c for c in chord_list if c not in highlight]
        strong = [c for c in chord_list if c in highlight]
        for c in sorted(dict.fromkeys(plain)):
            if c.degenerate:
                px, py = canvas.pix(c.a)
                out.append(f'<circle class="leaf" cx="{px}" cy="{py}" r="2"/>')
            else:
                out.append(f'<path class="leaf" d="{_geodesic_path(canvas, c, straight)}"/>')
        for c in sorted(dict.fromkeys(strong)):
            out.append(f'<path class="hl" d="{_geodesic_path(canvas, c, straight)}"/>')
        if spec.labels:
            seen = set()
            for c in chord_list:
                for v in c.endpoints:
                    if v in seen:
                        continue
                    seen.add(v)
                    lx, ly = canvas.label_xy(v)
                    out.append(f'<text x="{lx}" y="{ly}" text-anchor="middle">{v}</text>')
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
