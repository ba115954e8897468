"""Deterministic SVG rendering of laminations and tag factors.

Chords are drawn as hyperbolic geodesics of the Poincare disk: circular
arcs orthogonal to the unit circle, with diameters as straight lines.  All
geometry is carried as exact rationals until emission, where fixed-precision
evaluation (mpmath at 30 digits) is rounded to 12 significant digits, so
identical inputs produce byte-identical SVG on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .chords import Chord
from .circle import Angle, shortest_dist
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
# straight.  Nearer chords would also leave 1 + dot, the denominator of the
# arc centre, at the rounding level of 30-digit evaluation.
_STRAIGHT_FROM = Angle(Fraction(1, 2) - Fraction(1, 10**14))


def _fmt(x) -> str:
    return mpmath.nstr(x, 12)


class _Canvas:
    """Maps the unit disk to SVG pixel coordinates (y axis flipped)."""

    def __init__(self, size: int):
        self.size = size
        self.center = mpmath.mpf(size) / 2
        self.radius = mpmath.mpf(size) * mpmath.mpf("0.45")

    def point(self, angle: Fraction):
        t = 2 * mpmath.mpf(angle.numerator) / angle.denominator
        return mpmath.cospi(t), mpmath.sinpi(t)

    def pix(self, xy):
        x, y = xy
        return self.center + self.radius * x, self.center - self.radius * y

    def svg_xy(self, angle: Fraction) -> str:
        px, py = self.pix(self.point(angle))
        return f"{_fmt(px)},{_fmt(py)}"


def _geodesic_path(canvas: _Canvas, chord: Chord, straight: bool) -> str:
    a, b = chord.a, chord.b
    p1 = canvas.svg_xy(a)
    if straight or shortest_dist(a, b) >= _STRAIGHT_FROM:
        return f"M {p1} L {canvas.svg_xy(b)}"
    A = canvas.point(a)
    B = canvas.point(b)
    dot = A[0] * B[0] + A[1] * B[1]
    cx = (A[0] + B[0]) / (1 + dot)
    cy = (A[1] + B[1]) / (1 + dot)
    r = mpmath.sqrt(cx * cx + cy * cy - 1) * canvas.radius
    # the geodesic is the minor arc; choose the sweep that bends toward the
    # disk center (in pixel coordinates the orientation test flips with y)
    cross = (B[0] - A[0]) * (0 - A[1]) - (B[1] - A[1]) * (0 - A[0])
    sweep = 1 if cross > 0 else 0
    return f"M {p1} A {_fmt(r)} {_fmt(r)} 0 0 {sweep} {canvas.svg_xy(b)}"


def _gap_shade_path(canvas: _Canvas, gap: Gap, straight: bool) -> str:
    parts = []
    first = True
    n = len(gap.vertices)
    for i, (kind, obj) in enumerate(gap.sides):
        start = gap.vertices[i]
        end = gap.vertices[(i + 1) % n]
        if first:
            parts.append(f"M {canvas.svg_xy(start)}")
            first = False
        if kind == "arc":
            r = _fmt(canvas.radius)
            parts.append(f"A {r} {r} 0 0 0 {canvas.svg_xy(end)}")
        else:
            seg = _geodesic_path(canvas, Chord(start, end), straight)
            parts.append(seg.split(" ", 2)[2] if seg.startswith("M") else seg)
    parts.append("Z")
    return " ".join(parts)


def render_svg(target, spec: RenderSpec = RenderSpec(), shaded=()) -> str:
    """Render a lamination, a list of chords, or a pair of tag factor vertex
    collections to an SVG document string."""
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
        # tag factors: two convex sets rendered side by side
        disks = []
        for factor in target:
            verts = tuple(factor.vertices)
            if len(verts) == 1:
                disks.append([Chord(verts[0], verts[0])])
            else:
                disks.append(list(
                    Chord(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))
                ) if len(verts) > 2 else [Chord(verts[0], verts[1])])

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
        for c in sorted(set(plain)):
            if c.degenerate:
                px, py = canvas.pix(canvas.point(c.a))
                out.append(f'<circle class="leaf" cx="{_fmt(px)}" cy="{_fmt(py)}" r="2"/>')
            else:
                out.append(f'<path class="leaf" d="{_geodesic_path(canvas, c, straight)}"/>')
        for c in sorted(set(strong)):
            out.append(f'<path class="hl" d="{_geodesic_path(canvas, c, straight)}"/>')
        if spec.labels:
            seen = set()
            for c in chord_list:
                for v in c.endpoints:
                    if v in seen:
                        continue
                    seen.add(v)
                    x, y = canvas.point(v)
                    lx = canvas.center + canvas.radius * mpmath.mpf("1.06") * x
                    ly = canvas.center - canvas.radius * mpmath.mpf("1.06") * y
                    out.append(
                        f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" text-anchor="middle">{v}</text>'
                    )
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
