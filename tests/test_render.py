import functools
import hashlib
import os
import random
import re
import subprocess
import sys
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

import lamina
from lamina import render
from lamina.circle import Angle, shortest_dist
from lamina.chords import Chord
from lamina.lamination import FiniteLamination, critical_analysis, gaps, orbit_classify, pullback_build
from lamina.cubic_tags import ConvexSet, FullPortrait, mixed_tag
from lamina.formats import parse_portrait
from lamina.quad_minor import build_from_minor, qml_enumerate
from lamina.render import _STRAIGHT_FROM, RenderSpec, _Canvas, render_svg
from lamina.suites import hexagon_fixtures

A = Angle


def C(p, q, r, s):
    return Chord(A(p, q), A(r, s))


def orbit_figure():
    Q = lambda n: A(n, 2184)
    M = Chord(Q(1026), Q(1737))
    orbit = list(orbit_classify(3, M).orbit)
    N = orbit[4]
    Nprime = Chord(Q(193), Q(842))
    Mprime = Chord(Q(1009), Q(1754))
    lam = FiniteLamination(3, orbit + [Nprime, Mprime])
    return lam, (N, Nprime)


def test_empty_lamination_renders_circle_only():
    # an empty chord list is one empty disk, like the empty lamination
    for target in (FiniteLamination(2, []), [], ()):
        svg = render_svg(target)
        assert svg.count("<circle") == 1
        assert "<path" not in svg
        assert svg == render_svg(FiniteLamination(2, []))


def test_deterministic_output():
    lam = FiniteLamination(2, [C(1, 7, 2, 7), C(2, 7, 4, 7), C(0, 1, 1, 2)])
    spec = RenderSpec(size=512, labels=True)
    assert render_svg(lam, spec) == render_svg(lam, spec)


def test_diameters_are_straight_lines():
    svg = render_svg(FiniteLamination(2, [C(0, 1, 1, 2)]))
    assert " L " in svg and " A " not in svg


def test_highlight_uses_distinct_class():
    lam = FiniteLamination(2, [C(1, 7, 2, 7), C(2, 7, 4, 7)])
    svg = render_svg(lam, RenderSpec(highlight=(C(1, 7, 2, 7),)))
    assert 'class="hl"' in svg
    assert 'class="leaf"' in svg


def test_labels_are_optional():
    lam = FiniteLamination(2, [C(1, 7, 2, 7)])
    assert "<text" not in render_svg(lam)
    assert "1/7" in render_svg(lam, RenderSpec(labels=True))


def test_orbit_figure_hash_pinned():
    lam, highlight = orbit_figure()
    spec = RenderSpec(size=640, labels=True, highlight=highlight)
    svg = render_svg(lam, spec)
    digest = hashlib.sha256(svg.encode()).hexdigest()
    assert digest == "835fc775500d7e69d704d70bf30f2e970a3ab46d3183e4c3f122714e1b97ddac"
    straight = render_svg(lam, RenderSpec(size=640, geodesic_style="straight"))
    digest2 = hashlib.sha256(straight.encode()).hexdigest()
    assert digest2 == "19c73b7dc43ab38c5472a7bbc82c2cf82175830ab8e6acf13fb36a6186684c17"


RABBIT_SIX_DIGEST = "8cac8100246986082a281fb637ba98a1bdd0e79448912b44395723a75e227a99"


def test_rabbit_depth_six_hash_pinned():
    lam = parse_portrait("degree 2\nquad 1/14 1/7 4/7 9/14\n").build(6)
    svg = render_svg(lam, RenderSpec(labels=True))
    digest = hashlib.sha256(svg.encode()).hexdigest()
    assert digest == RABBIT_SIX_DIGEST


def test_shaded_renders_hash_pinned():
    # every face of the rabbit at depth 4, with labels, in both styles, and
    # the critical gap of a hexagon fixture
    lam = parse_portrait("degree 2\nquad 1/14 1/7 4/7 9/14\n").build(4)
    digests = [
        hashlib.sha256(
            render_svg(lam, RenderSpec(labels=True, geodesic_style=style), shaded=gaps(lam)).encode()
        ).hexdigest()
        for style in ("hyperbolic", "straight")
    ]
    assert digests == [
        "326db7cb689753e00e28ab863bbedd5ea3bff107f1899b5523479db6abb73606",
        "f07589bac784b5da751ce7d359548d455d7707c3d298221dd8fc19fc4f0bfc91",
    ]
    hexagon = hexagon_fixtures()[1]
    svg = render_svg(hexagon, RenderSpec(), shaded=critical_analysis(hexagon).critical_gaps)
    digest = hashlib.sha256(svg.encode()).hexdigest()
    assert digest == "4f4555736f253a6d528119c6055ea0e5c761ce9205d868265280a82a4ef30435"


def test_a_face_shades_alike_from_every_ring():
    # the triangle face on the ring mod 3 and on the ring mod 9, shaded on a
    # rabbit whose ring holds neither, goes onto the canvas ring as 0, 1/3, 2/3
    tri = [C(0, 1, 1, 3), C(1, 3, 2, 3), C(0, 1, 2, 3)]
    faces = [
        [g for g in gaps(FiniteLamination(3, chords)) if len(g.vertices) == 3]
        for chords in (tri, tri + [C(1, 9, 2, 9)])
    ]
    assert faces[0][0].ring[0] == 3 and faces[1][0].ring[0] == 9
    lam = parse_portrait("degree 2\nquad 1/14 1/7 4/7 9/14\n").build(2)
    svg, svg9 = (render_svg(lam, RenderSpec(labels=True), shaded=f) for f in faces)
    assert svg == svg9
    [path] = _paths(svg, "shade")
    assert [args[-1] for _, args in _segments(path)] == [
        _svg_xy_uncached(A(0), 800), _svg_xy_uncached(A(1, 3), 800),
        _svg_xy_uncached(A(2, 3), 800), _svg_xy_uncached(A(0), 800),
    ]


def test_gap_shading():
    lam = FiniteLamination(3, [C(0, 1, 1, 3), C(1, 3, 2, 3), C(0, 1, 2, 3)])
    finite = [g for g in gaps(lam) if g.finite]
    svg = render_svg(lam, RenderSpec(), shaded=finite)
    assert 'class="shade"' in svg


def _segments(path: str):
    """The (command, arguments) pairs of SVG path data, Z dropped."""
    return [(cmd, args.split()) for cmd, args in re.findall(r"([MLA])([^MLAZ]*)", path)]


def _paths(svg: str, cls: str):
    """The path data of every <path> of one class."""
    return re.findall(rf'<path class="{cls}" d="([^"]*)"/>', svg)


_HALF_UP_12 = Context(prec=12, rounding=ROUND_HALF_UP)


def _nstr(x):
    """The 12-digit rounding of the mpf x, half up, laid out by
    ``mpmath.nstr(x, 12)``.  nstr itself floors x to 59 bits before it
    rounds, so it rounds down an x less than 2**-58 relative above a
    rounding boundary."""
    s, r = mpmath.nstr(x, 12), _HALF_UP_12.plus(Decimal(mpmath.nstr(x, 40)))
    return s if Decimal(s) == r else mpmath.nstr(mpmath.mpf(str(r)), 12)


@functools.cache
def _mpf_frame(size, scale=None):
    """The disk centre and radius ``scale`` times 0.45*size, as mpf numbers
    at 30 digits."""
    with mpmath.workdps(30):
        R = mpmath.mpf(size) * mpmath.mpf("0.45")
        return mpmath.mpf(size) / 2, (R if scale is None else R * mpmath.mpf(scale))


def _mpf_pix(x, size, scale=None):
    """mpmath oracle for the canvas: the pixel strings of angle x, ``scale``
    disk radii out, by the mpf-object formula at 30 digits."""
    with mpmath.workdps(30):
        c, R = _mpf_frame(size, scale)
        t = 2 * mpmath.mpf(x.numerator) / x.denominator
        return _nstr(c + R * mpmath.cospi(t)), _nstr(c - R * mpmath.sinpi(t))


def _svg_xy_uncached(x, size):
    return ",".join(_mpf_pix(x, size))


def test_canvas_points_match_mpf_oracle():
    rng = random.Random(2024)
    angles = [A(rng.randrange(q), q) for q in (rng.randint(1, 10**6) for _ in range(2000))]
    # exact quarter turns, and numerators wider than the 103-bit precision
    angles += [A(k, 4) for k in range(4)] + [A(rng.randrange(2**130), 2**130 - 1) for _ in range(50)]
    for size in (1, 7, 800, 1000):
        expected = [_svg_xy_uncached(a, size) for a in angles]
        # each angle as a point of its own ring and of one three times finer
        for scale in (1, 3):
            canvas = _Canvas(size, 1)
            got = [canvas.xy(scale * a.denominator, [scale * a.numerator])[0] for a in angles]
            assert got == expected


_SIZES = (1, 7, 333, 800, 1000)


def _canvases(size):
    """A canvas and its twin with the binary64 path switched off, which
    prints every value from the exact evaluator."""
    fast, slow = _Canvas(size, 1), _Canvas(size, 1)
    assert fast._fast
    slow._fast = False
    return fast, slow


def _counting(monkeypatch, owner, name):
    """Count the calls of the function ``name`` of ``owner``, a module or a
    class, keeping the arguments of each."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_binary64_points_match_libmp_path(monkeypatch):
    rng = random.Random(12)
    angles = [A(rng.randrange(q), q) for q in (rng.randint(1, 10**6 - 1) for _ in range(12_000))]
    special = [A(k, 8) for k in range(8)] + [A(k, 12) for k in range(12)]
    special += [A(rng.randrange(2**130), 2**130 - 1) for _ in range(50)]
    points = angles + special
    combos = [(size, label) for size in _SIZES for label in (False, True)]
    fallbacks = 0
    # mpmath's cos and sin of each angle, once, on raw tuples at 30 digits
    trig = [_raw_cos_sin(a) for a in points]
    for i, (size, label) in enumerate(combos):
        fast, slow = _canvases(size)
        scale = "1.06" if label else None
        frame = [v._mpf_ for v in _mpf_frame(size, scale)]
        want = [_raw_point(frame, cos, sin) for cos, sin in trig]
        # the raw-tuple oracle is the mpf-object one, checked on every 50th value
        for k in range(i, len(points), 50):
            assert want[k] == _mpf_pix(points[k], size, scale)
        # one share of the points through the exact evaluator itself,
        # every point of both lists on the binary64 path at all ten pairs
        share = points[i :: len(combos)]
        assert want[i :: len(combos)] == [slow.pix(a.numerator, a.denominator, label) for a in share]
        with monkeypatch.context() as m:
            calls = _counting(m, _Canvas, "_exact")
            got = [fast.pix(a.numerator, a.denominator, label) for a in angles]
            fallbacks += len(calls)
            got += [fast.pix(a.numerator, a.denominator, label) for a in special]
        assert got == want
    # the binary64 path decides nearly every value: a path that never ran
    # would fall back on all of them
    assert fallbacks < 0.02 * len(angles) * len(combos)


def test_binary64_cos_sin_within_stated_bound():
    # the module docstring bounds each of cos and sin by 5.8e-16 on
    # |psi| <= pi/4; dropping a Taylor term costs 1e-15 at pi/4
    rng = random.Random(3)
    cases = [(m, 64) for m in range(65)] + [(10**6 - 1, 10**6), (1, 10**9)]
    cases += [(rng.randrange(q + 1), q) for q in (rng.randint(1, 10**12) for _ in range(2000))]
    with mpmath.workdps(40):
        for m, q in cases:
            psi = mpmath.pi / 4 * m / q
            c, s = render._cos_sin(m, q)
            assert abs(c - mpmath.cos(psi)) <= 5.8e-16
            assert abs(s - mpmath.sin(psi)) <= 5.8e-16


def _near_tie(rng, lo, hi, spread):
    """A random value within ``spread`` of a 12-digit rounding boundary (a
    13-digit decimal ending in 5) in [lo, hi), as an mpf."""
    x = mpmath.mpf(rng.uniform(lo, hi))
    exp = int(mpmath.floor(mpmath.log10(x)))
    digits = int(mpmath.floor(x / mpmath.mpf(10) ** (exp - 11)))
    return (digits * 10 + 5) * mpmath.mpf(10) ** (exp - 12) + rng.uniform(-spread, spread)


# Values this close to a boundary must fall back.  By the module
# docstring, e less the error bound, the truncation of to_str and the
# rounding of v -+ e leaves 2.3e-16*size for a coordinate and 1.9e-15
# relative for a radius.  An e much smaller leaves some of them certified.
_TIE_PIX, _TIE_RADIUS = 2e-16, 1.5e-15


def _tie_points(rng, size, label, count=40):
    """Angles on the ring mod 2**64 whose x (even index) or y (odd index)
    pixel value lies within ``_TIE_PIX`` of a 12-digit rounding boundary,
    to within 1e-17 relative."""
    q = 2**64
    with mpmath.workdps(50):
        c = mpmath.mpf(size) / 2
        R = mpmath.mpf(size) * mpmath.mpf("0.45") * (mpmath.mpf("1.06") if label else 1)
        cases = []
        for i in range(count):
            t = _near_tie(rng, float(c - 0.99 * R), float(c + 0.99 * R), _TIE_PIX * size)
            if i % 2 == 0:
                turn = mpmath.acos((t - c) / R) / (2 * mpmath.pi)
            else:
                turn = mpmath.asin((c - t) / R) / (2 * mpmath.pi) % 1
            a = A(int(mpmath.nint(turn * q)), q)
            x = c + R * mpmath.cospi(2 * mpmath.mpf(a.numerator) / a.denominator)
            y = c - R * mpmath.sinpi(2 * mpmath.mpf(a.numerator) / a.denominator)
            assert abs((x, y)[i % 2] - t) <= 1e-17 * t
            cases.append(a)
    return cases


def test_near_ties_fall_back_to_libmp(monkeypatch):
    rng = random.Random(5)
    for size in _SIZES:
        for label in (False, True):
            fast, slow = _canvases(size)
            for a in _tie_points(rng, size, label):
                num, den = a.numerator, a.denominator
                with monkeypatch.context() as m:
                    calls = _counting(m, _Canvas, "_exact")
                    got = fast.pix(num, den, label)
                assert calls  # the exact evaluator printed it
                assert got == slow.pix(num, den, label)


def test_batched_points_match_pix_and_mpf_oracle(monkeypatch):
    # every point of rings mod N, N a multiple of 4, so the quarter points
    # print bare-integer mantissas such as 760.0, and near-tie points on
    # the ring mod 2**64 that the batch must hand to the exact evaluator;
    # at size 2**52 + 1 every point takes it
    rng = random.Random(33)
    rings = [(N, range(N)) for N in (4, 12, 60, 840)]
    values = []
    for size in (1, 800, 2**52 + 1):
        for label in (False, True):
            ties = [a.numerator * (2**64 // a.denominator) for a in _tie_points(rng, size, label, 10)]
            canvas = _Canvas(size, 1)
            assert canvas._fast == (size < 2**52)
            for N, xs in rings + [(2**64, [k << 62 for k in range(4)] + ties)]:
                with monkeypatch.context() as m:
                    calls = _counting(m, _Canvas, "_exact")
                    got = canvas.xy(N, xs, label)
                if N == 2**64 and canvas._fast:
                    assert len(calls) >= len(ties)  # the near ties fell back
                assert got == [",".join(canvas.pix(x, N, label)) for x in xs]
                scale = "1.06" if label else None
                assert got == [",".join(_mpf_pix(Fraction(x, N), size, scale)) for x in xs]
                values += (v for s in got for v in s.split(","))
    # to_str's layout: never a bare integer, and 760.0 among the values
    assert all("." in v or "e" in v for v in values) and "760.0" in values


def _per_coordinate_xy(canvas, q, ns, label):
    """The binary64 points of ``_Canvas.xy`` as each coordinate alone
    prints them: ``_cos_sin`` per point and ``_certified`` per value."""
    c, R, e = canvas._c, (canvas._label_r if label else canvas._r), canvas._e
    out = []
    for n in ns:
        k, r = divmod(8 * n, q)
        cos, sin = render._cos_sin(q - r if k & 1 else r, q)
        sin = -sin if k & 1 else sin
        x, y = ((cos, sin), (-sin, cos), (-cos, -sin), (sin, -cos))[(k + 1) >> 1 & 3]
        px, py = render._certified(c + R * x, e), render._certified(c - R * y, e)
        out.append(f"{px},{py}" if px and py else canvas._exact(8 * n, q, label))
    return out


def test_one_pass_points_match_the_per_coordinate_certificate():
    # xy evaluates cos and sin once per residual m and certifies a point by
    # one pair of formats; over an m/q grid it prints what each coordinate
    # alone prints, and the floats it keeps for the disk are _cos_sin's, bit
    # for bit.  Size 4 prints bare integers (2.0), 10**13 exponents.
    rng = random.Random(52)
    grid = [(q, range(q)) for q in (1, 2, 8, 12, 60, 486, 840)]
    grid += [(q, [rng.randrange(q) for _ in range(300)]) for q in (2**20 + 7, 3**30, 2**64)]
    for size in (1, 4, 800, 10**13, 2**52):
        for q, ns in grid:
            canvas = _Canvas(size, q)
            for label in (False, True):
                assert canvas.xy(q, ns, label) == _per_coordinate_xy(canvas, q, ns, label)
            kept = {m: tuple(map(float.hex, cs)) for m, cs in canvas._trig.items()}
            assert kept == {m: tuple(map(float.hex, render._cos_sin(m, q))) for m in kept}
            assert sorted(kept) == sorted({q - 8 * n % q if 8 * n // q & 1 else 8 * n % q for n in ns})


def test_binary64_arc_radii_match_libmp_path(monkeypatch):
    rng = random.Random(9)
    top = float(_STRAIGHT_FROM)
    lengths = [Fraction(rng.uniform(1e-9, top)).limit_denominator(10**12) for _ in range(400)]
    lengths += [Fraction(10 ** rng.uniform(-9, -1)).limit_denominator(10**15) for _ in range(400)]
    lengths += [_STRAIGHT_FROM - Fraction(rng.randrange(1, 10**6), 10**22) for _ in range(100)]
    lengths += [Fraction(1, 10**9), Fraction(1, 12), Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(5, 12)]
    lengths += [Fraction(1, 2) - Fraction(1, 10**13), _STRAIGHT_FROM - Fraction(1, 2**80)]
    assert all(0 < x < _STRAIGHT_FROM for x in lengths)
    # lengths whose binary64 ratio underflows take the exact evaluator
    tiny = [Fraction(1, 10**400), Fraction(3, 2**1060), Fraction(1, 2**1000)]
    fallbacks = 0
    for size in _SIZES:
        fast, slow = _canvases(size)
        with monkeypatch.context() as m:
            calls = _counting(m, _Canvas, "_exact")
            got = [fast.geodesic_radius(x.numerator, x.denominator) for x in lengths]
            fallbacks += len(calls)
            got += [fast.geodesic_radius(x.numerator, x.denominator) for x in tiny]
        assert got == [slow.geodesic_radius(x.numerator, x.denominator) for x in lengths + tiny]
    assert fallbacks < 0.02 * len(lengths) * len(_SIZES)
    # radii near a boundary take the exact evaluator
    q = 2**64
    for size in _SIZES:
        fast, slow = _canvases(size)
        with mpmath.workdps(50):
            R = mpmath.mpf(size) * mpmath.mpf("0.45")
            cases = []
            for _ in range(40):
                t = _near_tie(rng, 0.2 * size, 40 * size, 0)
                t *= 1 + rng.uniform(-_TIE_RADIUS, _TIE_RADIUS)
                x = Fraction(int(mpmath.nint(mpmath.atan(t / R) / mpmath.pi * q)), q)
                assert abs(mpmath.tan(mpmath.pi * x.numerator / x.denominator) * R - t) <= 1e-17 * t
                cases.append(x)
        with monkeypatch.context() as m:
            calls = _counting(m, _Canvas, "_exact")
            got = [fast.geodesic_radius(x.numerator, x.denominator) for x in cases]
            assert len(calls) == len(cases)
        assert got == [slow.geodesic_radius(x.numerator, x.denominator) for x in cases]


def test_huge_sizes_take_the_libmp_path(monkeypatch):
    lam = FiniteLamination(2, [C(1, 7, 2, 7), C(2, 7, 4, 7), C(4, 7, 1, 7), C(3, 4, 7, 8)])
    faces = gaps(lam)
    for size in (2**53 + 1, 10**400):
        spec = RenderSpec(size=size, labels=True, highlight=(C(1, 7, 2, 7),))
        svg = render_svg(lam, spec, shaded=faces)
        with monkeypatch.context() as m:
            m.setattr(render, "_FAST", False)
            assert svg == render_svg(lam, spec, shaded=faces)
        labels = re.findall(r'<text x="([^"]*)" y="([^"]*)" text-anchor="middle">([^<]*)</text>', svg)
        assert len(labels) == 5
        for x, y, v in labels:
            assert (x, y) == _mpf_pix(A(v), size, "1.06")


def test_labelled_render_with_degenerate_chord_matches_mpf_oracle():
    chords = [C(3, 11, 3, 11), C(1, 7, 2, 7), C(5, 13, 12, 13), C(0, 1, 1, 2)]
    for size in (7, 640):
        svg = render_svg(chords, RenderSpec(size=size, labels=True))
        [(cx, cy)] = re.findall(r'<circle class="leaf" cx="([^"]*)" cy="([^"]*)" r="2"/>', svg)
        assert (cx, cy) == _mpf_pix(A(3, 11), size)
        labels = re.findall(r'<text x="([^"]*)" y="([^"]*)" text-anchor="middle">([^<]*)</text>', svg)
        assert [v for _, _, v in labels] == ["3/11", "1/7", "2/7", "5/13", "12/13", "0", "1/2"]
        for x, y, v in labels:
            assert (x, y) == _mpf_pix(A(v), size, "1.06")


def test_gap_shade_sides_run_vertex_to_vertex():
    # both faces of one leaf: the face cut off by 1/7-2/7, whose chord side
    # runs 2/7 -> 1/7 against the chord's order, and the rest of the disk,
    # whose boundary arc 2/7 -> 1/7 is 6/7 of the circle
    lam = FiniteLamination(2, [C(1, 7, 2, 7)])
    faces = gaps(lam)
    assert [len(g.sides) for g in faces] == [2, 2]
    [leaf_path] = _paths(render_svg(lam), "leaf")
    leaf = _segments(leaf_path)[1][1]
    assert leaf[4] == "1"
    for style in ("hyperbolic", "straight"):
        svg = render_svg(lam, RenderSpec(geodesic_style=style), shaded=faces)
        paths = _paths(svg, "shade")
        assert len(paths) == 2
        for g, path in zip(faces, paths):
            assert path.endswith(" Z")
            segments = _segments(path)
            assert segments[0] == ("M", [_svg_xy_uncached(g.vertices[0], 800)])
            n = len(g.vertices)
            for i, ((kind, side), (cmd, args)) in enumerate(zip(g.sides, segments[1:])):
                assert args[-1] == _svg_xy_uncached(g.vertices[(i + 1) % n], 800)
                if kind == "arc":
                    assert cmd == "A"
                    assert args[3] == ("1" if side.length == Fraction(6, 7) else "0")
                elif style == "straight":
                    assert cmd == "L"
                else:
                    # the leaf's own arc, its sweep flipped when drawn 2/7 -> 1/7
                    assert cmd == "A" and args[:4] == leaf[:4]
                    forward = g.vertices[i] == side.a
                    assert args[4] == ("1" if forward else "0")


def test_whole_disk_shade_is_two_half_circles():
    lam = FiniteLamination(2, [])
    svg = render_svg(lam, shaded=gaps(lam))
    [path] = _paths(svg, "shade")
    assert path.endswith(" Z")
    # counterclockwise (sweep 0 with y flipped) along the boundary circle
    [r] = re.findall(r'<circle class="boundary" [^>]* r="([^"]*)"/>', svg)
    zero, half = _svg_xy_uncached(Angle(0), 800), _svg_xy_uncached(Angle(1, 2), 800)
    assert _segments(path) == [
        ("M", [zero]),
        ("A", [r, r, "0", "1", "0", half]),
        ("A", [r, r, "0", "1", "0", zero]),
    ]


def test_near_diameter_radius_is_exact():
    # 1e-13 from a diameter; the centre formula loses digits to 1 + dot
    # there and printed 1.14591535607e+15, the 60-digit value is below
    svg = render_svg([Chord(A(1, 10**13), A(1, 2))])
    assert " A 1.14591559026e+15 1.14591559026e+15 0 0 1 " in svg


def _oracle(a, b, size):
    """Pixel radius and sweep flag by the arc-centre formula at 60 digits."""
    with mpmath.workdps(60):
        R = mpmath.mpf(size) * mpmath.mpf("0.45")

        def unit(x):
            t = 2 * mpmath.mpf(x.numerator) / x.denominator
            return mpmath.cospi(t), mpmath.sinpi(t)

        P, Q = unit(a), unit(b)
        dot = P[0] * Q[0] + P[1] * Q[1]
        cx = (P[0] + Q[0]) / (1 + dot)
        cy = (P[1] + Q[1]) / (1 + dot)
        r = mpmath.sqrt(cx * cx + cy * cy - 1) * R
        cross = (Q[0] - P[0]) * (0 - P[1]) - (Q[1] - P[1]) * (0 - P[0])
    return r, 1 if cross > 0 else 0


_big_angles = st.builds(lambda q, n: A(n % q, q), st.integers(1, 10**6), st.integers(0, 10**6))


@settings(max_examples=300, deadline=None)
@given(_big_angles, _big_angles, st.sampled_from((100, 400, 800, 1234)))
def test_geodesic_matches_centre_formula_oracle(a, b, size):
    assume(a != b and shortest_dist(a, b) < _STRAIGHT_FROM)
    chord = Chord(a, b)
    [path] = _paths(render_svg([chord], RenderSpec(size=size)), "leaf")
    (m, start), (cmd, args) = _segments(path)
    assert m == "M" and cmd == "A" and len(args) == 6
    assert start == [_svg_xy_uncached(chord.a, size)]
    assert args[5] == _svg_xy_uncached(chord.b, size)
    r, sweep = _oracle(chord.a, chord.b, size)
    assert args[0] == args[1]
    assert abs(mpmath.mpf(args[0]) - r) / r < 1e-11
    assert args[2:5] == ["0", "0", str(sweep)]


def _fresh(code: str, timeout=None) -> str:
    """The standard output of ``code`` run in a fresh interpreter that
    imports lamina from this checkout."""
    src = Path(lamina.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_canvas_memo_does_not_outlive_its_render():
    lam = pullback_build(2, [C(1, 14, 4, 7)], 4)
    render_svg(lam, RenderSpec(size=400, labels=True))
    after = render_svg(lam, RenderSpec(size=800, labels=True))
    fresh = _fresh(
        "import sys; from lamina.chords import Chord; from lamina.circle import Angle as A; "
        "from lamina.lamination import pullback_build; "
        "from lamina.render import RenderSpec, render_svg; "
        "lam = pullback_build(2, [Chord(A(1, 14), A(4, 7))], 4); "
        "sys.stdout.write(render_svg(lam, RenderSpec(size=800, labels=True)))"
    )
    assert after == fresh


def test_tag_factor_rendering():
    factors = (ConvexSet.of([A(2, 13), A(5, 13), A(6, 13)]), ConvexSet.of([A(16, 39)]))
    svg = render_svg(factors, RenderSpec(size=400))
    assert svg.count("<circle class=\"boundary\"") == 2
    digest = hashlib.sha256(svg.encode()).hexdigest()
    assert digest == "71c2ef6ec4455e1cec8af9c39cc9d4f5c82e171070abfac20eb786aad3da59d2"


# SHA-256 of the tag factors of each shipped cubic portrait as `lamina tags
# --figures` draws them, taken when a ConvexSet still kept Angle vertices;
# each has a one-point factor, drawn as a dot
TAG_FIGURES = {
    "hexagon": "71c2ef6ec4455e1cec8af9c39cc9d4f5c82e171070abfac20eb786aad3da59d2",
    "leafpair": "3f3bc9dbef81e1bc8eeb84735e217d8effc1a22d2b19f1dc1976c80428cc5b25",
    "quadleaf": "56d86c79498c3e46c2f5b47be13f74a0c53ac42fd377ad53a00ac12cd9e6133e",
    "triangle": "ccdafd9d51cb464c108504d1fb3e5d47789afa528e89b3774c1871608533f63b",
}


@pytest.mark.parametrize("name", sorted(TAG_FIGURES))
def test_shipped_tag_figures_hash_pinned(name):
    root = Path(__file__).resolve().parent.parent / "portraits" / "cubic"
    spec = parse_portrait((root / f"{name}.portrait").read_text())
    sets = spec.convex_sets()
    tag = mixed_tag(spec.build(3), FullPortrait(sets[0], sets[-1]))
    svg = render_svg((tag.cocritical_factor, tag.minor_factor), RenderSpec(size=400))
    assert hashlib.sha256(svg.encode()).hexdigest() == TAG_FIGURES[name]


_ROOT = Path(__file__).resolve().parent.parent


def test_importing_lamina_leaves_mpmath_unloaded(tmp_path):
    # rendering needs the standard library alone: a process that imports
    # every module of lamina and runs every command, the drawing ones with
    # their figures, never loads mpmath (pytest's own process has it loaded,
    # so the check runs in a fresh interpreter), and draws the pinned bytes
    rabbit = _ROOT / "portraits" / "quadratic" / "rabbit.portrait"
    lam, svg, qml, figs = (tmp_path / name for name in ("rabbit6.lam", "rabbit6.svg", "qml6.svg", "figs"))
    commands = [
        ["build", "--portrait", str(rabbit), "--depth", "6", "--out", str(lam)],
        ["render", "--lamination", str(lam), "--out", str(svg), "--labels"],
        ["qml", "--period", "6", "--svg", str(qml)],
        ["tags", "--portraits", str(_ROOT / "portraits" / "cubic"), "--depth", "3", "--figures", str(figs)],
        ["verify", "--suite", "compgap", "--samples", "20"],
    ]
    _fresh(
        "import contextlib, importlib, io, pkgutil, sys\n"
        "import lamina\n"
        "for m in pkgutil.iter_modules(lamina.__path__, 'lamina.'):\n"
        "    importlib.import_module(m.name)\n"
        "from lamina.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "assert 'mpmath' not in sys.modules\n"
    )
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == RABBIT_SIX_DIGEST
    assert qml.read_text() == render_svg(FiniteLamination(2, qml_enumerate(6)), RenderSpec())
    for name, digest in TAG_FIGURES.items():
        assert hashlib.sha256((figs / f"{name}.svg").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["qml", "--period", "6"],
        ["build", "--portrait", str(_ROOT / "portraits" / "quadratic" / "rabbit.portrait"), "--depth", "3"],
        ["verify", "--suite", "compgap", "--samples", "20"],
    ],
)
def test_commands_that_draw_nothing_leave_mpmath_unloaded(argv):
    # each command alone in its own interpreter, so none rides on another's imports
    _fresh(f"import sys; from lamina.cli import main; assert main({argv!r}) == 0; assert 'mpmath' not in sys.modules")


def test_commands_leave_dataclasses_and_inspect_unloaded(tmp_path):
    # the records come from circle._record, so no command imports
    # dataclasses, nor inspect, which dataclasses imports; each command runs
    # alone in its own interpreter, render on the lamination build wrote
    lam = tmp_path / "rabbit3.lam"
    commands = [
        ["build", "--portrait", str(_ROOT / "portraits" / "quadratic" / "rabbit.portrait"), "--depth", "3", "--out", str(lam)],
        ["render", "--lamination", str(lam), "--out", str(tmp_path / "rabbit3.svg")],
        ["qml", "--period", "6"],
        ["tags", "--portraits", str(_ROOT / "portraits" / "cubic"), "--depth", "3"],
        ["verify", "--suite", "reconstruct", "--samples", "5"],
    ]
    for argv in commands:
        _fresh(
            "import contextlib, io, sys\n"
            "from lamina.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            "loaded = {'dataclasses', 'inspect'} & set(sys.modules)\n"
            f"assert not loaded, ({argv[0]!r}, loaded)\n"
        )


def test_exact_ties_print_half_up_and_end():
    # at size 222222222230, R = 100000000003.5 exactly: the boundary circle
    # and the arc of 0 1/4, tan(pi/4)*R = R, print it alike, half up; at
    # size 363636363660 the y of 1/12, c - R/2 = 100000000006.5, is an exact
    # tie too.  No precision decides a tie, so the evaluator takes these
    # values exactly, and each render ends at once
    out = _fresh(
        "import sys\n"
        "from lamina.chords import Chord\n"
        "from lamina.render import RenderSpec, render_svg\n"
        "for size in (222222222230, 363636363660):\n"
        "    sys.stdout.write(render_svg([Chord('0', '1/4'), Chord('1/12', '1/2')], RenderSpec(size=size)))\n",
        timeout=20,
    )
    first, second = out.split("</svg>")[:2]
    assert 'r="100000000004.0"' in first
    assert re.search(r'<path class="leaf" d="M [0-9.]+,[0-9.]+ A 100000000004\.0 100000000004\.0 0 0 1 ', first)
    assert re.search(r'<path class="leaf" d="M [0-9.]+,100000000007\.0 A ', second)


def test_a_value_just_above_a_rounding_boundary_rounds_up():
    # the label x of 2929490776165885393/2**63 at size 7 is
    # 2.123735400585000001255..., 1.3e-18 above a rounding boundary: the
    # binary64 path hands it over and the exact evaluator rounds it up,
    # where mpmath's nstr, which floors to 59 bits first, printed ...058
    assert _Canvas(7, 1).pix(2929490776165885393, 2**63, label=True) == ("2.12373540059", "0.457826968695")


def test_the_exact_evaluator_doubles_its_precision_until_it_decides(monkeypatch):
    # values within 1e-100 of a rounding boundary, on the ring mod 2**400:
    # coordinates below and above a boundary, and an arc radius
    q = 2**400
    cases = [
        ("412.3456789015", "412.345678901", "412.345678902"),
        ("700.0000000005", "700.0", "700.000000001"),
        ("123.4567890125", "123.456789012", "123.456789013"),
        ("1234.567890125", "1234.56789012", "1234.56789013"),
    ]
    with mpmath.workdps(300):
        c, R = mpmath.mpf(400), mpmath.mpf(360)
        for tie, below, above in cases:
            t = mpmath.mpf(tie)
            if t < 800:
                n = int(mpmath.nint(mpmath.acos((t - c) / R) / (2 * mpmath.pi) * q))
                value = c + R * mpmath.cospi(2 * mpmath.mpf(n) / q)
            else:
                n = int(mpmath.nint(mpmath.atan(t / R) / mpmath.pi * q))
                value = R * mpmath.tan(mpmath.pi * mpmath.mpf(n) / q)
            assert 0 < abs(value - t) < 1e-100
            with monkeypatch.context() as m:
                calls = _counting(m, render, "_cos_sin_exact")
                canvas = _Canvas(800, 1)
                got = canvas.pix(n, q)[0] if t < 800 else canvas.geodesic_radius(n, q)
            assert got == (above if value > t else below)
            assert len(calls) > 2


def test_the_exact_evaluator_starts_at_20_digits_whatever_the_size(monkeypatch):
    # the series runs at 20, 40, 80, ... digits at every size; only the
    # final c + R*x is formed wider
    rng = random.Random(20)
    for size in (1, 800, 2**53 + 1, 10**400):
        canvas = _Canvas(size, 1)
        canvas._fast = False
        with monkeypatch.context() as m:
            calls = _counting(m, render, "_cos_sin_exact")
            for _ in range(100):
                q = rng.choice((rng.randint(3, 10**6), rng.randint(3, 10**12), 2**64))
                canvas.pix(rng.randrange(q), q, rng.random() < 0.5)
                canvas.geodesic_radius(rng.randint(1, (q - 1) // 2), q)
        # each value's first call is at 20 digits, and each retry doubles
        digits = [p for _, _, p in calls]
        assert digits[0] == 20 and digits.count(20) >= 190
        assert all(p == 20 or p == 2 * before for before, p in zip(digits, digits[1:]))


def test_a_degenerate_length_takes_no_series(monkeypatch):
    # a degenerate pair's arc is never drawn: tan 0 = 0 is exact, like
    # tan(pi/4) = 1, so neither runs the series
    with monkeypatch.context() as m:
        calls = _counting(m, render, "_cos_sin_exact")
        for N in (1, 7, 2**64):
            assert _Canvas(400, N).geodesic_radius(0, N) == "0.0"
            assert _Canvas(400, N).geodesic_radius(N, 4 * N) == "180.0"
    assert calls == []


def _mpf_radius(x, size):
    """mpmath oracle for an arc radius: tan(pi*x)*R at 30 digits."""
    with mpmath.workdps(30):
        return _nstr(mpmath.tan(mpmath.pi * x.numerator / x.denominator) * _mpf_frame(size)[1])


_PREC_30 = mpmath.libmp.dps_to_prec(30)


def _raw_text(v):
    """``_nstr`` of the raw mpf v = (sign, man, exp, bc): its exact value
    man*2**exp rounded half up to 12 digits by one Decimal rounding, laid
    out as ``nstr(x, 12)`` lays out 12 digits, in fixed point for a leading
    digit from 10**-4 to 10**11 and else with an exponent, trailing zeros
    dropped."""
    sign, man, exp, _ = v
    if not man:
        return "0.0"
    sign = "-" if sign else ""
    r = _HALF_UP_12.plus(Decimal(sign + (str(man << exp) if exp >= 0 else f"{man * 5**-exp}e{exp}")))
    digits = "".join(map(str, r.as_tuple().digits)).rstrip("0") or "0"
    e = r.adjusted()
    if not -5 < e < 12:
        return f"{sign}{digits[0]}.{digits[1:] or '0'}e{e:+d}"
    if e < 0:
        return f"{sign}0.{'0' * (-e - 1)}{digits}"
    digits = digits.ljust(e + 1, "0")
    return f"{sign}{digits[:e + 1]}.{digits[e + 1:] or '0'}"


def _raw_cos_sin(x):
    """cos and sin of the angle x, in turns, as raw mpf tuples at 30 digits:
    one ``mpf_cos_sin_pi`` of 2x."""
    libmp = mpmath.libmp
    t = libmp.mpf_div(libmp.from_int(2 * x.numerator), libmp.from_int(x.denominator), _PREC_30, "n")
    return libmp.mpf_cos_sin_pi(t, _PREC_30, "n")


def _raw_point(frame, cos, sin):
    """The pixel strings of a point with raw cos and sin in the raw frame
    (centre, radius), each rounded by ``_raw_text``."""
    libmp = mpmath.libmp
    c, R = frame
    return (
        _raw_text(libmp.mpf_add(c, libmp.mpf_mul(R, cos, _PREC_30, "n"), _PREC_30, "n")),
        _raw_text(libmp.mpf_sub(c, libmp.mpf_mul(R, sin, _PREC_30, "n"), _PREC_30, "n")),
    )


def _raw_pix(x, size, scale=None):
    """``_mpf_pix`` on raw mpf tuples at the same 30 digits."""
    return _raw_point([v._mpf_ for v in _mpf_frame(size, scale)], *_raw_cos_sin(x))


def _raw_radius(x, size):
    """``_mpf_radius`` on raw mpf tuples at the same 30 digits."""
    libmp = mpmath.libmp
    pi_x = libmp.mpf_mul_int(libmp.mpf_pi(_PREC_30, "n"), x.numerator, _PREC_30, "n")
    tan = libmp.mpf_tan(libmp.mpf_div(pi_x, libmp.from_int(x.denominator), _PREC_30, "n"), _PREC_30, "n")
    return _raw_text(libmp.mpf_mul(tan, _mpf_frame(size)[1]._mpf_, _PREC_30, "n"))


def test_exact_evaluator_matches_mpmath_oracle(monkeypatch):
    # every point and radius the binary64 path hands over while the 114
    # minors of qml_enumerate(7) are drawn at depths 3 and 6 with labels,
    # then random points and radii, each printed by the exact evaluator
    # alone (a canvas with the binary64 path off) and by mpmath at 30 digits
    with monkeypatch.context() as m:
        calls = _counting(m, _Canvas, "_exact")
        for lam in (build_from_minor(c, depth) for c in qml_enumerate(7) for depth in (3, 6)):
            render_svg(lam, RenderSpec(labels=True))
    # a point n/q passes t = 8n and its label flag, a radius of length n/q
    # passes t = 4n and None
    points = [(t, q, label) for _, t, q, label in calls if label is not None]
    radii = [(t, q) for _, t, q, label in calls if label is None]
    assert len(points) > 2000 and radii
    cases = [(800, Fraction(t, 8 * q), label) for t, q, label in points]
    rng = random.Random(41)
    while len(cases) < 100_000:
        q = rng.choice((rng.randint(1, 10**6), rng.randint(1, 10**12), 2**64))
        cases.append((rng.choice(_SIZES), Fraction(rng.randrange(q), q), rng.random() < 0.5))
    slow = {}
    for size in _SIZES + (2**53 + 1, 10**400):
        slow[size] = _Canvas(size, 1)
        slow[size]._fast = False
    # the raw-tuple oracles are the mpf-object ones, checked on every 50th value
    for k, (size, x, label) in enumerate(cases):
        want = _raw_pix(x, size, "1.06" if label else None)
        assert slow[size].pix(x.numerator, x.denominator, label) == want
        if not k % 50:
            assert want == _mpf_pix(x, size, "1.06" if label else None)
    lengths = [(800, Fraction(t, 4 * q)) for t, q in radii]
    for size, count in zip(_SIZES + (2**53 + 1, 10**400), (6600,) * 6 + (500,)):
        for _ in range(count):
            q = rng.choice((rng.randint(2, 10**6), rng.randint(2, 10**12)))
            lengths.append((size, Fraction(rng.randint(1, (q - 1) // 2), q)))
    assert len(lengths) >= 40_000
    for k, (size, x) in enumerate(lengths):
        want = _raw_radius(x, size)
        assert slow[size].geodesic_radius(x.numerator, x.denominator) == want
        if not k % 50:
            assert want == _mpf_radius(x, size)


@pytest.mark.parametrize("size", [True, False, -800, 0, 800.0, "800", None])
def test_spec_refuses_a_size_it_cannot_draw(size):
    with pytest.raises(ValueError, match=re.escape(f"size must be an integer >= 1, got {size!r}")):
        RenderSpec(size=size)


def test_spec_refuses_an_unknown_style():
    with pytest.raises(ValueError, match="'hyperbolic' or 'straight', got 'straigth'"):
        RenderSpec(geodesic_style="straigth")


def test_spec_highlights_an_unsorted_pair():
    lam = FiniteLamination(2, [C(1, 7, 2, 7), C(2, 7, 4, 7)])
    spec = RenderSpec(highlight=((A(2, 7), A(1, 7)), ("2/7", "4/7")))
    assert spec.highlight == (C(1, 7, 2, 7), C(2, 7, 4, 7))
    assert all(type(c) is Chord for c in spec.highlight)
    svg = render_svg(lam, spec)
    assert svg.count('class="hl"') == 2
    assert svg == render_svg(lam, RenderSpec(highlight=(C(1, 7, 2, 7), C(2, 7, 4, 7))))


@pytest.mark.parametrize(
    "entry",
    ["1/7 2/7", "12", (A(1, 7),), (A(1, 7), A(2, 7), A(4, 7)), (0.25, 0.5), ("1/7", "x"), A(1, 7), None],
)
def test_spec_refuses_a_highlight_that_is_not_a_pair_of_angles(entry):
    with pytest.raises(ValueError, match=re.escape(f"highlight entry {entry!r} is not a pair of angles")):
        RenderSpec(highlight=(C(1, 7, 2, 7), entry))
