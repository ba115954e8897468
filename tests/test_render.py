import hashlib
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
from hypothesis import assume, given, settings, strategies as st

import lamina
from lamina.circle import Angle, shortest_dist
from lamina.chords import Chord
from lamina.lamination import FiniteLamination, gaps, orbit_classify, pullback_build
from lamina.cubic_tags import ConvexSet
from lamina.formats import parse_portrait
from lamina.render import _STRAIGHT_FROM, RenderSpec, _Canvas, render_svg

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
    svg = render_svg(FiniteLamination(2, []))
    assert svg.count("<circle") == 1
    assert "<path" not in svg


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


def test_rabbit_depth_six_hash_pinned():
    lam = parse_portrait("degree 2\nquad 1/14 1/7 4/7 9/14\n").build(6)
    svg = render_svg(lam, RenderSpec(labels=True))
    digest = hashlib.sha256(svg.encode()).hexdigest()
    assert digest == "8cac8100246986082a281fb637ba98a1bdd0e79448912b44395723a75e227a99"


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


def _mpf_pix(x, size, scale=None):
    """Oracle for the canvas's libmp pipeline: the pixel strings of angle x,
    ``scale`` disk radii out, by the mpf-object formula at 30 digits."""
    with mpmath.workdps(30):
        c = mpmath.mpf(size) / 2
        R = mpmath.mpf(size) * mpmath.mpf("0.45")
        if scale is not None:
            R = R * mpmath.mpf(scale)
        t = 2 * mpmath.mpf(x.numerator) / x.denominator
        px, py = c + R * mpmath.cospi(t), c - R * mpmath.sinpi(t)
        return mpmath.nstr(px, 12), mpmath.nstr(py, 12)


def _svg_xy_uncached(x, size):
    return ",".join(_mpf_pix(x, size))


def test_canvas_points_match_mpf_oracle():
    rng = random.Random(2024)
    angles = [A(rng.randrange(q), q) for q in (rng.randint(1, 10**6) for _ in range(2000))]
    # exact quarter turns, and numerators wider than the 103-bit precision
    angles += [A(k, 4) for k in range(4)] + [A(rng.randrange(2**130), 2**130 - 1) for _ in range(50)]
    for size in (1, 7, 800, 1000):
        with mpmath.workdps(30):
            canvas = _Canvas(size)
            got = [canvas.svg_xy(a) for a in angles]
        assert got == [_svg_xy_uncached(a, size) for a in angles]
    # the raw cosine and sine, bit for bit, which 12 printed digits hide
    with mpmath.workdps(30):
        for a in angles:
            t = 2 * mpmath.mpf(a.numerator) / a.denominator
            assert canvas.point(a) == (mpmath.cospi(t)._mpf_, mpmath.sinpi(t)._mpf_)


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


def test_canvas_memo_does_not_outlive_its_render():
    lam = pullback_build(2, [C(1, 14, 4, 7)], 4)
    render_svg(lam, RenderSpec(size=400, labels=True))
    after = render_svg(lam, RenderSpec(size=800, labels=True))
    src = Path(lamina.__file__).resolve().parent.parent
    code = (
        "import sys; from lamina.chords import Chord; from lamina.circle import Angle as A; "
        "from lamina.lamination import pullback_build; "
        "from lamina.render import RenderSpec, render_svg; "
        "lam = pullback_build(2, [Chord(A(1, 14), A(4, 7))], 4); "
        "sys.stdout.write(render_svg(lam, RenderSpec(size=800, labels=True)))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    fresh = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    assert after == fresh.stdout


def test_tag_factor_rendering():
    factors = (ConvexSet.of([A(2, 13), A(5, 13), A(6, 13)]), ConvexSet.of([A(16, 39)]))
    svg = render_svg(factors, RenderSpec(size=400))
    assert svg.count("<circle class=\"boundary\"") == 2
    digest = hashlib.sha256(svg.encode()).hexdigest()
    assert digest == "71c2ef6ec4455e1cec8af9c39cc9d4f5c82e171070abfac20eb786aad3da59d2"


def test_import_leaves_mpmath_precision():
    src = Path(lamina.__file__).resolve().parent.parent
    code = (
        "import mpmath; before = mpmath.mp.dps; "
        "import lamina, lamina.render, lamina.cli; "
        "assert mpmath.mp.dps == before, (before, mpmath.mp.dps)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
