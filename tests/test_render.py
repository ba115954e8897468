import hashlib
import os
import subprocess
import sys
from pathlib import Path

import lamina
from lamina.circle import Angle
from lamina.chords import Chord
from lamina.lamination import FiniteLamination, gaps, orbit_classify
from lamina.cubic_tags import ConvexSet
from lamina.render import RenderSpec, render_svg

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


def test_gap_shading():
    lam = FiniteLamination(3, [C(0, 1, 1, 3), C(1, 3, 2, 3), C(0, 1, 2, 3)])
    finite = [g for g in gaps(lam) if g.finite]
    svg = render_svg(lam, RenderSpec(), shaded=finite)
    assert 'class="shade"' in svg


def test_tag_factor_rendering():
    factors = (ConvexSet.of([A(2, 13), A(5, 13), A(6, 13)]), ConvexSet.of([A(16, 39)]))
    svg = render_svg(factors, RenderSpec(size=400))
    assert svg.count("<circle class=\"boundary\"") == 2


def test_import_leaves_mpmath_precision():
    src = Path(lamina.__file__).resolve().parent.parent
    code = (
        "import mpmath; before = mpmath.mp.dps; "
        "import lamina, lamina.render, lamina.cli; "
        "assert mpmath.mp.dps == before, (before, mpmath.mp.dps)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
