"""Boundary fuzz of the command line: ``build``, ``render`` and ``tags`` run
in-process on generated portrait and lamination files.

Whatever the files hold, the command exits 0, 1 or 2 and raises nothing, and
an exit 2 writes exactly one ``error:`` line to stderr and nothing to stdout.
The files mix well-formed critical portraits (denominators up to 30) with
crossing chords, wrong token counts, bad headers and malformed angles.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from lamina.cli import main

_rational = st.builds(lambda n, q: f"{n}/{q}", st.integers(0, 30), st.integers(1, 30))
_junk = st.sampled_from(["x", "1/0", "-1/3", "2.5", "1e3", "1/3/4", "1/-3", "#", "0x1"])
_token = st.one_of(_rational, _rational, _rational, _junk)


@st.composite
def _critical_leaf(draw, d):
    """A leaf line of a chord whose ends differ by k/d, so sigma_d collapses it."""
    n, q, k = draw(st.integers(0, 29)), draw(st.integers(1, 30)), draw(st.integers(1, d - 1))
    return f"leaf {n}/{q} {n * d + k * q}/{q * d}"


@st.composite
def _line(draw, d):
    kind = draw(st.sampled_from(["critical", "leaf", "quad", "poly", "junk"]))
    if kind == "critical":
        return draw(_critical_leaf(d))
    if kind == "junk":
        return " ".join(draw(st.lists(_token, min_size=1, max_size=4)))
    count = {"leaf": 2, "quad": 4, "poly": 3}[kind] + draw(st.sampled_from([0, 0, 0, -1, 1]))
    return " ".join([kind] + draw(st.lists(_token, min_size=count, max_size=count)))


@st.composite
def _header(draw):
    d = draw(st.sampled_from([2, 2, 3, 3, 3, 4]))
    bad = ["", "degree", "degree x", "degree 1", f"degree {d}\ndegree {d}"]
    return d, draw(st.sampled_from([f"degree {d}"] * 15 + bad))


@st.composite
def _portrait(draw):
    d, header = draw(_header())
    lines = [draw(_critical_leaf(d)) for _ in range(d - 1)]
    lines += draw(st.lists(_line(d), max_size=draw(st.sampled_from([0, 0, 1, 2]))))
    return "\n".join([header] + draw(st.permutations(lines))) + "\n"


@st.composite
def _lamination(draw):
    _, header = draw(_header())
    chord = st.builds(lambda a, b: f"{a} {b}", _token, _token)
    return "\n".join([header] + draw(st.lists(chord, max_size=4))) + "\n"


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert err.getvalue().startswith("error: "), err.getvalue()
        assert err.getvalue().count("\n") == 1 and out.getvalue() == "", err.getvalue()
    else:
        assert err.getvalue() == ""
    return code


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_portrait(), min_size=1, max_size=2),
    _lamination(),
    st.integers(0, 2),
)
def test_cli_exits_cleanly_on_generated_files(portraits, lam_text, depth):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for i, text in enumerate(portraits):
            (tmp / f"p{i}.portrait").write_text(text)
        built, random_lam = tmp / "built.lam", tmp / "random.lam"
        if _run("build", "--portrait", tmp / "p0.portrait", "--depth", depth, "--out", built) == 0:
            _run("render", "--lamination", built, "--out", tmp / "built.svg", "--size", 64)
        random_lam.write_text(lam_text)
        _run("render", "--lamination", random_lam, "--out", tmp / "random.svg", "--size", 64,
             "--labels", "--highlight", "1/7 2/7")
        _run("tags", "--portraits", tmp, "--depth", depth, "--out", tmp / "tags.txt")
