"""Boundary fuzz of the command line, run in-process.

``build``, ``render`` and ``tags`` run on generated portrait and lamination
files, writing to files or to stdout.  Whatever the files hold, the command
exits 0, 1 or 2 and raises nothing, and an exit 2 writes exactly one
``error:`` line to stderr and nothing to stdout.  The files mix well-formed
critical portraits (denominators up to 30) with crossing chords, wrong token
counts, bad headers and malformed angles.

All five subcommands also run on generated argument vectors: numbers from
-10**30 to 10**30, generated ``LAMINA_SEED`` and ``--highlight`` strings,
and paths that are missing, directories or real files.  An argument vector
argparse refuses exits with SystemExit(2); any other exits 0, 1 or 2 without
raising.  Either way an exit 2 writes exactly one ``error:`` line to stderr.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from lamina.cli import main
from lamina.suites import SUITES

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
    """The exit code and stdout of ``lamina`` on ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert err.getvalue().startswith("error: "), err.getvalue()
        assert err.getvalue().count("\n") == 1 and out.getvalue() == "", err.getvalue()
    else:
        assert err.getvalue() == ""
    return code, out.getvalue()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_portrait(), min_size=1, max_size=2),
    _lamination(),
    st.integers(0, 2),
    st.booleans(),
)
def test_cli_exits_cleanly_on_generated_files(portraits, lam_text, depth, to_stdout):
    # without --out, build and tags write to stdout
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for i, text in enumerate(portraits):
            (tmp / f"p{i}.portrait").write_text(text)
        built, random_lam = tmp / "built.lam", tmp / "random.lam"
        out = [] if to_stdout else ["--out", built]
        code, text = _run("build", "--portrait", tmp / "p0.portrait", "--depth", depth, *out)
        if code == 0:
            if to_stdout:
                built.write_text(text)
            _run("render", "--lamination", built, "--out", tmp / "built.svg", "--size", 64)
        random_lam.write_text(lam_text)
        # a highlight that is no leaf of the file is refused, so the file is
        # also drawn without one
        _run("render", "--lamination", random_lam, "--out", tmp / "random.svg", "--size", 64)
        _run("render", "--lamination", random_lam, "--out", tmp / "random.svg", "--size", 64,
             "--labels", "--highlight", "1/7 2/7")
        out = [] if to_stdout else ["--out", tmp / "tags.txt"]
        _run("tags", "--portraits", tmp, "--depth", depth, *out)


# option values: negative, zero, small and 10**30, each within the work
# bound (depth <= 3, period <= 7 and samples <= 3 unless refused), and one
# text argparse must refuse
_HUGE = 10**30
_DEPTH = st.sampled_from([-_HUGE, -1, 0, 1, 2, 3, _HUGE, "x"])
_PERIOD = st.sampled_from([-_HUGE, -1, 0, 1, 3, 6, 7, 13, _HUGE, "1.5"])
_SAMPLES = st.sampled_from([-_HUGE, -1, 0, 1, 2, 3, _HUGE, ""])
_SIZE = st.sampled_from([None, -_HUGE, -1, 0, 1, 64, _HUGE, "1e3"])
_SEED = st.sampled_from([None, -_HUGE, -1, 0, 1, 7, _HUGE, "0x10"])
# strings an environment variable can hold
_ENV_TEXT = st.one_of(
    st.integers(-_HUGE, _HUGE).map(str),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=12),
)
_HIGHLIGHT = st.one_of(
    st.none(),
    st.lists(st.builds(lambda a, b: f"{a} {b}", _token, _token), max_size=3).map(";".join),
    st.text(max_size=16),
)


@st.composite
def _argv(draw, files):
    """An argument vector for one subcommand.  Each path is a real file of
    the right kind, a file of another kind, a directory or a path that does
    not exist; an output may also be left out."""
    command = draw(st.sampled_from(["build", "qml", "tags", "verify", "render"]))

    def path(right):
        others = [files[k] for k in ("portrait", "lam", "cubic", "missing") if k != right]
        return draw(st.sampled_from([files[right]] * 3 + others))

    def option(flag, strategy):
        value = draw(strategy)
        return [] if value is None else [flag, value]

    outputs = st.sampled_from(
        [None, files["new"], files["new"], files["old"], files["cubic"], files["nodir"]]
    )
    if command == "build":
        argv = ["--portrait", path("portrait"), "--depth", draw(_DEPTH)] + option("--out", outputs)
    elif command == "qml":
        argv = ["--period", draw(_PERIOD)] + option("--out", outputs) + option("--svg", outputs)
    elif command == "tags":
        argv = ["--portraits", path("cubic"), "--depth", draw(_DEPTH)]
        argv += option("--out", outputs) + option("--figures", outputs)
    elif command == "verify":
        argv = ["--suite", draw(st.sampled_from(sorted(SUITES))), "--samples", draw(_SAMPLES)]
        argv += option("--seed", _SEED)
    else:
        argv = ["--lamination", path("lam"), "--out", draw(outputs.filter(bool))]
        argv += option("--size", _SIZE)
        argv += option("--style", st.sampled_from([None, None, "hyperbolic", "straight", "curvy"]))
        argv += draw(st.sampled_from([[], ["--labels"]])) + option("--highlight", _HIGHLIGHT)
    if draw(st.integers(0, 19)) == 0:
        # an unknown option or a dropped value
        argv = draw(st.sampled_from([argv + ["--bogus"], argv[:-1]]))
    return [command] + [str(a) for a in argv]


@settings(max_examples=100, deadline=None)
@given(st.data(), st.one_of(st.none(), _ENV_TEXT))
def test_cli_exits_cleanly_on_generated_arguments(data, env_seed):
    root = Path(__file__).resolve().parent.parent / "portraits"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {
            "portrait": tmp / "rabbit.portrait",
            "lam": tmp / "rabbit.lam",
            "cubic": tmp / "cubic",
            "missing": tmp / "missing",
            "new": tmp / "new.txt",
            "old": tmp / "old.txt",
            "nodir": tmp / "missing" / "out.txt",
        }
        files["portrait"].write_text((root / "quadratic" / "rabbit.portrait").read_text())
        files["lam"].write_text("degree 2\n1/7 2/7\n9/14 11/14\n")
        files["old"].write_text("old\n")
        files["cubic"].mkdir()
        for name in ("leafpair.portrait", "triangle.portrait"):
            (files["cubic"] / name).write_text((root / "cubic" / name).read_text())
        argv = data.draw(_argv(files))

        out, err = io.StringIO(), io.StringIO()
        env = {} if env_seed is None else {"LAMINA_SEED": env_seed}
        with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refused the vector
                assert exc.code == 2, (argv, exc.code)
                code = 2
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
        else:
            assert err.getvalue() == "", (argv, err.getvalue())
