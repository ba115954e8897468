import argparse
import contextlib
import io
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lamina.cli as cli
import lamina.formats as formats
import lamina.lamination as lamination
from lamina.circle import Angle, sigma_power
from lamina.chords import Chord
from lamina.cli import main
from lamina.formats import (
    lamination_text,
    parse_lamination,
    parse_portrait,
    portrait_text,
)
from lamina.lamination import FiniteLamination, check_invariance, check_unlinked, gaps, orbit_classify, pullback_build
from lamina.quad_minor import qml_enumerate
from lamina.sampling import Lcg
from lamina.suites import run_suite

A = Angle


def C(p, q, r, s):
    return Chord(A(p, q), A(r, s))


RABBIT = "degree 2\nquad 1/14 1/7 4/7 9/14\n"


def test_lamination_roundtrip_bit_exact():
    lam = pullback_build(2, [C(1, 14, 4, 7)], 4)
    text = lamination_text(lam)
    again = parse_lamination(text)
    assert again == lam
    assert lamination_text(again) == text


def test_lamination_text_from_the_ring_matches_the_chord_text():
    # the text from ring ints equals the Chords' own text, 0 endpoints and
    # shared endpoints included
    root = Path(__file__).resolve().parent.parent / "portraits"
    lams = [parse_portrait(p.read_text()).build(4) for p in sorted(root.glob("*/*.portrait"))]
    lams += [FiniteLamination(2, [C(0, 1, 1, 2), C(0, 1, 1, 4)]), FiniteLamination(3, [])]
    lams.append(FiniteLamination(2, qml_enumerate(8)))
    for lam in lams:
        expected = f"degree {lam.degree}\n" + "".join(f"{c.a} {c.b}\n" for c in lam.leaves)
        assert lamination_text(lam) == expected


def test_lamination_parse_comments_and_errors():
    lam = parse_lamination("# intro\ndegree 2\n1/7 2/7  # rabbit minor\n")
    assert lam.leaves == (C(1, 7, 2, 7),)
    with pytest.raises(ValueError):
        parse_lamination("1/7 2/7\n")


def _token(rng, x: Fraction) -> str:
    """An angle token for x: reduced or not (2/14 for 1/7), or a whole
    turn off, and 0 now and then written as 0/q."""
    k = rng.choice([1, 1, 2, 7])
    n, q = x.numerator * k, x.denominator * k
    n += rng.choice([0, 0, 0, q, -q])
    return str(n) if q == 1 and rng.random() < 0.5 else f"{n}/{q}"


def _lamination_file(rng):
    """Seeded lamination text and its chord lines: chords written reversed,
    repeated, degenerate and with unreduced tokens, among comments and blank
    lines."""
    d = rng.randint(2, 5)
    lines, chord_lines = [f"degree {d}"], []
    for _ in range(rng.randint(0, 12)):
        q = rng.randint(1, 14)
        a, b = Fraction(rng.randrange(q), q), Fraction(rng.randrange(q), q)
        if rng.random() < 0.2:
            b = a
        for _ in range(rng.choice([1, 1, 2])):
            ends = [a, b] if rng.random() < 0.5 else [b, a]
            line = " ".join(_token(rng, x) for x in ends)
            chord_lines.append(line)
            lines.append(rng.choice(["", "  "]) + line + rng.choice(["", "  # a chord"]))
        if rng.random() < 0.2:
            lines.append(rng.choice(["", "# a comment", "   "]))
    rng.shuffle(lines[1:])
    return "\n".join(lines) + "\n", d, chord_lines


def test_parse_lamination_agrees_with_chord_oracle():
    rng = random.Random(19)
    kinds = set()
    for _ in range(400):
        text, d, chord_lines = _lamination_file(rng)
        expected = FiniteLamination(d, [Chord.parse(line) for line in chord_lines])
        lam = parse_lamination(text)
        assert lam == expected, text
        assert lam.leaves == expected.leaves and lamination_text(lam) == lamination_text(expected)
        chords = [Chord.parse(line) for line in chord_lines]
        kinds |= {"degenerate" for c in chords if c.degenerate}
        kinds |= {"repeated" for c in chords if chords.count(c) > 1}
        kinds |= {"reversed" for line, c in zip(chord_lines, chords) if Angle(line.split()[0]) > c.a}
        kinds |= {"unreduced" for line in chord_lines for t in line.split() if str(Angle(t)) != t}
    assert kinds == {"degenerate", "repeated", "reversed", "unreduced"}
    assert parse_lamination("degree 2\n2/14 4/14\n1/7 2/7\n") == FiniteLamination(2, [C(1, 7, 2, 7)])


# every refusal of parse_lamination, byte for byte, and the first one wins
PARSE_ERRORS = [
    ("", "missing degree header"),
    ("# only a comment\n\n", "missing degree header"),
    ("1/3 2/3\n", "lamination file must start with a degree header"),
    ("degreefoo 2\n0 1/2\n", "lamination file must start with a degree header"),
    ("degree 2\ndegree 3\n", "duplicate degree header 'degree 3' after degree 2"),
    ("degree\n1/7 2/7\n", "degree header needs exactly one value: 'degree'"),
    ("degree 2 3\n", "degree header needs exactly one value: 'degree 2 3'"),
    ("degree two\n", "degree header needs an integer: 'degree two'"),
    ("degree 1\n0 1/2\n", "degree must be an integer >= 2, got 1"),
    ("degree -3\n", "degree must be an integer >= 2, got -3"),
    ("degree 2\n0 1/3 2/3\n", "chord text must be two angle tokens: '0 1/3 2/3'"),
    ("degree 2\n  1/7   # one angle\n", "chord text must be two angle tokens: '1/7'"),
    ("degree 2\n1/7 2/ 7\n", "chord text must be two angle tokens: '1/7 2/ 7'"),
    ("degree 2\n0 1/0\n", "angle must be an integer or p/q with q > 0: '1/0'"),
    ("degree 2\n0 0.5\n", "angle must be an integer or p/q with q > 0: '0.5'"),
    ("degree 2\n1e3 0\n", "angle must be an integer or p/q with q > 0: '1e3'"),
    ("degree 2\n1/7 1/-7\n", "angle must be an integer or p/q with q > 0: '1/-7'"),
    ("degree 2\n1/7 2/7\nx 1/3\n", "angle must be an integer or p/q with q > 0: 'x'"),
    ("degree 2\ndegreefoo 2\n", "angle must be an integer or p/q with q > 0: 'degreefoo'"),
    ("degree 2\n1/0 0.5\n", "angle must be an integer or p/q with q > 0: '1/0'"),
    ("degree 1\n1/0 1/2\n", "angle must be an integer or p/q with q > 0: '1/0'"),
    ("degree 2\n1/3 2/3 4/5\n1/0 1/2\n", "chord text must be two angle tokens: '1/3 2/3 4/5'"),
    ("degree 2\n1/0 1/2\n1/3 2/3 4/5\n", "angle must be an integer or p/q with q > 0: '1/0'"),
    ("degree 2\n1/7 2/7\ndegree 3\n1/0 1/2\n", "duplicate degree header 'degree 3' after degree 2"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS)
def test_parse_lamination_error_messages_are_pinned(text, message):
    with pytest.raises(ValueError) as info:
        parse_lamination(text)
    assert str(info.value) == message


# angle tokens with signs, leading zeros and whole turns off, bad tokens,
# and the blanks and line ends the two readers must split alike (\xa0 is a
# blank, \x0c and \x1c end a line)
_TOKEN = st.builds(
    lambda sign, zeros, n, q: f"{sign}{'0' * zeros}{n}" + (f"/{'0' * zeros}{q}" if q else ""),
    st.sampled_from(["", "", "+", "-"]),
    st.integers(0, 2),
    st.integers(0, 40),
    st.integers(0, 14),
)
_BAD_TOKEN = st.sampled_from(["degree", "x", "1/0", "0.5", "1e3", "1/-7", "\u0661/7", "1_0", "7/", "#"])
_BLANK = st.sampled_from([" ", "  ", "\t", "\xa0", " \t"])
_GOOD_LINE = st.one_of(
    st.tuples(_TOKEN, _BLANK, _TOKEN).map("".join),
    st.tuples(_TOKEN, _BLANK, _TOKEN, st.sampled_from(["  # a chord", "#", ""])).map("".join),
    st.sampled_from(["", "  ", "# a comment", "0 0", "1/3 1/3"]),  # degenerate chords too
)
_BAD_LINE = st.one_of(
    st.tuples(_TOKEN, _BLANK, _BAD_TOKEN).map("".join),
    st.tuples(_BAD_TOKEN, _BLANK, _TOKEN).map("".join),
    st.tuples(st.just("degree"), _BLANK, st.one_of(_TOKEN, _BAD_TOKEN)).map("".join),
    st.sampled_from(["degree", "1/7", "0 1/3 2/3", "1/7 2/ 7", "degree 2 3", "1/3\x0c2/3", "1/3\x1c2/3"]),
)


@st.composite
def _lamination_texts(draw):
    """Lamination texts, most of them well formed: a header, then chord
    lines, some of them repeated, among comments, and now and then a bad
    header or one bad line."""
    header = ["degree 2", "degree 3", " degree\t+03 ", "degree 02 # d", "degree 1", "degree x", ""]
    lines = [draw(st.sampled_from(header[:4] * 3 + header[4:]))]
    for _ in range(draw(st.integers(0, 12))):
        lines += [draw(_GOOD_LINE)] * draw(st.sampled_from([1, 1, 2]))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(_BAD_LINE))
    end = draw(st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x1c"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _parse_outcome(parse, text):
    try:
        lam = parse(text)
    except ValueError as exc:
        return str(exc)
    return lam.degree, lam.ring, lam._gens


@settings(max_examples=300, deadline=None)
@given(_lamination_texts())
def test_bulk_parse_agrees_with_the_line_reader(text):
    # the bulk read returns the line reader's lamination, and a file it
    # turns down gets the line reader's first refusal
    assert _parse_outcome(parse_lamination, text) == _parse_outcome(formats._read_lamination, text)


def test_a_well_formed_file_never_reaches_the_line_reader(monkeypatch):
    texts = ["degree 2\n", "degree 2\r\n1/7\t2/7\r\n# c\r\n", "degree +03\n-1/3 04/06\n0 0\n1/3 1/3 # x\n"]
    texts.append(lamination_text(pullback_build(2, [C(1, 14, 4, 7)], 4)))
    expected = [formats._read_lamination(text) for text in texts]

    def refuse(text):
        raise AssertionError(f"the line reader read {text!r}")

    monkeypatch.setattr(formats, "_read_lamination", refuse)
    assert [parse_lamination(text) for text in texts] == expected
    for text, message in PARSE_ERRORS:
        with pytest.raises(AssertionError):
            parse_lamination(text)


def test_degree_header_is_the_whole_first_token(tmp_path, capsys):
    # a line that only starts with "degree" is no header in either parser
    with pytest.raises(ValueError, match="must start with a degree header"):
        parse_lamination("degreefoo 2\n1/7 2/7\n")
    with pytest.raises(ValueError, match="must start with a degree header"):
        parse_portrait("degreefoo 2\nquad 1/14 1/7 4/7 9/14\n")
    with pytest.raises(ValueError, match="angle must be"):
        parse_lamination("degree 2\ndegreefoo 2\n1/7 2/7\n")
    with pytest.raises(ValueError, match="unknown portrait line"):
        parse_portrait("degree 2\ndegreefoo 2\nquad 1/14 1/7 4/7 9/14\n")
    for text in ("degreefoo 2\n1/7 2/7\n", "degree 2\ndegreefoo 2\n1/7 2/7\n"):
        lam = tmp_path / "foo.lam"
        lam.write_text(text)
        assert main(["render", "--lamination", str(lam), "--out", str(tmp_path / "x.svg")]) == 2
        assert _one_error_line(capsys)


def test_portrait_roundtrip():
    spec = parse_portrait(RABBIT)
    assert portrait_text(spec) == RABBIT
    spec2 = parse_portrait("degree 3\nleaf 0 1/3\nleaf 1/2 5/6\n")
    assert [str(c) for c in spec2.sector_chords()] == ["0 1/3", "1/2 5/6"]


def test_portrait_parse_errors():
    with pytest.raises(ValueError):
        parse_portrait("degree 3\nleaf 0\n")
    with pytest.raises(ValueError):
        parse_portrait("degree 3\nhexagon 1/3 2/3\n")
    with pytest.raises(ValueError):
        parse_portrait("leaf 0 1/3\n")


def test_cli_build_and_render(tmp_path):
    portrait = tmp_path / "rabbit.portrait"
    portrait.write_text(RABBIT)
    out = tmp_path / "rabbit.lam"
    assert main(["build", "--portrait", str(portrait), "--depth", "6", "--out", str(out)]) == 0
    lam = parse_lamination(out.read_text())
    tri = [g for g in gaps(lam) if g.finite and set(g.vertices) == {A(1, 7), A(2, 7), A(4, 7)}]
    assert tri

    svg = tmp_path / "rabbit.svg"
    code = main(
        ["render", "--lamination", str(out), "--out", str(svg), "--labels", "--highlight", "1/7 2/7"]
    )
    assert code == 0
    assert svg.read_text().startswith("<svg")


_Q = 3 * 10**50 + 1


@pytest.mark.parametrize("leaf", [f"1/{_Q} 1/2", f"{_Q - 1}/{_Q} 1/2"])
def test_cli_renders_near_diameter_straight(tmp_path, leaf):
    # 1e-50 from a diameter: 1 + dot rounds to 0 at 30 digits, so the chord
    # must be drawn straight instead of failing on the arc centre
    lam = tmp_path / "near.lam"
    lam.write_text(f"degree 2\n{leaf}\n")
    svg = tmp_path / "near.svg"
    assert main(["render", "--lamination", str(lam), "--out", str(svg)]) == 0
    paths = [line for line in svg.read_text().splitlines() if "<path" in line]
    assert len(paths) == 1 and " L " in paths[0] and " A " not in paths[0]


def test_cli_build_error_exit_code(tmp_path):
    bad = tmp_path / "bad.portrait"
    bad.write_text("degree 3\nleaf 0 1/3\n")  # not enough branch cuts
    assert main(["build", "--portrait", str(bad), "--depth", "2"]) == 2
    missing = tmp_path / "none.portrait"
    assert main(["build", "--portrait", str(missing), "--depth", "2"]) == 2


def test_cli_rejects_negative_depth(tmp_path, capsys):
    portrait = tmp_path / "rabbit.portrait"
    portrait.write_text(RABBIT)
    assert main(["build", "--portrait", str(portrait), "--depth", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "depth" in captured.err
    assert main(["tags", "--portraits", str(tmp_path), "--depth", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "depth" in captured.err


@pytest.mark.parametrize("command", ["build", "tags"])
@pytest.mark.parametrize("degree", [0, -3])
def test_cli_refuses_a_portrait_degree_below_two(tmp_path, capsys, command, degree):
    # the degree is checked after the lines are read, as for lamination files
    (tmp_path / "low.portrait").write_text(f"degree {degree}\n")
    if command == "build":
        argv = ["build", "--portrait", str(tmp_path / "low.portrait"), "--depth", "2"]
    else:
        argv = ["tags", "--portraits", str(tmp_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert f"degree must be an integer >= 2, got {degree}" in captured.err


def test_cli_qml(tmp_path):
    out = tmp_path / "qml.lam"
    svg = tmp_path / "qml.svg"
    assert main(["qml", "--period", "3", "--out", str(out), "--svg", str(svg)]) == 0
    assert out.read_bytes() == b"degree 2\n1/7 2/7\n3/7 4/7\n5/7 6/7\n"
    lam = parse_lamination(out.read_text())
    assert C(1, 7, 2, 7) in lam
    assert svg.exists()


@pytest.mark.parametrize("period", ["0", "13"])
def test_cli_qml_rejects_period_out_of_range(tmp_path, capsys, period):
    out = tmp_path / "qml.lam"
    assert main(["qml", "--period", period, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "period" in captured.err
    assert not out.exists()


def test_cli_tags(tmp_path):
    d = tmp_path / "portraits"
    d.mkdir()
    (d / "a.portrait").write_text("degree 3\nleaf 0 1/3\nleaf 1/2 5/6\n")
    (d / "b.portrait").write_text("degree 3\nleaf 1/9 4/9\nleaf 16/27 25/27\n")
    report = tmp_path / "tags.txt"
    figs = tmp_path / "figs"
    code = main(
        ["tags", "--portraits", str(d), "--depth", "2", "--out", str(report), "--figures", str(figs)]
    )
    assert code == 0
    text = report.read_text()
    assert "[a.portrait]" in text and "relations:" in text
    assert sorted(p.name for p in figs.iterdir()) == ["a.svg", "b.svg"]


def test_cli_tags_refuses_a_point_as_a_critical_set(tmp_path, capsys):
    d = tmp_path / "portraits"
    d.mkdir()
    (d / "point.portrait").write_text("degree 3\npoly 0 1/3 2/3\nleaf 1/5 1/5\n")
    assert main(["tags", "--portraits", str(d)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: point.portrait: {1/5} is not a leaf of the lamination\n"


def test_cli_tags_empty_dir(tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    assert main(["tags", "--portraits", str(d)]) == 2


def test_cli_verify_pass_and_seed_env(tmp_path, monkeypatch, capsys):
    assert main(["verify", "--suite", "reconstruct", "--samples", "25", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "status: pass" in out
    monkeypatch.setenv("LAMINA_SEED", "99")
    assert main(["verify", "--suite", "linkco", "--samples", "10"]) == 0


def test_cli_argparse_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, line",
    [
        (["qml", "--period", "x"], "error: argument --period: invalid integer value: 'x'"),
        (
            ["render", "--lamination", "a.lam", "--out", "a.svg", "--size", "\u0668\u0660\u0660"],
            "error: argument --size: invalid integer value: '\u0668\u0660\u0660'",
        ),
        (["verify", "--suite", "nonsense"], "error: argument --suite: invalid choice: 'nonsense' "),
        (["build", "--portrait", "rabbit.portrait"], "error: the following arguments are required: --depth"),
    ],
)
def test_cli_argparse_refusal_is_one_error_line(argv, line, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if "invalid choice" in line:  # the list of choices reads differently across Pythons
        assert captured.err.startswith(line) and captured.err.count("\n") == 1
    else:
        assert captured.err == line + "\n"


def test_cli_render_missing_file(tmp_path):
    assert main(["render", "--lamination", str(tmp_path / "nope.lam"), "--out", str(tmp_path / "x.svg")]) == 2


def test_cli_verify_failure_exit_code(monkeypatch, capsys):
    import lamina.suites as suites_mod

    def fake(samples, seed):
        return suites_mod.SuiteResult("linkco", passed=False, failures=["forced failure"])

    monkeypatch.setitem(suites_mod.SUITES, "linkco", fake)
    assert main(["verify", "--suite", "linkco", "--samples", "1"]) == 1
    assert "status: FAIL" in capsys.readouterr().out


def test_readme_snippets_execute():
    import re

    text = Path(__file__).resolve().parent.parent.joinpath("README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", text, re.S):
        exec(compile(block, "README.md", "exec"), {})


def test_cli_tags_rejects_non_cubic(tmp_path, capsys):
    d = tmp_path / "portraits"
    d.mkdir()
    (d / "quad.portrait").write_text(RABBIT)
    assert main(["tags", "--portraits", str(d), "--depth", "2"]) == 2
    assert capsys.readouterr().err == "error: quad.portrait: mixed tags are cubic, not of degree 2\n"


@pytest.mark.parametrize(
    "name, text, reason",
    [
        ("a.portrait", "degree 4\nleaf 0 1/4\nleaf 1/4 1/2\nleaf 1/2 3/4\n", "mixed tags are cubic, not of degree 4"),
        ("three.portrait", "degree 3\nleaf 0 1/3\nleaf 1/2 5/6\nleaf 1/3 1/2\n", "a tag needs one or two critical sets"),
    ],
)
def test_cli_tags_refusal_names_the_file_once(tmp_path, capsys, name, text, reason):
    d = tmp_path / "portraits"
    d.mkdir()
    (d / name).write_text(text)
    assert main(["tags", "--portraits", str(d), "--depth", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name}: {reason}\n"


def test_cli_tags_refuses_the_shipped_quadratic_portraits_as_non_cubic(capsys):
    root = Path(__file__).resolve().parent.parent / "portraits" / "quadratic"
    assert main(["tags", "--portraits", str(root), "--depth", "3"]) == 2
    err = capsys.readouterr().err
    assert err == "error: basilica.portrait: mixed tags are cubic, not of degree 2\n"


def test_shipped_portraits_build():
    root = Path(__file__).resolve().parent.parent / "portraits"
    for f in sorted(root.rglob("*.portrait")):
        spec = parse_portrait(f.read_text())
        lam = spec.build(2)
        assert len(lam) > 0


def test_shipped_portraits_sector_chords():
    root = Path(__file__).resolve().parent.parent / "portraits"
    chords = {
        f.stem: [str(c) for c in parse_portrait(f.read_text()).sector_chords()]
        for f in root.rglob("*.portrait")
    }
    assert chords == {
        "hexagon": ["2/39 28/39", "16/117 55/117"],
        "leafpair": ["0 1/3", "1/2 5/6"],
        "quadleaf": ["1/4 7/12", "1/9 7/9"],
        "triangle": ["0 1/3", "0 2/3"],
        "basilica": ["1/6 2/3"],
        "rabbit": ["1/14 4/7"],
    }


@pytest.mark.parametrize("degree", [4, 5])
def test_all_critical_polygon_gives_one_cut_per_degree_but_one(tmp_path, degree):
    # the square over 0 in degree 4 and the pentagon over 0 in degree 5
    text = f"degree {degree}\npoly " + " ".join(str(A(k, degree)) for k in range(degree)) + "\n"
    spec = parse_portrait(text)
    assert spec.sector_chords() == [Chord(A(0), A(k, degree)) for k in range(1, degree)]
    for depth in range(4):
        lam = spec.build(depth)
        assert check_unlinked(lam)[0]
        assert check_invariance(lam, depth).ok
    portrait = tmp_path / "polygon.portrait"
    portrait.write_text(text)
    out = tmp_path / "polygon.lam"
    assert main(["build", "--portrait", str(portrait), "--depth", "2", "--out", str(out)]) == 0
    assert out.read_text().startswith(f"degree {degree}\n0 1/")


def test_degree_header_without_value_is_a_value_error(tmp_path, capsys):
    with pytest.raises(ValueError):
        parse_lamination("degree\n1/7 2/7\n")
    with pytest.raises(ValueError):
        parse_portrait("degree\nquad 1/14 1/7 4/7 9/14\n")
    bad = tmp_path / "bad.portrait"
    bad.write_text("degree\nquad 1/14 1/7 4/7 9/14\n")
    assert main(["build", "--portrait", str(bad), "--depth", "2"]) == 2
    lam = tmp_path / "bad.lam"
    lam.write_text("degree\n1/7 2/7\n")
    assert main(["render", "--lamination", str(lam), "--out", str(tmp_path / "x.svg")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and "Traceback" not in err


def test_integers_and_angles_from_outside_are_ascii_digits_only(tmp_path, monkeypatch, capsys):
    # int() and \d also take other scripts' digits, and int() reads "1_0" as 10
    with pytest.raises(ValueError, match="angle must be"):
        parse_lamination("degree 2\n\u0661/7 1/1\u0664\n")
    for header in ("degree \u0662", "degree 1_0", "degree \uff13"):
        with pytest.raises(ValueError, match="degree header needs an integer"):
            parse_lamination(f"{header}\n1/7 2/7\n")
        with pytest.raises(ValueError, match="degree header needs an integer"):
            parse_portrait(f"{header}\nleaf 0 1/2\n")
    bad_lam = tmp_path / "bad.lam"
    bad_lam.write_text("degree 2\n\u0661/7 1/1\u0664\n")
    bad_portrait = tmp_path / "bad.portrait"
    bad_portrait.write_text("degree 1_0\nleaf 0 1/10\n")
    assert main(["render", "--lamination", str(bad_lam), "--out", str(tmp_path / "x.svg")]) == 2
    assert main(["build", "--portrait", str(bad_portrait), "--depth", "1"]) == 2
    monkeypatch.setenv("LAMINA_SEED", "1_0")
    assert main(["verify", "--suite", "reconstruct", "--samples", "1"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 3 and all(line.startswith("error: ") for line in lines)
    monkeypatch.delenv("LAMINA_SEED")
    # the command line's numbers: argparse refuses them
    lam = tmp_path / "rabbit.lam"
    lam.write_text("degree 2\n1/7 2/7\n")
    portrait = tmp_path / "rabbit.portrait"
    portrait.write_text(RABBIT)
    for argv in (
        ["render", "--lamination", str(lam), "--out", str(tmp_path / "y.svg"), "--size", "\u0668\u0660"],
        ["qml", "--period", "\u0663"],
        ["build", "--portrait", str(portrait), "--depth", "1_0"],
        ["tags", "--portraits", str(tmp_path), "--depth", "\uff13"],
        ["verify", "--suite", "reconstruct", "--samples", "1_0"],
        ["verify", "--suite", "reconstruct", "--samples", "1", "--seed", "\u0663"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    assert not (tmp_path / "y.svg").exists()


def test_cli_verify_rejects_bad_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("LAMINA_SEED", "abc")
    assert main(["verify", "--suite", "linkco", "--samples", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "LAMINA_SEED" in captured.err
    # a seed outside 0..2^64 - 1 would repeat another seed's samples
    monkeypatch.setenv("LAMINA_SEED", str(2**64))
    assert main(["verify", "--suite", "reconstruct", "--samples", "1"]) == 2
    monkeypatch.delenv("LAMINA_SEED")
    assert main(["verify", "--suite", "reconstruct", "--samples", "1", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: seed must be an integer between 0 and {2**64 - 1}, got {2**64}\n"
        f"error: seed must be an integer between 0 and {2**64 - 1}, got -1\n"
    )
    # an exhaustive suite draws no sample, so it reads no seed
    assert main(["verify", "--suite", "compgap", "--samples", "1", "--seed", "-1"]) == 0


def test_cli_verify_crifar_fails_without_samples(capsys):
    assert main(["verify", "--suite", "crifar", "--samples", "0"]) == 1
    out = capsys.readouterr().out
    assert "status: FAIL" in out and "laminations: 0" in out


def test_cli_verify_reconstruct_fails_without_samples(capsys):
    assert main(["verify", "--suite", "reconstruct", "--samples", "0"]) == 1
    out = capsys.readouterr().out
    assert "status: FAIL" in out and "reconstructions: 0" in out


def test_cli_verify_rejects_negative_samples(capsys):
    assert main(["verify", "--suite", "linkco", "--samples", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--samples" in captured.err


@pytest.mark.parametrize("suite", ["linkco", "crifar"])
def test_cli_verify_refuses_samples_over_the_bound(suite, capsys):
    # without the bound these run until killed
    assert main(["verify", "--suite", suite, "--samples", str(10**30)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --samples must be an integer between 0 and 1000000, got {10**30}\n"


def test_cli_verify_samples_bound_is_inclusive(monkeypatch, capsys):
    import lamina.suites as suites_mod

    monkeypatch.setattr(suites_mod, "MAX_SUITE_SAMPLES", 3)
    assert main(["verify", "--suite", "linkco", "--samples", "3"]) == 0
    assert "pairs: 3" in capsys.readouterr().out
    assert main(["verify", "--suite", "linkco", "--samples", "4"]) == 2
    assert capsys.readouterr().err == "error: --samples must be an integer between 0 and 3, got 4\n"


def test_cli_verify_qml_refuses_a_sample_count(capsys):
    # the suite is exhaustive at period 6: a count it would ignore is refused
    assert main(["verify", "--suite", "qml-unlinked", "--samples", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "qml-unlinked" in captured.err
    assert main(["verify", "--suite", "qml-unlinked", "--samples", "0"]) == 0
    assert "status: pass" in capsys.readouterr().out


def test_cli_render_rejects_crossing_leaves(tmp_path, capsys):
    lam = tmp_path / "crossing.lam"
    lam.write_text("degree 2\n1/3 1/2\n1/4 2/5\n")
    out = tmp_path / "x.svg"
    assert main(["render", "--lamination", str(lam), "--out", str(out)]) == 2
    assert not out.exists()
    assert "1/4 2/5 x 1/3 1/2" in capsys.readouterr().err


def test_cli_command_refusals_print_their_exact_line(tmp_path, monkeypatch, capsys):
    # each refusal a command finds itself reaches main as a ValueError and
    # is printed there: one line on stderr, nothing on stdout, exit 2
    empty, point = tmp_path / "empty", tmp_path / "point"
    empty.mkdir()
    point.mkdir()
    (point / "point.portrait").write_text("degree 3\npoly 0 1/3 2/3\nleaf 1/5 1/5\n")
    crossing, rabbit = tmp_path / "crossing.lam", tmp_path / "rabbit.lam"
    crossing.write_text("degree 2\n1/3 1/2\n1/4 2/5\n")
    rabbit.write_text("degree 2\n1/7 2/7\n2/7 4/7\n")
    cases = [
        (["tags", "--portraits", str(empty)], f"no .portrait files in {empty}"),
        (["tags", "--portraits", str(point)], "point.portrait: {1/5} is not a leaf of the lamination"),
        (["verify", "--suite", "linkco", "--samples", "1"], "LAMINA_SEED is not an integer: ' 1x'"),
        (["render", "--lamination", str(crossing), "--out", str(tmp_path / "c.svg")], f"{crossing}: leaves cross: 1/4 2/5 x 1/3 1/2"),
        (
            ["render", "--lamination", str(rabbit), "--out", str(tmp_path / "r.svg"), "--highlight", "1/7 4/7"],
            f"{rabbit}: highlighted chord 1/7 4/7 is not a leaf",
        ),
    ]
    for argv, line in cases:
        with monkeypatch.context() as m:
            if argv[0] == "verify":
                m.setenv("LAMINA_SEED", " 1x")
            assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {line}\n")
    assert not (tmp_path / "c.svg").exists() and not (tmp_path / "r.svg").exists()


def _one_error_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


def test_cli_build_unwritable_out(tmp_path, capsys):
    portrait = tmp_path / "rabbit.portrait"
    portrait.write_text(RABBIT)
    out = tmp_path / "missing" / "x.lam"
    assert main(["build", "--portrait", str(portrait), "--depth", "2", "--out", str(out)]) == 2
    assert _one_error_line(capsys)


@pytest.mark.parametrize("flag", ["--out", "--svg"])
def test_cli_qml_unwritable_out(tmp_path, capsys, flag):
    assert main(["qml", "--period", "3", flag, str(tmp_path / "missing" / "x")]) == 2
    assert _one_error_line(capsys)


def test_cli_render_unwritable_out(tmp_path, capsys):
    lam = tmp_path / "rabbit.lam"
    lam.write_text("degree 2\n1/7 2/7\n")
    assert main(["render", "--lamination", str(lam), "--out", str(tmp_path / "missing" / "x.svg")]) == 2
    assert _one_error_line(capsys)


def test_cli_tags_unwritable_out_and_figures(tmp_path, capsys):
    d = tmp_path / "portraits"
    d.mkdir()
    (d / "a.portrait").write_text("degree 3\nleaf 0 1/3\nleaf 1/2 5/6\n")
    assert main(["tags", "--portraits", str(d), "--depth", "1", "--out", str(tmp_path / "missing" / "t.txt")]) == 2
    assert _one_error_line(capsys)
    a_file = tmp_path / "not_a_dir"
    a_file.write_text("")
    assert main(["tags", "--portraits", str(d), "--depth", "1", "--out", str(tmp_path / "t.txt"),
                 "--figures", str(a_file)]) == 2
    assert _one_error_line(capsys)


def test_cli_render_rejects_highlight_that_is_no_leaf(tmp_path, capsys):
    # 1/5 2/5 is a chord of no rabbit leaf, so nothing could be highlighted
    portrait = tmp_path / "rabbit.portrait"
    portrait.write_text(RABBIT)
    lam = tmp_path / "rabbit.lam"
    assert main(["build", "--portrait", str(portrait), "--depth", "3", "--out", str(lam)]) == 0
    out = tmp_path / "x.svg"
    argv = ["render", "--lamination", str(lam), "--out", str(out), "--highlight", "1/7 2/7;1/5 2/5"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "1/5 2/5" in err and str(lam) in err
    assert not out.exists()
    # a leaf alone is drawn in the highlight class
    assert main(argv[:-1] + ["1/7 2/7"]) == 0
    assert 'class="hl"' in out.read_text()


@pytest.mark.parametrize("size", ["-5", "0"])
def test_cli_render_rejects_nonpositive_size(tmp_path, capsys, size):
    lam = tmp_path / "rabbit.lam"
    lam.write_text("degree 2\n1/7 2/7\n")
    out = tmp_path / "x.svg"
    assert main(["render", "--lamination", str(lam), "--out", str(out), "--size", size]) == 2
    assert _one_error_line(capsys)
    assert not out.exists()


def test_cli_render_refuses_the_size_before_reading_the_file(tmp_path, capsys):
    missing, out = tmp_path / "missing.lam", tmp_path / "x.svg"
    assert main(["render", "--lamination", str(missing), "--out", str(out), "--size", "0"]) == 2
    assert capsys.readouterr().err == "error: size must be an integer >= 1, got 0\n"
    assert not out.exists()


def test_duplicate_degree_header_is_a_value_error(tmp_path, capsys):
    with pytest.raises(ValueError, match="duplicate degree header"):
        parse_lamination("degree 2\n1/3 2/3\ndegree 3\n")
    with pytest.raises(ValueError, match="duplicate degree header"):
        parse_portrait("degree 2\nquad 1/14 1/7 4/7 9/14\ndegree 3\n")
    lam = tmp_path / "twice.lam"
    lam.write_text("degree 2\n1/3 2/3\ndegree 3\n")
    assert main(["render", "--lamination", str(lam), "--out", str(tmp_path / "x.svg")]) == 2
    assert _one_error_line(capsys)


def test_cli_build_refuses_huge_depth(tmp_path, capsys):
    portrait = tmp_path / "rabbit.portrait"
    portrait.write_text(RABBIT)
    assert main(["build", "--portrait", str(portrait), "--depth", "40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "limit is 1000000" in captured.err


def test_cli_build_refuses_long_generation_zero_orbit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lamination, "MAX_PULLBACK_LEAVES", 500)
    portrait = tmp_path / "long.portrait"
    portrait.write_text("degree 3\nleaf 0 1/3\nleaf 1/2 5/6\nleaf 1/1000003 2/1000003\n")
    assert main(["build", "--portrait", str(portrait), "--depth", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the forward orbits of the portrait chords have more than 125 generation-0 "
        "leaves, the most depth 1 can pull back; the limit is 500 leaves\n"
    )


@pytest.mark.parametrize("line", ["poly 0 0 1/2", "poly 1/3 1/3 1/3 2/3", "poly 1/4 1/4 1/4"])
def test_poly_needs_three_distinct_angles(tmp_path, capsys, line):
    text = f"degree 2\n{line}\n"
    with pytest.raises(ValueError, match="three distinct angles"):
        parse_portrait(text)
    bad = tmp_path / "thin.portrait"
    bad.write_text(text)
    out = tmp_path / "thin.lam"
    assert main(["build", "--portrait", str(bad), "--depth", "2", "--out", str(out)]) == 2
    assert _one_error_line(capsys)
    assert not out.exists()


def test_repeated_poly_vertex_is_one_vertex(tmp_path):
    # the all-critical cubic triangle, with 0 written twice
    spec = parse_portrait("degree 3\npoly 0 0 1/3 2/3\n")
    assert spec == parse_portrait("degree 3\npoly 0 1/3 2/3\n")
    assert portrait_text(spec) == "degree 3\npoly 0 1/3 2/3\n"
    built = []
    for name, line in (("twice", "poly 0 0 1/3 2/3"), ("once", "poly 0 1/3 2/3")):
        portrait = tmp_path / f"{name}.portrait"
        portrait.write_text(f"degree 3\n{line}\n")
        out = tmp_path / f"{name}.lam"
        assert main(["build", "--portrait", str(portrait), "--depth", "2", "--out", str(out)]) == 0
        built.append(out.read_text())
    assert built[0] == built[1]


def test_non_integer_degree_header_names_the_header(tmp_path, capsys):
    with pytest.raises(ValueError, match="degree header needs an integer: 'degree x'"):
        parse_portrait("degree x\nquad 1/14 1/7 4/7 9/14\n")
    with pytest.raises(ValueError, match="degree header needs an integer: 'degree 2.5'"):
        parse_lamination("degree 2.5\n1/7 2/7\n")
    bad = tmp_path / "bad.portrait"
    bad.write_text("degree x\nquad 1/14 1/7 4/7 9/14\n")
    assert main(["build", "--portrait", str(bad), "--depth", "2"]) == 2
    err = capsys.readouterr().err
    assert err == "error: degree header needs an integer: 'degree x'\n"


def test_cli_stdout_follows_a_redirect(tmp_path):
    # without --out, build, qml and tags write to sys.stdout as it is at call
    # time, so contextlib.redirect_stdout captures what --out would write
    root = Path(__file__).resolve().parent.parent / "portraits"
    commands = [
        ["build", "--portrait", str(root / "quadratic" / "rabbit.portrait"), "--depth", "1"],
        ["qml", "--period", "4"],
        ["tags", "--portraits", str(root / "cubic"), "--depth", "2"],
    ]
    for argv in commands:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(argv) in (0, 1)
        out = tmp_path / f"{argv[0]}.txt"
        assert main(argv + ["--out", str(out)]) in (0, 1)
        assert buffer.getvalue() == out.read_text() != ""


_CUBIC = Path(__file__).resolve().parent.parent / "portraits" / "cubic"


def _tags_at_depth(depth):
    """``lamina tags`` on the shipped cubic portraits with ``depth`` put past argparse."""
    args = argparse.Namespace(portraits=str(_CUBIC), depth=depth, out=None, figures=None)
    return cli.cmd_tags(args)


# each int argument's caller, its message up to the value, and the values it
# refuses besides True, 2.0, "3" and -1: None where None is no default, and
# values past the upper bound where there is one
_INT_ARGUMENTS = [
    ("pullback_build", lambda v: pullback_build(2, [C(1, 3, 2, 3)], v), "depth must be an integer >= 0, got ", (None,)),
    ("check_invariance", lambda v: check_invariance(FiniteLamination(2, [C(1, 3, 2, 3)]), v),
     "boundary_depth must be an integer >= 0, got ", (None,)),
    ("qml_enumerate", qml_enumerate, "period bound must be an integer between 1 and 12, got ", (None, 13, 10**7)),
    ("run_suite", lambda v: run_suite("linkco", v, 1),
     "--samples must be an integer between 0 and 1000000, got ", (10**7,)),
    ("cmd_tags", _tags_at_depth, "depth must be an integer >= 0, got ", (None,)),
    ("orbit_classify", lambda v: orbit_classify(2, Angle(1, 7), v), "max_steps must be an integer >= 0, got ", ()),
    ("sigma_power", lambda v: sigma_power(2, Angle(1, 7), v), "iterate count must be an integer >= 0, got ", (None,)),
    ("up_to", lambda v: parse_portrait(RABBIT).build(3).up_to(v), "generation must be an integer >= 0, got ", (None,)),
    ("Lcg", Lcg, "seed must be an integer between 0 and 18446744073709551615, got ", (2**64,)),
]


@pytest.mark.parametrize(
    "call, message, value",
    [
        pytest.param(call, message, value, id=f"{name}-{value!r}")
        for name, call, message, more in _INT_ARGUMENTS
        for value in (True, 2.0, "3", -1, *more)
    ],
)
def test_int_arguments_refuse_with_their_messages(call, message, value, monkeypatch, capsys):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == message + repr(value)
    if call is _tags_at_depth:  # main prints the refusal as one line, before any portrait is read
        monkeypatch.setitem(cli._COMMANDS, "tags", lambda args: _tags_at_depth(value))
        monkeypatch.setattr(cli, "parse_portrait", None)
        assert main(["tags", "--portraits", str(_CUBIC)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}{value!r}\n")
