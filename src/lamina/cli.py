"""Command line surface: build, qml, tags, verify, render.

Exit codes: 0 success, 1 suite failure, 2 argument or input errors,
including a file that cannot be read or written.  Every refusal is one
``error:`` line on stderr: argparse's through ``_Parser.error``, and the
ValueError of the library or a command and the OSError of a file through
``main``.  The environment variable LAMINA_SEED overrides --seed for the
verify command.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .circle import _check_int, _integer
from .chords import Chord
from .cubic_tags import FullPortrait, mixed_tag, tags_relation
from .formats import lamination_text, parse_lamination, parse_portrait, tag_report
from .render import RenderSpec, render_svg
from .quad_minor import qml_enumerate
from .lamination import FiniteLamination, check_unlinked
from .suites import SUITES, run_suite

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Every refusal, its subcommands' too, is one ``error:`` line and exit 2."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def integer(text: str) -> int:  # argparse's refusals name the type by this name
    return _integer(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lamina", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="pullback lamination from a portrait file")
    p_build.add_argument("--portrait", required=True)
    p_build.add_argument("--depth", type=integer, required=True)
    p_build.add_argument("--out", default=None)

    p_qml = sub.add_parser("qml", help="enumerate the quadratic minor chords")
    p_qml.add_argument("--period", type=integer, required=True)
    p_qml.add_argument("--out", default=None)
    p_qml.add_argument("--svg", default=None)

    p_tags = sub.add_parser("tags", help="mixed tags for a directory of portraits")
    p_tags.add_argument("--portraits", required=True, help="directory of .portrait files")
    p_tags.add_argument("--depth", type=integer, default=3)
    p_tags.add_argument("--out", default=None)
    p_tags.add_argument("--figures", default=None, help="directory for per-tag SVG figures")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_verify.add_argument("--samples", type=integer, default=None,
                          help="sample count (default: the suite's own default)")
    p_verify.add_argument("--seed", type=integer, default=1)

    p_render = sub.add_parser("render", help="render a lamination file to SVG")
    p_render.add_argument("--lamination", required=True)
    p_render.add_argument("--out", required=True)
    p_render.add_argument("--size", type=integer, default=800)
    p_render.add_argument("--style", choices=["hyperbolic", "straight"], default="hyperbolic")
    p_render.add_argument("--labels", action="store_true")
    p_render.add_argument("--highlight", default="",
                          help="semicolon-separated chords, e.g. '1/7 2/7;2/7 4/7'")
    return parser


def _write(path, text):
    if path is None:
        sys.stdout.write(text)  # looked up now, so a redirect of sys.stdout applies
    else:
        Path(path).write_text(text)


def cmd_build(args) -> int:
    lam = parse_portrait(Path(args.portrait).read_text()).build(args.depth)
    _write(args.out, lamination_text(lam))
    return 0


def cmd_qml(args) -> int:
    lam = FiniteLamination(2, qml_enumerate(args.period))
    _write(args.out, lamination_text(lam))
    if args.svg:
        Path(args.svg).write_text(render_svg(lam, RenderSpec()))
    return 0


def cmd_tags(args) -> int:
    directory = Path(args.portraits)
    files = sorted(directory.glob("*.portrait"))
    if not files:
        raise ValueError(f"no .portrait files in {directory}")
    _check_int("depth", args.depth)  # refused before any portrait is read
    blocks = []
    for f in files:
        try:
            spec = parse_portrait(f.read_text())
            if spec.degree != 3:
                raise ValueError(f"mixed tags are cubic, not of degree {spec.degree}")
            lam = spec.build(args.depth)
            sets = spec.convex_sets()
            if len(sets) not in (1, 2):
                raise ValueError("a tag needs one or two critical sets")
            blocks.append((f.name, mixed_tag(lam, FullPortrait(sets[0], sets[-1]))))
        except ValueError as exc:
            raise ValueError(f"{f.name}: {exc}") from exc
    # tags_relation(t, t) is "equal", so the diagonal needs no case
    matrix = [[tags_relation(s, t) for _, t in blocks] for _, s in blocks]
    failures = sum(row[i + 1 :].count("properly_overlapping") for i, row in enumerate(matrix))
    _write(args.out, tag_report(blocks, matrix))
    if args.figures:
        figdir = Path(args.figures)
        figdir.mkdir(parents=True, exist_ok=True)
        for name, tag in blocks:
            svg = render_svg((tag.cocritical_factor, tag.minor_factor), RenderSpec(size=400))
            (figdir / (Path(name).stem + ".svg")).write_text(svg)
    return 1 if failures else 0


def cmd_verify(args) -> int:
    try:
        seed = _integer(os.environ.get("LAMINA_SEED", str(args.seed)))
    except ValueError:
        raise ValueError(f"LAMINA_SEED is not an integer: {os.environ['LAMINA_SEED']!r}") from None
    result = run_suite(args.suite, args.samples, seed)
    sys.stdout.write(result.text())
    return 0 if result.passed else 1


def cmd_render(args) -> int:
    # the spec refuses a bad --size or --highlight before any file is read
    spec = RenderSpec(
        size=args.size,
        geodesic_style=args.style,
        labels=args.labels,
        highlight=tuple(Chord.parse(tok) for tok in args.highlight.split(";") if tok.strip()),
    )
    lam = parse_lamination(Path(args.lamination).read_text())
    ok, pair = check_unlinked(lam)
    if not ok:
        raise ValueError(f"{args.lamination}: leaves cross: {pair[0]} x {pair[1]}")
    missing = next((c for c in spec.highlight if c not in lam), None)
    if missing is not None:
        raise ValueError(f"{args.lamination}: highlighted chord {missing} is not a leaf")
    Path(args.out).write_text(render_svg(lam, spec))
    return 0


_COMMANDS = {
    "build": cmd_build,
    "qml": cmd_qml,
    "tags": cmd_tags,
    "verify": cmd_verify,
    "render": cmd_render,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    # an input file that cannot be read, an output that cannot be written, or
    # input the library refuses (InconsistentPortrait is a ValueError)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
