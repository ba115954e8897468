"""Text formats: lamination files, portrait files, tag reports.

Lamination files carry a ``degree d`` header and one chord per line in
canonical order; ``#`` starts a comment.  Portrait files share the header
and list ordered critical data: ``leaf p/q p/q``, ``quad`` with four
angles, or ``poly`` with three or more vertices.  Round-trips are
bit-exact because angles serialize as reduced fractions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm

from .circle import Angle, _check_degree, _ratio
from .chords import Chord, _chord_tokens, _sides, greedy_no_loop, is_critical
from .lamination import FiniteLamination, boundary_degree, pullback_build
from .qc_portrait import make_quadrilateral
from .cubic_tags import ConvexSet

__all__ = [
    "lamination_text",
    "parse_lamination",
    "PortraitSpec",
    "parse_portrait",
    "portrait_text",
    "tag_report",
]


def lamination_text(lam: FiniteLamination) -> str:
    """The lamination file of ``lam``, written from its ring: each distinct
    endpoint x mod N is formatted once, as the reduced fraction x/N."""
    N, pairs = lam.ring
    text = {}
    for x in set(itertools.chain.from_iterable(pairs)):
        g = gcd(x, N)
        text[x] = f"{x // g}/{N // g}" if x else "0"
    lines = [f"degree {lam.degree}"]
    lines += [f"{text[a]} {text[b]}" for a, b in pairs]
    return "\n".join(lines) + "\n"


def _degree(line: str, seen) -> int:
    """The value of a ``degree d`` header line; ``seen`` is the degree read
    so far (None before the first header)."""
    if seen is not None:
        raise ValueError(f"duplicate degree header {line!r} after degree {seen}")
    parts = line.split()
    if len(parts) != 2:
        raise ValueError(f"degree header needs exactly one value: {line!r}")
    try:
        return int(parts[1])
    except ValueError:
        raise ValueError(f"degree header needs an integer: {line!r}") from None


def parse_lamination(text: str) -> FiniteLamination:
    """The lamination of a lamination file.  Each distinct angle token is
    read once, as its reduced ints n, q; the chords go straight onto the
    ring mod N, N the lcm of the q's, where they are sorted and deduped and
    degenerate ones dropped."""
    degree = None
    ratios = {}  # token -> its reduced (n, q)
    tokens = []  # the two tokens of each chord line, in turn
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.split(None, 1)[0] == "degree":
            degree = _degree(line, degree)
            continue
        if degree is None:
            raise ValueError("lamination file must start with a degree header")
        s, t = chord = _chord_tokens(line)
        if s not in ratios:
            ratios[s] = _ratio(s)
        if t not in ratios:
            ratios[t] = _ratio(t)
        tokens += chord
    if degree is None:
        raise ValueError("missing degree header")
    _check_degree(degree)
    N = lcm(*{q for _, q in ratios.values()})
    at = {token: n * (N // q) for token, (n, q) in ratios.items()}
    xs = list(map(at.__getitem__, tokens))
    pairs = {(a, b) if a < b else (b, a) for a, b in zip(xs[::2], xs[1::2]) if a != b}
    return FiniteLamination._from_ring(degree, N, sorted(pairs))


@dataclass(frozen=True)
class PortraitSpec:
    """Parsed portrait file: ordered critical sets of one lamination."""

    degree: int
    entries: tuple  # ("leaf", Chord) | ("quad", CriticalQuadrilateral) | ("poly", tuple of Angles)

    def initial_chords(self) -> list:
        chords = []
        for kind, obj in self.entries:
            if kind == "leaf":
                chords.append(obj)
            elif kind == "quad":
                chords.extend(obj.edges)
            else:
                chords.extend(Chord(*e) for e in _sides(obj))
        return chords

    def sector_chords(self) -> list:
        """A full collection derived from the entries: quad spikes, polygon
        critical diagonals and critical leaves, greedily without loops."""
        d = self.degree
        candidates = []
        for kind, obj in self.entries:
            if kind == "quad":
                candidates.append(obj.spikes[0])
            elif kind == "poly":
                pairs = (Chord(*e) for e in itertools.combinations(obj, 2))
                diagonals = [c for c in pairs if is_critical(d, c)]
                # a polygon of boundary degree m gives m - 1 branch cuts
                candidates.extend(greedy_no_loop(d, diagonals)[: boundary_degree(d, obj) - 1])
            elif is_critical(d, obj):
                candidates.append(obj)
        chosen = greedy_no_loop(d, candidates)
        if len(chosen) != d - 1:
            raise ValueError(
                f"portrait yields {len(chosen)} branch cuts; degree {d} needs {d - 1}"
            )
        return chosen

    def convex_sets(self) -> list[ConvexSet]:
        out = []
        for kind, obj in self.entries:
            if kind == "leaf":
                out.append(ConvexSet.hull_of(obj))
            elif kind == "quad":
                out.append(ConvexSet.of(obj.hull))
            else:
                out.append(ConvexSet.of(obj))
        return out

    def build(self, depth: int) -> FiniteLamination:
        return pullback_build(
            self.degree, self.initial_chords(), depth, sectors=self.sector_chords()
        )


def parse_portrait(text: str) -> PortraitSpec:
    degree = None
    entries = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "degree":
            degree = _degree(line, degree)
            continue
        if degree is None:
            raise ValueError("portrait file must start with a degree header")
        if parts[0] == "leaf":
            if len(parts) != 3:
                raise ValueError(f"leaf line needs two angles: {line!r}")
            entries.append(("leaf", Chord(Angle(parts[1]), Angle(parts[2]))))
        elif parts[0] == "quad":
            if len(parts) != 5:
                raise ValueError(f"quad line needs four angles: {line!r}")
            entries.append(("quad", make_quadrilateral([Angle(p) for p in parts[1:]], degree)))
        elif parts[0] == "poly":
            # a vertex written twice is one vertex of the polygon
            vertices = tuple(sorted({Angle(p) for p in parts[1:]}))
            if len(vertices) < 3:
                raise ValueError(f"poly line needs at least three distinct angles: {line!r}")
            entries.append(("poly", vertices))
        else:
            raise ValueError(f"unknown portrait line: {line!r}")
    if degree is None:
        raise ValueError("missing degree header")
    _check_degree(degree)
    return PortraitSpec(degree=degree, entries=tuple(entries))


def portrait_text(spec: PortraitSpec) -> str:
    lines = [f"degree {spec.degree}"]
    for kind, obj in spec.entries:
        if kind == "leaf":
            lines.append(f"leaf {obj.a} {obj.b}")
        elif kind == "quad":
            lines.append("quad " + " ".join(str(v) for v in obj.vertices))
        else:
            lines.append("poly " + " ".join(str(v) for v in obj))
    return "\n".join(lines) + "\n"


def tag_report(blocks, matrix) -> str:
    """Key-value blocks per tagged lamination plus a relation matrix.

    ``blocks`` is a list of (name, tag); ``matrix[i][j]`` the relation.
    """
    lines = []
    for name, tag in blocks:
        lines.append(f"[{name}]")
        lines.append(f"cocritical: {tag.cocritical_factor}")
        lines.append(f"minor: {tag.minor_factor}")
        lines.append("")
    lines.append("relations:")
    header = "    " + " ".join(f"{i:>8d}" for i in range(len(blocks)))
    lines.append(header)
    short = {"disjoint": "disj", "equal": "equal", "properly_overlapping": "OVERLAP"}
    for i, row in enumerate(matrix):
        cells = " ".join(f"{short.get(rel, rel):>8s}" for rel in row)
        lines.append(f"{i:>3d} {cells}")
    return "\n".join(lines) + "\n"
