"""Mutation check of the pullback search, the bulk lamination reader and
the one-pass SVG points.

Each mutant is one textual edit of one file under ``src/lamina``.  For each,
the checkout is copied into a temporary directory, the edit is made there,
and the tier-1 suite runs with ``-x``; the mutant is killed when the run
fails.  One line per mutant gives its name, killed or survived, the seconds
the run took and the first failing test.  The checkout itself is never
edited.  Standard library only; run it from anywhere, with tier-1 passing:

    python tools/mutants.py              # every mutant
    python tools/mutants.py render-x-only cache-on-r
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
TIMEOUT_S = 900

# name -> (file under src/lamina, text that occurs once, its replacement)
MUTANTS = {
    # lamination: the sector-local ambiguous search
    "scan-without-gen0": (
        "lamination.py",
        "itertools.chain(first, placed[k])",
        "itertools.chain(placed[k])",
    ),
    "scan-next-sector": (
        "lamination.py",
        "itertools.chain(first, placed[k])",
        "itertools.chain(first, placed[(k + 1) % d])",
    ),
    "search-leaf-not-placed": (
        "lamination.py",
        "                        new.append(p)\n                        sector.append(p)\n                continue",
        "                        new.append(p)\n                continue",
    ),
    "inline-leaf-not-placed": (
        "lamination.py",
        "                    new.append(p)\n                    sector.append(p)\n        current = new",
        "                    new.append(p)\n        current = new",
    ),
    # formats and circle: the bulk read
    "token-pattern-any-digit": (
        "circle.py",
        '_RATIONAL_LINES = re.compile(f"^{_RATIONAL.pattern}$", re.M)',
        '_RATIONAL_LINES = re.compile(r"^([+-]?\\d+)(?:/(0*[1-9]\\d*))?$", re.M)',
    ),
    "no-two-token-check": (
        "formats.py",
        " or not set(map(len, map(str.split, lines))) <= {0, 2}",
        "",
    ),
    "no-header-check": (
        "formats.py",
        'header[:1] != ["degree"] or ',
        "",
    ),
    "comments-kept": (
        "formats.py",
        '    if "#" in text:\n',
        '    if "#" not in text:\n',
    ),
    "no-degree-check-in-bulk": (
        "formats.py",
        "        _check_degree(degree)\n        qs =",
        "        qs =",
    ),
    # render: the one-pass points
    "render-x-only": (
        "render.py",
        'if t != "%.12g,%.12g" % (x + e, y + e):',
        'if t.split(",")[0] != "%.12g" % (x + e):',
    ),
    "cache-on-r": (
        "render.py",
        "cs = trig.get(m)\n            if cs is None:\n                cs = trig[m] =",
        "cs = trig.get(r)\n            if cs is None:\n                cs = trig[r] =",
    ),
    "cache-across-denominators": (
        "render.py",
        "trig = self._trig if q == self.N else {}",
        "trig = self._trig",
    ),
    "layout-unfixed": (
        "render.py",
        'elif "e" in t or t.count(".") != 2:',
        'elif "e" in t and t.count(".") != 2:',
    ),
}


def mutate(tree: Path, name: str) -> None:
    """Make mutant ``name`` in the copy ``tree``; refuse an edit whose text
    does not occur exactly once, which means the mutant is out of date."""
    file, old, new = MUTANTS[name]
    path = tree / "src" / "lamina" / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"error: mutant {name}: its text occurs {text.count(old)} times in {file}")
    path.write_text(text.replace(old, new))


def run(name: str) -> tuple[str, float, str]:
    """Killed or survived, the seconds tier-1 took, and its first failure."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=ignore)
        mutate(tree, name)
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            done = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed", time.perf_counter() - start, f"timeout after {TIMEOUT_S} s"
        seconds = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    if done.returncode == 0:
        return "survived", seconds, ""
    return "killed", seconds, failed.group(1) if failed else f"exit {done.returncode}"


def main(argv: list[str]) -> int:
    names = argv or list(MUTANTS)
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"error: no mutant named {', '.join(unknown)}; the mutants are {', '.join(MUTANTS)}", file=sys.stderr)
        return 2
    survived = 0
    for name in names:
        verdict, seconds, failure = run(name)
        survived += verdict == "survived"
        print(f"{name:28s} {verdict:8s} {seconds:6.1f} s  {failure}", flush=True)
    print(f"{len(names) - survived} of {len(names)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
