"""The four benchmark workloads: seeded inputs, operations and exact checks.

Every workload draws its operations from a finite pool that setup builds
without running any timed library call.  The seed only chooses which pool
items each repetition uses and in which order, so every operation an
arbitrary seed can produce has an output digest pinned in ``pins.json``.
An operation fails when it raises outside its expected rejection set, when
one of its exact checks fails, or when its output digest differs from the
pinned one.

One repetition ("rep") is the workload's fixed job.  Rep ``r`` of seed
``s`` is the same on every run, so traced and untraced runs can be
compared rep by rep.

Op times are calibrated.  The speed of a shared host swings by up to 40%
within seconds and drifts over minutes, so the log times a fixed
exact-arithmetic kernel (:func:`calibration_kernel`) after every op and,
from an interval timer, every ``SAMPLE_EVERY_S`` seconds inside long ops.
An op's wall time, less the time spent in those samples, is scaled by
``CALIBRATION_REF_S`` over the mean kernel time of the samples from the
one just before the op to the one just after it.  The host's swings are
fast, so wider windows calibrate worse.  Scaled times read as seconds on a
machine where the kernel takes ``CALIBRATION_REF_S``; raw wall times are
kept beside them.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import random
import signal
import statistics
import time
from fractions import Fraction
from pathlib import Path

import lamina
from lamina import Angle, Chord, ConvexSet, FullPortrait
from lamina.chords import chord_image
from lamina.cubic_tags import classify_tag_relation, full_portraits_of, geometry_checks
from lamina.formats import lamination_text, parse_lamination, parse_portrait
from lamina.lamination import InconsistentPortrait
from lamina.quad_minor import build_from_minor, major_quadrilateral, strip_between
from lamina.render import render_svg
from lamina.sampling import Lcg
from lamina.suites import heuristically_dendritic, hexagon_fixtures

PINS_PATH = Path(__file__).with_name("pins.json")
ONE_THIRD = Fraction(1, 3)
# the kernel's time on a quiet 2-core x86-64 box at 2.1 GHz
CALIBRATION_REF_S = 0.0005
SAMPLE_EVERY_S = 0.02


def calibration_kernel():
    """Fraction arithmetic, hashing and object churn, like the library's."""
    seen = {}
    total = Fraction(0)
    for i in range(1, 100):
        x = Fraction(i * 7919, 1031) % 1
        seen[x] = i
        total += x
    return total


def kernel_seconds() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def leaves_text(lam) -> str:
    return "\n".join(map(str, lam.leaves))


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


class OpLog:
    """Times operations, calibrated and raw, and records their outcome.

    ``run`` calls ``fn(problems)``, which returns ``(output bytes, rejection
    reason or None)`` and appends a message to ``problems`` for each exact
    check that fails.  ``pins`` maps operation keys to digests; ``None``
    records digests without checking them (used to make the pins).
    """

    def __init__(self, pins, tracer=None):
        self.pins = pins
        self.tracer = tracer
        self.samples: list[tuple[float, float]] = []  # (end time, kernel seconds)
        self._take_sample()
        self.spans: list[tuple[float, float]] = []  # (start, end) of each op
        self.latencies: list[float] = []
        self.keys: list[str] = []
        self.digests: dict[str, str] = {}
        self.failures: list[str] = []
        self.rejects: dict[str, int] = {}
        self.attempted = 0

    def _take_sample(self):
        start = time.perf_counter()
        calibration_kernel()
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self._take_sample()
        self._sampling_s += time.perf_counter() - start

    def run(self, key: str, fn):
        problems: list[str] = []
        if self.tracer is not None:
            self.tracer.begin_op()
        self._sampling_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            output, rejected = fn(problems)
        except Exception as exc:  # any raise outside the rejection set fails the op
            output, rejected = None, None
            problems.append(f"raised {exc.__class__.__name__}: {exc}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        self._take_sample()
        self.spans.append((start, end))
        self.latencies.append(end - start - self._sampling_s)
        self.attempted += 1
        self.keys.append(key)
        if output is not None:
            got = digest(output)
            self.digests[key] = got
            if self.pins is not None:
                want = self.pins.get(key)
                if want is None:
                    problems.append("no pinned digest")
                elif want != got:
                    problems.append(f"digest {got} != pinned {want}")
        if problems:
            self.failures.append(f"{key}: {'; '.join(problems)}")
        elif rejected is not None:
            self.rejects[rejected] = self.rejects.get(rejected, 0) + 1

    @property
    def failed(self) -> int:
        return len(self.failures)

    def scaled(self) -> list[float]:
        """Calibrated op times."""
        times = [t for t, _ in self.samples]
        out = []
        for (start, end), elapsed in zip(self.spans, self.latencies):
            lo = bisect.bisect_left(times, start) - 1
            hi = bisect.bisect_right(times, end) + 1
            kernel = statistics.fmean(k for _, k in self.samples[lo:hi])
            out.append(elapsed * CALIBRATION_REF_S / kernel)
        return out

    def kernel_median(self) -> float:
        return statistics.median(k for _, k in self.samples)


def _check(problems, ok, message):
    if not ok:
        problems.append(message)


# ---------------------------------------------------------------------------
# deep-pullback
# ---------------------------------------------------------------------------


class DeepPullback:
    """Large laminations: every shipped portrait plus quadratic minors.

    Each rep builds the six shipped portraits at fixed depths and four
    seeded period-5 minors at depths 3 to 6 (78 to 638 leaves).  All
    period-5 minors give the same leaf count at a given depth, so the seed
    changes the inputs but not the size profile of a rep.  The depths space
    the ten op costs apart by a quarter or more near the top, so the tail
    percentile lands inside one group of equal-sized ops, not on the noise
    between two groups of nearly equal cost.
    """

    name = "deep-pullback"
    nominal_rep_s = 4.5
    SHIPPED = (
        ("quadratic/rabbit", 4),
        ("quadratic/basilica", 5),
        ("cubic/hexagon", 2),
        ("cubic/leafpair", 4),
        ("cubic/quadleaf", 3),
        ("cubic/triangle", 4),
    )
    MINOR_PERIOD = 5
    MINOR_DEPTHS = (3, 4, 5, 6)

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.portraits = {
            name: parse_portrait((root / "portraits" / f"{name}.portrait").read_text())
            for name, _ in self.SHIPPED
        }
        self.minors = [
            c
            for c in lamina.qml_enumerate(self.MINOR_PERIOD)
            if lamina.orbit_classify(2, c.a).period == self.MINOR_PERIOD
        ]
        self.sizes: dict[str, int] = {}

    max_reps = 1000

    def _item(self, source, depth):
        if isinstance(source, str):
            spec = self.portraits[source]
            return f"portrait {source}@{depth}", lambda: spec.build(depth), depth
        return f"minor {source}@{depth}", lambda: build_from_minor(source, depth), depth

    def pool(self):
        """Every (key, build, depth) an operation can use."""
        for name, depth in self.SHIPPED:
            yield self._item(name, depth)
        for m in self.minors:
            for depth in self.MINOR_DEPTHS:
                yield self._item(m, depth)

    def plan(self, r: int):
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        items = [self._item(name, depth) for name, depth in self.SHIPPED]
        minors = rng.sample(self.minors, len(self.MINOR_DEPTHS))
        items += [self._item(m, depth) for m, depth in zip(minors, self.MINOR_DEPTHS)]
        rng.shuffle(items)
        return items

    def rep(self, r: int, log: OpLog):
        for key, build, depth in self.plan(r):
            log.run(key, lambda problems, k=key, b=build, d=depth: self.op(k, b, d, problems))

    def op(self, key, build, depth, problems):
        lam = build()
        self.sizes[key] = len(lam)
        ok, pair = lamina.check_unlinked(lam)
        _check(problems, ok, f"leaves cross: {pair}")
        faces = lamina.gaps(lam)
        inv = lamina.check_invariance(lam, depth)
        _check(problems, inv.ok, "invariance violated")
        ca = lamina.critical_analysis(lam)
        text = lamination_text(lam)
        _check(problems, parse_lamination(text) == lam, "text round trip differs")
        svg = render_svg(lam)
        summary = (
            f"gaps {len(faces)}\ncritical leaves {' | '.join(map(str, ca.critical_leaves))}\n"
            f"critical gaps {' | '.join(map(str, ca.critical_gaps))}\n"
            f"clusters {len(ca.critical_clusters)} skipped {ca.skipped_infinite_gaps}\n"
        )
        return (text + summary + svg).encode(), None


# ---------------------------------------------------------------------------
# cubic-tags
# ---------------------------------------------------------------------------


def _quad_portrait(rng: Lcg):
    """A collapsing quadrilateral (the co-critical set of a short chord with
    preperiodic endpoints) plus a critical leaf in its long hole, drawn the
    way the maintag suite draws it."""
    for _ in range(64):
        x = rng.preperiodic_cubic_angle()
        y = rng.preperiodic_cubic_angle()
        if not 0 < (y - x) % 1 < ONE_THIRD:
            continue
        quad = ConvexSet.of(
            [Angle(x + ONE_THIRD), Angle(y + ONE_THIRD), Angle(x + 2 * ONE_THIRD), Angle(y + 2 * ONE_THIRD)]
        )
        edges = list(quad.edges)
        spike = Chord(Angle(x + ONE_THIRD), Angle(x + 2 * ONE_THIRD))
        hole_start = Angle(y + 2 * ONE_THIRD)
        hole_len = (Angle(x + ONE_THIRD) - hole_start) % 1
        for _ in range(32):
            b = rng.preperiodic_cubic_angle()
            t = Angle(b + ONE_THIRD)
            if 0 < (b - hole_start) % 1 < hole_len and 0 < (t - hole_start) % 1 < hole_len:
                second = Chord(b, t)
                if any(lamina.linked(second, e) for e in edges):
                    continue
                return tuple(edges) + (second,), (spike, second)
    return None


class CubicTags:
    """Many small cubic laminations at depth 3 and their mixed tags.

    The pool is the first ``POOL_SIZE`` distinct portraits drawn with
    ``Lcg(POOL_SEED)``: two thirds critical-leaf pairs, one third a
    collapsing quadrilateral plus a leaf, each with two linked chord pairs
    for the geometry checks.  The seed shuffles the pool; each rep takes
    portraits in that order until ``ACCEPT_PER_REP`` are accepted, with the
    hexagon fixtures as one extra operation at a seeded position.
    """

    name = "cubic-tags"
    nominal_rep_s = 3.8
    POOL_SEED = 20140517
    POOL_SIZE = 600
    DEPTH = 3
    ACCEPT_PER_REP = 16
    CLASSIFY_AGAINST = 4
    HEXAGONS = "hexagons"

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        rng = Lcg(self.POOL_SEED)
        self.entries = {}
        while len(self.entries) < self.POOL_SIZE:
            if rng.below(3) < 2:
                c1, c2 = rng.disjoint_critical_pair()
                chords, sectors = (c1, c2), None
            else:
                sampled = _quad_portrait(rng)
                if sampled is None:
                    continue
                chords, sectors = sampled
            key = "portrait " + " ".join(map(str, sorted(chords)))
            samples = (rng.linked_pair_in_window(), rng.linked_pair_in_window())
            self.entries.setdefault(key, (chords, sectors, samples))
        self.order = sorted(self.entries)
        random.Random(f"{self.name}:{seed}").shuffle(self.order)
        self.cursor = 0
        self.drawn = self.accepted = 0

    # a rep draws about 1.5 portraits per acceptance; stay inside the pool
    max_reps = POOL_SIZE // (2 * ACCEPT_PER_REP)

    def pool(self):
        yield self.HEXAGONS, None
        for key, entry in self.entries.items():
            yield key, entry

    def process(self, entry, problems):
        """Everything an operation does that depends on its own portrait
        only.  Returns (output, rejection, [(lamination, portraits, tags)])."""
        if entry is None:
            lams = hexagon_fixtures(self.DEPTH)
        else:
            chords, sectors, _ = entry
            try:
                lams = [lamina.pullback_build(3, list(chords), self.DEPTH, sectors=sectors)]
            except InconsistentPortrait:
                return b"rejected inconsistent", "inconsistent", []
        out = []
        tagged = []
        for lam in lams:
            if not heuristically_dendritic(lam):
                return b"rejected not_dendritic", "not_dendritic", []
            analysis = lamina.critical_analysis(lam)
            if len(analysis.critical_sets) != 2:
                return b"rejected critical_sets", "critical_sets", []
            portraits = full_portraits_of(lam)
            tags = [lamina.mixed_tag(lam, fp) for fp in portraits]
            samples = entry[2] if entry is not None else ()
            geo = geometry_checks(lam, samples)
            _check(problems, geo.ok, f"geometry checks fail: {geo}")
            out.append(leaves_text(lam))
            out += [f"tag {fp} -> {tag}" for fp, tag in zip(portraits, tags)]
            out.append(f"geometry {sorted(geo.checked.items())}")
            out += self._tunings(lam, analysis, problems)
            tagged.append((lam, portraits, tags))
        return "\n".join(out).encode(), None, tagged

    def _tunings(self, lam, analysis, problems):
        sets = [
            ConvexSet.of(s.endpoints) if isinstance(s, Chord) else ConvexSet.of(s.vertices)
            for s in analysis.critical_sets
        ]
        lines = []
        for g in analysis.critical_gaps:
            if len(g.vertices) < 4 or lamina.gap_degree(3, g) != 2:
                continue
            try:
                tuned, quad = lamina.tune_insert(lam, g)
            except ValueError as exc:
                lines.append(f"tune {g} refused: {exc}")
                continue
            coarse = ConvexSet.of(g.vertices)
            fine = ConvexSet.of(quad.vertices)
            other = sets[0] if sets[1] == coarse else sets[1]
            for fp_coarse, fp_fine in (
                (FullPortrait(coarse, other), FullPortrait(fine, other)),
                (FullPortrait(other, coarse), FullPortrait(other, fine)),
            ):
                _check(problems, fp_fine.refines(fp_coarse), f"tuned portrait of {g} does not refine")
                t_coarse = lamina.mixed_tag(None, fp_coarse)
                t_fine = lamina.mixed_tag(None, fp_fine)
                _check(problems, t_coarse.contains(t_fine), f"tag {t_fine} escapes {t_coarse}")
            lines.append(f"tune {g} -> {quad} leaves {len(tuned)}")
        return lines

    def rep(self, r: int, log: OpLog):
        """Reps must run in order: each continues where the last stopped."""
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        hexagon_at = rng.randrange(self.ACCEPT_PER_REP)
        state = {"tags": [], "lams": [], "accepted": 0}
        while state["accepted"] < self.ACCEPT_PER_REP:
            if state["accepted"] == hexagon_at:
                hexagon_at = -1
                log.run(self.HEXAGONS, lambda problems: self.op(None, state, problems))
                continue
            key = self.order[self.cursor % len(self.order)]
            self.cursor += 1
            self.drawn += 1
            log.run(key, lambda problems, e=self.entries[key]: self.op(e, state, problems))

    def op(self, entry, state, problems):
        output, rejected, tagged = self.process(entry, problems)
        if entry is not None and rejected is None:
            state["accepted"] += 1
            self.accepted += 1
        for lam, portraits, tags in tagged:
            index = len(state["lams"])
            for tag in tags:
                for other_index, other in state["tags"]:
                    if other_index == index:
                        continue
                    relation = lamina.tags_relation(tag, other)
                    _check(
                        problems,
                        relation == "disjoint",
                        f"tag {tag} is {relation} with the tag {other} of another lamination",
                    )
            for other_lam, other_portraits in state["lams"][-self.CLASSIFY_AGAINST:]:
                report = classify_tag_relation(lam, portraits[0], other_lam, other_portraits[0])
                _check(problems, report.consistent, f"tag dichotomy inconsistent: {report.relation}")
            state["tags"] += [(index, tag) for tag in tags]
            state["lams"].append((lam, portraits))
        return output, rejected


# ---------------------------------------------------------------------------
# qml
# ---------------------------------------------------------------------------


class Qml:
    """One quadratic minor enumeration, then one validation per minor.

    The seed sets the order of the validation operations.  Minors are
    validated at depth 3, except the three of period 3 at depth 6: they are
    the slowest validations by a factor of two or more, so the tail
    percentile reads a fixed group of ops rather than the timing noise on a
    hundred nearly identical ones.
    """

    name = "qml"
    nominal_rep_s = 5.0
    PERIOD = 7
    DEPTH = 3
    DEEP_DENOMINATOR, DEEP_DEPTH = 7, 6  # period-3 minors have endpoints k/7
    ENUMERATE = f"enumerate {PERIOD}"

    def __init__(self, seed: int, root: Path):
        self.seed = seed

    max_reps = 1000

    def rep(self, r: int, log: OpLog):
        found = []
        log.run(self.ENUMERATE, lambda problems: self.enumerate(found, problems))
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        rng.shuffle(found)
        for m in found:
            depth = self.DEEP_DEPTH if m.a.denominator == self.DEEP_DENOMINATOR else self.DEPTH
            log.run(f"minor {m}@{depth}", lambda problems, m=m, d=depth: self.validate(m, d, problems))

    def enumerate(self, found, problems):
        chords = lamina.qml_enumerate(self.PERIOD)
        _check(problems, chords == sorted(set(chords)), "enumeration is not sorted and distinct")
        found += chords
        return "\n".join(map(str, chords)).encode(), None

    def validate(self, m, depth, problems):
        lam = build_from_minor(m, depth)
        report = lamina.minor_of(lam)
        _check(problems, report.minor == m, f"built minor {report.minor} != {m}")
        majors = major_quadrilateral(m)[2]
        _check(problems, set(report.majors) == set(majors), f"majors {report.majors} != {majors}")
        if len(report.majors) == 2:
            strip = strip_between(*report.majors)
            major = img = report.majors[0]
            seen = {major}
            while True:
                img = chord_image(2, img)
                if strip.meets_open(img):
                    problems.append(f"image {img} of major {major} enters the central strip")
                    break
                if img in seen:
                    break
                seen.add(img)
        inv = lamina.check_invariance(lam, depth)
        _check(problems, inv.ok, "invariance violated")
        return (leaves_text(lam) + f"\nmajors {' | '.join(map(str, report.majors))}").encode(), None


# ---------------------------------------------------------------------------
# accordions
# ---------------------------------------------------------------------------


class Accordions:
    """Accordions of linked, equal-period cubic leaves.

    The universe is every leaf-eligible chord (equal endpoint periods, a
    pairwise unlinked forward orbit) with denominators dividing 3^k - 1,
    k <= 4.  An op's cost follows its number of linked partners, so the
    universe is ranked by that count and cut into ``AXES_PER_REP`` strata
    of neighbours.  Rep r takes one seeded axis from every stratum, and
    every rep has about the same cost profile whatever the seed.
    """

    name = "accordions"
    nominal_rep_s = 2.2
    DENOMINATORS = (2, 8, 26, 80)
    AXES_PER_REP = 60
    CASES = ("two_leaf_periodic_flip", "two_leaf_periodic_disjoint_orbits", "three_leaf")

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        points = sorted({Angle(j, q) for q in self.DENOMINATORS for j in range(q)})
        period = {p: lamina.orbit_classify(3, p).period for p in points}
        self.by_period: dict[int, list] = {}
        self.period = {}
        for i, a in enumerate(points):
            for b in points[i + 1:]:
                if period[a] != period[b]:
                    continue
                c = Chord(a, b)
                orbit = lamina.orbit_classify(3, c).orbit
                if any(lamina.linked(u, v) for k, u in enumerate(orbit) for v in orbit[k + 1:]):
                    continue
                self.period[c] = period[a]
                self.by_period.setdefault(period[a], []).append(c)
        partners = self._partner_counts()
        ranked = sorted(self.period, key=lambda c: (partners[c], c))
        n, k = len(ranked), self.AXES_PER_REP
        rng = random.Random(f"{self.name}:{seed}")
        self.strata = [rng.sample(ranked[i * n // k:(i + 1) * n // k], n // k) for i in range(k)]
        self.max_reps = n // k

    def _partner_counts(self) -> dict:
        """Linked equal-period partners of each chord, counted on integer
        positions so that ranking the universe stays cheap."""
        n = math.lcm(*self.DENOMINATORS)
        counts = {}
        for chords in self.by_period.values():
            ends = [(c, c.a.numerator * (n // c.a.denominator), c.b.numerator * (n // c.b.denominator))
                    for c in chords]
            for c, a, b in ends:
                counts[c] = sum(
                    (a < x < b) != (a < y < b) for _, x, y in ends if x != a and x != b and y != a and y != b
                )
        return counts

    def axes(self, r: int) -> list:
        axes = [stratum[r] for stratum in self.strata]
        random.Random(f"{self.name}:{self.seed}:{r}").shuffle(axes)
        return axes

    def pool(self):
        for axis in sorted(self.period):
            yield f"axis {axis}", axis

    def rep(self, r: int, log: OpLog):
        for axis in self.axes(r):
            log.run(f"axis {axis}", lambda problems, a=axis: self.op(a, problems))

    def op(self, axis, problems):
        tested = 0
        lines = []
        for other in self.by_period[self.period[axis]]:
            if other == axis or not lamina.linked(axis, other):
                continue
            tested += 1
            if not lamina.order_preserving_accordions(3, axis, other):
                continue
            report = lamina.accordion(axis, other, d=3)
            _check(problems, report.classification in self.CASES, f"{other}: case {report.classification}")
            # order preservation forces the images of crossing leaves to keep crossing
            closure = lamina.orbit_classify(3, axis).closes_at * lamina.orbit_classify(3, other).closes_at
            img1, img2 = axis, other
            for _ in range(min(closure, 24)):
                img1, img2 = chord_image(3, img1), chord_image(3, img2)
                if not lamina.linked(img1, img2):
                    problems.append(f"{other}: images {img1} / {img2} no longer cross")
                    break
            cg = lamina.compgap_analyze(3, axis, other)
            _check(problems, cg.classification == "periodic_gap", f"{other}: hull orbit did not close")
            _check(problems, 2 <= len(cg.orbit_groups) <= 4, f"{other}: {len(cg.orbit_groups)} vertex orbits")
            _check(problems, len(set(cg.periods)) == 1, f"{other}: unequal orbit periods {cg.periods}")
            lines.append(
                f"{other} {report.classification} r={cg.r} step={cg.step} "
                f"vertices={' '.join(map(str, cg.vertices))} periods={cg.periods} "
                f"identity={cg.remap_is_identity}"
            )
        lines.insert(0, f"tested {tested} survivors {len(lines)}")
        return "\n".join(lines).encode(), None


WORKLOADS = {w.name: w for w in (DeepPullback, CubicTags, Qml, Accordions)}
