"""Seeded verification suites behind the ``verify`` CLI command.

Each suite samples its inputs with the documented linear generator, runs
the corresponding property at desk scale with exact arithmetic, and returns
a report of pass/fail plus counters.  Every failure is a hard failure: the
properties are exact identities, not statistics.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .circle import THIRD, Angle, _check_int, _record, ccw_offset, cyclic_descents
from .chords import Chord, _sides, linked
from .lamination import (
    FiniteLamination,
    _chord,
    check_unlinked,
    critical_analysis,
    gaps,
    _ring_orbit,
    pullback_build,
)
from .quad_minor import build_from_minor, major_quadrilateral, minor_of, qml_enumerate, strip_between, strip_test
from .qc_portrait import tune_insert
from .accordion import THREE_LEAF, TWO_LEAF_DISJOINT, TWO_LEAF_FLIP, _compgap_ring, _order_preserving_ring
from .cubic_tags import (
    _meeting_pairs,
    ConvexSet,
    FullPortrait,
    classify_tag_relation,
    cocritical_set,
    full_portraits_of,
    linked_pair_cocritical_quads,
    mixed_tag,
    reconstruct,
    separation_check,
    tags_relation,
)
from .sampling import Lcg

__all__ = ["SuiteResult", "SUITES", "run_suite", "sample_cubic_library", "hexagon_fixtures"]

# the largest --samples a suite accepts: a bound that refuses absurd
# requests up front, well above what any suite finishes in minutes
MAX_SUITE_SAMPLES = 1_000_000


@_record("name", "passed", counts=dict, failures=list)
class SuiteResult:
    def lines(self):
        out = [f"suite: {self.name}", f"status: {'pass' if self.passed else 'FAIL'}"]
        for key in sorted(self.counts):
            out.append(f"{key}: {self.counts[key]}")
        for f in self.failures[:20]:
            out.append(f"failure: {f}")
        if len(self.failures) > 20:
            out.append(f"failure: ... and {len(self.failures) - 20} more")
        return out

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"


# ---------------------------------------------------------------------------
# reconstruct: co-critical duality and reconstruction
# ---------------------------------------------------------------------------


def run_reconstruct(samples: int = 1000, seed: int = 1) -> SuiteResult:
    rng = Lcg(seed)
    failures = [] if samples else ["no sample to reconstruct"]
    for i in range(samples):
        # alternate critical leaves and collapsing quadrilaterals
        a = rng.angle()
        leaf = ConvexSet.of([a, Angle(a + THIRD)])
        if reconstruct(leaf) != leaf:
            failures.append(f"critical leaf {leaf} fails reconstruction")
        # a chord shorter than a third has a collapsing co-critical quadrilateral
        quad = cocritical_set(ConvexSet.hull_of(rng.chord_in_window()))
        if reconstruct(quad) != quad:
            failures.append(f"collapsing quadrilateral {quad} fails reconstruction")
    for i in range(samples):
        c = rng.chord_in_window()
        S = ConvexSet.hull_of(c)
        if cocritical_set(cocritical_set(S)) != S:
            failures.append(f"coc o coc != id on {c}")
    return SuiteResult(
        "reconstruct",
        passed=not failures,
        counts={"reconstructions": 2 * samples, "duality_checks": samples},
        failures=failures,
    )


# ---------------------------------------------------------------------------
# linkco: linked chords give strongly linked collapsing co-critical quads
# ---------------------------------------------------------------------------


def run_linkco(samples: int = 1000, seed: int = 1) -> SuiteResult:
    failures = []
    # pinned fixture: the /24 witness chain
    q1, q2, rep = linked_pair_cocritical_quads(
        Chord(Angle(0), Angle(1, 12)), Chord(Angle(1, 24), Angle(1, 8))
    )
    expected_a = tuple(Angle(n, 24) for n in (8, 10, 16, 18))
    expected_b = tuple(Angle(n, 24) for n in (9, 11, 17, 19))
    if not rep.linked or rep.witness != (expected_a, expected_b):
        failures.append(f"fixture witness mismatch: {rep}")
    rng = Lcg(seed)
    for i in range(samples):
        l1, l2 = rng.linked_pair_in_window()
        srep = linked_pair_cocritical_quads(l1, l2)[2]
        if not srep.linked:
            failures.append(f"{l1} / {l2}: quadrilaterals not strongly linked")
            continue
        merged = [v for pair in zip(srep.witness[0], srep.witness[1]) for v in pair]
        if cyclic_descents(merged) > 1:
            failures.append(f"{l1} / {l2}: witness chain not circularly ordered")
    return SuiteResult(
        "linkco",
        passed=not failures,
        counts={"pairs": samples, "fixture": 1},
        failures=failures,
    )


# ---------------------------------------------------------------------------
# shared cubic lamination library
# ---------------------------------------------------------------------------

# hexagonal degree-2 critical gaps found by search: (vertices, second
# critical chord, spike); they provide nontrivial quadrilateral tuning
_HEXAGONS = (
    ((19, 28, 31, 32 + 39, 2 + 39, 5 + 39), 39, (16, 55), 117),
    ((29, 35, 53, 55, 61, 1 + 78), 78, (2, 41), 117),
    ((29, 35, 40, 68, 74, 79), 117, (10, 244), 351),
)


def hexagon_fixtures(depth: int = 3):
    """Laminations with a hexagonal degree-2 critical gap plus a critical
    leaf; used for nontrivial quadrilateral insertion."""
    out = []
    for verts_num, q, (s1, s2), q2 in _HEXAGONS:
        verts = [Angle(n, q) for n in verts_num]
        hexagon = [Chord(*e) for e in _sides(verts)]
        second = Chord(Angle(s1, q2), Angle(s2, q2))
        spike = Chord(verts[0], verts[3])
        lam = pullback_build(3, hexagon + [second], depth, sectors=[spike, second])
        out.append(lam)
    return out


def _quad_portrait(rng: Lcg):
    """Collapsing quadrilateral (as the co-critical set of a short chord
    with preperiodic endpoints) plus a critical leaf in its long hole."""
    for _ in range(64):
        x = rng.preperiodic_cubic_angle()
        y = rng.preperiodic_cubic_angle()
        if not 0 < ccw_offset(x, y) < THIRD:
            continue
        quad = cocritical_set(ConvexSet.of([x, y]))
        edges = list(quad.edges)
        spike = Chord(Angle(x + THIRD), Angle(x + 2 * THIRD))
        # second critical chord inside the hole (y + 2/3, x + 1/3)
        hole_start = Angle(y + 2 * THIRD)
        hole_len = ccw_offset(hole_start, x + THIRD)
        for _ in range(32):
            b = rng.preperiodic_cubic_angle()
            t = Angle(b + THIRD)
            if 0 < ccw_offset(hole_start, b) < hole_len and 0 < ccw_offset(hole_start, t) < hole_len:
                second = Chord(b, t)
                if any(linked(second, e) for e in edges):
                    continue
                return edges + [second], [spike, second]
    return None


def sample_cubic_library(rng: Lcg, count: int):
    """Pullback-built cubic laminations from distinct sampled portraits with
    two distinct critical sets, heuristically dendritic, built to depth 3."""
    library = []
    seen = set()
    attempts = 0
    while len(library) < count and attempts < 100 * count:
        attempts += 1
        if rng.below(3) < 2:
            portrait, sectors = list(rng.disjoint_critical_pair()), None
        else:
            sampled = _quad_portrait(rng)
            if sampled is None:
                continue
            portrait, sectors = sampled
        key = tuple(sorted(portrait))
        if key in seen:
            continue
        seen.add(key)
        try:
            lam = pullback_build(3, portrait, 3, sectors=sectors)
        except ValueError:  # an InconsistentPortrait among them
            continue
        if not heuristically_dendritic(lam):
            continue
        if len(critical_analysis(lam).critical_sets) != 2:
            continue
        library.append(lam)
    return library


def heuristically_dendritic(lam: FiniteLamination) -> bool:
    """Finite-depth stand-in for dendriticity: no arc-bearing gap whose
    vertex set recurs (the footprint a Fatou gap would leave).  The gaps are
    read from :func:`critical_analysis`, which walks them once per lamination.

    A recurring vertex set is permuted by an iterate of sigma_d, so all its
    vertices are periodic, and n/q is periodic iff q is prime to d; a gap
    is skipped unfollowed when the lcm of its q, N // gcd(N, *xs) on the
    lamination's ring, is not; on that ring the orbit is as on the reduced one."""
    d = lam.degree
    for g in critical_analysis(lam).arc_gaps:
        N, xs = g.ring
        if math.gcd(N // math.gcd(N, *xs), d) != 1:
            continue
        found = _ring_orbit(d, N, frozenset(xs), 16)
        if found is not None and found[0] == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# crifar: 1/12 separation of distinct critical sets
# ---------------------------------------------------------------------------


def _short_library(library, requested: int) -> list:
    """A failure line when the sampler gave up short of the requested count,
    or when there is no sampled lamination to check at all."""
    if len(library) < requested:
        return [f"sampled {len(library)} of {requested} requested laminations"]
    if not library:
        return ["no sampled lamination to check"]
    return []


def run_crifar(samples: int = 100, seed: int = 1) -> SuiteResult:
    library = sample_cubic_library(Lcg(seed), samples)
    failures = _short_library(library, samples)
    for idx, lam in enumerate(library):
        first, second = [ConvexSet.hull_of(s) for s in critical_analysis(lam).critical_sets]
        gap = separation_check(first, second)
        if gap < Fraction(1, 12):
            failures.append(f"lamination {idx}: separation {gap} < 1/12 for {first} / {second}")
    return SuiteResult(
        "crifar",
        passed=not failures,
        counts={"laminations": len(library)},
        failures=failures,
    )


# ---------------------------------------------------------------------------
# maintag: tags pairwise disjoint-or-equal, tuning shrinks tags
# ---------------------------------------------------------------------------


def _tag_pair_failures(tagged) -> list[str]:
    """The failure line of each pair of ``tagged`` (lamination index,
    portrait, tag) triples whose tags overlap, or are equal and come from
    distinct laminations, in the order of a scan over all pairs.

    Tags whose minor factors miss each other are disjoint, so only the pairs
    whose minor factors meet are related: the scan is output-sensitive (see
    ``cubic_tags._meeting_pairs``)."""
    failures = []
    for i, j in _meeting_pairs([tag.minor_factor for _, _, tag in tagged]):
        (lam_i, _, tag_i), (lam_j, _, tag_j) = tagged[i], tagged[j]
        rel = tags_relation(tag_i, tag_j)
        if rel == "properly_overlapping":
            failures.append(f"tags overlap: {tag_i} (lam {lam_i}) vs {tag_j} (lam {lam_j})")
        elif rel == "equal" and lam_i != lam_j:
            failures.append(f"equal tags from distinct laminations {lam_i} / {lam_j}")
    return failures


def run_maintag(samples: int = 100, seed: int = 1) -> SuiteResult:
    library = sample_cubic_library(Lcg(seed), samples)
    failures = _short_library(library, samples)
    library += hexagon_fixtures()
    tagged = []
    for idx, lam in enumerate(library):
        for fp in full_portraits_of(lam):
            try:
                tagged.append((idx, fp, mixed_tag(lam, fp)))
            except ValueError as exc:
                failures.append(f"lamination {idx}: tag failure {exc}")
    failures += _tag_pair_failures(tagged)

    # the intersection dichotomy must agree with the containment cases on a
    # slice of pairs (including same-lamination opposite orderings)
    pairs = list(itertools.combinations(tagged[:24], 2))
    for (idx_i, fp_i, _), (idx_j, fp_j, _) in pairs:
        rep = classify_tag_relation(library[idx_i], fp_i, library[idx_j], fp_j)
        if not rep.consistent:
            failures.append(
                f"dichotomy mismatch for lam {idx_i} vs lam {idx_j}: relation {rep.relation}"
            )

    tunings = 0
    for idx, lam in enumerate(library):
        analysis = critical_analysis(lam)
        sets = [ConvexSet.hull_of(s) for s in analysis.critical_sets]
        for g in analysis.critical_gaps:
            try:  # tune_insert refuses what is no degree-2 gap of four or more vertices
                lam2, quad = tune_insert(lam, g)
            except ValueError:
                continue
            coarse = ConvexSet.hull_of(g)
            fine = ConvexSet.of(quad.vertices)
            other = sets[0] if sets[1] == coarse else sets[1]
            for fp_coarse, fp_fine in (
                (FullPortrait(coarse, other), FullPortrait(fine, other)),
                (FullPortrait(other, coarse), FullPortrait(other, fine)),
            ):
                tunings += 1
                if not fp_fine.refines(fp_coarse):
                    failures.append(f"lamination {idx}: tuned portrait does not refine")
                    continue
                t_coarse = mixed_tag(None, fp_coarse)
                t_fine = mixed_tag(None, fp_fine)
                if not t_coarse.contains(t_fine):
                    failures.append(
                        f"lamination {idx}: tag {t_fine} escapes {t_coarse} after tuning"
                    )
    return SuiteResult(
        "maintag",
        passed=not failures,
        counts={
            "laminations": len(library),
            "tags": len(tagged),
            "relations": len(tagged) * (len(tagged) - 1) // 2,
            "dichotomy_checks": len(pairs),
            "tunings": tunings,
        },
        failures=failures,
    )


# ---------------------------------------------------------------------------
# compgap: exhaustive accordion classification at small periods
# ---------------------------------------------------------------------------


def _compgap_universe(kmax: int):
    N = math.lcm(*[3**k - 1 for k in range(1, kmax + 1)])
    pts = set()
    for k in range(1, kmax + 1):
        q = 3**k - 1
        step = N // q
        pts.update(j * step for j in range(q))
    pts = sorted(pts)
    period = {}
    for p in pts:
        pre, orbit = _ring_orbit(3, N, p)
        period[p] = len(orbit) - pre
    return N, pts, period


def _survivor_pairs(kmax: int):
    """All linked pairs of equal-endpoint-period chords (denominators
    dividing 3^k - 1, k <= kmax) with mutually order preserving accordions,
    via integer arithmetic modulo the common denominator: N, the linked pair
    count, and each surviving pair mapped to its two (preperiod, orbit)s."""
    N, pts, period = _compgap_universe(kmax)
    # leaf-eligible chords: equal endpoint periods and a pairwise unlinked
    # forward orbit (leaves of an invariant lamination satisfy both)
    orbit = {}
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            if period[a] != period[b]:
                continue
            pre, o = _ring_orbit(3, N, (a, b))
            if not any(linked(u, v) for k, u in enumerate(o) for v in o[k + 1 :]):
                orbit[a, b] = pre, o
    chords = list(orbit)

    survivors = {}
    nlinked = 0
    for i, c1 in enumerate(chords):
        for c2 in chords[i + 1 :]:
            if not linked(c1, c2):
                continue
            nlinked += 1
            if _order_preserving_ring(3, N, c1, c2):
                survivors[c1, c2] = orbit[c1], orbit[c2]
    return N, nlinked, survivors


def _classify_case(d: int, N: int, axis, partner):
    """Crossing-pattern case of a linked, mutually order preserving periodic
    pair on the ring mod N, the sorted int pair ``axis`` and the other
    chord's (preperiod, orbit); returns (case name, detail) or (None, reason)."""
    pre, orbit = partner
    # the other chord crosses the axis and begins its orbit: crossing[0] is 0
    crossing = [k for k, c in enumerate(orbit) if linked(axis, c)]
    x, y = orbit[0]
    if len(crossing) == 1:
        if pre:
            return None, "single crossing with preperiodic partner"
        ends = [_ring_orbit(d, N, p) for p in (*axis, x, y)]
        if any(e[0] for e in ends):
            return None, "non-periodic endpoint"
        periods = sorted({len(o) for _, o in ends})
        if pow(d, len(orbit), N) * x % N == y:  # back after its period, ends swapped
            if periods != [2 * len(orbit)]:
                return None, "flip with wrong endpoint periods"
            return TWO_LEAF_FLIP, f"flip power {len(orbit)}"
        if len(periods) != 1:
            return None, f"mixed endpoint periods {periods}"
        # the axis's ends, then the other's: the test is symmetric in the two chords
        orbits = [frozenset(o) for _, o in ends]
        if orbits[0] == orbits[1] or orbits[2] == orbits[3]:
            return None, "shared endpoint orbit without flip"
        return TWO_LEAF_DISJOINT, "four orbit check"
    if len(crossing) == 2:
        # the recrossing image, orbit[k] for k = crossing[1], must either be
        # separated from its source by the axis or fix the other chord's ends
        m = pow(d, crossing[1], N)
        u, v = m * x % N, m * y % N
        separated = linked(axis, sorted((x, u))) and linked(axis, sorted((y, v)))
        if not (separated or (u, v) == (x, y)):
            return None, "recrossing image neither separated nor fixed"
        return THREE_LEAF, "two crossing images"
    return None, f"{len(crossing)} crossing images"


def run_compgap(samples: int = 0, seed: int = 1) -> SuiteResult:
    """Exhaustive: every linked equal-period pair (denominators dividing
    3^k - 1, k <= 4) with mutually order preserving accordions falls in
    exactly one case, and its hull orbit closes into a polygon with 2 to 4
    vertex orbits of one period.  ``samples`` > 0 caps the pairs that get
    the full exact treatment (0 = all)."""
    N, nlinked, survivors = _survivor_pairs(4)
    failures = []
    counts = {"linked_pairs": nlinked, "order_preserving_pairs": len(survivors)}
    case_counts: dict[str, int] = {}
    chosen = list(survivors.items())[: samples or None]
    for (c1, c2), ((pre1, o1), (pre2, o2)) in chosen:
        l1, l2 = _chord(N, c1), _chord(N, c2)
        # order preservation forces images of crossing leaves to keep crossing;
        # the k-th image is read off the orbit, past its end round its cycle
        for k in range(1, min(len(o1) * len(o2), 24) + 1):
            img1 = o1[k if k < pre1 else pre1 + (k - pre1) % (len(o1) - pre1)]
            img2 = o2[k if k < pre2 else pre2 + (k - pre2) % (len(o2) - pre2)]
            if not linked(img1, img2):
                failures.append(f"{l1} / {l2}: images {_chord(N, img1)} / {_chord(N, img2)} no longer cross")
                break
        case, detail = _classify_case(3, N, c1, (pre2, o2))
        if case is None:
            failures.append(f"unclassified pair {l1} / {l2}: {detail}")
            continue
        case_counts[case] = case_counts.get(case, 0) + 1
        cg = _compgap_ring(3, N, c1, c2)
        if cg.classification != "periodic_gap":
            failures.append(f"{l1} / {l2}: hull orbit did not close ({cg.classification})")
            continue
        if not 2 <= len(cg.orbit_groups) <= 4:
            failures.append(f"{l1} / {l2}: {len(cg.orbit_groups)} vertex orbits")
        if len(set(cg.periods)) != 1:
            failures.append(f"{l1} / {l2}: unequal orbit periods {cg.periods}")
    counts.update({f"case_{k}": v for k, v in case_counts.items()})
    counts["classified"] = len(chosen)
    return SuiteResult("compgap", passed=not failures, counts=counts, failures=failures)


# ---------------------------------------------------------------------------
# qml-unlinked: Lavaurs' chords pass the strip test and agree with built minors
# ---------------------------------------------------------------------------


def run_qml(samples: int = 0, seed: int = 1) -> SuiteResult:
    """Exhaustive at period 6: there is nothing to sample, so a positive
    ``samples`` is refused."""
    if samples:
        raise ValueError(f"suite qml-unlinked is exhaustive and reads no sample count, got {samples}")
    q = qml_enumerate(6)
    # Lavaurs' algorithm drew these chords; the strip test and the sweep check them
    failures = [f"Lavaurs chord {c} fails the strip test" for c in q if not strip_test(c).passes]
    ok, pair = check_unlinked(FiniteLamination(2, q))
    if not ok:
        failures.append(f"enumerated chords cross: {pair[0]} x {pair[1]}")
    rabbit_minor = Chord(Angle(1, 7), Angle(2, 7))
    bad_minor = Chord(Angle(2, 7), Angle(4, 7))
    if rabbit_minor not in q:
        failures.append("enumeration misses 1/7 2/7")
    if bad_minor in q:
        failures.append("enumeration contains 2/7 4/7")
    cross = strips = 0
    for m in q:
        lam = build_from_minor(m, depth=4)
        rep = minor_of(lam)
        cross += 1
        if rep.minor != m:
            failures.append(f"built minor {rep.minor} != {m}")
            continue
        expected_majors = set(major_quadrilateral(m)[2])
        if set(rep.majors) != expected_majors:
            failures.append(f"majors of {m}: {rep.majors} != preimage pair")
            continue
        if len(rep.majors) == 2:
            major = rep.majors[0]
            if strip_between(*rep.majors).first_entry(major) is not None:
                failures.append(f"image of major {major} enters its central strip")
            strips += 1
    # the length-1/3 minor is reachable through the built-lamination path only
    basilica = build_from_minor(Chord(Angle(1, 3), Angle(2, 3)), depth=4)
    if minor_of(basilica).minor != Chord(Angle(1, 3), Angle(2, 3)):
        failures.append("basilica minor mismatch")
    return SuiteResult(
        "qml-unlinked",
        passed=not failures,
        counts={"enumerated": len(q), "cross_validated": cross, "central_strips": strips},
        failures=failures,
    )


# ---------------------------------------------------------------------------
# gaptrans: structural checks on generated laminations
# ---------------------------------------------------------------------------


def _fixture_laminations():
    fixtures = [
        # the rabbit: its major quadrilateral, with the spike 1/14 4/7
        build_from_minor(Chord(Angle(1, 7), Angle(2, 7)), 5),
        build_from_minor(Chord(Angle(1, 3), Angle(2, 3)), 5),
    ]
    tri = [Chord(Angle(0), Angle(1, 3)), Chord(Angle(1, 3), Angle(2, 3)), Chord(Angle(0), Angle(2, 3))]
    fixtures.append(pullback_build(3, tri, 3))
    A = lambda n: Angle(n, 2184)
    qn = [Chord(A(1009), A(1026)), Chord(A(1026), A(1737)), Chord(A(1737), A(1754)), Chord(A(1754), A(1009))]
    qw = [Chord(A(114), A(193)), Chord(A(193), A(842)), Chord(A(842), A(921)), Chord(A(921), A(114))]
    fixtures.append(pullback_build(3, qn + qw, 3, sectors=[Chord(A(1009), A(1737)), Chord(A(114), A(842))]))
    fixtures += hexagon_fixtures()
    return fixtures


def run_gaptrans(samples: int = 12, seed: int = 1) -> SuiteResult:
    library = sample_cubic_library(Lcg(seed), samples)
    fixtures = _fixture_laminations() + library
    failures = _short_library(library, samples)
    counts = {"laminations": len(fixtures), "periodic_gaps": 0, "leaves": 0, "edges": 0}
    for idx, lam in enumerate(fixtures):
        d = lam.degree
        N, pairs = lam.ring
        counts["leaves"] += len(pairs)
        # (preperiod, period) of each endpoint, followed once on the ring
        ends = {x: _ring_orbit(d, N, x) for x in set(itertools.chain.from_iterable(pairs))}
        ends = {x: (pre, len(orbit) - pre) for x, (pre, orbit) in ends.items()}
        for pair in pairs:
            for a, b in (pair, pair[::-1]):
                (pre, period), other = ends[a], ends[b][1]
                if pre == 0 and other != period:
                    failures.append(
                        f"lam {idx}: leaf {_chord(N, pair)} has periodic endpoint of period "
                        f"{period} but companion period {other}"
                    )
        for g in gaps(lam):
            if not g.finite:
                continue
            N, xs = g.ring
            found = _ring_orbit(d, N, frozenset(xs), 64)
            if found is None or found[0] != 0:
                continue
            counts["periodic_gaps"] += 1
            # the cycles of sigma_d^k = sigma_{d^k}, k the gap's period, on its vertices
            orbits = {frozenset(_ring_orbit(d ** len(found[1]), N, x)[1]) for x in xs}
            is_dgon_fixed = len(xs) == d and all(len(o) == 1 for o in orbits)
            if not (is_dgon_fixed or len(orbits) <= d - 1):
                failures.append(
                    f"lam {idx}: periodic gap {g} has {len(orbits)} vertex orbits under the remap"
                )
            if d == 2 and len(orbits) != 1:
                failures.append(f"lam {idx}: degree-2 remap not transitive on {g}")
            counts["edges"] += len(g.edges)
    return SuiteResult("gaptrans", passed=not failures, counts=counts, failures=failures)


SUITES = {
    "crifar": run_crifar,
    "linkco": run_linkco,
    "reconstruct": run_reconstruct,
    "compgap": run_compgap,
    "maintag": run_maintag,
    "qml-unlinked": run_qml,
    "gaptrans": run_gaptrans,
}


def run_suite(name: str, samples: int | None, seed: int) -> SuiteResult:
    """Run one suite; ``samples`` None takes the suite's default, any other
    must be an int (no bool) from 0 to ``MAX_SUITE_SAMPLES``, else ValueError."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if samples is None:
        return SUITES[name](seed=seed)
    _check_int("--samples", samples, 0, MAX_SUITE_SAMPLES)
    return SUITES[name](samples, seed)
