"""Acceptance criteria, one test per criterion.

Every check is exact rational arithmetic (equality means equality of reduced
fractions); each test prints a single pass/fail line with its runtime and
asserts the stated budget.  Run with ``pytest tests/test_acceptance.py -v``.
"""

import time

from lamina.circle import Angle, Arc
from lamina.chords import Chord, chord_image, linked, sibling_collections
from lamina.lamination import check_unlinked, FiniteLamination, orbit_classify
from lamina.quad_minor import qml_enumerate
from lamina.suites import run_suite

A = Angle


def C(p, q, r, s):
    return Chord(A(p, q), A(r, s))


def _report(criterion, name, ok, elapsed, budget):
    print(f"criterion {criterion} ({name}): {'pass' if ok else 'FAIL'} "
          f"in {elapsed:.2f}s (budget {budget}s)")
    assert ok, f"criterion {criterion} ({name}) failed"
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_period_six_orbit_fixture():
    start = time.time()
    M = C(342, 728, 579, 728)
    info = orbit_classify(3, M)
    ok = info.preperiod == 0 and info.period == 6
    expected = [(342, 579), (298, 281), (166, 115), (498, 345), (38, 307), (114, 193)]
    got = [tuple(sorted((c.a * 728, c.b * 728))) for c in info.orbit]
    ok = ok and got == [tuple(sorted(p)) for p in expected]

    ok = ok and check_unlinked(FiniteLamination(3, info.orbit))[0]

    N = C(38, 728, 307, 728)
    colls = sibling_collections(3, N)
    ok = ok and len(colls) == 1
    Nprime = C(193, 2184, 842, 2184)
    ok = ok and Nprime in colls[0]

    image_of_M = chord_image(3, M)
    ok = ok and image_of_M == C(894, 2184, 843, 2184)
    wide_arc = Arc(A(842, 2184), A(921, 2184))
    ok = ok and all(wide_arc.contains(p) for p in image_of_M.endpoints)
    _report(1, "period-six cubic orbit fixture", ok, time.time() - start, 1.0)


def test_criterion_2_quadratic_minor_suite():
    start = time.time()
    q = qml_enumerate(6)
    ok = C(1, 7, 2, 7) in q
    ok = ok and C(2, 7, 4, 7) not in q
    ok = ok and all(
        not linked(q[i], q[j]) for i in range(len(q)) for j in range(i + 1, len(q))
    )
    result = run_suite("qml-unlinked", 0, 1)
    ok = ok and result.passed and result.counts["cross_validated"] == len(q)
    _report(2, "quadratic minor enumeration", ok, time.time() - start, 60.0)


def test_criterion_3_reconstruction_and_duality():
    start = time.time()
    result = run_suite("reconstruct", 1000, 7)
    ok = result.passed and result.counts["duality_checks"] == 1000
    _report(3, "co-critical reconstruction and duality", ok, time.time() - start, 10.0)


def test_criterion_4_linked_cocritical_quadrilaterals():
    start = time.time()
    result = run_suite("linkco", 1000, 7)
    ok = result.passed and result.counts["pairs"] == 1000
    _report(4, "strongly linked co-critical quadrilaterals", ok, time.time() - start, 10.0)


def test_criterion_5_min_separation():
    start = time.time()
    result = run_suite("crifar", 100, 7)
    ok = result.passed and result.counts["laminations"] >= 100
    _report(5, "one-twelfth separation of critical sets", ok, time.time() - start, 60.0)


def test_criterion_6_tag_partition_and_tuning():
    start = time.time()
    result = run_suite("maintag", 100, 7)
    ok = result.passed and result.counts["laminations"] >= 100 and result.counts["tunings"] > 0
    _report(6, "mixed tags disjoint-or-equal with tuned refinements", ok, time.time() - start, 300.0)


def test_criterion_7_accordion_classification():
    start = time.time()
    result = run_suite("compgap", 0, 7)
    ok = result.passed and result.counts["order_preserving_pairs"] == result.counts["classified"]
    _report(7, "exhaustive accordion case classification", ok, time.time() - start, 300.0)


def test_criterion_8_structural_checks():
    start = time.time()
    result = run_suite("gaptrans", 12, 7)
    ok = result.passed and result.counts["periodic_gaps"] > 0
    _report(8, "vertex-orbit and edge structure of generated laminations", ok, time.time() - start, 60.0)
