"""Determinism and report formatting of the verification suites."""

import itertools

import pytest

import lamina.suites as suites
from lamina.accordion import accordion
from lamina.circle import Angle, sigma_power
from lamina.chords import Chord, linked
from lamina.lamination import critical_analysis, orbit_classify
from lamina.sampling import Lcg
from lamina.suites import SUITES, hexagon_fixtures, run_suite, sample_cubic_library


def test_suites_are_deterministic_under_fixed_seed():
    a = run_suite("reconstruct", 50, 9)
    b = run_suite("reconstruct", 50, 9)
    assert (a.passed, a.counts, a.failures) == (b.passed, b.counts, b.failures)
    c = run_suite("crifar", 10, 5)
    d = run_suite("crifar", 10, 5)
    assert (c.passed, c.counts) == (d.passed, d.counts)
    assert c.counts["laminations"] == 10


def test_seed_changes_samples():
    a = run_suite("crifar", 10, 5)
    b = run_suite("crifar", 10, 6)
    assert a.passed and b.passed
    assert a.counts["laminations"] == 10 and b.counts["laminations"] == 10


def test_report_text_blocks():
    res = run_suite("linkco", 5, 1)
    text = res.text()
    assert text.startswith("suite: linkco\nstatus: pass")
    assert "pairs: 5" in text


def test_registry_names():
    assert sorted(SUITES) == [
        "compgap",
        "crifar",
        "gaptrans",
        "linkco",
        "maintag",
        "qml-unlinked",
        "reconstruct",
    ]


@pytest.mark.parametrize("name", ["crifar", "maintag", "gaptrans"])
def test_short_sample_library_fails(monkeypatch, name):
    monkeypatch.setattr(suites, "sample_cubic_library", lambda rng, count, depth=3: [])
    res = run_suite(name, 3, 1)
    assert not res.passed
    assert any("requested laminations" in f for f in res.failures)


def test_compgap_counts_pinned():
    counts = run_suite("compgap", 0, 1).counts
    assert counts["linked_pairs"] == 47103
    assert counts["order_preserving_pairs"] == 122
    assert counts["case_three_leaf"] == 100
    assert counts["case_two_leaf_periodic_flip"] == 22


def test_gaptrans_fails_without_samples():
    res = run_suite("gaptrans", 0, 1)
    assert not res.passed
    assert "no sampled lamination to check" in res.failures


def test_sampled_and_hexagon_laminations_have_two_critical_sets():
    # crifar and maintag read exactly two critical sets off every lamination
    # they check, and neither suite tests for it: the sampler keeps no other
    lams = [lam for seed in range(1, 6) for lam in sample_cubic_library(Lcg(seed), 20)]
    assert len(lams) == 100
    for lam in lams + hexagon_fixtures(3):
        assert len(critical_analysis(lam).critical_sets) == 2


def _single_crossing_oracle(d, l1, l2, partner):
    """The single-crossing cases derived from the orbits themselves: the
    partner's preperiod, the endpoints' periods and the flip by
    ``sigma_power``, without the accordion's classification."""
    pinfo = orbit_classify(d, partner)
    if pinfo.preperiod != 0:
        return None, "single crossing with preperiodic partner"
    endpoints = [orbit_classify(d, p) for p in l1.endpoints + l2.endpoints]
    if any(e.preperiod for e in endpoints):
        return None, "non-periodic endpoint"
    if sigma_power(d, partner.a, pinfo.period) == partner.b:
        if any(e.period != 2 * pinfo.period for e in endpoints):
            return None, "flip with wrong endpoint periods"
        return "two_leaf_periodic_flip", f"flip power {pinfo.period}"
    if len({e.period for e in endpoints}) != 1:
        return None, f"mixed endpoint periods {sorted({e.period for e in endpoints})}"
    orbits = [frozenset(orbit_classify(d, p).orbit) for p in l2.endpoints + l1.endpoints]
    if orbits[0] == orbits[1] or orbits[2] == orbits[3]:
        return None, "shared endpoint orbit without flip"
    return "two_leaf_periodic_disjoint_orbits", "four orbit check"


def test_classify_case_single_crossing_agrees_with_orbit_oracle():
    # every linked pair of cubic chords on the points j/8 and j/9: the j/9
    # are preperiodic, and the pairs reach each single-crossing outcome
    points = sorted({Angle(j, q) for q in (8, 9) for j in range(q)})
    chords = [Chord(a, b) for a, b in itertools.combinations(points, 2)]
    seen = set()
    for l1, l2 in itertools.permutations(chords, 2):
        if not linked(l1, l2):
            continue
        crossing = accordion(l1, l2, d=3).members[1:]
        if len(crossing) == 1:
            got = suites._classify_case(3, l1, l2)
            assert got == _single_crossing_oracle(3, l1, l2, crossing[0]), (l1, l2)
            seen.add(got[1].split()[0] if got[0] is None else got[0])
    assert seen == {
        "single", "non-periodic", "flip", "mixed", "shared",
        "two_leaf_periodic_flip", "two_leaf_periodic_disjoint_orbits",
    }
