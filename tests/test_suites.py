"""Determinism and report formatting of the verification suites."""

import importlib
import itertools
from unittest import mock

import pytest

import lamina.suites as suites
from lamina.accordion import accordion
from lamina.circle import Angle, _ring, sigma_power
from lamina.chords import Chord, linked
from lamina.lamination import FiniteLamination, _chord, _ring_orbit, critical_analysis, orbit_classify
from lamina.sampling import Lcg
from lamina.suites import SUITES, hexagon_fixtures, run_suite, sample_cubic_library

# the package's ``accordion`` attribute is the function of that name
_ACCORDION = importlib.import_module("lamina.accordion")


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


def test_compgap_decides_each_linked_pair_with_one_lockstep(monkeypatch):
    # each survivor's hull orbit is the one _ends_orbit returned for it, so
    # the hull analysis runs no second lockstep
    counted = mock.Mock(wraps=_ACCORDION._ends_orbit)
    monkeypatch.setattr(_ACCORDION, "_ends_orbit", counted)
    monkeypatch.setattr(suites, "_ends_orbit", counted, raising=False)
    res = suites.run_compgap()
    assert res.passed and res.counts["linked_pairs"] == counted.call_count == 47103


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


def _on_ring(d, l1, l2):
    """``_classify_case``'s arguments for the axis l1 and the other chord l2:
    their ring N, the axis pair and l2's (preperiod, orbit)."""
    N, (a, b, x, y) = _ring((*l1, *l2))
    return N, (a, b), _ring_orbit(d, N, (x, y))


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
            got = suites._classify_case(3, *_on_ring(3, l1, l2))
            assert got == _single_crossing_oracle(3, l1, l2, crossing[0]), (l1, l2)
            seen.add(got[1].split()[0] if got[0] is None else got[0])
    assert seen == {
        "single", "non-periodic", "flip", "mixed", "shared",
        "two_leaf_periodic_flip", "two_leaf_periodic_disjoint_orbits",
    }


def _classify_case_oracle(d, l1, l2):
    """The crossing-pattern cases as the accordion and the Angle orbits of
    both chords give them."""
    rep = accordion(l1, l2, d=d)
    crossing = rep.members[1:]
    if len(crossing) == 1:
        return _single_crossing_oracle(d, l1, l2, crossing[0])
    if len(crossing) == 2:
        other = crossing[1]
        k = orbit_classify(d, l2).orbit.index(other)
        x, y = l2.endpoints
        separated = linked(l1, Chord(x, sigma_power(d, x, k))) and linked(
            l1, Chord(y, sigma_power(d, y, k))
        )
        fixed = sigma_power(d, x, k) == x and sigma_power(d, y, k) == y
        if not (separated or fixed):
            return None, "recrossing image neither separated nor fixed"
        return "three_leaf", "two crossing images"
    return None, f"{len(crossing)} crossing images"


def test_classify_case_agrees_with_the_accordion_oracle():
    # every linked pair of chords on the points j/8 and j/9 (d = 3) and j/7
    # and j/6 (d = 2), whatever its crossing count, and every compgap survivor
    seen = set()
    for d, qs in ((3, (8, 9)), (2, (7, 6))):
        points = sorted({Angle(j, q) for q in qs for j in range(q)})
        chords = [Chord(a, b) for a, b in itertools.combinations(points, 2)]
        for l1, l2 in itertools.permutations(chords, 2):
            if linked(l1, l2):
                got = suites._classify_case(d, *_on_ring(d, l1, l2))
                assert got == _classify_case_oracle(d, l1, l2), (d, l1, l2)
                seen.add(got[1])
    assert {"two crossing images", "recrossing image neither separated nor fixed"} <= seen
    assert any(reason.endswith("crossing images") and reason[0].isdigit() for reason in seen)
    N, _, survivors = suites._survivor_pairs(4)
    for (c1, c2), (_, partner, _) in survivors.items():
        got = suites._classify_case(3, N, c1, partner)
        assert got == _classify_case_oracle(3, _chord(N, c1), _chord(N, c2)), (c1, c2)


@pytest.mark.parametrize("name", sorted(SUITES))
@pytest.mark.parametrize("samples", [-1, True, 10**30, 2.0, "3"])
def test_run_suite_refuses_a_sample_count_that_is_no_int_in_range(name, samples):
    with pytest.raises(ValueError, match=f"between 0 and 1000000, got {samples!r}"):
        run_suite(name, samples, 1)


def test_gaptrans_pins_the_failures_of_a_leaf_with_unequal_endpoint_periods(monkeypatch):
    # under doubling 1/7 has period 3 and 1/3 period 2: each end's line
    leaf = FiniteLamination(2, [Chord(Angle(1, 7), Angle(1, 3))])
    monkeypatch.setattr(suites, "_fixture_laminations", lambda: [])
    monkeypatch.setattr(suites, "sample_cubic_library", lambda rng, count: [leaf])
    res = run_suite("gaptrans", 1, 1)
    assert not res.passed
    assert res.counts == {"laminations": 1, "periodic_gaps": 0, "leaves": 1, "edges": 0}
    assert res.failures == [
        "lam 0: leaf 1/7 1/3 has periodic endpoint of period 3 but companion period 2",
        "lam 0: leaf 1/7 1/3 has periodic endpoint of period 2 but companion period 3",
    ]
