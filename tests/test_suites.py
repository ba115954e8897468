"""Determinism and report formatting of the verification suites."""

import pytest

import lamina.suites as suites
from lamina.lamination import critical_analysis
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
