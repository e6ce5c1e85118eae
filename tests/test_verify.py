"""Smoke tests for the verification suites.

Each suite is exercised at a reduced size so the whole file stays fast;
the full-size runs live in test_acceptance.py.
"""

import pytest

from davlab.verify import (
    SUITES,
    complement_suite,
    dual_max_suite,
    intervals_suite,
    known_formulas,
    pair_lemma_suite,
    relations_suite,
    singer_suite,
)


def test_known_formulas_small():
    report = known_formulas(max_n=20)
    assert report.ok, report.failures()
    assert report.suite == "known-formulas"
    # five families all contribute checks
    names = {c.name.split()[0] for c in report.checks}
    assert {"pair", "interval", "all", "units", "symmetric"} <= names


def test_known_formulas_check_shape():
    report = known_formulas(max_n=8)
    for c in report.checks:
        assert c.ok
        assert c.computed == c.expected
    d = report.as_dict()
    assert d["suite"] == "known-formulas"
    assert d["ok"] is True
    assert len(d["checks"]) == len(report.checks)


def test_singer_suite_reports_ratio_gaps():
    # census and size checks pass for every q; the ratio criterion holds
    # only for q in {2, 3}.  q = 5 and q = 17 miss units classes no matter
    # which dilation of the index set is chosen, so those two checks stay red.
    report = singer_suite()
    assert not report.ok
    bad = {c.name for c in report.failures()}
    assert bad == {"ratio coverage q=5", "ratio coverage q=17"}


def test_singer_suite_small_q_clean():
    report = singer_suite(qs=(2, 3))
    assert report.ok, report.failures()


def test_intervals_suite_small():
    report = intervals_suite(limit=200)
    assert report.ok, report.failures()
    # aggregate check first, informational size note last
    assert report.checks[0].name.startswith("interval construction")
    assert report.checks[-1].name.startswith("sizes exceeding")
    assert report.checks[-1].ok


def test_suites_that_reach_no_case_refuse_to_run():
    # each bound below reaches no group or prime, so the suite would check
    # nothing and report success
    with pytest.raises(ValueError):
        known_formulas(max_n=1)
    with pytest.raises(ValueError):
        intervals_suite(limit=3)
    assert [c.name for c in intervals_suite(limit=4).checks][0].endswith("odd primes < 4")


def test_relations_suite_battery():
    report = relations_suite()
    assert report.ok, report.failures()
    names = {c.name for c in report.checks}
    assert any("Z9" in n for n in names)
    assert any("Z2xZ2" in n for n in names)


def test_relations_suite_parametrized():
    report = relations_suite(p=3, m=2, k=2)
    assert report.ok, report.failures()


def test_dual_max_suite():
    report = dual_max_suite()
    assert report.ok, report.failures()
    assert len(report.checks) == 6


def test_pair_lemma_suite_small():
    report = pair_lemma_suite(n_max=16)
    assert report.ok, report.failures()


def test_complement_suite_single_prime():
    report = complement_suite(ps=(13,))
    assert report.ok, report.failures()
    # r ranges over 0, 1, 2 for p = 13 (need 4r < p - 1)
    assert len(report.checks) == 3


def test_suite_registry():
    assert set(SUITES) == {
        "known-formulas",
        "singer",
        "intervals",
        "relations",
        "dual-max",
        "pair-lemma",
        "complement",
    }
    for fn in SUITES.values():
        assert callable(fn)
