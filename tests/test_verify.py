"""Smoke tests for the verification suites.

Each suite is exercised at a reduced size so the whole file stays fast;
the full-size runs live in test_acceptance.py.
"""

import dataclasses

import pytest

from davlab import verify
from davlab.solver import davenport
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


@pytest.mark.parametrize("kwargs", [{"m": 5, "k": 3}, {"m": 3}, {"k": 2}])
def test_relations_suite_refuses_m_or_k_without_p(kwargs):
    # the fixed battery reads neither, so it would report ok on checks it never ran
    with pytest.raises(ValueError, match="need p"):
        relations_suite(**kwargs)


@pytest.mark.parametrize("m", [1, 0])
def test_relations_suite_refuses_m_below_two(monkeypatch, m):
    # m = 1 would pass on checks that compare fd(Z_p, k) with itself
    monkeypatch.setattr(verify, "fd", None)  # refused before any fd call
    with pytest.raises(ValueError, match="must be >= 2"):
        relations_suite(p=3, m=m)


@pytest.mark.parametrize("p, m, k", [(3, 2, 2), (5, 2, 2), (2, 3, 2), (2, 2, 4)])
def test_relations_suite_parametrized(p, m, k):
    report = relations_suite(p=p, m=m, k=k)
    assert report.ok, report.failures()
    # the coprime product bound needs m to be a prime other than p
    names = ["prime-power-collapse", "coprime-product-bound", "elementary-tower-monotone"]
    if m == p:
        names.remove("coprime-product-bound")
    assert [c.name for c in report.checks] == names
    tower = report.checks[-1].computed
    assert list(tower) == [f"fd((Z{p})^{i},{k})" for i in range(1, m + 1)]


def test_dual_max_suite():
    report = dual_max_suite()
    assert report.ok, report.failures()
    assert len(report.checks) == 6


def test_pair_lemma_suite_small():
    report = pair_lemma_suite(n_max=20)
    assert report.ok, report.failures()
    (check,) = report.checks
    assert check.computed == f"{sum(n - 1 for n in range(2, 21))} cases, 0 violations"
    with pytest.raises(ValueError):
        pair_lemma_suite(n_max=1)


def test_pair_lemma_suite_names_first_violation(monkeypatch):
    # a D above the bound for {2, 4} mod 6 (x = 2 and x = 4) must fail the
    # suite and name the first violating case
    def fake(group, weights):
        res = davenport(group, weights)
        if weights.exponent == 6 and weights.residues == (2, 4):
            return dataclasses.replace(res, value=99)
        return res

    monkeypatch.setattr(verify, "davenport", fake)
    report = pair_lemma_suite(n_max=8)
    assert not report.ok
    (check,) = report.failures()
    assert check.computed == "28 cases, 2 violations, first (n, x, D, bound) = (6, 2, 99, 3)"


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
