import math
import random
import time
from concurrent import futures

import pytest

from davlab import fdsolver, randomlab, solver
from davlab.engine import WeightSet, dilation_orbit_reps
from davlab.fdsolver import (
    FdStatus,
    fd,
    fd_fast_k2,
    fd_lower_bound,
    ratio_covers,
)
from davlab.groups import GroupSpec, cyclic, normalize_group, units
from davlab.numtheory import isprime, primerange
from davlab.randomlab import Classification, classify_dav
from davlab.solver import Budget, certify_dav_value, check_dav_at_most, davenport

from conftest import brute_fd


def test_fd_z9_k2():
    res = fd(cyclic(9), 2)
    assert res.status is FdStatus.FINITE
    assert res.value == 2
    assert res.witness_set.residues == (3, 6)
    assert res.sizes_excluded == 1


def test_fd_z7_k2():
    res = fd(cyclic(7), 2)
    assert res.value == 3
    assert res.witness_set.residues == (1, 2, 5)


def test_fd_z5_k2():
    # |A/A| <= 7 for any 2-subset of Z_5*, and covering needs all 4 units
    # plus closure under inversion; exhaustive search settles the value at 3
    assert fd(cyclic(5), 2).value == 3


def test_fd_k1_infinite():
    res = fd(cyclic(5), 1)
    assert res.status is FdStatus.INFINITE
    assert res.value is None
    assert res.sizes_excluded == 4


def test_fd_klein_group():
    klein = normalize_group([2, 2])
    assert fd(klein, 2).status is FdStatus.INFINITE
    assert fd(klein, 3).value == 1


def test_fd_matches_brute_force():
    for n in range(3, 14):
        for k in (2, 3):
            got = fd(cyclic(n), k)
            want = brute_fd(n, k)
            if want is None:
                assert got.status is FdStatus.INFINITE, (n, k)
            else:
                assert got.value == want, (n, k)


def _first_orbit_rep_with_dav_2(p):
    """fd(Z_p, 2) and its witness by the orbit enumeration and the bounded check."""
    for size in range(1, p):
        for rep in dilation_orbit_reps(p, size):
            if check_dav_at_most(cyclic(p), WeightSet(p, rep), 2).holds:
                return size, rep
    return None


def test_fd_fast_k2_equals_general():
    for p in primerange(3, 24):
        want = _first_orbit_rep_with_dav_2(p)
        for res in (fd_fast_k2(p), fd(cyclic(p), 2)):
            assert res.status is FdStatus.FINITE, p
            assert (res.value, res.witness_set.residues) == want, p
            assert res.sizes_excluded == res.value - 1, p
    res = fd_fast_k2(2)
    assert (res.status, res.value, res.witness_set.residues) == (FdStatus.FINITE, 1, (1,))
    # witnesses of the orbit enumeration at sizes it takes seconds to reach
    pinned = {29: (1, 2, 5, 16, 23, 27), 31: (1, 2, 3, 4, 5, 7, 30), 37: (1, 2, 3, 4, 10, 14, 36)}
    for p, witness in pinned.items():
        res = fd_fast_k2(p)
        assert (res.value, res.witness_set.residues) == (len(witness), witness), p


def test_fd_fast_k2_beyond_orbit_enumeration():
    # fd(Z_p, 2) = 8 at p = 41, 43, 47, with the witnesses the orbit
    # enumeration also finds (in 30-90 s each)
    pinned = {
        41: (1, 2, 3, 4, 5, 7, 9, 40),
        43: (1, 2, 3, 4, 5, 6, 25, 39),
        47: (1, 2, 3, 4, 5, 11, 41, 42),
    }
    for p, witness in pinned.items():
        res = fd_fast_k2(p)
        assert (res.status, res.value, res.witness_set.residues) == (FdStatus.FINITE, 8, witness), p
        assert res.sizes_excluded == 7
        assert ratio_covers(p, witness)


def test_fd_budget_unknown():
    res = fd(cyclic(31), 2, budget=Budget(max_nodes=50, max_seconds=None))
    assert res.status is FdStatus.UNKNOWN
    assert res.value is None
    assert res.sizes_excluded >= 0
    assert res.as_comparable  # attribute exists
    with pytest.raises(ValueError):
        res.as_comparable()


def test_fd_budget_checked_inside_search():
    # size 8 at p = 53 alone takes seconds; the time budget stops it mid-size
    t0 = time.perf_counter()
    res = fd_fast_k2(53, Budget(max_nodes=None, max_seconds=0.05))
    assert time.perf_counter() - t0 < 1.0
    assert res.status is FdStatus.UNKNOWN
    assert res.sizes_excluded == 7
    res = fd_fast_k2(31, Budget(max_nodes=1000, max_seconds=None))
    assert res.status is FdStatus.UNKNOWN
    assert 1000 < res.search_stats.nodes <= 1000 + 31


def test_fd_budget_checked_in_orbit_search():
    # the orbit search tests its budget before each candidate: past a zero
    # node budget it stops at the second, after one bounded check
    res = fd(cyclic(31), 3, budget=Budget(max_nodes=0))
    stats = res.search_stats
    assert (res.status, res.value, res.sizes_excluded) == (FdStatus.UNKNOWN, None, 2)
    assert (stats.candidates, stats.checks, stats.nodes) == (1, 1, 2)
    # a zero time budget has expired by the first candidate
    res = fd(cyclic(31), 3, budget=Budget(max_seconds=0))
    assert (res.status, res.sizes_excluded) == (FdStatus.UNKNOWN, 2)
    assert res.search_stats.candidates == 0


def test_fd_comparable():
    assert fd(cyclic(9), 2).as_comparable() == 2
    assert fd(normalize_group([2, 2]), 2).as_comparable() == math.inf


def test_fd_lower_bound():
    assert fd_lower_bound(31, 2) == 6  # ceil(sqrt(30))
    assert fd_lower_bound(7, 2) == 3
    assert fd_lower_bound(101, 3) == 4  # ceil(101^(1/3) - 1) adjusted to search start
    assert fd_lower_bound(3, 2) == 2
    with pytest.raises(ValueError):
        fd_lower_bound(9, 2)
    with pytest.raises(ValueError):
        fd_lower_bound(7, 1)


def test_ratio_covers():
    cases = (
        (7, (1, 2, 5), True),
        (7, (1, 2), False),
        (13, (1, 4, 6, 12), True),
        (7, (1, 2, 3, 4), True),  # covered after the third of four denominators
        (2, (1,), True),
        (3, (1,), False),
    )
    for p, residues, covers in cases:
        assert ratio_covers(p, residues) is covers, (p, residues)
        assert check_dav_at_most(cyclic(p), WeightSet(p, residues), 2).holds is covers, (p, residues)


def _quotients_missed(p, residues):
    quotients = {a * pow(b, -1, p) % p for a in residues for b in residues}
    return p - 1 - len(quotients)


def test_ratio_missing_matches_quotient_set():
    for p in (2, 3, 5, 7, 11, 13):
        for mask in range(1, 1 << (p - 1)):
            rs = [a for a in range(1, p) if mask >> (a - 1) & 1]
            assert fdsolver.ratio_missing(p, rs) == _quotients_missed(p, rs), (p, rs)
    rng = random.Random(97)
    for p in (97, 499, 997):
        for size in (1, 2, 5, 9, 17, 30, 45, 80):
            rs = rng.sample(range(1, p), min(size, p - 1))
            want = _quotients_missed(p, rs)
            assert fdsolver.ratio_missing(p, rs) == want, (p, rs)
            # residues are read mod p, repeats included
            lifted = [a + p * rng.randint(-3, 3) for a in rs] + rs[:2]
            assert fdsolver.ratio_missing(p, lifted) == want, (p, rs)
    assert fdsolver.ratio_missing(2, [1]) == 0
    assert fdsolver.ratio_missing(2, [3, 5]) == 0
    for p, rs in ((2, [2]), (7, [1, 2, 0]), (13, [1, 26, 5]), (97, [-97]), (12, [1, 5])):
        with pytest.raises(ValueError):
            fdsolver.ratio_missing(p, rs)


def test_ratio_missing_paths_agree():
    # few residues form their |A|^2 quotients directly, more go through the
    # log table; both count the same missed units
    def both(p, rs):
        got = fdsolver._missing_by_quotients(p, set(rs)), fdsolver._missing_by_logs(p, set(rs))
        assert got[0] == got[1], (p, rs)
        return got[0]

    for p in (2, 3, 5, 7, 11, 13):
        for mask in range(1, 1 << (p - 1)):
            rs = [a for a in range(1, p) if mask >> (a - 1) & 1]
            assert both(p, rs) == _quotients_missed(p, rs), (p, rs)
    rng = random.Random(499)
    for p in (97, 499, 999983):
        for size in (1, 2, 3, 9, 22, 23, 40):
            rs = rng.sample(range(1, p), size)
            want = both(p, rs)
            assert want == _quotients_missed(p, rs), (p, rs)
            assert fdsolver.ratio_missing(p, rs) == want, (p, rs)
    # the direct path refuses what the log path refuses
    for p, rs in ((999983, [1, 999983]), (999983, [-999983 * 2]), (12, [1, 5]), (2, [2])):
        assert len(rs) ** 2 < p
        with pytest.raises(ValueError):
            fdsolver.ratio_missing(p, rs)


def test_ratio_missing_at_a_large_prime_builds_no_log_table():
    # |A|^2 < p: a tiny A at p near the order limit needs no p-entry table
    fdsolver._discrete_logs.cache_clear()
    assert fdsolver.ratio_missing(999983, [1, 2]) == 999983 - 1 - 3
    assert fdsolver.ratio_missing(999979, [1, 2, 3]) == 999979 - 1 - 7
    assert fdsolver._discrete_logs.cache_info().currsize == 0


def test_fd_value_via_ratio_criterion():
    # D_A(Z_p) <= 2 iff A/A covers the units; fd witness must satisfy it
    res = fd(cyclic(13), 2)
    assert ratio_covers(13, res.witness_set.residues)
    assert res.value == 4


def test_fd_thread_invariance():
    # (Z_13, 2) is the ratio-cover search, the rest the orbit search; both are
    # serial at any thread count, so threads changes no result and no count
    cases = [
        (cyclic(13), 2, 3),
        (cyclic(31), 3, 2),
        (cyclic(25), 3, 2),
        (normalize_group([3, 3]), 3, 2),
    ]
    for group, k, threads in cases:
        a = fd(group, k, threads=1)
        b = fd(group, k, threads=threads)
        assert (a.status, a.value, a.witness_set, a.sizes_excluded) == (
            b.status,
            b.value,
            b.witness_set,
            b.sizes_excluded,
        ), (group, k)
        assert a.search_stats.candidates == b.search_stats.candidates
        assert a.search_stats.nodes == b.search_stats.nodes
    assert fd(cyclic(25), 3).witness_set.residues == (5, 10)


def test_fd_reads_orbit_reps_only_as_far_as_needed(monkeypatch):
    # serially, each size's enumeration stops at its first holding candidate
    drawn = 0

    def counted(n, size):
        nonlocal drawn
        for rep in dilation_orbit_reps(n, size):
            drawn += 1
            yield rep

    monkeypatch.setattr(fdsolver, "dilation_orbit_reps", counted)
    res = fd(cyclic(31), 3, threads=1)
    assert res.value == 4
    assert drawn == res.search_stats.candidates == 162


def test_fd_never_starts_a_process_pool(monkeypatch):
    # bounded search is serial at any thread count: fd's orbit search stops at
    # the first holding representative, culprits refute in the order they are
    # found, and the kernel's root scan stops at the first root that extends
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(solver, "ProcessPoolExecutor", refuse)
    for n, value in ((31, 4), (25, 2)):
        res = fd(cyclic(n), 3, threads=2)
        assert (res.status, res.value) == (FdStatus.FINITE, value), n
    # groups with several roots
    for group, ws, value in (
        (normalize_group([2, 12]), WeightSet(12, (1, 5)), 6),
        (cyclic(12), WeightSet(12, units(12)), 4),
    ):
        assert davenport(group, ws, threads=2).value == value
        assert davenport(group, ws).value == value
        assert check_dav_at_most(group, ws, value, threads=2).holds
        assert not check_dav_at_most(group, ws, value - 1).holds
        assert certify_dav_value(group, ws, value, threads=2)
        assert not certify_dav_value(group, ws, value + 1)
    assert classify_dav(11, WeightSet(11, (1, 2, 3)), 4) is Classification.EQ


def _fd_by_checking_every_rep(group, k):
    """fd's orbit path with a bounded check on every representative:
    (status, value, witness, sizes_excluded, candidates)."""
    exp = group.exponent
    candidates = 0
    for size in range(fdsolver._start_size(group, k), exp):
        for rep in dilation_orbit_reps(exp, size):
            candidates += 1
            if check_dav_at_most(group, WeightSet(exp, rep), k, threads=1).holds:
                return FdStatus.FINITE, size, rep, size - 1, candidates
    return FdStatus.INFINITE, None, None, exp - 1, candidates


# the non-cyclic groups of the benchmark's inverse battery
_NONCYCLIC = (
    (2, 2), (2, 4), (3, 3), (2, 6), (2, 2, 2), (4, 4), (2, 8), (3, 6), (2, 2, 4),
    (5, 5), (2, 10), (3, 9), (2, 2, 2, 2), (6, 6), (3, 3, 3),
)


def test_culprit_refutation_agrees_with_checking_every_rep():
    groups = [cyclic(n) for n in range(2, 33)] + [GroupSpec(fs) for fs in _NONCYCLIC]
    for group in groups:
        for k in (2, 3, 4):
            if k == 2 and group.is_cyclic and isprime(group.order):
                continue  # the ratio-cover search (test_fd_fast_k2_equals_general)
            res = fd(group, k, threads=1)
            witness = res.witness_set.residues if res.witness_set else None
            got = (res.status, res.value, witness, res.sizes_excluded, res.search_stats.candidates)
            assert got == _fd_by_checking_every_rep(group, k), (group, k)
            # the first candidate has no culprit to meet, so gets a bounded check
            checks, candidates = res.search_stats.checks, res.search_stats.candidates
            assert min(candidates, 1) <= checks <= candidates, (group, k)


def test_bounded_checks_go_through_check_dav_at_most(monkeypatch):
    # fd's general path and classify_dav verify by the module-level name
    # check_dav_at_most, which a tracer of the bounded checks wraps: one call
    # per bounded check fd counts, none bypassed by the culprit walk
    calls = []
    real = check_dav_at_most

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fdsolver, "check_dav_at_most", counted)
    for group, k in ((cyclic(9), 2), (cyclic(7), 3), (normalize_group([3, 3]), 3)):
        calls.clear()
        res = fd(group, k)
        assert len(calls) == res.search_stats.checks >= 1, (group, k)
    monkeypatch.setattr(randomlab, "check_dav_at_most", counted)
    # k = 3 with no ratio decision: {1} leaves (1, 1) zero-sum-free, and
    # {1, 6} has a zero-sum there but 6/1 and 1/6 do not cover Z_7*
    for weights, want in (([1], Classification.GT), ([1, 6], Classification.EQ)):
        calls.clear()
        assert classify_dav(7, weights, 3) is want
        assert len(calls) == 1, weights
    # k >= 4: both tests are bounded checks, the k test made only when the
    # k - 1 test fails.  On Z_11, D is 3, 4, 5, 6 for {1, 2, 3, 4}, {1, 2, 3},
    # {1, 3}, {1, 2}
    for weights, k, want, checks in (
        ([1, 2, 3, 4], 4, Classification.LT, 1),
        ([1, 2, 3], 4, Classification.EQ, 2),
        ([1, 3], 4, Classification.GT, 2),
        ([1, 2, 3], 5, Classification.LT, 1),
        ([1, 3], 5, Classification.EQ, 2),
        ([1, 2], 5, Classification.GT, 2),
    ):
        calls.clear()
        assert classify_dav(11, weights, k) is want
        assert [c[2] for c in calls] == [k - 1, k][:checks], (weights, k)


def test_fd_z53_k3():
    # computed by checking every representative too (11,405 bounded-check
    # nodes); the culprits leave 45 bounded checks of 5,686 candidates
    res = fd(cyclic(53), 3)
    assert (res.status, res.value) == (FdStatus.FINITE, 5)
    assert res.witness_set.residues == (1, 2, 3, 4, 52)
    assert res.sizes_excluded == 4
    assert res.search_stats.candidates == 5686
    assert res.search_stats.checks < 100
