import itertools
import math
import random

import pytest

from davlab.engine import WeightSet
from davlab.fdsolver import ratio_covers
from davlab.groups import GroupOrderError, cyclic
from davlab.randomlab import (
    Classification,
    SweepConfig,
    SweepRow,
    classify_dav,
    sample_theta_random,
    theoretical_window,
    threshold_sweep,
    trial_seed,
)
from davlab.solver import Budget, check_dav_at_most, davenport
from davlab.verify import pair_lemma_suite


def test_sweep_config_validation():
    ok = SweepConfig(p=101, k=2, theta_grid=(0.1, 0.2), trials=5, seed=0)
    assert ok.omega == 10.0
    with pytest.raises(ValueError):
        SweepConfig(p=100, k=2, theta_grid=(0.1,), trials=5, seed=0)
    with pytest.raises(ValueError):
        SweepConfig(p=101, k=1, theta_grid=(0.1,), trials=5, seed=0)
    with pytest.raises(ValueError):
        SweepConfig(p=101, k=2, theta_grid=(0.2, 0.1), trials=5, seed=0)
    with pytest.raises(ValueError):
        SweepConfig(p=101, k=2, theta_grid=(0.0, 0.1), trials=5, seed=0)
    with pytest.raises(ValueError):
        SweepConfig(p=101, k=2, theta_grid=(0.1,), trials=0, seed=0)
    with pytest.raises(GroupOrderError):
        SweepConfig(p=1000003, k=2, theta_grid=(0.1,), trials=1, seed=0)
    with pytest.raises(ValueError):
        SweepConfig(p=101, k=2, theta_grid=(0.1,), trials=5, seed=0, omega=float("nan"))
    with pytest.raises(ValueError):
        SweepConfig(p=101, k=2, theta_grid=(0.1,), trials=5, seed=0, omega=float("inf"))


def test_classify_refuses_modulus_past_order_limit():
    # refused before the ratio criterion builds a (p-1)-bit set
    with pytest.raises(GroupOrderError):
        classify_dav(1000003, [1, 2], 2)
    with pytest.raises(GroupOrderError):
        classify_dav(10**24 + 7, [1], 2)


def test_sweep_row_invariant():
    with pytest.raises(ValueError):
        SweepRow(theta=0.1, empirical_p_le=0.4, empirical_p_eq=0.5, mean_size=1.0, trials_empty=0)


def test_trial_seed_mixing_is_stable():
    # frozen values pin the documented mixing function
    assert trial_seed(0, 0, 0) == 2338581469882944449
    assert trial_seed(1, 2, 3) == 11977774311544980739
    assert trial_seed(0, 0, 1) != trial_seed(0, 1, 0)


def test_sample_theta_random():
    s1 = sample_theta_random(101, 0.1, random.Random(7))
    s2 = sample_theta_random(101, 0.1, random.Random(7))
    assert s1 == s2
    with pytest.raises(ValueError):
        sample_theta_random(101, 1.0, random.Random(0))
    # extremely small density: empty comes back as None
    empties = sum(
        1 for i in range(50) if sample_theta_random(11, 0.001, random.Random(i)) is None
    )
    assert empties >= 45


def test_sample_binomial_mean():
    sizes = []
    for i in range(1000):
        s = sample_theta_random(101, 0.1, random.Random(trial_seed(0, 0, i)))
        sizes.append(len(s) if s else 0)
    mean = sum(sizes) / len(sizes)
    se = math.sqrt(100 * 0.1 * 0.9 / 1000)
    assert abs(mean - 10.0) <= 3 * se


def test_classify_examples():
    assert classify_dav(7, range(1, 7), 3) is Classification.LT
    assert classify_dav(7, [1], 3) is Classification.GT
    assert classify_dav(7, [2, 3, 4], 2) is Classification.EQ
    with pytest.raises(ValueError):
        classify_dav(8, [1], 2)
    with pytest.raises(ValueError):
        classify_dav(7, WeightSet(11, (1, 2)), 2)


def test_classify_past_the_table_bound():
    # at a prime past 2^17 the bounded check refuses Z_p for its move tables,
    # but the ratio criterion builds none, so k = 2 and an LT at k = 3 are
    # still classified
    p = 131101
    with pytest.raises(GroupOrderError):
        check_dav_at_most(cyclic(p), WeightSet(p, (1,)), 2)
    assert classify_dav(p, [1, 2, 3], 2) is Classification.GT
    m = math.isqrt(p)
    interval = [*range(1, m + 1), *range(p - m, p)]  # A/A = Z_p*, and 1 + (p - 1) = 0
    assert classify_dav(p, interval, 3) is Classification.LT


def test_classify_agrees_with_full_solver():
    rng = random.Random(41)
    primes = [5, 7, 11, 13, 17, 19, 23, 29, 31]
    cases = []
    for _ in range(100):
        p = rng.choice(primes)
        size = rng.randint(1, min(5, p - 1))
        ws = WeightSet(p, tuple(sorted(rng.sample(range(1, p), size))))
        cases.append((p, ws, rng.randint(1, 5)))
    # dense weight sets: D_A <= 2 is decided by the ratio criterion, both as
    # the k = 2 test and as the k - 1 test of k = 3
    for _ in range(60):
        p = rng.choice([37, 41, 43])
        size = rng.randint(1, rng.choice((8, p - 1)))
        ws = WeightSet(p, tuple(sorted(rng.sample(range(1, p), size))))
        cases.append((p, ws, rng.choice((2, 3, 4))))
    ratio_outcomes = set()
    for p, ws, k in cases:
        if k in (2, 3):
            ratio_outcomes.add((k, ratio_covers(p, ws.residues)))
        value = davenport(cyclic(p), ws).value
        got = classify_dav(p, ws, k)
        want = (
            Classification.LT if value < k
            else Classification.EQ if value == k
            else Classification.GT
        )
        assert got is want, (p, ws, k, value)
    assert ratio_outcomes == {(2, False), (2, True), (3, False), (3, True)}


def test_classify_at_two_skips_the_pretest():
    # [1] is zero-sum-free under every A on Z_p, so D_A(Z_p) >= 2 and k = 2
    # is never LT: the ratio criterion alone decides EQ against GT
    for p in (3, 5, 7, 11):
        for size in range(1, p):
            for ws in itertools.combinations(range(1, p), size):
                value = davenport(cyclic(p), WeightSet(p, ws)).value
                want = Classification.EQ if value == 2 else Classification.GT
                assert classify_dav(p, ws, 2) is want, (p, ws, value)


def test_theoretical_window_values():
    lo, hi = theoretical_window(499, 2, 10.0)
    assert hi == 1.0
    assert abs(lo - math.sqrt((2 * math.log(499) + 10) / 499)) < 1e-12
    assert abs(lo - 0.21199) < 1e-4
    lo3, hi3 = theoretical_window(499, 3, 10.0)
    assert abs(lo3 - (9 * 499 * (math.log(499) + 10)) ** (1 / 3) / 499) < 1e-12
    assert abs(hi3 - math.sqrt(499) / 4990) < 1e-12
    # at this scale the displayed window is empty; the sweep records that
    assert lo3 > hi3
    # omega monotonicity
    assert theoretical_window(499, 3, 20.0)[0] > lo3
    assert theoretical_window(499, 3, 20.0)[1] < hi3
    with pytest.raises(ValueError):
        theoretical_window(499, 1)


def test_threshold_sweep_rows_and_invariants():
    cfg = SweepConfig(p=31, k=2, theta_grid=(0.15, 0.3, 0.6), trials=30, seed=9)
    res = threshold_sweep(cfg, threads=1)
    assert [r.theta for r in res.rows] == [0.15, 0.3, 0.6]
    assert not res.partial
    for row in res.rows:
        assert 0 <= row.empirical_p_eq <= row.empirical_p_le <= 1
    csv = res.to_csv()
    assert csv.splitlines()[0] == "theta,p_le,p_eq,mean_size,empty,trials"
    assert len(csv.splitlines()) == 4


def test_threshold_sweep_thread_invariance():
    cfg = SweepConfig(p=101, k=2, theta_grid=(0.2, 0.4), trials=24, seed=3)
    a = threshold_sweep(cfg, threads=1)
    b = threshold_sweep(cfg, threads=4)
    assert a.rows == b.rows
    assert a.to_csv() == b.to_csv()


def test_threshold_sweep_csv_pinned():
    k2 = SweepConfig(p=101, k=2, theta_grid=(0.15, 0.25, 0.35), trials=20, seed=7)
    assert threshold_sweep(k2, threads=1).to_csv() == (
        "theta,p_le,p_eq,mean_size,empty,trials\n"
        "0.15,0.150000,0.150000,15.550000,0,20\n"
        "0.25,0.950000,0.950000,24.600000,0,20\n"
        "0.35,0.950000,0.950000,34.000000,0,20\n"
    )
    k3 = SweepConfig(p=101, k=3, theta_grid=(0.04, 0.1, 0.3), trials=20, seed=7)
    assert threshold_sweep(k3, threads=1).to_csv() == (
        "theta,p_le,p_eq,mean_size,empty,trials\n"
        "0.04,0.050000,0.050000,4.550000,0,20\n"
        "0.1,0.700000,0.700000,9.900000,0,20\n"
        "0.3,1.000000,0.150000,28.500000,0,20\n"
    )


def test_threshold_sweep_budget_partial():
    cfg = SweepConfig(p=31, k=2, theta_grid=(0.2, 0.4), trials=10, seed=0)
    res = threshold_sweep(cfg, budget=Budget(max_nodes=None, max_seconds=0.0))
    assert res.partial
    assert res.rows == ()


def test_window_empty_flag():
    cfg = SweepConfig(p=31, k=3, theta_grid=(0.3,), trials=2, seed=0)
    res = threshold_sweep(cfg)
    assert res.window_empty  # the k=3 window closes at this scale


def test_pair_lemma_check():
    # the pair lemma D_{x, p-x}(Z_p) <= floor(log2 p) + 1, read through
    # classify_dav at k = floor(log2 p) + 1, where it must never say GT,
    # and through the verify suite, which checks it for every modulus
    for p in (5, 7, 11, 13, 17, 19, 23):
        bound = p.bit_length()
        for x in range(1, p // 2 + 1):
            got = classify_dav(p, {x, p - x}, bound)
            assert got is not Classification.GT, (p, x)
            value = davenport(cyclic(p), WeightSet.of(p, {x, p - x})).value
            assert got is (Classification.EQ if value == bound else Classification.LT), (p, x, value)
    report = pair_lemma_suite(n_max=20)
    assert report.ok, report.failures()
    (check,) = report.checks
    assert check.computed == f"{sum(n - 1 for n in range(2, 21))} cases, 0 violations"
    with pytest.raises(ValueError):
        pair_lemma_suite(n_max=1)
