import random
from math import isqrt

import pytest

from davlab.constructions import (
    ConstructionError,
    GFCubicField,
    PerfectDifferenceSet,
    complement_weight_set,
    interval_weight_set,
    quartic_weight_set,
    quartic_weight_set_auto,
    singer_difference_set,
    singer_weight_set,
    symmetric_range_weight_set,
)
from davlab.engine import WeightSet
from davlab.groups import cyclic
from davlab.numtheory import primerange
from davlab.solver import Budget, check_dav_at_most, davenport


def test_gf_cubic_field_basics():
    f = GFCubicField(2)
    assert f.reduction == (0, 1, 1)  # t^3 + t + 1, the first irreducible cubic
    g = f.generator()
    n = 2**3 - 1
    # generator order is exactly q^3 - 1
    powers = {f.pow(g, i) for i in range(n)}
    assert len(powers) == n
    assert f.pow(g, n) == f.one


def test_gf_cubic_field_ring_axioms_sampled():
    f = GFCubicField(5)
    rng = random.Random(3)
    elems = [tuple(rng.randrange(5) for _ in range(3)) for _ in range(12)]
    for x in elems:
        for y in elems:
            assert f.mul(x, y) == f.mul(y, x)
    a, b, c = elems[:3]
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.mul(a, f.one) == a


def test_gf_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        GFCubicField(6)


def test_perfect_difference_set_census():
    PerfectDifferenceSet(7, (0, 1, 3))
    with pytest.raises(ConstructionError):
        PerfectDifferenceSet(7, (0, 1, 2))  # census not exactly one
    with pytest.raises(ConstructionError):
        PerfectDifferenceSet(8, (0, 1, 3))  # wrong size for the modulus
    with pytest.raises(ConstructionError):
        PerfectDifferenceSet(7, (0, 1, 8))  # out of range


def test_singer_difference_sets_small():
    assert singer_difference_set(2).elements == (0, 1, 3)
    assert singer_difference_set(3).elements == (0, 1, 3, 9)
    for q in (2, 3, 5, 17):
        pds = singer_difference_set(q)
        assert pds.v == q * q + q + 1
        assert len(pds.elements) == q + 1
        # independent census recount
        census = {}
        for a in pds.elements:
            for b in pds.elements:
                if a != b:
                    d = (a - b) % pds.v
                    census[d] = census.get(d, 0) + 1
        assert all(census.get(g, 0) == 1 for g in range(1, pds.v))
    with pytest.raises(ValueError):
        singer_difference_set(4)


def test_singer_weight_set_small_primes_verified():
    for p, q in ((7, 2), (13, 3)):
        rep = singer_weight_set(p)
        assert rep.size == q + 1
        assert rep.metrics["meets_sqrt_bound"]
        assert rep.verified_bound == 2
        assert rep.verification == "ratio-criterion"
        # exhaustive solver agreement
        assert davenport(cyclic(p), rep.weight_set).value == 2
    # the p = 13 set needs the dilation repair; exponent differences of the
    # raw index set {0,1,3,9} miss two classes mod 12
    assert singer_weight_set(13).parameters["dilation"] == 2


def test_singer_weight_set_large_primes_miss_coverage():
    # ratios live mod p-1 while the difference census lives mod p; at
    # q = 5 and q = 17 no dilation of the Singer set covers the units,
    # so the two-term bound cannot be certified for any family member
    rep31 = singer_weight_set(31)
    assert rep31.size == 6 == isqrt(30) + 1
    assert rep31.verified_bound is None
    assert rep31.metrics["ratio_missing"] == 1
    rep307 = singer_weight_set(307)
    assert rep307.size == 18
    assert rep307.verified_bound is None
    assert rep307.metrics["ratio_missing"] == 57


def test_singer_weight_set_rejects_bad_p():
    with pytest.raises(ValueError):
        singer_weight_set(11)  # prime, not q^2+q+1
    with pytest.raises(ValueError):
        singer_weight_set(21)  # q^2+q+1 with q = 4 not prime


def test_interval_weight_set():
    for p in (3, 5, 17, 101, 1999):
        rep = interval_weight_set(p)
        m = isqrt(p)
        assert rep.size == 2 * m
        assert rep.verified_bound == 2
        expected = tuple(range(1, m + 1)) + tuple(range(p - m, p))
        assert rep.weight_set.residues == tuple(sorted(expected))
    assert davenport(cyclic(17), interval_weight_set(17).weight_set).value == 2
    with pytest.raises(ValueError):
        interval_weight_set(2)
    with pytest.raises(ValueError):
        interval_weight_set(15)


def test_symmetric_range_weight_set():
    rep = symmetric_range_weight_set(100, 2)
    assert rep.verified_bound == 5  # floor(log_3 100) + 1
    assert rep.size == 4
    assert symmetric_range_weight_set(8, 1).verified_bound == 4
    with pytest.raises(ValueError):
        symmetric_range_weight_set(8, 4)  # r >= (n-1)/2
    with pytest.raises(ValueError):
        symmetric_range_weight_set(9, 0)


def test_complement_weight_set():
    rep = complement_weight_set(13, 2)
    assert rep.weight_set.residues == tuple(range(3, 11))
    assert rep.verified_bound == 2
    assert rep.metrics["within_claim_range"]
    # r beyond the proven range still constructs, without a certificate
    wide = complement_weight_set(29, 10)
    assert wide.verified_bound is None
    assert not wide.metrics["within_claim_range"]
    with pytest.raises(ValueError):
        complement_weight_set(13, 6)  # B_r empty
    with pytest.raises(ValueError):
        complement_weight_set(15, 1)


def test_quartic_acceptance_primes():
    for p in (101, 211, 499):
        rep = quartic_weight_set_auto(p)
        assert rep.verified_bound == 4
        assert rep.verification == "exhaustive"
        assert rep.metrics["size_over_p_quarter"] <= 20
        # the base interval [-L, L]_* is always included
        L = rep.parameters["L"]
        residues = set(rep.weight_set.residues)
        for j in range(1, L + 1):
            assert j in residues and p - j in residues


def test_quartic_determinism_and_reporting():
    a = quartic_weight_set(211, c0=1.5, seed=1)
    b = quartic_weight_set(211, c0=1.5, seed=1)
    assert a.weight_set == b.weight_set
    assert a.parameters["dilates"] == b.parameters["dilates"]
    with pytest.raises(ValueError):
        quartic_weight_set(97)  # below the supported range
    with pytest.raises(ConstructionError) as exc:
        quartic_weight_set(211, budget=Budget(max_nodes=None, max_seconds=0.0))
    assert "residual" in exc.value.info


def test_quartic_parameters_out_of_range():
    # an infinite c0 overflowed ceil; 2L >= p wraps [-2L, 2L] onto 0 and
    # eta >= p reaches the denominator p, both indexing past the inverse
    # table; a negative dilate count failed as a construction after 0 rounds
    for kwargs in ({"c0": float("inf")}, {"c0": float("nan")}, {"c0": 40.0}, {"s_num": 1000},
                   {"n_dilates": -1}):
        with pytest.raises(ValueError):
            quartic_weight_set(101, **kwargs)


def test_quartic_verification_is_exhaustive():
    rep = quartic_weight_set_auto(101)
    assert check_dav_at_most(cyclic(101), rep.weight_set, 4).holds
