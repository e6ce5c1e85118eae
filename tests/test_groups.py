import itertools
import random
import time
from collections import Counter
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from davlab.groups import (
    GroupOrderError,
    GroupSpec,
    as_element,
    aut_orbit_minima,
    canonical_roots,
    check_element,
    cyclic,
    element_index,
    index_element,
    normalize_group,
    orbit_minima,
    parse_group,
    units,
    units_mapping,
)

from conftest import brute_aut_orbit_minima, tuple_scale
from test_kernel_agreement import GROUPS_BY_RANK


def test_divisibility_chain_enforced():
    with pytest.raises(ValueError):
        GroupSpec((3, 2))
    with pytest.raises(ValueError):
        GroupSpec((2, 3))
    GroupSpec((2, 4))  # fine


def test_cyclic_and_str():
    g = cyclic(12)
    assert g.invariant_factors == (12,)
    assert g.order == 12 and g.exponent == 12 and g.rank == 1
    assert str(g) == "Z12"
    assert str(GroupSpec((2, 12))) == "Z2xZ12"


def test_normalize_regroups_to_invariant_factors():
    assert normalize_group([4, 6]).invariant_factors == (2, 12)
    assert normalize_group([2, 3]).invariant_factors == (6,)
    assert normalize_group([1, 5]).invariant_factors == (5,)
    assert normalize_group([2, 2, 2]).invariant_factors == (2, 2, 2)
    assert normalize_group([6, 10, 15]).invariant_factors == (30, 30)


def _order_census_raw(factors):
    """Element order census straight from the direct product, no package code."""
    out = Counter()
    for e in itertools.product(*[range(n) for n in factors]):
        out[lcm(*(n // gcd(x, n) for x, n in zip(e, factors)))] += 1
    return out


@pytest.mark.parametrize("factors", [[4, 6], [2, 3], [6, 10, 15], [8, 12], [9, 3]])
def test_normalize_preserves_element_order_census(factors):
    # the census distinguishes finite abelian groups up to isomorphism
    g = normalize_group(factors)
    assert _order_census_raw(g.invariant_factors) == _order_census_raw(factors)


def test_order_limit():
    with pytest.raises(GroupOrderError):
        normalize_group([10**4, 10**4])


def test_order_limit_checked_before_factoring():
    # trial division of this order would take about 10^12 steps
    start = time.perf_counter()
    with pytest.raises(GroupOrderError):
        parse_group("1000000000000000000000007")
    assert time.perf_counter() - start < 1.0


def test_parse_group():
    assert parse_group("8").invariant_factors == (8,)
    assert parse_group("2x4").invariant_factors == (2, 4)
    assert parse_group("4x6").invariant_factors == (2, 12)
    with pytest.raises(ValueError):
        parse_group("0")
    with pytest.raises(ValueError):
        parse_group("2xx4")


def test_check_and_coerce():
    g = cyclic(9)
    assert as_element(g, 5) == (5,)
    assert as_element(g, (5,)) == (5,)
    with pytest.raises(ValueError):
        check_element(g, (9,))
    with pytest.raises(ValueError):
        check_element(GroupSpec((2, 4)), (1,))


@given(st.integers(2, 40), st.data())
def test_index_roundtrip_cyclic(n, data):
    g = cyclic(n)
    i = data.draw(st.integers(0, n - 1))
    assert element_index(g, index_element(g, i)) == i


def test_index_roundtrip_product():
    g = GroupSpec((2, 4))
    seen = set()
    for i in range(8):
        e = index_element(g, i)
        assert element_index(g, e) == i
        seen.add(e)
    assert len(seen) == 8
    with pytest.raises(ValueError):
        index_element(g, 8)


def test_units():
    assert tuple(units(12)) == (1, 5, 7, 11)
    assert tuple(units(7)) == (1, 2, 3, 4, 5, 6)
    assert tuple(units(2)) == (1,)


def test_canonical_roots():
    assert canonical_roots(cyclic(7)) == (1,)
    # cyclic n: orbit minima under unit dilation are the divisors of n below n
    assert set(canonical_roots(cyclic(12))) == {
        element_index(cyclic(12), (d,)) for d in (1, 2, 3, 4, 6)
    }
    g22 = GroupSpec((2, 2))
    assert element_index(g22, (0, 1)) in canonical_roots(g22)


def _orbit_minima_by_definition(g, us):
    """Least flat index of s*x over every unit s in us, by tuple arithmetic."""
    return [
        min(element_index(g, tuple_scale(g.invariant_factors, s, x)) for s in us)
        for x in g.elements()
    ]


def _unit_group(gens, e):
    """Every product of the units gens mod e."""
    group = {1}
    while True:
        bigger = group | {h * s % e for h in group for s in gens}
        if bigger == group:
            return group
        group = bigger


# the least element of each Aut(G)-orbit, checked against
# conftest.brute_aut_orbit_minima when pinned
AUT_ROOTS = {
    (12,): ((1,), (2,), (3,), (4,), (6,)),
    (16,): ((1,), (2,), (4,), (8,)),
    (30,): ((1,), (2,), (3,), (5,), (6,), (10,), (15,)),
    (2, 4): ((0, 1), (0, 2), (1, 0)),
    (3, 9): ((0, 1), (0, 3), (1, 0)),
    (4, 8): ((0, 1), (0, 2), (0, 4), (1, 0), (2, 0)),
    (6, 6): ((0, 1), (0, 2), (0, 3)),
    (2, 2, 6): ((0, 0, 1), (0, 0, 2), (0, 0, 3)),
    (3, 3, 9): ((0, 0, 1), (0, 0, 3), (0, 1, 0)),
    (2, 2, 2, 4): ((0, 0, 0, 1), (0, 0, 0, 2), (0, 0, 1, 0)),
    (2, 2, 4, 4): ((0, 0, 0, 1), (0, 0, 0, 2), (0, 1, 0, 0)),
}


@pytest.mark.parametrize(
    "factors",
    [(12,), (16,), (30,), (2, 4), (3, 9), (4, 8), (6, 6), (2, 2, 6), (3, 3, 9), (2, 2, 2, 4), (2, 2, 4, 4)],
)
def test_orbit_minima_match_unit_orbits(factors):
    g = GroupSpec(factors)
    e = g.exponent
    us = units(e)
    assert orbit_minima(g, us) == _orbit_minima_by_definition(g, us)
    assert canonical_roots(g) == tuple(element_index(g, x) for x in AUT_ROOTS[factors])
    # subgroups, given by generators as the solver passes A's stabilizer:
    # e.g. {1, -1} by -1
    rng = random.Random(sum(factors))
    for _ in range(4):
        picked = rng.sample(us, min(2, len(us)))
        sub = sorted(_unit_group(picked, e))
        assert orbit_minima(g, picked) == _orbit_minima_by_definition(g, sub)
    assert orbit_minima(g, [e - 1]) == _orbit_minima_by_definition(g, [1, e - 1])


def test_canonical_roots_walk_orbits_under_generators():
    # valuation patterns of the coordinates, not the 8192 elements
    g = GroupSpec((2, 4096))
    start = time.perf_counter()
    roots = canonical_roots(g)
    assert time.perf_counter() - start < 1.0
    # orbits of (a, b): (0, 2^j) for 2^j < 4096, (1, 0) (which holds
    # (1, 2048)), and (1, 2^j) for 2 <= 2^j <= 1024 ((1, 1) lies in the orbit
    # of (0, 1))
    want = sorted([element_index(g, (0, 1 << j)) for j in range(12)]
                  + [element_index(g, (1, b)) for b in [0] + [1 << j for j in range(1, 11)]])
    assert len(want) == 23
    assert roots == tuple(want)


@pytest.mark.parametrize(
    "factors",
    [fs for rank in GROUPS_BY_RANK for fs in rank]
    + [(2, 8), (4, 8), (2, 4, 8), (9, 9), (2, 12), (4, 12)],
)
def test_canonical_roots_are_automorphism_orbit_minima(factors):
    g = GroupSpec(factors)
    mins = brute_aut_orbit_minima(factors)
    assert canonical_roots(g) == tuple(i for i, m in enumerate(mins) if 0 < i == m)


@pytest.mark.parametrize(
    "factors",
    [(2, 4), (2, 6), (2, 8), (4, 4), (3, 9), (6, 6), (9, 9), (2, 2, 4), (2, 4, 4), (2, 2, 6), (3, 3, 9)],
)
def test_aut_orbit_minima_are_the_least_automorphic_images(factors):
    # every flat index is labelled with the least image under the automorphisms
    g = GroupSpec(factors)
    labels = aut_orbit_minima(g)
    assert list(labels) == brute_aut_orbit_minima(factors)
    assert sorted(set(labels) - {0}) == list(canonical_roots(g))


def test_aut_orbit_minima_on_cyclic_groups_are_gcds():
    for n in range(2, 61):
        assert aut_orbit_minima(cyclic(n)) == (0,) + tuple(gcd(x, n) for x in range(1, n)), n


@pytest.mark.parametrize(
    "factors, orbits",
    [
        # Z_8^2 + Z_125^2: heights 0, 1, 2 or zero in each part, 4 * 4 - 1
        ((1000, 1000), 15),
        # Z_2 + Z_32 + Z_15625: 10 classes in the 2-part (zero, (0, 2^v) for
        # v <= 4, (1, 0), (1, 2^v) for v = 1, 2, 3) and 7 in the 5-part
        ((2, 500000), 69),
    ],
)
def test_canonical_roots_fast_on_large_groups(factors, orbits):
    # divisor patterns per coordinate, never the group's 10^6 elements
    g = GroupSpec(factors)
    start = time.perf_counter()
    roots = canonical_roots(g)
    assert time.perf_counter() - start < 1.0
    assert len(roots) == orbits
    assert roots[0] == 1


def test_units_mapping_solves_by_definition():
    for e in range(2, 41):
        us = units(e)
        for x in range(e):
            for y in range(e):
                want = [u for u in us if u * x % e == y]
                assert units_mapping(x, y, e) == want, (x, y, e)
