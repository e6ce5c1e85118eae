import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from davlab.engine import (
    GSequence,
    ResidueSet,
    WeightSet,
    dilation_orbit_reps,
    has_weighted_zero_sum,
    negate,
    quotient_set,
    reachable_sums,
    sumset,
)
from davlab.groups import GroupSpec, cyclic, element_index, normalize_group
from davlab.solver import first_zero_free

from conftest import brute_is_zsf, brute_reachable, tuple_add, tuple_scale


def test_weightset_normalization():
    assert WeightSet.of(12, [-1, 1]).residues == (1, 11)
    assert WeightSet.of(9, [4, 13, 4]).residues == (4,)
    with pytest.raises(ValueError):
        WeightSet.of(9, [0])
    with pytest.raises(ValueError):
        WeightSet.of(9, [9])
    with pytest.raises(ValueError):
        WeightSet.of(9, [])
    assert 11 in WeightSet.of(12, [-1]) and len(WeightSet.of(12, [-1])) == 1


def test_weightset_stores_tuple():
    ws = WeightSet(12, [1, 5, 7, 11])
    assert ws.residues == (1, 5, 7, 11)
    assert hash(ws) == hash(WeightSet(12, (1, 5, 7, 11)))


def test_gsequence_validation():
    g = cyclic(5)
    s = GSequence.of(g, [1, 4, 4])
    assert s.entries == ((1,), (4,), (4,))
    assert GSequence.of(g, [5]).entries == ((0,),)  # ints coerce mod n
    with pytest.raises(ValueError):
        GSequence(g, ((5,),))  # raw entries are range-checked
    with pytest.raises(ValueError):
        GSequence.of(GroupSpec((2, 4)), [(1,)])


def test_residueset_ops():
    g = cyclic(10)
    a = ResidueSet.of(g, [(1,), (3,)])
    with pytest.raises(ValueError):
        sumset(a, ResidueSet.of(cyclic(11), [(1,)]))


def _random_case(rng, max_order=30, max_rank=2, max_len=4, max_weights=4):
    while True:
        rank = rng.randint(1, max_rank)
        factors = [rng.randint(2, 6) for _ in range(rank)]
        g = normalize_group(factors)
        if g.order <= max_order:
            break
    n = g.exponent
    wsize = rng.randint(1, min(max_weights, n - 1))
    weights = WeightSet(n, tuple(sorted(rng.sample(range(1, n), wsize))))
    entries = [tuple(rng.randrange(f) for f in g.invariant_factors) for _ in range(rng.randint(1, max_len))]
    return g, weights, entries


def test_reachable_sums_matches_brute_force():
    rng = random.Random(11)
    for _ in range(300):
        g, weights, entries = _random_case(rng)
        seq = GSequence.of(g, entries)
        got = set(reachable_sums(g, weights, seq).elements())
        want = brute_reachable(g.invariant_factors, weights.residues, entries)
        assert got == want, (g, weights, entries)


def test_has_weighted_zero_sum_consistency():
    rng = random.Random(13)
    for _ in range(200):
        g, weights, entries = _random_case(rng)
        seq = GSequence.of(g, entries)
        zero = (0,) * g.rank
        want = zero in brute_reachable(g.invariant_factors, weights.residues, entries)
        assert has_weighted_zero_sum(g, weights, seq) == want


def _check_walk(g, weights, multisets):
    # solver.first_zero_free on each multiset alone and on every suffix of
    # the list: the walk keeps the bits of A*(-x) across the multisets of one
    # call, and nothing else may carry from one multiset to the next
    factors, n = g.invariant_factors, g.exponent
    flat = [[element_index(g, x) for x in ms] for ms in multisets]
    zsf = [brute_is_zsf(factors, weights, ms) for ms in multisets]
    for idx, ms, want in zip(flat, multisets, zsf):
        assert (first_zero_free(g, weights, [idx]) == 0) is want, (g, weights, ms)
        seq = GSequence.of(g, ms)
        got = set(reachable_sums(g, WeightSet(n, weights), seq).elements())
        assert got == brute_reachable(factors, weights, ms), (g, weights, ms)
        assert has_weighted_zero_sum(g, WeightSet(n, weights), seq) is not want
    for start in range(len(flat)):
        rest = zsf[start:]
        first = rest.index(True) if True in rest else None
        assert first_zero_free(g, weights, flat[start:]) == first, (g, weights, start)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_walk_matches_brute_force(data):
    orders = data.draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))
    g = normalize_group(orders)
    factors, n = g.invariant_factors, g.exponent
    weights = tuple(sorted(data.draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=4))))
    element = st.tuples(*[st.integers(0, f - 1) for f in factors])
    multisets = data.draw(
        st.lists(st.lists(element, min_size=1, max_size=4), min_size=1, max_size=5)
    )
    _check_walk(g, weights, multisets)


@pytest.mark.parametrize(
    "factors, weights, multisets",
    [
        # multisets holding 0 close a zero-sum at 0 itself
        ((7,), (1, 3), [[(2,), (0,)], [(0,)], [(0,), (3,)], [(3,)]]),
        # -1 fixes A = {1, 8} and maps 7 to 2, so the kernel never extends a
        # prefix by 7 (its move list is empty); the walk must still step by
        # it, or it misses 1*7 + 1*2 = 0
        ((9,), (1, 8), [[(7,), (2,)], [(7,), (1,), (1,)], [(7,), (7,), (2,)], [(4,), (7,)]]),
        # rank 3: three padded coordinates, borrows between them
        ((2, 4, 8), (1, 3, 5), [[(1, 3, 7), (1, 1, 1)], [(0, 2, 4), (1, 0, 6), (1, 3, 5)],
                                [(1, 2, 3), (0, 1, 1), (1, 1, 2)]]),
    ],
)
def test_walk_fixed_rows(factors, weights, multisets):
    _check_walk(GroupSpec(factors), weights, multisets)


@settings(max_examples=60)
@given(st.data())
def test_reachable_sums_permutation_invariant(data):
    n = data.draw(st.integers(3, 20))
    g = cyclic(n)
    weights = WeightSet(
        n, tuple(sorted(data.draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=4))))
    )
    entries = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    perm = data.draw(st.permutations(entries))
    a = reachable_sums(g, weights, GSequence.of(g, entries))
    b = reachable_sums(g, weights, GSequence.of(g, perm))
    assert a.bits == b.bits


def test_sumset_negate():
    g = cyclic(13)
    a = ResidueSet.of(g, [(1,), (3,)])
    b = ResidueSet.of(g, [(2,), (5,)])
    assert sorted(sumset(a, b).indices()) == sorted({3, 6, 5, 8})
    assert sorted(negate(a).indices()) == sorted({12, 10})
    g2 = GroupSpec((2, 4))
    c = ResidueSet.of(g2, [(1, 3)])
    assert sorted(negate(c).elements()) == [(1, 1)]


SHAPES = [(2,), (7,), (12,), (2, 2), (2, 6), (3, 9), (4, 4), (2, 2, 2), (2, 4, 8), (3, 3, 3),
          (2, 2, 2, 2), (2, 2, 4, 4), (2, 2, 2, 6)]


@pytest.mark.parametrize("factors", SHAPES)
def test_set_operations_match_tuple_arithmetic(factors):
    # every translate, and negate and sumset of random sets,
    # against coordinate tuples added and negated one by one
    g = GroupSpec(factors)
    elements = list(itertools.product(*[range(n) for n in factors]))
    rng = random.Random(str(factors))
    sets = [set(rng.sample(elements, rng.randint(1, len(elements)))) for _ in range(4)]
    sets.append({tuple(n - 1 for n in factors)})
    for xs in sets:
        s = ResidueSet.of(g, xs)
        for y in elements:
            got = set(sumset(s, ResidueSet.of(g, [y])).elements())
            assert got == {tuple_add(factors, x, y) for x in xs}, (factors, y)
        neg = {tuple_scale(factors, -1, x) for x in xs}
        assert set(negate(s).elements()) == neg
        for ys in sets[:3]:
            t = ResidueSet.of(g, ys)
            plus = {tuple_add(factors, x, y) for x in xs for y in ys}
            assert set(sumset(s, t).elements()) == plus


@pytest.mark.parametrize("factors", [(2, 500000), (100, 10000)])
def test_wide_groups_stay_cheap(factors):
    # one two-piece shift per coordinate, no mask per digit value: a group
    # at the order limit costs milliseconds and no |G|-bit table per digit
    g = GroupSpec(factors)
    start = time.perf_counter()
    x = (1, 3)
    assert negate(ResidueSet.of(g, [x])).elements() == [(factors[0] - 1, factors[1] - 3)]
    seq = GSequence.of(g, [x, (0, 5), (1, factors[1] - 1)])
    sums = reachable_sums(g, WeightSet.of(g.exponent, [1, 2]), seq)
    want = brute_reachable(factors, (1, 2), seq.entries)
    assert set(sums.elements()) == want
    assert time.perf_counter() - start < 1.0


def test_difference_and_quotient():
    g = cyclic(7)
    a = ResidueSet.of(g, [(2,), (3,), (4,)])
    # pairwise differences of the interval {2,3,4} are 0, +-1, +-2
    assert sorted(sumset(a, negate(a)).indices()) == [0, 1, 2, 5, 6]
    # pairwise ratios hit all six units, which is why D_A(Z_7) = 2 here
    q = quotient_set(a, a)
    assert sorted(q.indices()) == [1, 2, 3, 4, 5, 6]
    with pytest.raises(ValueError):
        quotient_set(a, ResidueSet.of(g, [(0,)]))


def test_quotient_requires_units():
    g = cyclic(12)
    a = ResidueSet.of(g, [(1,), (5,)])
    b = ResidueSet.of(g, [(2,)])
    with pytest.raises(ValueError):
        quotient_set(a, b)


def test_dilation_orbit_reps_prime():
    reps = list(dilation_orbit_reps(7, 3))
    # every 3-subset of Z_7* is equivalent to exactly one listed rep
    assert all(1 in set(r) for r in reps)
    import itertools

    covered = set()
    for r in reps:
        for u in range(1, 7):
            covered.add(tuple(sorted(u * x % 7 for x in r)))
    assert covered == set(itertools.combinations(range(1, 7), 3))


def brute_orbit_reps(n, size):
    """The least member of every unit-dilation orbit of size-subsets of
    [1, n-1], in lex order: walking the subsets in lex order, each one not
    yet met as a dilate of an earlier one is the least of its orbit."""
    us = [u for u in range(1, n) if math.gcd(u, n) == 1]
    seen = set()
    reps = []
    for s in itertools.combinations(range(1, n), size):
        if s not in seen:
            reps.append(s)
            seen.update(tuple(sorted(u * x % n for x in s)) for u in us)
    return reps


def test_dilation_orbit_reps_general_modulus():
    for n in range(2, 41):
        for size in range(1, 5):
            assert list(dilation_orbit_reps(n, size)) == brute_orbit_reps(n, size), (n, size)
    assert list(dilation_orbit_reps(5, 0)) == list(dilation_orbit_reps(5, 5)) == []
