import itertools
import os
import random
import sys
import time
from math import ceil, gcd

import pytest

from davlab import solver
from davlab.engine import GSequence, WeightSet, has_weighted_zero_sum
from davlab.groups import GroupOrderError, GroupSpec, cyclic, element_index, index_element, normalize_group, units
from davlab.numtheory import isprime
from davlab.randomlab import SweepConfig, threshold_sweep
from davlab.solver import (
    CapExceededError,
    certify_dav_value,
    check_dav_at_most,
    davenport,
    max_davenport_over_size,
)

from conftest import brute_automorphisms, brute_davenport, brute_lex_least_zsf, tuple_scale
from test_groups import _unit_group
from test_kernel_agreement import GROUPS_BY_RANK, LATER_ROOT_WITNESSES
from test_sweep_checks import P as SWEEP_P, _draw as sweep_draw


def test_pair_weights_log_formula():
    r = davenport(cyclic(8), WeightSet.of(8, [1, 7]))
    assert r.value == 4
    assert len(r.witness.entries) == 3


def test_units_weights():
    assert davenport(cyclic(12), WeightSet(12, (1, 5, 7, 11))).value == 4
    assert davenport(cyclic(36), WeightSet(36, tuple(i for i in range(1, 36) if i % 2 and i % 3))).value == 1 + 2 + 2


def test_interval_weights_ceil_formula():
    for n, r in ((10, 3), (9, 2), (14, 4)):
        got = davenport(cyclic(n), WeightSet(n, tuple(range(1, r + 1)))).value
        assert got == ceil(n / r), (n, r)


def test_all_nonzero_weights():
    for n in (2, 5, 9, 16):
        assert davenport(cyclic(n), WeightSet(n, tuple(range(1, n)))).value == 2


def test_product_group_all_ones():
    # basis sequences force rank+sum structure: D_{{1}} of Z_2 x Z_2 is 3
    assert davenport(normalize_group([2, 2]), WeightSet(2, (1,))).value == 3
    assert davenport(normalize_group([2, 2, 2]), WeightSet(2, (1,))).value == 4
    assert davenport(normalize_group([3, 3]), WeightSet(3, (1,))).value == 5


def test_witness_is_zero_sum_free_and_maximal():
    cases = [
        (cyclic(8), WeightSet.of(8, [1, 7])),
        (cyclic(10), WeightSet(10, (1, 2, 3))),
        (normalize_group([2, 12]), WeightSet(12, (1, 5))),
    ]
    for g, w in cases:
        res = davenport(g, w)
        assert len(res.witness.entries) == res.value - 1
        assert not has_weighted_zero_sum(g, w, res.witness)
        # the witness is the lex-least culprit of the bounded check one below
        assert res.witness == check_dav_at_most(g, w, res.value - 1).counterexample


def test_davenport_matches_brute_force():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 12)
        size = rng.randint(1, min(4, n - 1))
        ws = tuple(sorted(rng.sample(range(1, n), size)))
        want = brute_davenport((n,), ws)
        got = davenport(cyclic(n), WeightSet(n, ws)).value
        assert got == want, (n, ws)


def test_davenport_matches_brute_force_products():
    rng = random.Random(29)
    for _ in range(25):
        g = normalize_group([rng.choice([2, 2, 3]), rng.choice([2, 4, 6])])
        n = g.exponent
        size = rng.randint(1, min(3, n - 1))
        ws = tuple(sorted(rng.sample(range(1, n), size)))
        want = brute_davenport(g.invariant_factors, ws)
        got = davenport(g, WeightSet(n, ws)).value
        assert got == want, (g, ws)
    # more than two coordinates: the padded layout doubles every one but the first
    for fs, ws in (((2, 2, 2), (1,)), ((2, 2, 4), (1,)), ((2, 2, 4), (1, 2)), ((2, 2, 2, 2), (1,))):
        g = normalize_group(fs)
        assert davenport(g, WeightSet(g.exponent, ws)).value == brute_davenport(fs, ws), (fs, ws)


@pytest.mark.parametrize(
    "factors, weights, value, nodes, witness",
    [
        pytest.param((3, 9), (1,), 11, 6_230, ((0, 1),) * 8 + ((1, 0),) * 2, id="Z3xZ9-1"),
        pytest.param(
            (3, 3, 3), (1,), 7, 134, ((0, 0, 1),) * 2 + ((0, 1, 0),) * 2 + ((1, 0, 0),) * 2,
            id="Z3xZ3xZ3-1",
        ),
        pytest.param((5, 5), (1,), 9, 797, ((0, 1),) * 4 + ((1, 0),) * 4, id="Z5xZ5-1"),
        pytest.param(
            (150,), (1, 2, 148, 149), 5, 3_026, ((1,), (3,), (9,), (27,)),
            id="Z150-pm1pm2",
        ),
        pytest.param((48,), (1, 47), 6, 785, ((1,), (2,), (4,), (8,), (16,)), id="Z48-pm1"),
        pytest.param(
            (2, 2, 2, 2), (1,), 5, 9, ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
            id="Z2xZ2xZ2xZ2-1",
        ),
    ],
)
def test_node_counts_and_witnesses_pinned(factors, weights, value, nodes, witness):
    # values and witnesses are the first kernel's; nodes are pinned too, so a
    # change to the visit order or to what is pruned shows up here, and a
    # kernel that prunes more must re-pin them with the same values and
    # witnesses.  The counts are those of the kernel that never extends a
    # prefix by an element a unit fixing A maps lower, roots at Aut(G)-orbit
    # minima, keeps every later element of Z_p^r in the span of the prefix
    # or least outside it, keys its fail memo by Sigma with entries covering
    # later starts, prunes by the growth rule with the last element's room m
    # (see solver._find_zsf), and under a later root skips the Aut(G)-orbits
    # of earlier roots.
    g = GroupSpec(factors)
    r = davenport(g, WeightSet(g.exponent, weights), threads=1)
    assert (r.value, r.nodes_explored, r.witness.entries) == (value, nodes, witness)


def test_cauchy_davenport_refutes_at_the_root():
    # D_A(Z_p) <= floor((p - 1)/|A|) + 1: at k = 33 the root's Sigma of 4
    # sums, 3 more per later element and the last element's 3 pass 97, so
    # the refutation takes no node (the scan took 9,191 nodes when every
    # element counted one new sum and the last element one)
    g = cyclic(97)
    w = WeightSet(97, (1, 2, 3))
    r = davenport(g, w)
    assert (r.value, r.nodes_explored, r.witness.entries) == (33, 496, ((1,),) * 32)
    check = check_dav_at_most(g, w, 33)
    assert (check.holds, check.nodes) == (True, 0)


def test_growth_bound_is_the_least_room_of_a_last_element():
    # m = min |A*x| over nonzero x with 0 not in A*x, read from the divisors
    # of exp(G); g = |A| on Z_p only
    rng = random.Random(61)
    checked = 0
    for fs in (fs for rank in GROUPS_BY_RANK for fs in rank):
        g = GroupSpec(fs)
        e = g.exponent
        assert g.order <= 64
        elements = [index_element(g, c) for c in range(1, g.order)]
        for _ in range(4):
            ws = tuple(sorted(rng.sample(range(1, e), rng.randint(1, min(5, e - 1)))))
            multiples = [{tuple_scale(fs, a, x) for a in ws} for x in elements]
            room = min(len(ax) for ax in multiples if (0,) * len(fs) not in ax)
            tables = solver._WeightTables(g, WeightSet(e, ws))
            assert tables.bound is None
            grow = len(ws) if len(fs) == 1 and isprime(e) else 1
            assert tables.growth() == tables.bound == (grow, room), (fs, ws)
            checked += 1
    assert checked >= 150


def test_pruned_search_matches_brute_force_oracles():
    # the growth rule (g, m), the fail memo over later starts and, under a
    # later root, the skipped orbits of earlier roots prune only states with
    # no zero-sum-free completion: every bounded check up to D answers as
    # the oracle does
    rng = random.Random(67)
    cases = []
    for n in range(2, 17):
        sets = {tuple(units(n)), tuple(range(1, n // 2 + 1))}
        if n > 2:
            sets |= {(1, 2), (1, n - 1)}
        sets |= {tuple(sorted(rng.sample(range(1, n), rng.randint(1, min(4, n - 1))))) for _ in range(3)}
        cases += [((n,), ws) for ws in sorted(sets)]
    groups = ((2, 4), (3, 3), (2, 2, 2), (2, 6), (4, 4), (2, 2, 4))
    cases += [(fs, ws) for fs in groups for ws in _weight_sets(fs[-1])]
    cases += LATER_ROOT_WITNESSES
    for factors, ws in cases:
        g = GroupSpec(factors)
        w = WeightSet(g.exponent, ws)
        r = davenport(g, w)
        assert r.value == brute_davenport(factors, ws), (factors, ws)
        assert check_dav_at_most(g, w, r.value).holds, (factors, ws)
        for k in range(1, r.value):
            want = brute_lex_least_zsf(factors, ws, k)
            got = check_dav_at_most(g, w, k)
            assert not got.holds and got.counterexample.entries == want, (factors, ws, k)
        assert r.witness.entries == brute_lex_least_zsf(factors, ws, r.value - 1), (factors, ws)


@pytest.mark.parametrize(
    "factors, weights, value, nodes",
    [
        ((2,) * 6, (1,), 7, 20),  # Olson: 1 + r for Z_2^r
        ((3,) * 5, (1, 2), 6, 14),  # {1, 2} is every weight of Z_3: r + 1
    ],
)
def test_elementary_groups_refuted_from_one_root(factors, weights, value, nodes):
    # every nonzero element of Z_p^r lies in one Aut(G)-orbit, so the
    # refutation at D searches the single root (0, ..., 0, 1); rooted at every
    # unit-orbit minimum the same searches took 80,361 and 148,598 nodes, and
    # from that one root, without the span rule, 2,434 and 2,381
    g = GroupSpec(factors)
    start = time.perf_counter()
    r = davenport(g, WeightSet(g.exponent, weights))
    assert time.perf_counter() - start < 5.0
    basis = tuple(tuple(int(i == j) for i in range(len(factors))) for j in reversed(range(len(factors))))
    assert (r.value, r.nodes_explored, r.witness.entries) == (value, nodes, basis)


@pytest.mark.parametrize(
    "factors, weights, value",
    [
        ((2,) * 8, (1,), 9),  # Olson: D(G) = 1 + sum(n_i - 1) for p-groups
        ((2,) * 10, (1,), 11),
        ((3,) * 4, (1,), 9),
        ((7, 7), (1,), 13),
        ((3,) * 6, (1, 2), 7),  # every weight of Z_3: r + 1
    ],
)
def test_elementary_groups_olson(factors, weights, value):
    # the span rule keeps each later element in the span of the prefix or
    # least outside it; without it Z_7^2 takes about 6 s and the others give
    # no answer within 40 s
    g = GroupSpec(factors)
    start = time.perf_counter()
    r = davenport(g, WeightSet(g.exponent, weights))
    assert time.perf_counter() - start < 5.0
    # the lex-least witness repeats each basis element, least first, as often
    # as the weights allow without a zero-sum
    repeat = (value - 1) // len(factors)
    basis = tuple(tuple(int(i == j) for i in range(len(factors))) for j in reversed(range(len(factors))))
    assert r.value == value
    assert r.witness.entries == tuple(x for x in basis for _ in range(repeat))


@pytest.mark.parametrize("factors", [(2, 2, 2), (2, 2, 2, 2), (3, 3), (3, 3, 3), (5, 5)])
def test_span_rule_scans_the_minima_under_prefix_stabilizers(factors):
    # after every prefix of up to rank + 1 elements from root 1, the only
    # root on Z_p^r, a state scans exactly the survivors from its last
    # element up that are least in their orbit under the automorphisms
    # fixing the prefix pointwise
    g = GroupSpec(factors)
    tables = solver._WeightTables(g, WeightSet(g.exponent, (1,)))
    assert tables.span_prime == factors[0] and tables.roots == (1,)
    scans, outs = tables.root_scan(1)
    survivors = scans[-1]
    auts = list(brute_automorphisms(factors))
    depth = len(factors) + 1
    checked = 0

    def walk(prefix, level, stab):
        nonlocal checked
        last = prefix[-1]
        scanned = [c for c in scans[level] if c >= last]
        minima = [c for c in survivors if c >= last and all(phi[c] >= c for phi in stab)]
        assert scanned == minima, prefix
        checked += 1
        if len(prefix) == depth:
            return
        for c in scanned:
            walk(prefix + [c], level + (c == outs[level]), [phi for phi in stab if phi[c] == c])

    walk([1], 0, [phi for phi in auts if phi[1] == 1])
    assert checked > g.order


ELEMENTARY = [(2,) * r for r in range(2, 10)] + [(3,) * r for r in range(2, 5)]
ELEMENTARY += [(5, 5), (5, 5, 5), (7, 7), (7, 7, 7), (11, 11)]


@pytest.mark.parametrize("factors", ELEMENTARY)
def test_root_one_scans_its_survivors_up_to_each_power_of_p(factors):
    # level j of root 1 holds its survivors up to p^(j+1), the span of
    # 1, p, ..., p^j and the least element outside it, narrowed to the
    # minima under the stabilizer of A
    g = GroupSpec(factors)
    p = factors[0]
    powers = [p**j for j in range(1, len(factors))]
    rng = random.Random(g.order)
    for ws in [(1, p - 1)] + [rng.sample(range(1, p), rng.randint(1, p - 1)) for _ in range(3)]:
        w = WeightSet.of(p, ws)
        # an element dies against A*1 | {0} when a*c = -b*1 for weights a, b:
        # c = (0, ..., 0, -b/a)
        dead = {-b * pow(a, -1, p) % p for a in w.residues for b in w.residues}
        survivors = [c for c in range(1, g.order) if c not in dead]
        stab = set(_stabilizer_by_definition(p, w.residues))
        scaled = [[element_index(g, tuple_scale(factors, s, index_element(g, c))) for s in stab]
                  for c in range(g.order)]
        least = [c for c in survivors if min(scaled[c], default=c) >= c]
        tables = solver._WeightTables(g, w)
        scans, outs = tables.root_scan(1)
        assert outs == powers + [-1]
        assert scans == [[c for c in least if c <= q] for q in powers] + [least]
        assert tables.root_scans[1] == (scans, outs)


def test_roots_other_than_one_scan_one_level():
    # only root 1 gets the span levels: another root, which only tests set on
    # Z_p^r, scans all its survivors at every depth and answers the same
    g = GroupSpec((3, 3))
    w = WeightSet(3, (1,))
    tables = solver._WeightTables(g, w)
    tables.roots = (3,)  # (1, 0)
    assert tables.first(4)[0] == [3, 3, 4, 4]
    assert tables.first(5)[0] is None
    survivors = [c for c in range(3, 9) if c not in tables.killed(3)]
    assert tables.root_scans == {3: ([survivors], [-1])}


def _lex_least_cases():
    """(factors, weights, exhaustive): weight sets some unit s != 1 fixes.
    exhaustive marks groups small enough for the oracle's refutation at D."""
    cases = []
    for n in (5, 8, 9, 12):
        cases.append(((n,), (1, n - 1), True))  # A = -A
    cases.append(((13,), (1, 2, 11, 12), True))
    cases.append(((2, 6), (1, 5), True))
    cases.append(((3, 3), (1, 2), True))
    for n in (8, 9, 10, 12, 15):
        cases.append(((n,), tuple(units(n)), n <= 10))  # A = units(n)
    for p in (7, 11, 13):
        cases.append(((p,), tuple(sorted({x * x % p for x in range(1, p)})), True))  # squares
    cases.append(((4, 4), (2,), True))
    cases.append(((2, 2, 2, 4), (1, 3), False))
    return cases


@pytest.mark.parametrize("factors, weights, exhaustive", _lex_least_cases())
def test_witness_and_culprits_are_lex_least(factors, weights, exhaustive):
    # elements some unit fixing A maps lower are never appended; the lex-least
    # zero-sum-free multiset holds none, so witness and culprits stay the least
    g = GroupSpec(factors)
    w = WeightSet(g.exponent, weights)
    assert solver._stabilizer(w)
    r = davenport(g, w, threads=1)
    assert r.witness.entries == brute_lex_least_zsf(factors, weights, r.value - 1)
    for k in range(1, r.value + exhaustive):
        want = brute_lex_least_zsf(factors, weights, k)
        got = check_dav_at_most(g, w, k, threads=1)
        assert got.holds == (want is None), k
        assert (got.counterexample and got.counterexample.entries) == want, k


def _stabilizer_by_definition(e, residues):
    return tuple(
        s for s in units(e) if s != 1 and sorted(s * a % e for a in residues) == list(residues)
    )


def _stabilizer_group(w):
    """The units s != 1 that solver._stabilizer's units generate, ascending,
    after checking that each of those lies outside the group the ones before
    it generate."""
    gens = solver._stabilizer(w)
    for i, s in enumerate(gens):
        assert s not in _unit_group(gens[:i], w.exponent), (w, gens)
    return tuple(sorted(_unit_group(gens, w.exponent) - {1}))


def test_stabilizer():
    for n in (3, 4, 7, 12, 150):
        assert _stabilizer_group(WeightSet(n, (1, n - 1))) == (n - 1,)
    for n in (5, 12, 36, 48):
        assert _stabilizer_group(WeightSet(n, tuple(units(n)))) == tuple(units(n))[1:]
    # no weight is a unit: candidates solve s*2 = 2 (mod 4)
    assert _stabilizer_group(WeightSet(4, (2,))) == (3,)
    assert _stabilizer_group(WeightSet(150, (1, 2, 148, 149))) == (149,)
    # the sweep's random weight sets have none
    for i in range(30):
        assert _stabilizer_group(sweep_draw(i)) == ()
    rng = random.Random(53)
    for _ in range(400):
        e = rng.randint(2, 60)
        ws = set(rng.sample(range(1, e), rng.randint(1, min(6, e - 1))))
        if rng.random() < 0.5:
            ws |= {e - a for a in ws}
        w = WeightSet.of(e, ws)
        assert _stabilizer_group(w) == _stabilizer_by_definition(e, w.residues), w
    # s*A = A forces s = 1 modulo e/gcd(sum(A), e): every A for e <= 16, and
    # random A of any size, some closed under a random unit, for e <= 60
    for e in range(2, 17):
        for rs in _weight_sets(e):
            assert _stabilizer_group(WeightSet(e, rs)) == _stabilizer_by_definition(e, rs), rs
    for _ in range(600):
        e = rng.randint(17, 60)
        ws = set(rng.sample(range(1, e), rng.randint(1, e - 1)))
        if rng.random() < 0.5:
            u = rng.choice(units(e))
            for a in list(ws):
                x = a * u % e
                while x != a:
                    ws.add(x)
                    x = x * u % e
        w = WeightSet.of(e, ws)
        assert _stabilizer_group(w) == _stabilizer_by_definition(e, w.residues), w


def test_checks_that_never_extend_never_compute_the_stabilizer(monkeypatch):
    # k = 2 checks (fd's general path, the sweep) place their last element at
    # the root's level, so they must not pay for the stabilizer
    calls = []

    def counting(weights):
        calls.append(weights)
        return stabilizer(weights)

    stabilizer = solver._stabilizer
    monkeypatch.setattr(solver, "_stabilizer", counting)
    weight_sets = [WeightSet(SWEEP_P, (1, SWEEP_P - 1)), WeightSet(SWEEP_P, tuple(units(SWEEP_P)))]
    weight_sets += [sweep_draw(i) for i in range(30)]
    for w in weight_sets:
        check_dav_at_most(cyclic(SWEEP_P), w, 2, threads=1)
    assert calls == []
    # a k = 3 check that extends the root computes it once per table
    assert not check_dav_at_most(cyclic(SWEEP_P), weight_sets[0], 3, threads=1).holds
    assert calls == [weight_sets[0]]


def _weight_sets(e):
    """Every weight set of Z_e, as ascending residue tuples."""
    return [tuple(a for a in range(1, e) if bits >> (a - 1) & 1) for bits in range(1, 1 << (e - 1))]


def test_k2_checks_read_the_roots_kills_alone(monkeypatch):
    # a k = 2 check places its last element in the root's state, whose Sigma
    # killed() tests exactly: it answers as the oracle does and builds no
    # scan list, no mask and no stabilizer
    built = []

    class RecordingTables(solver._WeightTables):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(solver, "_WeightTables", RecordingTables)
    cases = [((n,), rs) for n in range(2, 13) for rs in _weight_sets(n)]
    cases += [(fs, rs) for fs in ((2, 4), (3, 3), (2, 2, 2)) for rs in _weight_sets(fs[-1])]
    for factors, rs in cases:
        g = GroupSpec(factors)
        got = check_dav_at_most(g, WeightSet(g.exponent, rs), 2)
        want = brute_lex_least_zsf(factors, rs, 2)
        assert got.holds == (want is None), (factors, rs)
        assert (got.counterexample and got.counterexample.entries) == want, (factors, rs)
        tables = built.pop()
        assert (tables.root_scans, any(tables.masks), tables.minima) == ({}, False, None), (factors, rs)


def test_cap_aborts_early():
    with pytest.raises(CapExceededError):
        davenport(cyclic(64), WeightSet(64, (1,)), cap=10)
    # cap above the true value changes nothing
    assert davenport(cyclic(8), WeightSet(8, (1, 7)), cap=8).value == 4
    # boundary: cap == D returns D, cap == D - 1 raises
    assert davenport(cyclic(8), WeightSet(8, (1, 7)), cap=4).value == 4
    with pytest.raises(CapExceededError):
        davenport(cyclic(8), WeightSet(8, (1, 7)), cap=3)


def test_thread_count_payload_invariance():
    g = normalize_group([2, 12])
    w = WeightSet(12, (1, 5))
    a = davenport(g, w, threads=1)
    b = davenport(g, w, threads=3)
    assert (a.value, a.witness, a.nodes_explored) == (b.value, b.witness, b.nodes_explored)


def test_one_process_pool_per_call(monkeypatch):
    built = []
    monkeypatch.setattr(os, "cpu_count", lambda: 4)

    class CountingExecutor(solver.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(solver, "ProcessPoolExecutor", CountingExecutor)
    # the k-scan searches its roots serially at any thread count
    assert davenport(normalize_group([2, 12]), WeightSet(12, (1, 5)), threads=2).value == 6
    assert built == []
    cfg = SweepConfig(p=31, k=2, theta_grid=(0.2, 0.4, 0.6), trials=4, seed=0)
    assert len(threshold_sweep(cfg, threads=2).rows) == 3
    assert built == [2]


def test_pool_workers_are_capped_at_the_cpu_count(monkeypatch):
    # an executor may start all its workers at once, so a thread count far
    # past the CPUs must not start that many; the fake starts no process
    built = []

    class FakeExecutor:
        def __init__(self, max_workers):
            built.append(max_workers)

        def map(self, fn, args, chunksize):
            built.append(chunksize)
            return map(fn, args)

        def shutdown(self, wait, cancel_futures):
            pass

    monkeypatch.setattr(solver, "ProcessPoolExecutor", FakeExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    with solver._Pool(5000) as pool:
        assert pool.map(abs, list(range(-100, 0))) == list(range(100, 0, -1))
    assert built == [3, 100 // (4 * 3)]
    # an unknown CPU count counts as one: serial, no executor
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    with solver._Pool(5000) as pool:
        assert pool.map(abs, [-1, -2]) == [1, 2]
    assert built == [3, 8]


def test_one_table_per_certify_and_classify(monkeypatch):
    built = []

    class CountingTables(solver._WeightTables):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(solver, "_WeightTables", CountingTables)
    # both bounded checks (value and value - 1) run over one set of tables
    assert certify_dav_value(cyclic(23), WeightSet(23, (1, 2, 3)), 8)
    assert len(built) == 1
    built.clear()
    assert not certify_dav_value(cyclic(23), WeightSet(23, (1, 2, 3)), 9)
    assert len(built) == 1


def _killed_by_root(factors, weights, root):
    """Flat indices c with A*c meeting -(A*root) | {0}, by tuple arithmetic."""
    elements = list(itertools.product(*(range(n) for n in factors)))
    zero = elements[0]
    r = elements[root]
    targets = {zero}
    for a in weights:
        targets.add(tuple((-x) % n for x, n in zip(tuple_scale(factors, a, r), factors)))
    return {
        i
        for i, x in enumerate(elements)
        if any(tuple_scale(factors, a, x) in targets for a in weights)
    }


def test_root_survivors_match_tuple_arithmetic():
    # killed(root) solves a*x = t coordinate by coordinate; every root of
    # every case must keep exactly the elements whose multiples miss
    # -(A*root) | {0}, non-unit weights included
    rng = random.Random(41)
    cases = []
    for n in range(2, 61):
        for _ in range(3):
            ws = set(rng.sample(range(1, n), rng.randint(1, min(5, n - 1))))
            non_units = [a for a in range(2, n) if gcd(a, n) > 1]
            if non_units:
                ws.add(rng.choice(non_units))
            cases.append(((n,), tuple(sorted(ws))))
    for fs in ((2, 2), (2, 2, 2), (2, 2, 2, 2), (3, 3, 3), (2, 12), (4, 8), (6, 6)):
        e = fs[-1]
        for _ in range(4):
            ws = rng.sample(range(1, e), rng.randint(1, min(3, e - 1)))
            cases.append((fs, tuple(sorted(ws))))
    checked = 0
    for fs, ws in cases:
        g = GroupSpec(fs)
        tables = solver._WeightTables(g, WeightSet(g.exponent, ws))
        for root in range(1, g.order):
            want = _killed_by_root(fs, ws, root)
            assert tables.killed(root) == want, (fs, ws, root)
            checked += 1
    assert checked >= 4000


def test_later_roots_skip_their_own_kills():
    # every root scans the complement of what its own sums A*r kill, so a
    # root after the first, searched alone, builds no mask for any of them
    cases = [
        ((150,), (1, 2, 148, 149), 5),
        ((30,), (1, 29), 5),
        ((12,), (1, 5), 4),
        ((2, 4), (1, 3), 4),
        ((6, 6), (1, 5), 5),
    ]
    for fs, ws, k in cases:
        g = GroupSpec(fs)
        w = WeightSet(g.exponent, ws)
        roots = solver._WeightTables(g, w).roots
        assert len(roots) > 1, fs
        for r in roots[1:]:
            tables = solver._WeightTables(g, w)
            solver._find_zsf(tables, r, k)
            assert not [c for c in tables.killed(r) if tables.masks[c]], (fs, ws, r)


def test_masks_are_plain_negated_multiples():
    # masks[c] is A*(-c) in the padded layout, with no sentinel: its bit 0 is
    # set exactly when A*c holds 0, which one AND against a reachable set
    # that carries the empty sum then detects
    rng = random.Random(19)
    checked = 0
    for fs in (fs for rank in GROUPS_BY_RANK for fs in rank):
        g = GroupSpec(fs)
        e = g.exponent
        ws = tuple(sorted(rng.sample(range(1, e), rng.randint(1, min(4, e - 1)))))
        tables = solver._WeightTables(g, WeightSet(e, ws))
        pad = solver._padding(g)
        strides = [pj for _, pj in reversed(pad.strides)]  # first coordinate first
        for c in range(g.order):
            x = index_element(g, c)
            want = 0
            for a in ws:
                y = tuple_scale(fs, e - a, x)  # -a*x
                want |= 1 << sum(yj * pj for yj, pj in zip(y, strides))
            got = tables.mask(c)
            assert got == want == tables.masks[c], (fs, ws, c)
            zero_free = solver.first_zero_free(g, ws, [[c]]) == 0
            assert bool(got & 1) == (not zero_free), (fs, ws, c)
            checked += 1
    assert checked >= 500


def test_budget_refuses_nan_seconds():
    with pytest.raises(ValueError):
        solver.Budget(max_seconds=float("nan"))


@pytest.mark.parametrize("limits", [{"max_nodes": -5}, {"max_seconds": -1}, {"max_seconds": -0.5}])
def test_budget_refuses_negative_limits(limits):
    with pytest.raises(ValueError):
        solver.Budget(**limits)
    # a limit of 0 is still a limit
    solver.Budget(**{key: 0 for key in limits})


def test_check_dav_at_most():
    g = cyclic(8)
    w = WeightSet.of(8, [1, 7])
    assert check_dav_at_most(g, w, 4).holds
    res = check_dav_at_most(g, w, 3)
    assert not res.holds
    assert len(res.counterexample.entries) == 3
    assert not has_weighted_zero_sum(g, w, res.counterexample)
    with pytest.raises(ValueError):
        check_dav_at_most(g, w, 0)


def test_check_dav_at_most_deep_search():
    # a 1099-element chain: the kernel must not recurse once per element
    n = 1100
    res = check_dav_at_most(cyclic(n), WeightSet(n, (1,)), n - 1)
    assert not res.holds
    assert res.counterexample == GSequence(cyclic(n), ((1,),) * (n - 1))


def test_memo_limit_bounded_in_bytes():
    # every group the suite and the benchmark search keeps the full entry cap
    assert solver._memo_limit(499) == solver._MEMO_LIMIT
    n = 10_000
    limit = solver._memo_limit(n)
    assert limit < solver._MEMO_LIMIT
    # the largest key the kernel can store at this order: (last index, n-bit R)
    c, bits = n - 1, (1 << n) - 1
    key_bytes = sys.getsizeof((c, bits)) + sys.getsizeof(c) + sys.getsizeof(bits)
    assert limit * key_bytes <= solver._MEMO_BYTES
    # rank 2: R takes twice the order in the padded layout
    g = normalize_group([100, 100])
    width = solver._padding(g).width
    assert width == 2 * g.order
    limit = solver._memo_limit(width)
    c, bits = g.order - 1, (1 << width) - 1
    key_bytes = sys.getsizeof((c, bits)) + sys.getsizeof(c) + sys.getsizeof(bits)
    assert limit * key_bytes <= solver._MEMO_BYTES


@pytest.mark.parametrize(
    "factors, weights",
    [
        pytest.param((3, 9), (1,), id="Z3xZ9-1"),
        pytest.param((48,), (1, 47), id="Z48-pm1"),
        pytest.param((5, 5), (1,), id="Z5xZ5-1"),
    ],
)
def test_fail_memo_clear_keeps_answers(factors, weights):
    # a fail memo of 2 entries is cleared over and over: the value, the
    # witness and the culprit at k = D - 1 stay the default's, and the nodes
    # rise, as states the cleared entries covered are expanded again
    g = GroupSpec(factors)
    ws = WeightSet(g.exponent, weights)
    tables = solver._WeightTables(g, ws)
    tables.padding = pad = solver._Padding(g)
    pad.memo_limit = 2
    nodes, k, witness = 0, 1, []
    while True:
        found, n_nodes = tables.first(k)
        nodes += n_nodes
        if found is None:
            break
        witness, k = found, k + 1
    default = davenport(g, ws)
    assert k == default.value
    # the witness is the culprit of the small memo's check at k = D - 1
    culprit = solver._indices_to_sequence(g, witness)
    assert culprit == default.witness == check_dav_at_most(g, ws, k - 1).counterexample
    assert nodes > default.nodes_explored


def test_move_tables_bounded_in_bytes():
    # the padded layout gives Z_2^r sets of 2^(2r-1) bits; past the table bound
    # the kernel refuses the group before it builds anything
    for g in (normalize_group([2] * 12), cyclic(2**17 + 1)):
        with pytest.raises(GroupOrderError):
            check_dav_at_most(g, WeightSet(g.exponent, (1,)), 2)
    for g in (normalize_group([2] * 11), cyclic(2**17)):
        pad = solver._padding(g)
        assert g.order * pad.width // 16 <= solver._TABLE_BYTES


def test_certify_dav_value_agrees_with_solver():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 14)
        size = rng.randint(1, min(4, n - 1))
        ws = WeightSet(n, tuple(sorted(rng.sample(range(1, n), size))))
        value = davenport(cyclic(n), ws).value
        assert certify_dav_value(cyclic(n), ws, value)
        assert not certify_dav_value(cyclic(n), ws, value + 1)
        assert not certify_dav_value(cyclic(n), ws, value - 1)
    # no value below 1 is certified, and no search runs for it
    assert certify_dav_value(cyclic(7), WeightSet(7, (1,)), 0) is False


def test_certify_threaded_with_listed_weights():
    # threads is accepted and ignored; the answer is the serial one
    assert certify_dav_value(cyclic(12), WeightSet(12, units(12)), 4, threads=2)


def test_max_davenport_over_size():
    res = max_davenport_over_size(7, 2)
    assert res.value == 4 == ceil(7 / 2)
    assert res.argmax.residues == (1, 2)
    assert max_davenport_over_size(11, 3).value == ceil(11 / 3)
    with pytest.raises(ValueError):
        max_davenport_over_size(8, 2)
    with pytest.raises(ValueError):
        max_davenport_over_size(7, 7)


def test_nodes_and_elapsed_reported():
    r = davenport(cyclic(10), WeightSet(10, (1, 2, 3)))
    assert r.nodes_explored > 0
    assert r.elapsed >= 0.0
