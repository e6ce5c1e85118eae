"""The search kernel against results pinned from its earlier versions.

The rows below are (value, witness, nodes) for davenport and (holds,
counterexample, nodes) for check_dav_at_most, on (G, A, k) drawn by _draw()
over groups of rank 1 to 4.  Witnesses are flat indices.  Values, witnesses,
holds flags and counterexamples are those of the flat-layout kernel, which
translated reachable sets one move at a time with engine._Layout.translate.
Node counts on cyclic groups are those of that kernel.  Leaving out the
elements that a unit s != 1 with s*A = A maps lower changes no count without
re-rooting: since A*(s*x) = A*x, the lower twin's failure is a fail-memo
entry that covers the upper twin (the last test below).  On non-cyclic
groups the counts are those of the kernel that also roots its search at the
least element of each Aut(G)-orbit instead of each unit orbit, and on Z_p^r
those of the kernel that also keeps every later element in the span of the
prefix or least outside it.  Every count is that of the kernel whose fail
memo is keyed by Sigma alone, with entries that cover later starts, whose
growth rule counts the last element's room m and, on Z_p, a growth of |A|
per element (Cauchy-Davenport; see solver._find_zsf), whose roots after the
first never append an element whose Aut(G)-orbit minimum is an earlier root
(see solver._WeightTables.root_scan), and whose root state skips a second
element x2 = u*root with u^-1*root < x2 (re-rooting, see
solver._find_zsf).  Node counts are not an invariant: a kernel that prunes
more re-pins them, with values, witnesses, holds flags and counterexamples
unchanged, and the tests below check each pruning rule against the search
without it.  Any other change to the layout, the visit order or the fail
memo shows up here as a different node count.
"""

import random
from collections import Counter

from davlab import solver
from davlab.engine import WeightSet
from davlab.groups import GroupSpec, element_index, orbit_minima, units
from davlab.numtheory import isprime
from davlab.solver import check_dav_at_most, davenport

from test_sweep_checks import P as SWEEP_P, _draw as sweep_draw

GROUPS_BY_RANK = [
    [(n,) for n in range(2, 25)],
    [(2, 2), (2, 4), (2, 6), (3, 3), (4, 4), (2, 8), (3, 6), (5, 5)],
    [(2, 2, 2), (2, 2, 4), (2, 2, 6), (3, 3, 3), (2, 4, 4)],
    [(2, 2, 2, 2), (2, 2, 2, 4)],
]


def _draw(seed=2026, count=60):
    """(factors, weights, k) triples; k = None asks for davenport."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        fs = rng.choice(rng.choice(GROUPS_BY_RANK))
        e = fs[-1]
        ws = tuple(sorted(rng.sample(range(1, e), rng.randint(1, min(3, e - 1)))))
        cases.append((fs, ws, None))
        cases.append((fs, ws, rng.randint(1, 8)))
    return cases


def _run(fs, ws, k):
    g = GroupSpec(fs)
    w = WeightSet(g.exponent, ws)
    if k is None:
        r = davenport(g, w, threads=1)
        return r.value, tuple(element_index(g, x) for x in r.witness.entries), r.nodes_explored
    c = check_dav_at_most(g, w, k, threads=1)
    if c.counterexample is None:
        return c.holds, None, c.nodes
    return c.holds, tuple(element_index(g, x) for x in c.counterexample.entries), c.nodes


PINNED = [
    ((12,), (2, 4, 9), None, 3, (1, 1), 4),
    ((12,), (2, 4, 9), 7, True, None, 2),
    ((2, 2, 2, 4), (1,), None, 7, (1, 1, 1, 4, 8, 16), 2794),
    ((2, 2, 2, 4), (1,), 2, False, (1, 1), 1),
    ((11,), (8,), None, 11, (1, 1, 1, 1, 1, 1, 1, 1, 1, 1), 45),
    ((11,), (8,), 1, False, (1,), 0),
    ((2, 2, 2, 4), (2,), None, 2, (1,), 1),
    ((2, 2, 2, 4), (2,), 5, True, None, 1),
    ((2, 2, 6), (1, 5), None, 5, (1, 2, 6, 12), 71),
    ((2, 2, 6), (1, 5), 6, True, None, 65),
    ((19,), (10, 15, 18), None, 4, (1, 1, 3), 10),
    ((19,), (10, 15, 18), 3, False, (1, 1, 3), 2),
    ((2, 2, 2), (1,), None, 4, (1, 2, 4), 5),
    ((2, 2, 2), (1,), 8, True, None, 0),
    ((2, 2, 2, 2), (1,), None, 5, (1, 2, 4, 8), 9),
    ((2, 2, 2, 2), (1,), 2, False, (1, 2), 1),
    ((2, 2, 2, 4), (2, 3), None, 2, (1,), 1),
    ((2, 2, 2, 4), (2, 3), 7, True, None, 1),
    ((2, 2, 2, 2), (1,), None, 5, (1, 2, 4, 8), 9),
    ((2, 2, 2, 2), (1,), 1, False, (1,), 0),
    ((24,), (5, 14, 16), None, 3, (1, 1), 13),
    ((24,), (5, 14, 16), 8, True, None, 12),
    ((2, 4), (1, 2, 3), None, 2, (1,), 1),
    ((2, 4), (1, 2, 3), 5, True, None, 0),
    ((2, 2, 2, 4), (1, 2, 3), None, 2, (1,), 1),
    ((2, 2, 2, 4), (1, 2, 3), 7, True, None, 1),
    ((4, 4), (1, 3), None, 5, (1, 2, 4, 8), 25),
    ((4, 4), (1, 3), 3, False, (1, 2, 4), 2),
    ((2, 2, 2, 4), (1, 2), None, 2, (1,), 1),
    ((2, 2, 2, 4), (1, 2), 8, True, None, 1),
    ((2, 2, 2, 4), (1, 3), None, 6, (1, 2, 4, 8, 16), 206),
    ((2, 2, 2, 4), (1, 3), 5, False, (1, 2, 4, 8, 16), 4),
    ((3, 3, 3), (2,), None, 7, (1, 1, 3, 3, 9, 9), 134),
    ((3, 3, 3), (2,), 5, False, (1, 1, 3, 3, 9), 4),
    ((2, 2, 2, 2), (1,), None, 5, (1, 2, 4, 8), 9),
    ((2, 2, 2, 2), (1,), 2, False, (1, 2), 1),
    ((3, 3, 3), (1, 2), None, 4, (1, 3, 9), 5),
    ((3, 3, 3), (1, 2), 7, True, None, 2),
    ((5, 5), (1,), None, 9, (1, 1, 1, 1, 5, 5, 5, 5), 757),
    ((5, 5), (1,), 1, False, (1,), 0),
    ((2, 2, 2, 2), (1,), None, 5, (1, 2, 4, 8), 9),
    ((2, 2, 2, 2), (1,), 2, False, (1, 2), 1),
    ((19,), (5, 12), None, 10, (1, 1, 1, 1, 1, 1, 1, 1, 1), 36),
    ((19,), (5, 12), 1, False, (1,), 0),
    ((2, 4, 4), (1, 2, 3), None, 3, (1, 4), 4),
    ((2, 4, 4), (1, 2, 3), 8, True, None, 3),
    ((4, 4), (2,), None, 3, (1, 4), 3),
    ((4, 4), (2,), 3, True, None, 2),
    ((4, 4), (1, 2, 3), None, 3, (1, 4), 2),
    ((4, 4), (1, 2, 3), 4, True, None, 1),
    ((2, 2, 2, 2), (1,), None, 5, (1, 2, 4, 8), 9),
    ((2, 2, 2, 2), (1,), 2, False, (1, 2), 1),
    ((13,), (1, 6, 11), None, 3, (1, 1), 4),
    ((13,), (1, 6, 11), 8, True, None, 0),
    ((2, 2, 6), (1, 3), None, 4, (1, 6, 12), 103),
    ((2, 2, 6), (1, 3), 8, True, None, 100),
    ((2, 2, 2, 2), (1,), None, 5, (1, 2, 4, 8), 9),
    ((2, 2, 2, 2), (1,), 7, True, None, 3),
    ((3, 3, 3), (1,), None, 7, (1, 1, 3, 3, 9, 9), 134),
    ((3, 3, 3), (1,), 7, True, None, 119),
    ((8,), (1, 2, 5), None, 3, (1, 1), 3),
    ((8,), (1, 2, 5), 1, False, (1,), 0),
    ((2, 2, 2, 2), (1,), None, 5, (1, 2, 4, 8), 9),
    ((2, 2, 2, 2), (1,), 3, False, (1, 2, 4), 2),
    ((2, 6), (2,), None, 3, (1, 1), 5),
    ((2, 6), (2,), 7, True, None, 4),
    ((3, 3, 3), (1, 2), None, 4, (1, 3, 9), 5),
    ((3, 3, 3), (1, 2), 5, True, None, 2),
    ((2, 8), (3,), None, 9, (1, 1, 1, 1, 1, 1, 1, 8), 221),
    ((2, 8), (3,), 8, False, (1, 1, 1, 1, 1, 1, 1, 8), 7),
    ((2, 2, 2, 4), (1, 2), None, 2, (1,), 1),
    ((2, 2, 2, 4), (1, 2), 6, True, None, 1),
    ((2, 2, 2, 4), (3,), None, 7, (1, 1, 1, 4, 8, 16), 2794),
    ((2, 2, 2, 4), (3,), 5, False, (1, 1, 1, 4, 8), 4),
    ((8,), (1,), None, 8, (1, 1, 1, 1, 1, 1, 1), 21),
    ((8,), (1,), 2, False, (1, 1), 1),
    ((2, 2, 2, 4), (1, 3), None, 6, (1, 2, 4, 8, 16), 206),
    ((2, 2, 2, 4), (1, 3), 1, False, (1,), 0),
    ((2, 2, 4), (1, 3), None, 5, (1, 2, 4, 8), 40),
    ((2, 2, 4), (1, 3), 2, False, (1, 2), 1),
    ((2, 4, 4), (1, 2, 3), None, 3, (1, 4), 4),
    ((2, 4, 4), (1, 2, 3), 5, True, None, 3),
    ((2, 4), (1, 2), None, 2, (1,), 1),
    ((2, 4), (1, 2), 3, True, None, 1),
    ((23,), (12,), None, 23, (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), 231),
    ((23,), (12,), 3, False, (1, 1, 1), 2),
    ((18,), (3, 9), None, 2, (1,), 3),
    ((18,), (3, 9), 5, True, None, 3),
    ((2, 2, 4), (1, 2), None, 2, (1,), 1),
    ((2, 2, 4), (1, 2), 1, False, (1,), 0),
    ((2, 2, 2, 4), (1, 3), None, 6, (1, 2, 4, 8, 16), 206),
    ((2, 2, 2, 4), (1, 3), 2, False, (1, 2), 1),
    ((2, 2), (1,), None, 3, (1, 2), 2),
    ((2, 2), (1,), 2, False, (1, 2), 1),
    ((2, 2, 6), (1, 5), None, 5, (1, 2, 6, 12), 71),
    ((2, 2, 6), (1, 5), 7, True, None, 65),
    ((2, 4, 4), (3,), None, 8, (1, 1, 1, 4, 4, 4, 16), 10598),
    ((2, 4, 4), (3,), 8, True, None, 10577),
    ((2, 2, 2, 2), (1,), None, 5, (1, 2, 4, 8), 9),
    ((2, 2, 2, 2), (1,), 7, True, None, 3),
    ((2, 2, 6), (4,), None, 3, (1, 1), 5),
    ((2, 2, 6), (4,), 1, False, (1,), 0),
    ((2, 2, 6), (1, 3), None, 4, (1, 6, 12), 103),
    ((2, 2, 6), (1, 3), 7, True, None, 100),
    ((2, 4, 4), (3,), None, 8, (1, 1, 1, 4, 4, 4, 16), 10598),
    ((2, 4, 4), (3,), 6, False, (1, 1, 1, 4, 4, 4), 5),
    ((2, 2), (1,), None, 3, (1, 2), 2),
    ((2, 2), (1,), 2, False, (1, 2), 1),
    ((3,), (2,), None, 3, (1, 1), 1),
    ((3,), (2,), 5, True, None, 0),
    ((15,), (3, 6, 7), None, 3, (1, 1), 5),
    ((15,), (3, 6, 7), 7, True, None, 2),
    ((2, 2, 2, 2), (1,), None, 5, (1, 2, 4, 8), 9),
    ((2, 2, 2, 2), (1,), 3, False, (1, 2, 4), 2),
    ((2, 2), (1,), None, 3, (1, 2), 2),
    ((2, 2), (1,), 3, True, None, 1),
    ((2, 2), (1,), None, 3, (1, 2), 2),
    ((2, 2), (1,), 8, True, None, 0),
    ((2, 2, 2, 4), (1, 3), None, 6, (1, 2, 4, 8, 16), 206),
    ((2, 2, 2, 4), (1, 3), 3, False, (1, 2, 4), 2),
]


def test_kernel_matches_pinned_results():
    got = [(fs, ws, k, *_run(fs, ws, k)) for fs, ws, k in _draw()]
    assert got == PINNED


# davenport (value, witness, nodes) on groups of several roots whose
# refutations reach roots after the first, from the benchmark's exact battery
PINNED_MULTI_ROOT = [
    ((150,), (1, 2, 148, 149), 5, (1, 3, 9, 27), 2949),
    ((48,), (1, 47), 6, (1, 2, 4, 8, 16), 785),
    ((3, 9), (1,), 11, (1, 1, 1, 1, 1, 1, 1, 1, 9, 9), 5097),
    ((2, 4, 4), (1,), 8, (1, 1, 1, 4, 4, 4, 16), 10598),
]


def test_multi_root_answers_pinned():
    got = [(fs, ws, *_run(fs, ws, None)) for fs, ws, *_ in PINNED_MULTI_ROOT]
    assert got == PINNED_MULTI_ROOT


def _unit_orbit_roots(g):
    """The nonzero flat indices least in their orbit under the units of Z_e."""
    mins = orbit_minima(g, units(g.exponent))
    return tuple(i for i in range(1, g.order) if mins[i] == i)


def _run_on_tables(fs, ws, k, **settings):
    """_run on one set of tables with the given attributes set, such as
    `roots` (the root scan) or `span_prime` (0 turns the span rule off)."""
    g = GroupSpec(fs)
    tables = solver._WeightTables(g, WeightSet(g.exponent, ws))
    for name, value in settings.items():
        setattr(tables, name, value)
    if k is not None:
        found, nodes = tables.first(k)
        return found is None, found and tuple(sorted(found)), nodes
    witness, nodes, k = (), 0, 1
    while True:
        found, n_nodes = tables.first(k)
        nodes += n_nodes
        if found is None:
            return k, witness, nodes
        witness, k = tuple(sorted(found)), k + 1


def test_automorphism_roots_agree_with_unit_orbit_roots():
    # rooting at Aut(G)-orbit minima, a subset of the unit-orbit minima,
    # keeps every answer and drops only nodes under the roots it skips
    checked = 0
    for fs, ws, k in _draw():
        if len(fs) == 1:
            continue
        unit = _run_on_tables(fs, ws, k, roots=_unit_orbit_roots(GroupSpec(fs)))
        got = _run(fs, ws, k)
        assert got[:2] == unit[:2], (fs, ws, k)
        assert got[2] <= unit[2], (fs, ws, k)
        checked += 1
    assert checked >= 60


def test_span_rule_agrees_with_the_search_without_it():
    # the span rule keeps every answer and drops nodes only on Z_p^r
    elementary = lowered = 0
    for fs, ws, k in _draw():
        if len(fs) == 1:
            continue
        off = _run_on_tables(fs, ws, k, span_prime=0)
        got = _run(fs, ws, k)
        assert got[:2] == off[:2], (fs, ws, k)
        if fs[0] == fs[-1] and isprime(fs[0]):
            assert got[2] <= off[2], (fs, ws, k)
            elementary += 1
            lowered += got[2] < off[2]
        else:
            assert got[2] == off[2], (fs, ws, k)
    assert elementary >= 30 and lowered >= 20


def _growth_cases():
    """Davenport questions on Z_n, n <= 40, with {1, 2}, {1, -1}, the
    intervals [1, r] and the units."""
    cases = []
    for n in range(3, 41):
        sets = {(1, 2), (1, n - 1), tuple(units(n))}
        sets |= {tuple(range(1, r + 1)) for r in range(1, n)}
        cases += [((n,), ws, None) for ws in sorted(sets)]
    return cases


def test_growth_rule_agrees_with_one_new_sum_per_element():
    # bound = (1, 1) is the rule that counts one new sum per element and one
    # for the last element's room; (g, m) keeps every answer and drops nodes
    cases = _draw() + _growth_cases()
    lowered = 0
    for fs, ws, k in cases:
        old = _run_on_tables(fs, ws, k, bound=(1, 1))
        got = _run_on_tables(fs, ws, k)
        assert got[:2] == old[:2], (fs, ws, k)
        assert got[2] <= old[2], (fs, ws, k)
        lowered += got[2] < old[2]
    assert len(cases) > 700 and lowered >= 300


def _exact_start(entries, c, r):
    """The fail memo that covers a child only at its entries' own start c."""
    return any(entries[i] == c and entries[i + 1] <= r for i in range(0, len(entries), 2))


def test_fail_memo_covers_later_starts(monkeypatch):
    # an entry (c, r) of a Sigma covers a child (c', r') with c <= c' and
    # r <= r'; against the memo that covers c' = c only, it keeps every
    # answer and drops nodes
    covered = solver._covered
    assert covered((5, 3), 5, 3) and covered((5, 3), 7, 4)
    assert not covered((5, 3), 4, 3) and not covered((5, 3), 5, 2)
    assert covered((9, 1, 5, 3), 9, 1) and covered((9, 1, 5, 3), 6, 3)
    assert not covered((9, 1, 5, 3), 6, 2)
    cases = _draw() + _growth_cases()
    got = [_run_on_tables(*case) for case in cases]
    monkeypatch.setattr(solver, "_covered", _exact_start)
    lowered = 0
    for case, new in zip(cases, got):
        exact = _run_on_tables(*case)
        assert new[:2] == exact[:2], case
        assert new[2] <= exact[2], case
        lowered += new[2] < exact[2]
    assert lowered >= 100, lowered


# weight sets whose lex-least zero-sum-free multiset of size 3 starts at the
# root 2, with 2 repeated: [2, 2, 3] or [2, 2, 9]
LATER_ROOT_WITNESSES = [((24,), (1, 3, 7, 10)), ((24,), (3, 5, 11, 14, 15)), ((30,), (1, 3, 4, 5, 13))]


def _exact_battery_multi_root():
    """The benchmark's exact davenport questions, undilated, on the groups
    with more than one root: {1} on Z_n (n <= 30), {1, -1} (n <= 48), the
    intervals [1, r] for r <= 4 (n <= 40), {1} and {1, -1} on Z_3+Z_9,
    Z_2+Z_4, Z_4+Z_4, Z_2+Z_6 and Z_2^2+Z_4, and {±1, ±2} on Z_150."""
    cases = []
    for n in range(4, 49):
        if isprime(n):
            continue
        if n <= 30:
            cases.append(((n,), (1,), None))
        cases.append(((n,), (1, n - 1), None))
        cases += [((n,), tuple(range(1, r + 1)), None) for r in (2, 3, 4) if r + 2 <= n <= 40]
    for fs in ((3, 9), (2, 4), (4, 4), (2, 6), (2, 2, 4)):
        cases += [(fs, (1,), None), (fs, (1, fs[-1] - 1), None)]
    cases.append(((150,), (1, 2, 148, 149), None))
    return cases


def test_later_roots_skip_the_orbits_of_earlier_roots(monkeypatch):
    # under a root after the first, an element whose Aut(G)-orbit minimum is
    # an earlier root is never appended; against the search that appends
    # it, every answer stays and, on these questions, no node count rises
    cases = _draw() + _exact_battery_multi_root()
    cases += [(fs, ws, k) for fs, ws in LATER_ROOT_WITNESSES for k in (None, 3)]
    got = [_run(*case) for case in cases]
    monkeypatch.setattr(solver, "_outside_orbits", lambda group, roots, xs: xs)
    lowered = Counter()
    for case, new in zip(cases, got):
        off = _run(*case)
        assert new[:2] == off[:2], case
        assert new[2] <= off[2], case
        lowered[len(case[0]) > 1] += new[2] < off[2]
    assert lowered[False] >= 80 and lowered[True] >= 25, lowered


def _sweep_questions(count=60):
    """check_dav_at_most(Z_499, A, 3) for `count` theta-random A spread over
    the k = 3 window of the benchmark's sweep."""
    return [((SWEEP_P,), sweep_draw(i, count).residues, 3) for i in range(count)]


def test_re_rooting_agrees_with_the_search_without_it():
    # the root state skips x2 = u*root, u a unit mod ord(root), when
    # u^-1*root < x2 (see solver._find_zsf); against the search without it
    # (reroot = 0) every answer stays and, on these questions, no node count
    # rises
    cases = _draw() + _growth_cases() + _exact_battery_multi_root() + _sweep_questions()
    cases += [(fs, ws, k) for fs, ws in LATER_ROOT_WITNESSES for k in (None, 3)]
    lowered = Counter()
    for case in cases:
        off = _run_on_tables(*case, reroot=0)
        got = _run_on_tables(*case)
        assert got[:2] == off[:2], case
        assert got[2] <= off[2], case
        lowered[case[0] == (SWEEP_P,)] += got[2] < off[2]
    assert lowered[False] >= 150 and lowered[True] >= 20, lowered


def test_unit_stabilizer_rule_changes_no_node_count(monkeypatch):
    # a unit s with s*A = A gives A*(s*x) = A*x, so appending x or s*x makes
    # the same child Sigma: the two are killed or pruned alike, and where the
    # lower twin's child fails, its fail-memo entry covers the upper twin's.
    # Without re-rooting, leaving out the elements such a unit maps lower
    # saves candidate tests only, on every question the other agreement tests
    # ask.  With it, the root state may skip the lower twin and keep the
    # upper one, which then has no fail-memo entry to cover it: answers stay,
    # and leaving out the upper twin saves nodes too.
    cases = _draw() + _growth_cases() + _exact_battery_multi_root()
    cases += [(fs, ws, k) for fs, ws in LATER_ROOT_WITNESSES for k in (None, 3)]
    fixed = sum(bool(solver._stabilizer(WeightSet(fs[-1], ws))) for fs, ws, _ in cases)
    got = [(_run_on_tables(*case, reroot=0), _run_on_tables(*case)) for case in cases]
    monkeypatch.setattr(solver, "_stabilizer", lambda weights: ())
    lowered = 0
    for case, (new_off, new_on) in zip(cases, got):
        assert new_off == _run_on_tables(*case, reroot=0), case
        old_on = _run_on_tables(*case)
        assert new_on[:2] == old_on[:2], case
        assert new_on[2] <= old_on[2], case
        lowered += new_on[2] < old_on[2]
    assert len(cases) > 1100 and fixed >= 150, (len(cases), fixed)
    assert lowered >= 30, lowered
