"""The search kernel against results pinned from its earlier versions.

The rows below are (value, witness, nodes) for davenport and (holds,
counterexample, nodes) for check_dav_at_most, on (G, A, k) drawn by _draw()
over groups of rank 1 to 4.  Witnesses are flat indices.  Values, witnesses,
holds flags and counterexamples are those of the flat-layout kernel, which
translated reachable sets one move at a time with engine._Layout.translate.
Node counts are those of that kernel where no unit s != 1 fixes A (s*A = A);
where one does, they are the counts of the kernel that never extends a
prefix by an element such a unit maps lower.  Any other change to the
layout, the visit order or the fail memo shows up here as a different node
count.
"""

import random

from davlab.engine import WeightSet
from davlab.groups import GroupSpec, element_index
from davlab.solver import check_dav_at_most, davenport

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
    ((2, 2, 2, 4), (1,), None, 7, (1, 1, 1, 4, 8, 16), 22017),
    ((2, 2, 2, 4), (1,), 2, False, (1, 1), 1),
    ((11,), (8,), None, 11, (1, 1, 1, 1, 1, 1, 1, 1, 1, 1), 45),
    ((11,), (8,), 1, False, (1,), 0),
    ((2, 2, 2, 4), (2,), None, 2, (1,), 8),
    ((2, 2, 2, 4), (2,), 5, True, None, 8),
    ((2, 2, 6), (1, 5), None, 5, (1, 2, 6, 12), 391),
    ((2, 2, 6), (1, 5), 6, True, None, 385),
    ((19,), (10, 15, 18), None, 4, (1, 1, 3), 17),
    ((19,), (10, 15, 18), 3, False, (1, 1, 3), 2),
    ((2, 2, 2), (1,), None, 4, (1, 2, 4), 31),
    ((2, 2, 2), (1,), 8, True, None, 0),
    ((2, 2, 2, 2), (1,), None, 5, (1, 2, 4, 8), 336),
    ((2, 2, 2, 2), (1,), 2, False, (1, 2), 1),
    ((2, 2, 2, 4), (2, 3), None, 2, (1,), 8),
    ((2, 2, 2, 4), (2, 3), 7, True, None, 8),
    ((2, 2, 2, 2), (1,), None, 5, (1, 2, 4, 8), 336),
    ((2, 2, 2, 2), (1,), 1, False, (1,), 0),
    ((24,), (5, 14, 16), None, 3, (1, 1), 17),
    ((24,), (5, 14, 16), 8, True, None, 16),
    ((2, 4), (1, 2, 3), None, 2, (1,), 2),
    ((2, 4), (1, 2, 3), 5, True, None, 2),
    ((2, 2, 2, 4), (1, 2, 3), None, 2, (1,), 8),
    ((2, 2, 2, 4), (1, 2, 3), 7, True, None, 8),
    ((4, 4), (1, 3), None, 5, (1, 2, 4, 8), 94),
    ((4, 4), (1, 3), 3, False, (1, 2, 4), 2),
    ((2, 2, 2, 4), (1, 2), None, 2, (1,), 8),
    ((2, 2, 2, 4), (1, 2), 8, True, None, 8),
    ((2, 2, 2, 4), (1, 3), None, 6, (1, 2, 4, 8, 16), 2921),
    ((2, 2, 2, 4), (1, 3), 5, False, (1, 2, 4, 8, 16), 4),
    ((3, 3, 3), (2,), None, 7, (1, 1, 3, 3, 9, 9), 24432),
    ((3, 3, 3), (2,), 5, False, (1, 1, 3, 3, 9), 4),
    ((2, 2, 2, 2), (1,), None, 5, (1, 2, 4, 8), 336),
    ((2, 2, 2, 2), (1,), 2, False, (1, 2), 1),
    ((3, 3, 3), (1, 2), None, 4, (1, 3, 9), 94),
    ((3, 3, 3), (1, 2), 7, True, None, 91),
    ((5, 5), (1,), None, 9, (1, 1, 1, 1, 5, 5, 5, 5), 19668),
    ((5, 5), (1,), 1, False, (1,), 0),
    ((2, 2, 2, 2), (1,), None, 5, (1, 2, 4, 8), 336),
    ((2, 2, 2, 2), (1,), 2, False, (1, 2), 1),
    ((19,), (5, 12), None, 10, (1, 1, 1, 1, 1, 1, 1, 1, 1), 72),
    ((19,), (5, 12), 1, False, (1,), 0),
    ((2, 4, 4), (1, 2, 3), None, 3, (1, 4), 61),
    ((2, 4, 4), (1, 2, 3), 8, True, None, 60),
    ((4, 4), (2,), None, 3, (1, 4), 19),
    ((4, 4), (2,), 3, True, None, 18),
    ((4, 4), (1, 2, 3), None, 3, (1, 4), 7),
    ((4, 4), (1, 2, 3), 4, True, None, 6),
    ((2, 2, 2, 2), (1,), None, 5, (1, 2, 4, 8), 336),
    ((2, 2, 2, 2), (1,), 2, False, (1, 2), 1),
    ((13,), (1, 6, 11), None, 3, (1, 1), 9),
    ((13,), (1, 6, 11), 8, True, None, 1),
    ((2, 2, 6), (1, 3), None, 4, (1, 6, 12), 579),
    ((2, 2, 6), (1, 3), 8, True, None, 576),
    ((2, 2, 2, 2), (1,), None, 5, (1, 2, 4, 8), 336),
    ((2, 2, 2, 2), (1,), 7, True, None, 330),
    ((3, 3, 3), (1,), None, 7, (1, 1, 3, 3, 9, 9), 24432),
    ((3, 3, 3), (1,), 7, True, None, 24417),
    ((8,), (1, 2, 5), None, 3, (1, 1), 3),
    ((8,), (1, 2, 5), 1, False, (1,), 0),
    ((2, 2, 2, 2), (1,), None, 5, (1, 2, 4, 8), 336),
    ((2, 2, 2, 2), (1,), 3, False, (1, 2, 4), 2),
    ((2, 6), (2,), None, 3, (1, 1), 17),
    ((2, 6), (2,), 7, True, None, 16),
    ((3, 3, 3), (1, 2), None, 4, (1, 3, 9), 94),
    ((3, 3, 3), (1, 2), 5, True, None, 91),
    ((2, 8), (3,), None, 9, (1, 1, 1, 1, 1, 1, 1, 8), 630),
    ((2, 8), (3,), 8, False, (1, 1, 1, 1, 1, 1, 1, 8), 7),
    ((2, 2, 2, 4), (1, 2), None, 2, (1,), 8),
    ((2, 2, 2, 4), (1, 2), 6, True, None, 8),
    ((2, 2, 2, 4), (3,), None, 7, (1, 1, 1, 4, 8, 16), 22017),
    ((2, 2, 2, 4), (3,), 5, False, (1, 1, 1, 4, 8), 4),
    ((8,), (1,), None, 8, (1, 1, 1, 1, 1, 1, 1), 21),
    ((8,), (1,), 2, False, (1, 1), 1),
    ((2, 2, 2, 4), (1, 3), None, 6, (1, 2, 4, 8, 16), 2921),
    ((2, 2, 2, 4), (1, 3), 1, False, (1,), 0),
    ((2, 2, 4), (1, 3), None, 5, (1, 2, 4, 8), 174),
    ((2, 2, 4), (1, 3), 2, False, (1, 2), 1),
    ((2, 4, 4), (1, 2, 3), None, 3, (1, 4), 61),
    ((2, 4, 4), (1, 2, 3), 5, True, None, 60),
    ((2, 4), (1, 2), None, 2, (1,), 2),
    ((2, 4), (1, 2), 3, True, None, 2),
    ((23,), (12,), None, 23, (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), 231),
    ((23,), (12,), 3, False, (1, 1, 1), 2),
    ((18,), (3, 9), None, 2, (1,), 3),
    ((18,), (3, 9), 5, True, None, 3),
    ((2, 2, 4), (1, 2), None, 2, (1,), 4),
    ((2, 2, 4), (1, 2), 1, False, (1,), 0),
    ((2, 2, 2, 4), (1, 3), None, 6, (1, 2, 4, 8, 16), 2921),
    ((2, 2, 2, 4), (1, 3), 2, False, (1, 2), 1),
    ((2, 2), (1,), None, 3, (1, 2), 4),
    ((2, 2), (1,), 2, False, (1, 2), 1),
    ((2, 2, 6), (1, 5), None, 5, (1, 2, 6, 12), 391),
    ((2, 2, 6), (1, 5), 7, True, None, 385),
    ((2, 4, 4), (3,), None, 8, (1, 1, 1, 4, 4, 4, 16), 76006),
    ((2, 4, 4), (3,), 8, True, None, 75985),
    ((2, 2, 2, 2), (1,), None, 5, (1, 2, 4, 8), 336),
    ((2, 2, 2, 2), (1,), 7, True, None, 330),
    ((2, 2, 6), (4,), None, 3, (1, 1), 49),
    ((2, 2, 6), (4,), 1, False, (1,), 0),
    ((2, 2, 6), (1, 3), None, 4, (1, 6, 12), 579),
    ((2, 2, 6), (1, 3), 7, True, None, 576),
    ((2, 4, 4), (3,), None, 8, (1, 1, 1, 4, 4, 4, 16), 76006),
    ((2, 4, 4), (3,), 6, False, (1, 1, 1, 4, 4, 4), 5),
    ((2, 2), (1,), None, 3, (1, 2), 4),
    ((2, 2), (1,), 2, False, (1, 2), 1),
    ((3,), (2,), None, 3, (1, 1), 1),
    ((3,), (2,), 5, True, None, 0),
    ((15,), (3, 6, 7), None, 3, (1, 1), 5),
    ((15,), (3, 6, 7), 7, True, None, 3),
    ((2, 2, 2, 2), (1,), None, 5, (1, 2, 4, 8), 336),
    ((2, 2, 2, 2), (1,), 3, False, (1, 2, 4), 2),
    ((2, 2), (1,), None, 3, (1, 2), 4),
    ((2, 2), (1,), 3, True, None, 3),
    ((2, 2), (1,), None, 3, (1, 2), 4),
    ((2, 2), (1,), 8, True, None, 0),
    ((2, 2, 2, 4), (1, 3), None, 6, (1, 2, 4, 8, 16), 2921),
    ((2, 2, 2, 4), (1, 3), 3, False, (1, 2, 4), 2),
]


def test_kernel_matches_pinned_results():
    got = [(fs, ws, k, *_run(fs, ws, k)) for fs, ws, k in _draw()]
    assert got == PINNED
