"""Bounded checks of the sweep's k = 3 rows against results pinned before the
tables were built on demand.

check_dav_at_most(Z_499, A, 3) is the question behind every k = 3
classification of a seeded theta-random A.  The rows below are the kernel's
(|A|, holds, counterexample, nodes) for thirty such A, drawn by _draw() at
densities spread over the k = 3 window of the benchmark's sweep, from the
kernel that built the mask A*(-c) of every element c up front.  Counterexamples
are residues.  Node counts are those of the kernel whose root state skips a
second element x with x^-1 < x (re-rooting, see solver._find_zsf), about
half of what that kernel took; the masks it builds are unchanged.
"""

import math
import random

from davlab import solver
from davlab.groups import cyclic
from davlab.randomlab import sample_theta_random
from davlab.solver import check_dav_at_most

P = 499


def _draw(i, count=30):
    """The i-th of `count` theta-random A, densities evenly spaced from the
    window's low end to its high end."""
    low = 0.2 * math.sqrt(P) / P
    high = 1.5 * (9 * P * math.log(P)) ** (1 / 3) / P
    return sample_theta_random(P, low + (high - low) * i / (count - 1), random.Random(8000 + i))


PINNED = [
    (0, 6, False, (1, 1, 1), 2),
    (1, 3, False, (1, 1, 1), 2),
    (2, 9, False, (1, 2, 10), 2),
    (3, 8, False, (1, 1, 1), 2),
    (4, 8, False, (1, 1, 1), 2),
    (5, 11, False, (1, 1, 1), 2),
    (6, 14, False, (1, 7, 274), 4),
    (7, 16, True, None, 143),
    (8, 14, False, (1, 1, 11), 2),
    (9, 18, False, (1, 1, 87), 2),
    (10, 17, True, None, 139),
    (11, 21, True, None, 98),
    (12, 19, False, (1, 1, 1), 2),
    (13, 27, True, None, 58),
    (14, 27, True, None, 50),
    (15, 24, True, None, 82),
    (16, 28, True, None, 53),
    (17, 26, True, None, 77),
    (18, 45, True, None, 1),
    (19, 35, True, None, 4),
    (20, 51, True, None, 1),
    (21, 23, True, None, 98),
    (22, 47, True, None, 1),
    (23, 30, True, None, 38),
    (24, 39, True, None, 1),
    (25, 35, True, None, 2),
    (26, 44, True, None, 2),
    (27, 38, True, None, 1),
    (28, 52, True, None, 1),
    (29, 49, True, None, 1),
]


def test_sweep_checks_match_pinned_results():
    got = []
    for i in range(len(PINNED)):
        ws = _draw(i)
        r = check_dav_at_most(cyclic(P), ws, 3, threads=1)
        ce = None if r.counterexample is None else tuple(e[0] for e in r.counterexample.entries)
        got.append((i, len(ws), r.holds, ce, r.nodes))
    assert got == PINNED


def test_refutation_builds_fewer_masks_than_elements():
    # the root's own reachable set kills most candidates, whose masks are
    # never built; a refutation reads the mask of every other one
    ws = _draw(13)
    tables = solver._WeightTables(cyclic(P), ws)
    assert solver._find_zsf(tables, 1, 3) == (None, 58)
    built = sum(1 for w in tables.masks if w)
    assert 0 < built < P - 1


def test_refutation_masks_pinned():
    # the last element's scan walks its root's survivors, and must
    # build a mask for each one it tests and for no candidate the root
    # kills, so the counts equal those of a scan over every element
    tables = solver._WeightTables(cyclic(P), _draw(13))
    assert solver._find_zsf(tables, 1, 3) == (None, 58)
    assert sum(1 for w in tables.masks if w) == 114
    tables = solver._WeightTables(cyclic(P), _draw(0))
    assert solver._find_zsf(tables, 1, 4) == ([1, 1, 1, 2], 3)
    assert sum(1 for w in tables.masks if w) == 2


def test_deep_search_builds_only_the_masks_it_tests():
    # a k = 4 search that finds its culprit after two extensions tests few
    # candidates past the first root's kills, and builds a mask for each of
    # those alone instead of for every survivor
    tables = solver._WeightTables(cyclic(P), _draw(0))
    assert solver._find_zsf(tables, 1, 4) == ([1, 1, 1, 2], 3)
    built = sum(1 for w in tables.masks if w)
    assert 0 < built <= 3
