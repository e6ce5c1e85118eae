"""Shared brute-force oracles, deliberately independent of the package's
bit-vector engine: plain tuple arithmetic and itertools enumeration only.

`brute_reachable` expands every (A union {0})^m coefficient tuple; it is the
oracle of the engine's reachable sums and the reference for `sums_step`,
which grows the nonempty sums one entry at a time.  `zsf_walk` is the one
search over multisets, and every zero-sum-free oracle reads it.
"""

from __future__ import annotations

import itertools
from functools import reduce


def tuple_add(factors, x, y):
    return tuple((a + b) % n for a, b, n in zip(x, y, factors))


def tuple_scale(factors, c, x):
    return tuple((c * a) % n for a, n in zip(x, factors))


def brute_reachable(factors, weights, entries):
    """All nonempty weighted subsequence sums via (A union {0})^m products."""
    zero = (0,) * len(factors)
    sums = set()
    choices = [(0,) + tuple(weights)] * len(entries)
    for coeffs in itertools.product(*choices):
        if all(c == 0 for c in coeffs):
            continue
        total = zero
        for c, x in zip(coeffs, entries):
            total = tuple_add(factors, total, tuple_scale(factors, c, x))
        sums.add(total)
    return sums


def sums_step(factors, weights, sums, x):
    """The nonempty weighted sums S after appending x: S | A*x | (S + A*x)."""
    multiples = {tuple_scale(factors, a, x) for a in weights}
    return sums | multiples | {tuple_add(factors, s, m) for s in sums for m in multiples}


def brute_is_zsf(factors, weights, entries):
    sums = reduce(lambda s, x: sums_step(factors, weights, s, x), entries, frozenset())
    return (0,) * len(factors) not in sums


def zsf_walk(factors, weights, max_length=None):
    """Every zero-sum-free nondecreasing multiset of nonzero elements, at most
    max_length long, as a tuple of elements in flat-index order (the order
    itertools.product lists them in).

    Pre-order, so the walk yields () first and each multiset before its
    extensions: in tuple order, and each length first at its lex-least
    multiset.  A prefix carries its nonempty sums and is extended only while
    0 is not among them.
    """
    elements = [e for e in itertools.product(*[range(n) for n in factors]) if any(e)]
    zero = (0,) * len(factors)

    def rec(start, chosen, sums):
        yield chosen
        if len(chosen) == max_length:
            return
        for i in range(start, len(elements)):
            grown = sums_step(factors, weights, sums, elements[i])
            if zero not in grown:
                yield from rec(i, chosen + (elements[i],), grown)

    return rec(0, (), frozenset())


def brute_davenport(factors, weights):
    """1 + longest zero-sum-free multiset."""
    return 1 + max(map(len, zsf_walk(factors, weights)))


def brute_lex_least_zsf(factors, weights, length):
    """The lexicographically least zero-sum-free multiset of a given size, as
    a tuple of elements in ascending order, or None when there is none."""
    return next((ms for ms in zsf_walk(factors, weights, length) if len(ms) == length), None)


def brute_fd(n, k, max_size=None):
    """Minimum weight-set size with Davenport value <= k over Z_n, or None.

    D_A <= k iff no zero-sum-free multiset of size k exists."""
    limit = max_size if max_size is not None else n - 1
    for size in range(1, limit + 1):
        for residues in itertools.combinations(range(1, n), size):
            if brute_lex_least_zsf((n,), residues, k) is None:
                return size
    return None


def brute_automorphisms(factors):
    """Every automorphism of G, each as the tuple of images of the flat
    indices, generated one at a time.

    An automorphism is fixed by the images of the canonical generators e_j,
    each of order dividing n_j; the images are chosen generator by generator,
    keeping a choice only while the map on the subgroup generated so far is a
    bijection.  Elements are flat indices (itertools.product order) added
    through a |G| x |G| table.
    """
    elements = list(itertools.product(*[range(n) for n in factors]))
    index = {x: i for i, x in enumerate(elements)}
    plus = [[index[tuple_add(factors, x, y)] for y in elements] for x in elements]

    def extend(j, images):
        # images: the image of each element of Z_{n_1} x ... x Z_{n_j}, flat order
        if j == len(factors):
            yield tuple(images)
            return
        for g in range(len(elements)):
            multiples = [0]
            for _ in range(factors[j]):
                multiples.append(plus[multiples[-1]][g])
            if multiples.pop():
                continue  # n_j * g != 0
            grown = [plus[y][t] for y in images for t in multiples]
            if len(set(grown)) == len(grown):
                yield from extend(j + 1, grown)

    return extend(0, [0])


def brute_aut_orbit_minima(factors):
    """For each flat index, the least flat index of its orbit under Aut(G)."""
    return list(reduce(lambda mins, images: list(map(min, mins, images)), brute_automorphisms(factors)))
