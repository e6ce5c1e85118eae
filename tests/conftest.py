"""Shared brute-force oracles, deliberately independent of the package's
bit-vector engine: plain tuple arithmetic and itertools enumeration only."""

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


def brute_is_zsf(factors, weights, entries):
    zero = (0,) * len(factors)
    return zero not in brute_reachable(factors, weights, entries)


def brute_davenport(factors, weights):
    """1 + longest zero-sum-free multiset, by depth-first enumeration."""
    elements = list(itertools.product(*[range(n) for n in factors]))
    nonzero = [e for e in elements if any(e)]
    best = 0

    def rec(start, chosen):
        nonlocal best
        if len(chosen) > best:
            best = len(chosen)
        for i in range(start, len(nonzero)):
            cand = chosen + [nonzero[i]]
            if brute_is_zsf(factors, weights, cand):
                rec(i, cand)

    rec(0, [])
    return best + 1


def brute_lex_least_zsf(factors, weights, length):
    """The lexicographically least zero-sum-free multiset of a given size, or
    None when there is none.

    A depth-first walk over nondecreasing multisets in flat-index order (the
    order itertools.product lists the elements in); the first multiset it
    completes is the least.  Returned as a tuple of elements, ascending.
    """
    elements = [e for e in itertools.product(*[range(n) for n in factors]) if any(e)]

    def rec(start, chosen, remaining):
        if remaining == 0:
            return tuple(chosen)
        for i in range(start, len(elements)):
            cand = chosen + [elements[i]]
            if brute_is_zsf(factors, weights, cand):
                found = rec(i, cand, remaining - 1)
                if found is not None:
                    return found
        return None

    return rec(0, [], length)


def brute_has_zsf_of_length(factors, weights, length):
    """Depth-limited search for one zero-sum-free multiset of a given size."""
    return brute_lex_least_zsf(factors, weights, length) is not None


def brute_fd(n, k, max_size=None):
    """Minimum weight-set size with Davenport value <= k over Z_n, or None.

    D_A <= k iff no zero-sum-free multiset of size k exists."""
    limit = max_size if max_size is not None else n - 1
    for size in range(1, limit + 1):
        for residues in itertools.combinations(range(1, n), size):
            if not brute_has_zsf_of_length((n,), residues, k):
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
