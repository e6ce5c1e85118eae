import itertools
import random

from conftest import brute_is_zsf, brute_reachable, zsf_walk

# every group of order <= 12 and rank 1-3, as invariant factors
_GROUPS = [(n,) for n in range(2, 13)] + [(2, 2), (2, 4), (3, 3), (2, 6), (2, 2, 2)]


def test_walk_matches_product_expansion():
    # the walk grows each prefix's sums one entry at a time; the product
    # expansion recomputes them per multiset: the same multisets, in order
    rng = random.Random(31)
    for _ in range(24):
        factors = rng.choice(_GROUPS)
        exp = factors[-1]
        weights = tuple(sorted(rng.sample(range(1, exp), rng.randint(1, min(3, exp - 1)))))
        elements = list(itertools.product(*[range(n) for n in factors]))
        zero = (0,) * len(factors)
        want = sorted(
            ms
            for m in range(4)
            for ms in itertools.combinations_with_replacement(elements[1:], m)
            if zero not in brute_reachable(factors, weights, ms)
        )
        assert list(zsf_walk(factors, weights, 3)) == want, (factors, weights)
        for _ in range(20):
            seq = [rng.choice(elements) for _ in range(rng.randint(0, 4))]
            want_zsf = zero not in brute_reachable(factors, weights, seq)
            assert brute_is_zsf(factors, weights, seq) is want_zsf, (factors, weights, seq)
