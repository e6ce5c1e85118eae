"""Explicit weight sets with built-in verification.

Every constructor returns a ConstructionReport; a verified_bound only ever
appears after the bound was confirmed numerically (exhaustive solver run or
the ratio criterion).  Nothing is trusted on formula alone: the difference
census, the ratio coverage, and the quartic intersection property are all
rechecked on the constructed objects.
"""

from __future__ import annotations

import random
from math import ceil, inf, isqrt
from typing import Optional

from ._record import Record
from .engine import WeightSet
from .fdsolver import fd_lower_bound, ratio_missing
from .groups import check_order, cyclic
from .numtheory import factorint, floor_log, isprime, primitive_root
from .solver import check_dav_at_most, davenport


class ConstructionError(RuntimeError):
    """A construction or its mandatory verification failed."""

    def __init__(self, message: str, **info):
        super().__init__(message)
        self.info = info


class ConstructionReport(Record):
    def __init__(
        self,
        construction: str,
        parameters: dict,
        weight_set: WeightSet,
        size: int,
        verified_bound: Optional[int],
        verification: Optional[str],  # "exhaustive" | "ratio-criterion" | None
        metrics: Optional[dict] = None,
    ):
        object.__setattr__(self, "construction", construction)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "weight_set", weight_set)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "verified_bound", verified_bound)
        object.__setattr__(self, "verification", verification)
        object.__setattr__(self, "metrics", {} if metrics is None else metrics)

    def as_dict(self) -> dict:
        return {
            "construction": self.construction,
            "parameters": self.parameters,
            "weights": list(self.weight_set.residues),
            "size": self.size,
            "verified_bound": self.verified_bound,
            "verification": self.verification,
            "metrics": self.metrics,
        }


class GFCubicField:
    """GF(q^3) as Z_q[t] / (t^3 + r2 t^2 + r1 t + r0), elements (a0, a1, a2).

    The reduction polynomial is the lexicographically first irreducible monic
    cubic by (r2, r1, r0); a cubic with no root in Z_q is irreducible.
    """

    def __init__(self, q: int):
        if not isprime(q):
            raise ValueError(f"field characteristic {q} must be prime")
        self.q = q
        self.reduction = r2, r1, r0 = self._first_irreducible(q)
        # t^3 = s2 t^2 + s1 t + s0 and t^4 = t * t^3, reduced
        s2, s1, s0 = (-r2) % q, (-r1) % q, (-r0) % q
        self._t3 = (s0, s1, s2)
        t4_2 = (s2 * s2 + s1) % q
        t4_1 = (s2 * s1 + s0) % q
        t4_0 = (s2 * s0) % q
        self._t4 = (t4_0, t4_1, t4_2)

    @staticmethod
    def _has_root(q: int, poly: tuple[int, int, int]) -> bool:
        r2, r1, r0 = poly
        return any((((v + r2) * v + r1) * v + r0) % q == 0 for v in range(q))

    @classmethod
    def _first_irreducible(cls, q: int) -> tuple[int, int, int]:
        for r2 in range(q):
            for r1 in range(q):
                for r0 in range(1, q):  # r0 = 0 always has the root 0
                    if not cls._has_root(q, (r2, r1, r0)):
                        return (r2, r1, r0)
        raise RuntimeError(f"no irreducible cubic over Z_{q}")  # impossible

    @property
    def one(self) -> tuple[int, int, int]:
        return (1, 0, 0)

    def mul(self, x, y) -> tuple[int, int, int]:
        q = self.q
        a0, a1, a2 = x
        b0, b1, b2 = y
        c0 = a0 * b0
        c1 = a0 * b1 + a1 * b0
        c2 = a0 * b2 + a1 * b1 + a2 * b0
        c3 = a1 * b2 + a2 * b1
        c4 = a2 * b2
        t3, t4 = self._t3, self._t4
        return (
            (c0 + c3 * t3[0] + c4 * t4[0]) % q,
            (c1 + c3 * t3[1] + c4 * t4[1]) % q,
            (c2 + c3 * t3[2] + c4 * t4[2]) % q,
        )

    def pow(self, x, e: int) -> tuple[int, int, int]:
        acc = self.one
        base = x
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def decode(self, enc: int) -> tuple[int, int, int]:
        q = self.q
        a0 = enc % q
        a1 = (enc // q) % q
        a2 = enc // (q * q)
        return (a0, a1, a2)

    def generator(self) -> tuple[int, int, int]:
        """Smallest element (by a2*q^2 + a1*q + a0) of multiplicative order q^3 - 1."""
        q = self.q
        group_order = q**3 - 1
        prime_divs = list(factorint(group_order))
        for enc in range(1, q**3):
            x = self.decode(enc)
            if all(self.pow(x, group_order // ell) != self.one for ell in prime_divs):
                return x
        raise RuntimeError("multiplicative group has no generator")  # impossible


class PerfectDifferenceSet(Record):
    """Subset of Z_v whose nonzero differences each occur exactly once."""

    def __init__(self, v: int, elements: tuple[int, ...]):
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "elements", elements)
        self.__post_init__()

    def __post_init__(self) -> None:
        els = self.elements
        if len(set(els)) != len(els) or any(not 0 <= d < self.v for d in els):
            raise ConstructionError("difference set elements invalid", v=self.v, elements=els)
        k = len(els)
        if k * (k - 1) != self.v - 1:
            raise ConstructionError(
                f"size {k} cannot be perfect in Z_{self.v}", v=self.v, size=k
            )
        census = [0] * self.v
        for d1 in els:
            for d2 in els:
                if d1 != d2:
                    census[(d1 - d2) % self.v] += 1
        bad = [g for g in range(1, self.v) if census[g] != 1]
        if bad:
            raise ConstructionError(
                "difference census not exactly one everywhere", v=self.v, bad=bad[:10]
            )


def singer_difference_set(q: int) -> PerfectDifferenceSet:
    """Perfect difference set of size q+1 in Z_{q^2+q+1} from the line at
    zero third coordinate of PG(2, q), indexed by powers of a generator."""
    n = q * q + q + 1
    check_order(n)
    if not isprime(q):
        raise ValueError(f"q = {q} must be prime")
    fld = GFCubicField(q)
    gamma = fld.generator()
    x = fld.one
    picked = []
    for i in range(n):
        if x[2] == 0:
            picked.append(i)
        x = fld.mul(x, gamma)
    return PerfectDifferenceSet(v=n, elements=tuple(picked))


def _exponent_cover_missing(p: int, dset) -> int:
    """Ratios of theta^D are theta^(d1-d2 mod p-1); count exponents missed.

    A set of pairwise differences, deliberately not fdsolver.ratio_missing:
    singer_weight_set checks the two against each other, and that check
    only means something while they are computed independently (ratio_missing
    rotates a bitset of discrete logarithms for sets this large).
    """
    m = p - 1
    seen = {0}
    for d1 in dset:
        for d2 in dset:
            if d1 != d2:
                seen.add((d1 - d2) % m)
    return m - len(seen)


def singer_weight_set(p: int) -> ConstructionReport:
    """Weight set theta^D for a Singer difference set D, with the mandatory
    ratio-coverage check.

    Differences of D are arithmetic mod p while exponents of theta live mod
    p-1, so coverage of Z_p* is NOT automatic.  Every variant of the
    construction (choice of cubic, generator, or line) changes D only by a
    dilation u*D + shift mod p, and shifts cancel in ratios, so the smallest
    dilation u whose exponent differences cover Z_{p-1} is used when one
    exists.  Otherwise u = 1 is kept and the report carries no verified_bound,
    recording instead how many ratios are missing.
    """
    check_order(p)
    if not isprime(p):
        raise ValueError(f"p = {p} must be prime")
    q = (isqrt(4 * p - 3) - 1) // 2
    if q * q + q + 1 != p or not isprime(q):
        raise ValueError(f"p = {p} is not q^2+q+1 for prime q")
    base = singer_difference_set(q).elements
    dilation = None
    for u in range(1, p):
        cand = tuple(sorted(u * d % p for d in base))
        if _exponent_cover_missing(p, cand) == 0:
            dilation = u
            break
    chosen = base if dilation is None else tuple(sorted(dilation * d % p for d in base))
    pds = PerfectDifferenceSet(v=p, elements=chosen)  # reruns the census
    theta = primitive_root(p)
    weights = sorted({pow(theta, d, p) for d in pds.elements})
    ws = WeightSet(p, tuple(weights))
    missing = ratio_missing(p, weights)
    if (dilation is not None) != (missing == 0):
        raise ConstructionError("ratio check disagrees with exponent cover", p=p)
    sqrt_bound = fd_lower_bound(p, 2)
    return ConstructionReport(
        construction="singer-weights",
        parameters={
            "p": p,
            "q": q,
            "theta": theta,
            "dilation": dilation,
            "difference_set": list(pds.elements),
        },
        weight_set=ws,
        size=len(weights),
        verified_bound=2 if missing == 0 else None,
        verification="ratio-criterion" if missing == 0 else None,
        metrics={
            "sqrt_bound": sqrt_bound,
            "meets_sqrt_bound": len(weights) == sqrt_bound,
            "ratio_missing": missing,
        },
    )


def interval_weight_set(p: int) -> ConstructionReport:
    """A = [-floor(sqrt p), floor(sqrt p)]_* in Z_p; D_A = 2 by ratio coverage."""
    check_order(p)
    if p == 2 or not isprime(p):
        raise ValueError(f"p = {p} must be an odd prime")
    m = isqrt(p)
    weights = tuple(range(1, m + 1)) + tuple(range(p - m, p))
    ws = WeightSet(p, weights)
    missing = ratio_missing(p, weights)
    if missing:
        # guaranteed by the covering argument with B = [1, m+1]; cannot fail
        raise ConstructionError(
            f"interval ratio coverage failed at p={p}", p=p, missing=missing
        )
    size = 2 * m
    return ConstructionReport(
        construction="interval",
        parameters={"p": p, "m": m},
        weight_set=ws,
        size=size,
        verified_bound=2,
        verification="ratio-criterion",
        metrics={
            "within_2sqrt": True,  # 2*floor(sqrt p) <= 2*sqrt(p) identically
            "within_2sqrt_minus_1": (2 * size + 1) ** 2 <= 16 * p,
        },
    )


def symmetric_range_weight_set(n: int, r: int) -> ConstructionReport:
    """A = {±1, ..., ±r} in Z_n; solver confirms D_A = floor(log_{r+1} n) + 1."""
    check_order(n)
    if not 1 <= r < (n - 1) / 2:
        raise ValueError(f"need 1 <= r < (n-1)/2, got r={r}, n={n}")
    weights = tuple(range(1, r + 1)) + tuple(range(n - r, n))
    ws = WeightSet(n, weights)
    expected = floor_log(r + 1, n) + 1
    result = davenport(cyclic(n), ws)
    if result.value != expected:
        raise ConstructionError(
            f"symmetric range value {result.value} != floor(log_{r + 1} {n}) + 1 = {expected}",
            n=n,
            r=r,
            value=result.value,
        )
    return ConstructionReport(
        construction="symmetric-range",
        parameters={"n": n, "r": r},
        weight_set=ws,
        size=len(weights),
        verified_bound=result.value,
        verification="exhaustive",
        metrics={"davenport_value": result.value, "log_formula_value": expected},
    )


def complement_weight_set(p: int, r: int) -> ConstructionReport:
    """B_r = Z_p minus {0, ±1, ..., ±r}; verified D = 2 when r < (p-1)/4.

    Larger r still constructs (as long as B_r is nonempty) but carries no
    verified bound, since the two-term claim only covers r < (p-1)/4.
    """
    check_order(p)
    if not isprime(p) or p == 2:
        raise ValueError(f"p = {p} must be an odd prime")
    if r < 0:
        raise ValueError("r must be >= 0")
    lo, hi = r + 1, p - r - 1
    if lo > hi:
        raise ValueError(f"B_{r} is empty in Z_{p}")
    weights = tuple(range(lo, hi + 1))
    ws = WeightSet(p, weights)
    in_claim = 4 * r < p - 1
    verified = None
    method = None
    if in_claim:
        chk = check_dav_at_most(cyclic(p), ws, 2)
        if not chk.holds:
            raise ConstructionError(
                f"two-term bound failed for B_{r} in Z_{p}", p=p, r=r
            )
        verified, method = 2, "exhaustive"
    return ConstructionReport(
        construction="complement",
        parameters={"p": p, "r": r},
        weight_set=ws,
        size=len(weights),
        verified_bound=verified,
        verification=method,
        metrics={"within_claim_range": in_claim},
    )


# quartic_weight_set recertifies D_A <= 4 by the bounded check up to this p.
QUARTIC_EXHAUSTIVE_LIMIT = 1000
DEFAULT_QUARTIC_SCHEDULE: tuple[tuple[float, int], ...] = (
    (1.5, 1),
    (1.5, 2),
    (1.5, 3),
    (2.0, 1),
    (2.0, 2),
    (2.0, 3),
    (2.5, 1),
    (2.5, 2),
    (2.5, 3),
)


def quartic_weight_set(
    p: int,
    c0: float = 1.5,
    s_num: int = 1,
    s_den: int = 10,
    seed: int = 1,
    n_dilates: Optional[int] = None,
) -> ConstructionReport:
    """Union of dilated symmetric intervals with D_A <= 4, built greedily.

    With L = ceil(c0 * p^(1/4)) and the obstruction set S = [-2L, 2L]_* /
    [1, eta], dilates x_i are drawn from the low-representation pool NORMAL
    until S intersect x_1 S intersect ... is empty; the weight set is
    [-L, L]_* joined with the intervals dilated by each x_i^{-1}.  The final
    bound is never assumed: for p up to QUARTIC_EXHAUSTIVE_LIMIT the solver
    recertifies D_A <= 4, and the report fails loudly otherwise.
    """
    check_order(p)
    if not isprime(p) or p < 101:
        raise ValueError(f"p = {p} must be a prime >= 101")
    if not 0 < c0 < inf:  # NaN fails too
        raise ValueError("c0 must be positive and finite")
    if s_num < 0 or s_den < 1:
        raise ValueError("slope fraction must be nonnegative with positive denominator")
    if n_dilates is not None and n_dilates < 0:
        raise ValueError(f"n_dilates = {n_dilates} must be >= 0")
    quarter = p ** 0.25
    L = ceil(c0 * quarter)
    eta = max(1, (L * s_num) // s_den)
    # S's numerators [1, 2L] and denominators [1, eta] must be nonzero mod p
    if 2 * L >= p or eta >= p:
        raise ValueError(f"2L = {2 * L} and eta = {eta} must lie below p = {p}")
    inv = [0] * p
    inv[1] = 1
    for i in range(2, p):
        inv[i] = (p - p // i) * inv[p % i] % p  # batch modular inverses
    s_set = set()
    for x in range(1, 2 * L + 1):
        for y in range(1, eta + 1):
            v = x * inv[y] % p
            s_set.add(v)
            s_set.add(p - v)
    # representation counts N(x) = #{(s1, s2) in S^2 : x = s1/s2}
    counts: dict[int, int] = {}
    s_list = sorted(s_set)
    for s2 in s_list:
        i2 = inv[s2]
        for s1 in s_list:
            key = s1 * i2 % p
            counts[key] = counts.get(key, 0) + 1
    threshold = c0**4 / 6
    normal = [x for x in range(1, p) if counts.get(x, 0) <= threshold]
    if not normal:
        raise ConstructionError(
            f"no low-representation elements at p={p}, c0={c0}", p=p, c0=c0, residual=len(s_set)
        )
    cap_dilates = n_dilates if n_dilates is not None else ceil(c0**4 / 3)
    rng = random.Random(seed)
    pool = list(normal)
    chosen: list[int] = []
    remaining = set(s_set)
    while remaining and len(chosen) < cap_dilates:
        target = min(remaining)  # designated uncovered element
        order = rng.sample(pool, len(pool))
        pick = None
        for x in order:
            if target * inv[x] % p not in s_set:  # target not in x*S
                pick = x
                break
        if pick is None:
            raise ConstructionError(
                f"greedy found no dilate excluding {target}",
                p=p,
                c0=c0,
                seed=seed,
                residual=len(remaining),
            )
        chosen.append(pick)
        pool.remove(pick)
        ix = inv[pick]
        remaining = {t for t in remaining if t * ix % p in s_set}
    if remaining:
        raise ConstructionError(
            f"intersection still has {len(remaining)} elements after {len(chosen)} dilates",
            p=p,
            c0=c0,
            seed=seed,
            residual=len(remaining),
        )
    weights = set()
    for t in [1] + [inv[x] for x in chosen]:
        for j in range(-L, L + 1):
            weights.add(t * j % p)
    weights.discard(0)
    ws = WeightSet(p, tuple(sorted(weights)))
    verified = None
    method = None
    if p <= QUARTIC_EXHAUSTIVE_LIMIT:
        chk = check_dav_at_most(cyclic(p), ws, 4)
        if not chk.holds:
            raise ConstructionError(
                "constructed set fails the four-term bound",
                p=p,
                c0=c0,
                seed=seed,
                counterexample=[e[0] for e in chk.counterexample.entries],
            )
        verified, method = 4, "exhaustive"
    return ConstructionReport(
        construction="quartic",
        parameters={
            "p": p,
            "c0": c0,
            "s_num": s_num,
            "s_den": s_den,
            "seed": seed,
            "L": L,
            "eta": eta,
            "dilates": list(chosen),
        },
        weight_set=ws,
        size=len(ws),
        verified_bound=verified,
        verification=method,
        metrics={
            "size_over_p_quarter": len(ws) / quarter,
            "obstruction_size": len(s_set),
            "normal_size": len(normal),
            "dilates_used": len(chosen),
        },
    )


def quartic_weight_set_auto(p: int) -> ConstructionReport:
    """First success of quartic_weight_set over DEFAULT_QUARTIC_SCHEDULE's
    (c0, seed) pairs."""
    failures = []
    for c0, seed in DEFAULT_QUARTIC_SCHEDULE:
        try:
            return quartic_weight_set(p, c0=c0, seed=seed)
        except ConstructionError as exc:
            failures.append((c0, seed, str(exc)))
    raise ConstructionError(f"all schedule entries failed for p={p}", p=p, failures=failures)
