"""Minimum weight-set size achieving D_A(G) <= k, with infinity detection.

The search enumerates weight sets by size, one representative per dilation
orbit (D_{lambda A} = D_A for units lambda), and accepts the first
representative passing the bounded Davenport check.  Infinity is only ever
declared after exhausting every size up to exp(G) - 1; running out of budget
yields UNKNOWN plus the largest size fully ruled out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from math import gcd, inf, isqrt
from typing import Iterable, Optional

from sympy import integer_nthroot, isprime

from .engine import WeightSet, dilation_orbit_reps
from .groups import GroupSpec, cyclic, normalize_group
from .solver import Budget, _Pool, check_dav_at_most, default_threads


class FdStatus(str, Enum):
    FINITE = "FINITE"
    INFINITE = "INFINITE"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class FdSearchStats:
    nodes: int
    candidates: int
    elapsed: float


@dataclass(frozen=True)
class FdResult:
    status: FdStatus
    value: Optional[int]
    witness_set: Optional[WeightSet]
    sizes_excluded: int
    search_stats: FdSearchStats

    def as_comparable(self) -> float:
        """Value with INFINITE mapped to +inf; UNKNOWN refuses to compare."""
        if self.status == FdStatus.FINITE:
            return float(self.value)
        if self.status == FdStatus.INFINITE:
            return inf
        raise ValueError("UNKNOWN result has no comparable value")


def fd_lower_bound(p: int, k: int) -> int:
    """Counting lower bound on the least |A| with D_A(Z_p) <= k.

    At most (|A|+1)^k - 1 weighted sums arise from k elements, which must
    cover Z_p*; for k = 2 the sharper ceil(sqrt(p-1)) applies.  Exact integer
    roots throughout, no floating point.
    """
    if not isprime(p):
        raise ValueError(f"modulus {p} must be prime")
    if k < 2:
        raise ValueError("k must be >= 2")
    if k == 2:
        r = isqrt(p - 1)
        return r if r * r == p - 1 else r + 1
    root, exact = integer_nthroot(p, k)
    bound = root - 1 if exact else root  # ceil(p^{1/k}) - 1
    return max(1, bound)


def _start_size(group: GroupSpec, k: int) -> int:
    if k < 2:
        return 1
    fs = group.invariant_factors
    if group.is_cyclic and isprime(fs[0]):
        return fd_lower_bound(fs[0], k)
    if len(fs) > 1 and len(set(fs)) == 1 and isprime(fs[0]):
        # elementary abelian: same counting argument against |G| - 1 targets
        root, exact = integer_nthroot(group.order, k)
        return max(1, root - 1 if exact else root)
    return 1


def _fd_candidate_worker(args) -> tuple[bool, int]:
    factors, residues, k = args
    group = GroupSpec(factors)
    res = check_dav_at_most(group, WeightSet(group.exponent, residues), k, threads=1)
    return res.holds, res.nodes


def fd(
    group: GroupSpec,
    k: int,
    budget: Optional[Budget] = None,
    threads: Optional[int] = None,
) -> FdResult:
    """Exact f^(D)_G(k) = min{|A| : D_A(G) <= k}, or INFINITE / UNKNOWN."""
    if k < 1:
        raise ValueError("k must be >= 1")
    threads = default_threads() if threads is None else max(1, threads)
    start = time.perf_counter()
    exp = group.exponent
    if k == 1:
        # a generator of a maximal-order cyclic factor never vanishes under
        # any single weight, so no A at all can force zero-sums at length 1
        return FdResult(
            status=FdStatus.INFINITE,
            value=None,
            witness_set=None,
            sizes_excluded=exp - 1,
            search_stats=FdSearchStats(nodes=0, candidates=0, elapsed=time.perf_counter() - start),
        )
    nodes = 0
    candidates = 0
    max_nodes = budget.max_nodes if budget else None
    max_seconds = budget.max_seconds if budget else None
    first_size = _start_size(group, k)
    sizes_excluded = first_size - 1  # smaller sizes are ruled out by counting
    with _Pool(threads) as pool:
        for size in range(first_size, exp):
            reps = list(dilation_orbit_reps(exp, size))
            arglist = [(group.invariant_factors, rep, k) for rep in reps]
            outcomes = pool.map(_fd_candidate_worker, arglist)
            stopped = False
            hit = None
            for rep, (holds, n_nodes) in zip(reps, outcomes):
                if (max_nodes is not None and nodes > max_nodes) or (
                    max_seconds is not None and time.perf_counter() - start > max_seconds
                ):
                    stopped = True
                    break
                nodes += n_nodes
                candidates += 1
                if holds:
                    hit = rep
                    break
            if hit is not None:
                return FdResult(
                    status=FdStatus.FINITE,
                    value=size,
                    witness_set=WeightSet(exp, hit),
                    sizes_excluded=size - 1,
                    search_stats=FdSearchStats(nodes, candidates, time.perf_counter() - start),
                )
            if stopped:
                return FdResult(
                    status=FdStatus.UNKNOWN,
                    value=None,
                    witness_set=None,
                    sizes_excluded=sizes_excluded,
                    search_stats=FdSearchStats(nodes, candidates, time.perf_counter() - start),
                )
            sizes_excluded = size
    return FdResult(
        status=FdStatus.INFINITE,
        value=None,
        witness_set=None,
        sizes_excluded=exp - 1,
        search_stats=FdSearchStats(nodes, candidates, time.perf_counter() - start),
    )


def ratio_covers(p: int, residues: Iterable[int]) -> bool:
    """Whether A/A = Z_p*, the exact criterion for D_A(Z_p) <= 2.

    The length-2 sequences (1, u) exhaust all hard cases: a zero-sum
    a + u*b = 0 exists iff -u (hence u, as u -> -u is a bijection) lies in
    A/A, and length-1 sequences only vanish on the zero element.
    """
    rs = list(residues)
    units = p - 1
    seen: set[int] = set()
    add = seen.add
    for b in rs:
        inv = pow(b, -1, p)
        for a in rs:
            add(a * inv % p)
        if len(seen) == units:
            return True
    return False


def fd_fast_k2(p: int, budget: Optional[Budget] = None) -> FdResult:
    """fd(Z_p, 2) via the ratio criterion instead of sequence search."""
    if not isprime(p):
        raise ValueError(f"modulus {p} must be prime")
    start = time.perf_counter()
    nodes = 0  # ratio pairs evaluated; keeps node budgets meaningful here
    candidates = 0
    max_nodes = budget.max_nodes if budget else None
    max_seconds = budget.max_seconds if budget else None
    first_size = fd_lower_bound(p, 2)
    sizes_excluded = first_size - 1
    for size in range(first_size, p):
        for rep in dilation_orbit_reps(p, size):
            if (max_nodes is not None and nodes > max_nodes) or (
                max_seconds is not None and time.perf_counter() - start > max_seconds
            ):
                return FdResult(
                    FdStatus.UNKNOWN,
                    None,
                    None,
                    sizes_excluded,
                    FdSearchStats(nodes, candidates, time.perf_counter() - start),
                )
            candidates += 1
            nodes += size * size
            if ratio_covers(p, rep):
                return FdResult(
                    FdStatus.FINITE,
                    size,
                    WeightSet(p, rep),
                    size - 1,
                    FdSearchStats(nodes, candidates, time.perf_counter() - start),
                )
        sizes_excluded = size
    return FdResult(
        FdStatus.INFINITE,
        None,
        None,
        p - 1,
        FdSearchStats(nodes, candidates, time.perf_counter() - start),
    )


@dataclass(frozen=True)
class RelationCheck:
    name: str
    relation: str
    holds: bool
    details: dict


@dataclass(frozen=True)
class FdRelationReport:
    p: int
    m: int
    k: int
    checks: tuple[RelationCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


def _fd_value_label(r: FdResult):
    return r.value if r.status == FdStatus.FINITE else r.status.value


def fd_relation_checks(
    p: int,
    m: int,
    k: int,
    budget: Optional[Budget] = None,
    threads: Optional[int] = None,
) -> FdRelationReport:
    """Exact checks of the structural fd relations reachable from (p, m, k).

    Covers the prime-power collapse fd(Z_{p^m}) = fd(Z_p), the coprime
    product bound fd(Z_p x Z_m) <= min of the factors (when m is a prime
    different from p), and monotonicity of fd along the tower (Z_p)^i.
    """
    if not isprime(p):
        raise ValueError(f"p = {p} must be prime")
    if m < 1:
        raise ValueError("m must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    checks = []
    base = fd(cyclic(p), k, budget=budget, threads=threads)
    power = fd(cyclic(p**m), k, budget=budget, threads=threads)
    checks.append(
        RelationCheck(
            name="prime-power-collapse",
            relation=f"fd(Z{p**m},{k}) == fd(Z{p},{k})",
            holds=(
                power.status == base.status
                and (power.status != FdStatus.FINITE or power.value == base.value)
            ),
            details={
                f"fd(Z{p**m},{k})": _fd_value_label(power),
                f"fd(Z{p},{k})": _fd_value_label(base),
            },
        )
    )
    if m >= 2 and m != p and isprime(m):
        other = fd(cyclic(m), k, budget=budget, threads=threads)
        product = fd(normalize_group([p, m]), k, budget=budget, threads=threads)
        lhs = product.as_comparable()
        rhs = min(base.as_comparable(), other.as_comparable())
        checks.append(
            RelationCheck(
                name="coprime-product-bound",
                relation=f"fd(Z{p * m},{k}) <= min(fd(Z{p},{k}), fd(Z{m},{k}))",
                holds=lhs <= rhs,
                details={
                    f"fd(Z{p * m},{k})": _fd_value_label(product),
                    f"fd(Z{p},{k})": _fd_value_label(base),
                    f"fd(Z{m},{k})": _fd_value_label(other),
                },
            )
        )
    tower = []
    for i in range(1, m + 1):
        g = GroupSpec((p,) * i)
        tower.append(fd(g, k, budget=budget, threads=threads))
    vals = [t.as_comparable() for t in tower]
    checks.append(
        RelationCheck(
            name="elementary-tower-monotone",
            relation=f"fd(Zp^1..Zp^{m}, k={k}) nondecreasing",
            holds=all(a <= b for a, b in zip(vals, vals[1:])),
            details={f"fd((Z{p})^{i + 1},{k})": _fd_value_label(t) for i, t in enumerate(tower)},
        )
    )
    return FdRelationReport(p=p, m=m, k=k, checks=tuple(checks))
