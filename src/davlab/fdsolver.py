"""Minimum weight-set size achieving D_A(G) <= k, with infinity detection.

The search runs size by size, serially.  For a prime modulus and k = 2 it
looks for the lex-least A containing 1 with A/A = Z_p* by a pruned
depth-first search (_first_ratio_cover).  Everywhere else it visits one
representative per dilation orbit (D_{lambda A} = D_A for units lambda) in
lex order and accepts the first passing the bounded Davenport check, with
the checks guided by counterexamples: a failed check returns a culprit, a
zero-sum-free multiset of length k, and a later candidate under which some
earlier culprit is still zero-sum-free fails as well (D_A(G) > k), which
solver.first_zero_free shows without a bounded check by walking the
culprit with the bounded check's own zero-sum test and step.  The rule
only skips candidates that fail, so value, witness and sizes_excluded are
those of checking every candidate.  Infinity is only ever declared after
exhausting every size up to exp(G) - 1; running out of budget yields
UNKNOWN plus the largest size fully ruled out.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from math import inf, isqrt
from typing import Callable, Iterable, Optional

from .engine import WeightSet, dilation_orbit_reps
from .groups import GroupSpec, check_order, element_index
from .numtheory import integer_nthroot, isprime, primitive_root
from .solver import Budget, BudgetExceededError, Meter, check_dav_at_most, first_zero_free


class FdStatus(str, Enum):
    FINITE = "FINITE"
    INFINITE = "INFINITE"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class FdSearchStats:
    """How an fd call got its answer.

    candidates counts the weight sets tried.  On the orbit path, checks
    counts the bounded checks run and nodes their search nodes, so
    candidates - checks sets were refuted by a cached culprit; the prime
    k = 2 cover search runs no bounded check (checks = 0) and counts its
    extensions as nodes.
    """

    nodes: int
    candidates: int
    elapsed: float
    checks: int


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
    return _sums_bound(p, k)


def _sums_bound(order: int, k: int) -> int:
    """max(1, ceil(order^(1/k)) - 1): the (|A|+1)^k - 1 weighted sums of k
    elements must cover the order - 1 nonzero targets."""
    root, exact = integer_nthroot(order, k)
    return max(1, root - 1 if exact else root)


def _start_size(group: GroupSpec, k: int) -> int:
    # Z_p^r, r >= 1, takes the counting bound (fd_lower_bound's for r = 1,
    # whose sharper k = 2 bound fd_fast_k2 uses); k >= 2 here
    fs = group.invariant_factors
    return _sums_bound(group.order, k) if len(set(fs)) == 1 and isprime(fs[0]) else 1


class _Meter(Meter):
    """The Meter of one fd call plus its counters; builds its FdResult."""

    __slots__ = ("candidates", "checks")

    def __init__(self, budget: Optional[Budget]):
        super().__init__(budget)
        self.candidates = 0
        self.checks = 0

    def result(
        self,
        status: FdStatus,
        sizes_excluded: int,
        value: Optional[int] = None,
        witness_set: Optional[WeightSet] = None,
    ) -> FdResult:
        stats = FdSearchStats(self.nodes, self.candidates, self.elapsed(), self.checks)
        return FdResult(status, value, witness_set, sizes_excluded, stats)


def _smallest(
    exp: int,
    sizes: range,
    find: Callable[[int, _Meter], Optional[tuple[int, ...]]],
    meter: _Meter,
) -> FdResult:
    """The first size at which find(size, meter) returns a weight set."""
    excluded = sizes.start - 1  # smaller sizes are ruled out by counting
    try:
        for size in sizes:
            hit = find(size, meter)
            if hit is not None:
                return meter.result(FdStatus.FINITE, size - 1, size, WeightSet(exp, hit))
            excluded = size
    except BudgetExceededError:
        return meter.result(FdStatus.UNKNOWN, excluded)
    return meter.result(FdStatus.INFINITE, exp - 1)


def _first_holding(
    group: GroupSpec, k: int, culprits: list[tuple[int, ...]], size: int, meter: _Meter
) -> Optional[tuple[int, ...]]:
    """First dilation-orbit representative of this size with D_A(G) <= k.

    culprits holds the counterexamples of this fd call's failed bounded
    checks as flat indices, kept across sizes: a culprit is a length-k
    multiset, so it does not depend on |A|.  A representative under which
    one of them is still zero-sum-free fails without a bounded check
    (first_zero_free, on the kernel's padded layout; not called before the
    first culprit, so a group whose move tables are refused is refused by
    its first check before any layout is built).  The others get
    check_dav_at_most, and each failure adds its culprit.  New
    culprits go in front, and so does a culprit that just refuted a
    representative, since lex-consecutive representatives share most
    elements and the last culprit to refute usually refutes the next.  The
    enumerator is read only up to the first representative that holds.  The
    budget is tested before each candidate; nodes are those of the bounded
    checks run.
    """
    exp = group.exponent
    for rep in dilation_orbit_reps(exp, size):
        meter.check()
        meter.candidates += 1
        j = first_zero_free(group, rep, culprits) if culprits else None
        if j is not None:
            if j:
                culprits.insert(0, culprits.pop(j))
            continue
        res = check_dav_at_most(group, WeightSet(exp, rep), k)
        meter.checks += 1
        meter.nodes += res.nodes
        if res.holds:
            return rep
        culprits.insert(0, tuple([element_index(group, x) for x in res.counterexample.entries]))
    return None


@lru_cache(maxsize=1)
def _discrete_logs(p: int) -> list[int]:
    """logs[x] = e with g^e = x mod p for a primitive root g (logs[0] unused).

    Cached for the last p only: a sweep asks ratio_missing about one p per
    trial, and no caller alternates between moduli, while one table near the
    order limit takes about 40 MB.  Callers must not modify the list.
    """
    g = primitive_root(p)
    logs = [0] * p
    y = 1
    for e in range(p - 1):
        logs[y] = e
        y = y * g % p
    return logs


def _first_ratio_cover(
    p: int, logs: list[int], size: int, meter: _Meter
) -> Optional[tuple[int, ...]]:
    """Lex-least size-subset A of Z_p* containing 1 with A/A = Z_p*, or None.

    Depth-first over ascending extensions of (1,), the order in which
    dilation_orbit_reps lists representatives.  The first cover found is the
    lex-least member of its dilation orbit (the orbit holds only covers, and
    its least member contains 1), so it is the representative the orbit
    enumeration would accept first.  Quotients are kept in exponent space:
    a/b = g^(log a - log b), so with E = log A, A/A = Z_p* iff
    E - E = Z_{p-1}, and adding x with e = log x adds the rotations E - e and
    e - E of the bitsets of E and -E.  Adding an element to a j-set adds at
    most 2j differences (x/a and a/x), so a j-set covering c of them is cut
    when c + size(size-1) - j(j-1) < p - 1.  One node per extension tried;
    candidates are the full-size sets tried.
    """
    m = p - 1
    if size == 1:
        meter.candidates += 1
        return (1,) if m == 1 else None
    full = (1 << m) - 1
    need = [m - size * (size - 1) + j * (j - 1) for j in range(size + 1)]
    nodes, candidates = meter.nodes, meter.candidates
    check_at = meter.next_check()
    chosen = [1]
    # open sets as [differences, bits of E, bits of -E, next candidate]
    stack = [[1, 1, 1, 2]]
    try:
        while stack:
            state = stack[-1]
            diffs, ebits, nbits, lo = state
            j = len(chosen)
            want = need[j + 1]
            hi = p - size + j + 1  # leave room for the size - j - 1 larger elements
            found = None
            for x in range(lo, hi):
                e = logs[x]
                r = m - e
                d = diffs | (ebits >> e | ebits << r | nbits << e | nbits >> r) & full
                if d.bit_count() >= want:
                    found = x
                    break
            tried = hi - lo if found is None else found + 1 - lo
            nodes += tried
            if j + 1 == size:
                candidates += tried
                if found is not None:
                    return (*chosen, found)
            if nodes >= check_at:
                meter.nodes = nodes
                meter.check()
                check_at = meter.next_check()
            if found is None or j + 1 == size:
                stack.pop()
                chosen.pop()
                continue
            state[3] = found + 1
            chosen.append(found)
            stack.append([d, ebits | 1 << e, nbits | 1 << r, found + 1])
        return None
    finally:
        meter.nodes, meter.candidates = nodes, candidates


def fd(
    group: GroupSpec,
    k: int,
    budget: Optional[Budget] = None,
    threads: int = 1,
) -> FdResult:
    """Exact f^(D)_G(k) = min{|A| : D_A(G) <= k}, or INFINITE / UNKNOWN.

    Prime-order cyclic groups at k = 2 take the ratio-cover search of
    fd_fast_k2; every other case checks orbit representatives, refuting most
    of them by cached culprits (see _first_holding).  Both searches are
    serial: the order of the refutations matters, and the first holding
    representative ends a size.  threads is accepted and ignored.  A tripped
    budget (checkpoints in solver.Budget) gives UNKNOWN with sizes_excluded.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    check_order(group.order)
    exp = group.exponent
    if k == 2 and group.is_cyclic and isprime(exp):
        return fd_fast_k2(exp, budget)
    meter = _Meter(budget)
    if k == 1:
        # a generator of a maximal-order cyclic factor never vanishes under
        # any single weight, so no A at all can force zero-sums at length 1
        return meter.result(FdStatus.INFINITE, exp - 1)
    find = partial(_first_holding, group, k, [])
    return _smallest(exp, range(_start_size(group, k), exp), find, meter)


def ratio_missing(p: int, residues: Iterable[int]) -> int:
    """How many units of Z_p the quotients a/b of A miss (0 as soon as
    they cover Z_p*).

    p must be prime.  Residues are read mod p, and one that is 0 mod p
    raises ValueError.  The |A|^2 quotients are formed directly when that is
    fewer than p, the size of the log table the other way needs on its first
    call for a new p (_missing_by_logs); sets that large or larger take the
    log table.
    """
    if not isprime(p):
        raise ValueError(f"modulus {p} must be prime")
    rs = set()
    for a in residues:
        a %= p
        if not a:
            raise ValueError(f"residue 0 mod {p} has no quotient")
        rs.add(a)
    if len(rs) ** 2 < p:
        return _missing_by_quotients(p, rs)
    return _missing_by_logs(p, rs)


def _missing_by_quotients(p: int, rs: set[int]) -> int:
    """ratio_missing for nonzero residues rs, as the set {a * b^-1}."""
    inverses = [pow(b, -1, p) for b in rs]
    return p - 1 - len({a * b % p for a in rs for b in inverses})


def _missing_by_logs(p: int, rs: set[int]) -> int:
    """ratio_missing for nonzero residues rs in exponent space.

    a/b = g^(log a - log b), so with E = log A the quotients are E - E in
    Z_{p-1}: the OR over e in E of the rotations of the bitset of E by -e,
    |E| rotations of a (p-1)-bit set.
    """
    logs = _discrete_logs(p)
    m = p - 1
    es = [logs[a] for a in rs]
    ebits = 0
    for e in es:
        ebits |= 1 << e
    full = (1 << m) - 1
    twice = ebits | ebits << m  # (twice >> e) & full rotates E by -e
    cover = 0
    for e in es:
        cover |= twice >> e & full
        if cover == full:
            return 0
    return m - cover.bit_count()


def ratio_covers(p: int, residues: Iterable[int]) -> bool:
    """Whether A/A = Z_p*, the exact criterion for D_A(Z_p) <= 2.

    The length-2 sequences (1, u) exhaust all hard cases: a zero-sum
    a + u*b = 0 exists iff -u (hence u, as u -> -u is a bijection) lies in
    A/A, and length-1 sequences only vanish on the zero element.
    """
    return ratio_missing(p, residues) == 0


def fd_fast_k2(p: int, budget: Optional[Budget] = None) -> FdResult:
    """fd(Z_p, 2): the least |A| with A/A = Z_p*, by the pruned cover search.

    Same value, lex-least witness and sizes_excluded as the orbit search of
    fd(cyclic(p), 2) with the bounded check; nodes count search extensions
    and candidates full-size sets.
    """
    check_order(p)
    if not isprime(p):
        raise ValueError(f"modulus {p} must be prime")
    find = partial(_first_ratio_cover, p, _discrete_logs(p))
    return _smallest(p, range(fd_lower_bound(p, 2), p), find, _Meter(budget))
