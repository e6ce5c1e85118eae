"""Weighted Davenport constants by bounded search over multiset prefixes.

One kernel answers everything: does a zero-sum-free multiset of size k
exist, and if so which is the lexicographically least?  It walks
nondecreasing multisets of nonzero group elements carrying the bit-vector
set R of weighted sums realizable from the prefix.  Appending x kills the
prefix exactly when some weight multiple of x lands in -R or at 0, which is
one AND of R against the precomputed mask A*(-x).  A fail memo per (last
element, R) records the fewest remaining elements already shown impossible.

Reachable sets use a padded layout in which translating by any element is
one right shift.  Every coordinate but the first gets twice its extent, so
coordinate j has stride P_j = prod_{i>j} 2*n_i and a set takes 2^(r-1)*|G|
bits; for cyclic groups this is the flat layout.  Each open state tiles
T = R | {0} once by T |= T << n_j*P_j for j = r..1, which places a copy of
every point at x_j and x_j + n_j in each coordinate.  Then for a move m,
(T >> (S - m)) & mask is T + m, with S = sum n_j*P_j and mask the padded
bits of G: of the two copies in coordinate j exactly one lands in
[0, n_j), and a borrow from a negative coordinate lands in its padding.

check_dav_at_most(G, A, k) is one kernel call per root, and D_A(G) is the
first k at which it holds, so davenport() scans k = 1, 2, ... over tables
built once.  A k < D usually finds its multiset with little or no
backtracking (k - 1 nodes when none), so nearly all of a scan is the one
refutation at k = D.  The tables hold the masks A*c and A*(-c) for every c;
the move list of c (the shifts S - m for m in A*c) is built the first time
the kernel extends a prefix by c, since a search that prunes early never
extends by most c.  With threads > 1 each public call opens one process
pool and keeps it for all of its batches, and each worker keeps the tables
of the last (group, weights) it searched.

Roots are restricted to unit-orbit minima.  Rescaling a zero-sum-free
multiset by a unit preserves zero-sum-freeness, and the lexicographically
least multiset of any orbit starts with an orbit-minimal element, so the
restriction loses neither existence nor the lex-least witness.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .engine import GSequence, WeightSet, dilation_orbit_reps, iter_bits, tile
from .groups import (
    GroupOrderError,
    GroupSpec,
    canonical_roots,
    check_order,
    cyclic,
    element_index,
    index_element,
    neg,
    scalar_mul,
)
from .numtheory import isprime

# The fail memo is cleared wholesale past _memo_limit(width) states: at most
# _MEMO_LIMIT, and fewer where keys of _MEMO_BYTES in total would not hold
# that many.  Bounded memory at the cost of re-expansion, and deterministic
# since clearing depends only on the visit order and the group.
_MEMO_LIMIT = 1 << 19
_MEMO_BYTES = 1 << 27
# The masks A*c reach about halfway up a reachable set, so the move tables of
# a group take about |G| * width / 16 bytes.  Groups past this are refused:
# cyclic ones past order 2^17, whose flat tables already took over 1 GiB, and
# Z_2^r from r = 12, where padding multiplies the flat tables by 2^(r-1).
# Since width >= |G|, no group past order 2^17 gets through.
_TABLE_BYTES = 1 << 30


def _memo_limit(width: int) -> int:
    """Fail-memo entries one search may keep when R takes `width` bits.

    A key (c, R) is a 2-tuple of a small int and a width-bit int: 56 + 28
    bytes plus 24 + 4 per 30 bits of R, and about 50 more for its dict slot.
    Up to width 720 the entry cap is the smaller bound.
    """
    per_key = 160 + 4 * -(-width // 30)
    return min(_MEMO_LIMIT, _MEMO_BYTES // per_key)


class _Padding:
    """One group's padded layout of reachable sets (see the module docstring).

    index maps a flat index to its padded bit (None for cyclic groups, where
    the two agree); mask holds the padded bits of G's elements; spread lists
    the tiling shifts n_j*P_j for j = r..1; shift is S = sum n_j*P_j; width is
    the bits a reachable set can take, 2^(r-1)*|G|.
    """

    __slots__ = ("index", "mask", "spread", "shift", "width")

    def __init__(self, group: GroupSpec):
        n = group.order
        fs = group.invariant_factors
        strides = [1] * len(fs)
        for j in range(len(fs) - 2, -1, -1):
            strides[j] = strides[j + 1] * 2 * fs[j + 1]
        self.width = fs[0] * strides[0]
        if n * self.width // 16 > _TABLE_BYTES:
            raise GroupOrderError(
                f"{group}: move tables over {self.width}-bit reachable sets would take"
                f" about {n * self.width >> 24} MiB, over the {_TABLE_BYTES >> 20} MiB limit"
            )
        self.spread = tuple(nj * pj for nj, pj in zip(fs[::-1], strides[::-1]))
        self.shift = sum(self.spread)
        # coordinate j ranges over [0, n_j): n_j copies of the mask below it
        mask = 1
        for nj, pj in zip(fs[::-1], strides[::-1]):
            mask = tile(mask, pj, nj)
        self.mask = mask
        self.index: Optional[tuple[int, ...]] = None
        if not group.is_cyclic:
            index = [0]
            for nj, pj in zip(fs, strides):
                index = [i + x * pj for i in index for x in range(nj)]
            self.index = tuple(index)


_padding = lru_cache(maxsize=None)(_Padding)


class CapExceededError(RuntimeError):
    """Search proved the value exceeds the requested cap."""

    def __init__(self, cap: int, nodes: int):
        super().__init__(f"Davenport constant exceeds cap {cap}")
        self.cap = cap
        self.nodes = nodes


class BudgetExceededError(RuntimeError):
    """Node or time budget ran out before the search resolved."""


@dataclass(frozen=True)
class Budget:
    """Limits tested at deterministic checkpoints.

    fd tests both before each candidate weight set on the bounded-check path
    and every few thousand nodes inside the prime k = 2 cover search; sweeps
    and constructions test max_seconds between rows or rounds.
    """

    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None


@dataclass(frozen=True)
class DavenportResult:
    value: int
    witness: GSequence
    nodes_explored: int
    elapsed: float


@dataclass(frozen=True)
class BoundedCheckResult:
    holds: bool
    counterexample: Optional[GSequence]
    nodes: int = 0


def default_threads() -> int:
    try:
        return max(1, int(os.environ.get("DAVLAB_THREADS", "1")))
    except ValueError:
        return 1


class _WeightTables:
    """Per-(group, weights) move masks for the multiset search.

    Indexed by the flat index c of an element, holding sets in the padded
    layout of `padding`.  wbits[c] is the set A*c; negw[c] = wbits[-c] is
    the mask that kills c against a reachable set R (A*c meets -R exactly
    when A*(-c) meets R), widened to every bit when some a*c = 0.  moves[c],
    the shifts S - m for the padded bits m of A*c, starts as None and is
    filled by the kernel the first time it extends a prefix by c: most
    elements are only ever tested against negw.
    """

    __slots__ = ("group", "order", "padding", "wbits", "negw", "moves", "roots")

    def __init__(self, group: GroupSpec, weights: WeightSet):
        if weights.exponent != group.exponent:
            raise ValueError(
                f"weight exponent {weights.exponent} does not match exp({group}) = {group.exponent}"
            )
        self.group = group
        self.order = n = group.order
        self.padding = _padding(group)
        wbits = [0] * n
        res = weights.residues
        if group.is_cyclic:
            for i in range(1, n):
                w = 0
                for a in res:
                    w |= 1 << (a * i % n)
                wbits[i] = w
            negw = wbits[:1] + wbits[:0:-1]  # -c has index n - c
        else:
            pad = self.padding.index
            neg_index = [0] * n
            for i in range(1, n):
                g = index_element(group, i)
                neg_index[i] = element_index(group, neg(group, g))
                w = 0
                for a in res:
                    w |= 1 << pad[element_index(group, scalar_mul(group, a, g))]
                wbits[i] = w
            negw = [wbits[j] for j in neg_index]
        self.negw = [-1 if w & 1 else w for w in negw]
        self.wbits = wbits
        self.moves: list[Optional[tuple[int, ...]]] = [None] * n
        self.roots = canonical_roots(group)


def _indices_to_sequence(group: GroupSpec, indices: Iterable[int]) -> GSequence:
    return GSequence(group, tuple(index_element(group, i) for i in sorted(indices)))


class _Pool:
    """Ordered map over worker processes, open for the length of one public call.

    Runs serially when threads <= 1 or a batch holds at most one job.  The
    executor starts on the first parallel batch with min(threads, batch)
    workers and is replaced only when a later batch can use more of them.
    """

    def __init__(self, threads: int):
        self.threads = threads
        self._executor: Optional[ProcessPoolExecutor] = None
        self._workers = 0

    def __enter__(self) -> "_Pool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
            self._workers = 0

    def map(self, worker, arglist):
        """Yield worker results in submission order."""
        if self.threads <= 1 or len(arglist) <= 1:
            for a in arglist:
                yield worker(a)
            return
        workers = min(self.threads, len(arglist))
        if workers > self._workers:
            self.close()
            self._executor = ProcessPoolExecutor(max_workers=workers)
            self._workers = workers
        chunksize = max(1, len(arglist) // (4 * self.threads))
        yield from self._executor.map(worker, arglist, chunksize=chunksize)


def _find_zsf(tables: _WeightTables, root: int, k: int) -> tuple[Optional[list[int]], int]:
    """Lex-least zero-sum-free multiset of size k starting at root, plus nodes.

    Depth-first over nondecreasing extensions on an explicit stack.  A state
    (last, R) that failed with r elements still to place fails for any r' >= r,
    which the fail memo records.  Extending R by c is
    R | ((OR over s in moves[c] of T >> s) & mask) with T the tiled R | {0}.
    """
    w = tables.wbits[root]
    if w & 1:
        return None, 0
    if k == 1:
        return [root], 0
    order = tables.order
    # the reachable set must grow per element yet stay zero-free
    if k - 1 > order - 1 - w.bit_count():
        return None, 0
    wbits = tables.wbits
    negw = tables.negw
    moves = tables.moves
    pad = tables.padding
    mask, spread, shift = pad.mask, pad.spread, pad.shift
    memo_limit = _memo_limit(pad.width)
    fail_at: dict[tuple[int, int], int] = {}
    nodes = 1
    chosen = [root]
    # open states as [reachable set, elements still to place, next candidate,
    # tiled R | {0} or None until a candidate needs it]; the state at depth i
    # was reached by appending chosen[i]
    stack = [[w, k - 1, root, None]]
    while stack:
        state = stack[-1]
        bits, remaining, tiled = state[0], state[1], state[3]
        for c in range(state[2], order):
            if negw[c] & bits:
                continue
            if remaining == 1:
                chosen.append(c)
                return chosen, nodes
            if tiled is None:
                tiled = bits | 1
                for s in spread:
                    tiled |= tiled << s
                state[3] = tiled
            mv = moves[c]
            if mv is None:
                mv = moves[c] = tuple(shift - m for m in iter_bits(wbits[c]))
            nb = 0
            for s in mv:
                nb |= tiled >> s
            nb = bits | (nb & mask)
            if remaining > order - nb.bit_count():
                continue
            known = fail_at.get((c, nb))
            if known is None or remaining - 1 < known:
                state[2] = c + 1
                nodes += 1
                chosen.append(c)
                stack.append([nb, remaining - 1, c, None])
                break
        else:
            if len(fail_at) >= memo_limit:
                fail_at.clear()
            fail_at[(chosen.pop(), bits)] = remaining
            stack.pop()
    return None, nodes


@lru_cache(maxsize=1)
def _worker_tables(factors: tuple[int, ...], residues: tuple[int, ...]) -> _WeightTables:
    """Tables in a worker process, kept across the roots and k of one call."""
    group = GroupSpec(factors)
    return _WeightTables(group, WeightSet(group.exponent, residues))


def _check_root_worker(args) -> tuple[Optional[list[int]], int]:
    factors, residues, root, k = args
    return _find_zsf(_worker_tables(factors, residues), root, k)


def _first_zsf(
    tables: _WeightTables, weights: WeightSet, k: int, pool: _Pool
) -> tuple[Optional[list[int]], int]:
    """Lex-least zero-sum-free multiset of size k over all roots, plus nodes.

    Roots are scanned in ascending order and the scan stops at the first root
    with a size-k extension, so nodes count up to and including that root.
    """
    if pool.threads > 1 and len(tables.roots) > 1:
        factors = tables.group.invariant_factors
        arglist = [(factors, weights.residues, r, k) for r in tables.roots]
        gen = pool.map(_check_root_worker, arglist)
    else:
        gen = (_find_zsf(tables, r, k) for r in tables.roots)
    nodes = 0
    for found, n_nodes in gen:
        nodes += n_nodes
        if found is not None:
            return found, nodes
    return None, nodes


def davenport(
    group: GroupSpec,
    weights: WeightSet,
    cap: Optional[int] = None,
    threads: Optional[int] = None,
) -> DavenportResult:
    """Exact D_A(G): least k forcing a weighted zero-sum in every length-k sequence.

    Scans k = 1, 2, ... with the bounded check until no zero-sum-free multiset
    of size k exists; that k is the value and the lex-least multiset found at
    k - 1 is the witness.  nodes_explored sums the bounded-check nodes over
    the scan.  Raises CapExceededError when a zero-sum-free multiset of size
    cap exists, i.e. the value exceeds cap; the default cap |G| can never
    trigger because prefix sums of any |G|-term sequence repeat.
    """
    if cap is None:
        cap = group.order
    if cap < 1:
        raise ValueError("cap must be >= 1")
    threads = default_threads() if threads is None else max(1, threads)
    start = time.perf_counter()
    tables = _WeightTables(group, weights)
    witness: list[int] = []
    nodes = 0
    k = 1
    with _Pool(threads) as pool:
        while True:
            found, n_nodes = _first_zsf(tables, weights, k, pool)
            nodes += n_nodes
            if found is None:
                break
            if k >= cap:
                raise CapExceededError(cap, nodes)
            witness = found
            k += 1
    return DavenportResult(
        value=k,
        witness=_indices_to_sequence(group, witness),
        nodes_explored=nodes,
        elapsed=time.perf_counter() - start,
    )


def check_dav_at_most(
    group: GroupSpec,
    weights: WeightSet,
    k: int,
    threads: Optional[int] = None,
) -> BoundedCheckResult:
    """Decide D_A(G) <= k; on failure returns the lex-least length-k culprit."""
    if k < 1:
        raise ValueError("k must be >= 1")
    threads = default_threads() if threads is None else max(1, threads)
    with _Pool(threads) as pool:
        found, nodes = _first_zsf(_WeightTables(group, weights), weights, k, pool)
    if found is None:
        return BoundedCheckResult(holds=True, counterexample=None, nodes=nodes)
    return BoundedCheckResult(
        holds=False, counterexample=_indices_to_sequence(group, found), nodes=nodes
    )


def certify_dav_value(
    group: GroupSpec,
    weights: WeightSet,
    value: int,
    threads: Optional[int] = None,
) -> bool:
    """Exact equality test D_A(G) == value.

    Much cheaper than a full davenport() run when the value is predicted:
    one bounded refutation (no zero-sum-free multiset of size `value`) plus
    one bounded witness search (some zero-sum-free multiset of size
    `value` - 1), both heavily pruned by the reachable-set growth bound.
    """
    if value < 1:
        return False
    if not check_dav_at_most(group, weights, value, threads).holds:
        return False
    if value == 1:
        return True
    return not check_dav_at_most(group, weights, value - 1, threads).holds


def _max_dav_worker(args) -> tuple[int, tuple[int, ...]]:
    p, residues = args
    group = cyclic(p)
    r = davenport(group, WeightSet(p, residues), threads=1)
    return r.value, residues


@dataclass(frozen=True)
class MaxDavenportResult:
    value: int
    argmax: WeightSet
    candidates: int
    elapsed: float


def max_davenport_over_size(p: int, k: int, threads: Optional[int] = None) -> MaxDavenportResult:
    """max over |A| = k of D_A(Z_p), with the lex-least maximizing A.

    Only dilation-orbit representatives are searched; D_A is constant on
    orbits.  The maximum always lands on ceil(p/k), attained by {1, ..., k}.
    """
    check_order(p)
    if not isprime(p):
        raise ValueError(f"modulus {p} must be prime")
    if not 1 <= k <= p - 1:
        raise ValueError(f"size {k} not in [1, {p - 1}]")
    threads = default_threads() if threads is None else max(1, threads)
    start = time.perf_counter()
    reps = list(dilation_orbit_reps(p, k))
    best_val = 0
    best_set: Optional[tuple[int, ...]] = None
    with _Pool(threads) as pool:
        for value, rep in pool.map(_max_dav_worker, [(p, rep) for rep in reps]):
            if value > best_val:
                best_val = value
                best_set = rep
    assert best_set is not None
    return MaxDavenportResult(
        value=best_val,
        argmax=WeightSet(p, best_set),
        candidates=len(reps),
        elapsed=time.perf_counter() - start,
    )
