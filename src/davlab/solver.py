"""Weighted Davenport constants by bounded search over multiset prefixes.

One kernel answers everything: does a zero-sum-free multiset of size k
exist, and if so which is the lexicographically least?  It walks
nondecreasing multisets of nonzero group elements carrying the bit-vector
set Sigma of the prefix's weighted subsequence sums, the sums with the empty
one, so 0 is always in Sigma.  Appending x closes a zero-sum exactly when
some weight multiple of x lands in -Sigma, which is one AND of Sigma against
the mask A*(-x); its bit 0 is set exactly when A*x holds 0.  Otherwise
Sigma grows to Sigma | (Sigma + A*x).  A fail memo per (last element, Sigma)
records the fewest remaining elements already shown impossible.

Reachable sets use a padded layout in which translating by any element is
one right shift.  Every coordinate but the first gets twice its extent, so
coordinate j has stride P_j = prod_{i>j} 2*n_i and a set takes 2^(r-1)*|G|
bits; for cyclic groups this is the flat layout.  Each open state tiles
T = Sigma once by T |= T << n_j*P_j for j = r..1, which places a copy of
every point at x_j and x_j + n_j in each coordinate.  Then for a move m,
(T >> (S - m)) & mask is Sigma + m, with S = sum n_j*P_j and mask the padded
bits of G: of the two copies in coordinate j exactly one lands in
[0, n_j), and a borrow from a negative coordinate lands in its padding.
first_zero_free runs the same test and step along given multisets, with no
search, memo or table beyond the masks A*(-x): fd refutes candidates with
it by the culprits of its failed checks, and classify_dav pretests the
all-ones multiset.  It is the one zero-sum-free walk besides the kernel.

check_dav_at_most(G, A, k) is one kernel call per root, and D_A(G) is the
first k at which it holds, so davenport() scans k = 1, 2, ... over one set
of tables; certify_dav_value and classify_dav run their two bounded checks
over one set too.  A k < D usually finds its multiset with little or no
backtracking (k - 1 nodes when none), so nearly all of a scan is the one
refutation at k = D.  Masks and move lists follow one rule (see
_WeightTables): each is built the first time the kernel reads it, the mask
of c when it first tests c and the move list of c (the shifts S - m for m
in A*c) when it first extends a prefix by c.  A root r's own sums
Sigma = A*r | {0} already kill every c with a*c in -Sigma, which a
congruence solve finds, and Sigma only grows, so every state under r scans
the ascending list of the others instead of every element and never builds
their masks; once the stabilizer below is computed, every list also drops
the elements it maps lower.  A root's list is built the first time a search
under it scans and kept per table, since a list per state would cost a copy
on every push.  The search is serial at any thread count, since its roots are
scanned in order and the first that extends ends a k; process pools run
only independent whole answers, the representatives of
max_davenport_over_size and the trials of a sweep.

Roots are the least elements of the Aut(G)-orbits of nonzero elements
(groups.canonical_roots).  An automorphism phi commutes with integer
weights, phi(a*x) = a*phi(x), so it maps zero-sum-free multisets to
zero-sum-free ones.  If phi(min M) < min M for the lex-least zero-sum-free
multiset M of some size, sorted(phi(M)) would be a lex-smaller one, so M
starts at an orbit minimum and the restriction loses neither existence nor
the lex-least witness.  On cyclic groups the orbits are the unit orbits and
the roots the divisors of n below n; on Z_p^r every nonzero element is in
one orbit, so a refutation searches the single root 1.  Every later
element is restricted to orbit minima under the units s != 1 with s*A = A
(A's stabilizer; -1 for A = -A): since A*(s*x) = A*x, swapping an element x
of a zero-sum-free multiset for a lower s*x keeps it zero-sum-free and makes
it lex-smaller, so the lex-least multiset holds no such x.  The fail memo
stays sound, as the restricted subtree under a state still depends only on
(last element, Sigma, elements still to place).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import filterfalse
from math import gcd
from operator import add
from typing import Iterable, Optional, Sequence

from .engine import (
    GSequence,
    WeightSet,
    _check_weights,
    dilation_orbit_reps,
    images,
    scaled_weights,
    tile,
)
from .groups import (
    GroupOrderError,
    GroupSpec,
    canonical_roots,
    check_order,
    cyclic,
    index_element,
    orbit_minima,
    unit_generators,
    unit_span,
    units_mapping,
)
from .numtheory import isprime

# The fail memo is cleared wholesale past _memo_limit(width) states: at most
# _MEMO_LIMIT, and fewer where keys of _MEMO_BYTES in total would not hold
# that many.  Bounded memory at the cost of re-expansion, and deterministic
# since clearing depends only on the visit order and the group.
_MEMO_LIMIT = 1 << 19
_MEMO_BYTES = 1 << 27
# The masks A*c reach about halfway up a reachable set, so the move tables of
# a group take about |G| * width / 16 bytes.  _WeightTables refuses groups
# past this: cyclic ones past order 2^17, whose flat tables already took over
# 1 GiB, and Z_2^r from r = 12, where padding multiplies the flat tables by
# 2^(r-1).  Since width >= |G|, no group past order 2^17 gets tables.  The
# layout alone is one width-bit mask, so first_zero_free, which builds no
# table, still runs on cyclic groups up to the order limit.
_TABLE_BYTES = 1 << 30
# A search that counts nodes tests its budget once per this many nodes.
_CHECK_EVERY = 4096


def _memo_limit(width: int) -> int:
    """Fail-memo entries one search may keep when Sigma takes `width` bits.

    A key (c, Sigma) is a 2-tuple of a small int and a width-bit int: 56 + 28
    bytes plus 24 + 4 per 30 bits of Sigma, and about 50 more for its dict
    slot.  Up to width 720 the entry cap is the smaller bound.
    """
    per_key = 160 + 4 * -(-width // 30)
    return min(_MEMO_LIMIT, _MEMO_BYTES // per_key)


class _Padding:
    """One group's padded layout of reachable sets (see the module docstring).

    coords lists (n_j, st_j, P_j) for each coordinate, last first, with st_j
    the flat stride and P_j the padded one, so divmod by n_j in that order
    reads the digits of a flat index, and strides the pairs (n_j, P_j) that
    scaled() passes to scaled_weights; mask holds the padded bits of G's
    elements; spread lists the tiling shifts n_j*P_j for j = r..1; shift is
    S = sum n_j*P_j; width is the bits a reachable set can take, 2^(r-1)*|G|.
    """

    __slots__ = ("coords", "strides", "mask", "spread", "shift", "width", "memo_limit")

    def __init__(self, group: GroupSpec):
        fs = group.invariant_factors
        strides = [1] * len(fs)
        for j in range(len(fs) - 2, -1, -1):
            strides[j] = strides[j + 1] * 2 * fs[j + 1]
        self.width = fs[0] * strides[0]
        coords = []
        st = 1
        for nj, pj in zip(fs[::-1], strides[::-1]):
            coords.append((nj, st, pj))
            st *= nj
        self.coords = tuple(coords)
        self.strides = tuple([(nj, pj) for nj, _, pj in coords])
        self.spread = tuple(nj * pj for nj, _, pj in coords)
        self.shift = sum(self.spread)
        # coordinate j ranges over [0, n_j): n_j copies of the mask below it
        mask = 1
        for nj, _, pj in coords:
            mask = tile(mask, pj, nj)
        self.mask = mask
        self.memo_limit = _memo_limit(self.width)

    def scaled(self, bs: tuple[int, ...]) -> tuple:
        """The weights bs scaled for images() into padded bits."""
        return scaled_weights(self.strides, bs)


_padding = lru_cache(maxsize=None)(_Padding)


class CapExceededError(RuntimeError):
    """Search proved the value exceeds the requested cap."""

    def __init__(self, cap: int, nodes: int):
        super().__init__(f"Davenport constant exceeds cap {cap}")
        self.cap = cap
        self.nodes = nodes


class BudgetExceededError(RuntimeError):
    """Raised by Meter.check() when a node or time budget has run out."""


@dataclass(frozen=True)
class Budget:
    """Limits that one Meter per call tests at deterministic checkpoints.

    It trips once the nodes exceed max_nodes or max_seconds have passed
    since the call started.  The checkpoints, and what a trip reports:
    - fd's orbit search: before each candidate; UNKNOWN.
    - fd's prime k = 2 cover search: every _CHECK_EVERY nodes and at node
      max_nodes + 1; UNKNOWN.
    - threshold_sweep: before each row; partial.
    - quartic_weight_set: before each round; ConstructionError.
    The sweep and the constructions count no nodes.  Nothing stops a running
    bounded check, and davenport and the bounded checks take no budget.
    """

    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        # 0 is a limit that trips at the first checkpoint; a negative one is
        # a mistake, and NaN compares false with every deadline, never tripping
        if self.max_nodes is not None and self.max_nodes < 0:
            raise ValueError(f"max_nodes must be >= 0, got {self.max_nodes}")
        if self.max_seconds is not None and not self.max_seconds >= 0:  # NaN fails too
            raise ValueError(f"max_seconds must be a number >= 0, got {self.max_seconds}")


class Meter:
    """One call's start time, node count and budget, tested by check()."""

    __slots__ = ("start", "nodes", "max_nodes", "deadline")

    def __init__(self, budget: Optional[Budget]):
        self.start = time.perf_counter()
        self.nodes = 0
        self.max_nodes = budget.max_nodes if budget else None
        seconds = budget.max_seconds if budget else None
        self.deadline = None if seconds is None else self.start + seconds

    def check(self) -> None:
        """Raise BudgetExceededError once nodes exceed max_nodes or time is up."""
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExceededError(f"node budget {self.max_nodes} exhausted")
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise BudgetExceededError("time budget exhausted")

    def next_check(self) -> int:
        """Node count at which a search should call check() again."""
        at = self.nodes + _CHECK_EVERY
        return at if self.max_nodes is None else min(at, self.max_nodes + 1)

    def elapsed(self) -> float:
        """Seconds since the call started."""
        return time.perf_counter() - self.start


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


def _stabilizer(weights: WeightSet) -> tuple[int, ...]:
    """The units s != 1 mod e with s*A = A, ascending.

    For such s, A*(s*x) = (s*A)*x = A*x, so x and s*x kill and extend every
    prefix alike.  Each s maps a weight a0 into A, so it is among the units
    solving s*a0 = a for some weight a.  a0 is a weight with the least
    gcd(a0, e), a unit where A has one, which leaves one candidate per weight.
    A candidate in the group the accepted ones generate needs no test.  s
    permutes A, so s*sum(A) = sum(A) (mod e): s = 1 modulo q = e/gcd(sum(A),
    e), which leaves only s = 1 when the gcd is 1 (nearly every random A).
    """
    e = weights.exponent
    rs = weights.residues
    q = e // gcd(sum(rs), e)
    if q == e:
        return ()
    members = set(rs)
    a0 = min(rs, key=lambda a: gcd(a, e))
    span = {1}
    for a in rs:
        for s in units_mapping(a0, a, e):
            if (s - 1) % q or s in span:
                continue
            for b in rs:
                if s * b % e not in members:
                    break
            else:
                span = unit_span(span, s, e)
    span.discard(1)
    return tuple(sorted(span))


class _WeightTables:
    """Per-(group, weights) masks and move lists for the multiset search,
    each built the first time a search can read it.

    Indexed by the flat index c of an element, holding sets in the padded
    layout of `padding`.  A candidate c dies against Sigma, the sums with the
    empty one, when A*c meets -Sigma, which masks[c] = A*(-c) tests with one
    AND; 0 is in Sigma, so that covers A*c holding 0.  A*(-c) is never empty,
    so masks holds 0 exactly where no mask is built yet, and the kernel
    builds a 0 entry through mask() the first time it tests it, at every
    level, for every k and every root; a search builds only the masks it
    tested.

    A search under root r starts from Sigma = A*r | {0}, which already kills
    the c with a*c in -Sigma for some a in A; killed() finds them by solving
    a*x = t (mod n_j) coordinate by coordinate, and since Sigma only grows
    they are dead in every state under r.  root_scan() keeps A*r and the
    others from r up, ascending, as root_scans[r] the first time a search
    under r scans (not one that ends on A*r alone: r dead, k = 1, or too few
    elements left to grow Sigma), so the kernel never tests a killed
    candidate and never builds its mask.  Entries live as long as the
    tables: at most one list of at most |G| indices per root scanned.

    moves[c], the shifts S - m for the padded bits m of A*c, is built the
    first time the kernel would extend a prefix by c.  It is empty when a
    unit s fixing A (s*A = A, see _stabilizer) maps c to a lower flat index,
    and the kernel never extends a prefix by such c.  `minima`, the flat
    index of each element's least image under those units, is built with
    the first move list of an element other than 1, so searches that never
    extend a prefix (k <= 2, or every candidate killed) never compute the
    stabilizer.  Building it also drops the elements those units map lower
    from every list in root_scans, in place, and lists built later leave
    them out; the kernel reads its root's list afresh at every state.  That
    changes no answer and no node count: the kernel already never extends a
    prefix by them, and a search that ended on one would return a multiset
    other than the lex-least one, which holds none of them (see the module
    docstring).  No list loses its own root: a root is least in its
    Aut(G)-orbit, which holds its images under those units.
    """

    __slots__ = (
        "group", "order", "padding", "weights", "negated", "plus", "minus", "masks", "moves",
        "roots", "root_scans", "minima",
    )

    def __init__(self, group: GroupSpec, weights: WeightSet):
        _check_weights(group, weights)
        self.group = group
        self.order = n = group.order
        width = n << group.rank - 1  # _Padding.width, known before its mask is built
        if n * width // 16 > _TABLE_BYTES:
            raise GroupOrderError(
                f"{group}: move tables over {width}-bit reachable sets would take"
                f" about {n * width >> 24} MiB, over the {_TABLE_BYTES >> 20} MiB limit"
            )
        self.padding = pad = _padding(group)
        self.weights = weights
        e = group.exponent
        self.negated = tuple([e - a for a in weights.residues])  # (e - a)*x = -a*x
        self.plus = pad.scaled(weights.residues)
        self.minus = pad.scaled(self.negated)
        self.masks = [0] * n
        self.moves: list[Optional[tuple[int, ...]]] = [None] * n
        self.roots = canonical_roots(group)
        self.root_scans: dict[int, tuple[int, list[int]]] = {}  # see root_scan()
        self.minima: Optional[Sequence[int]] = None

    @staticmethod
    def bits(c: int, scaled: tuple) -> int:
        """The padded bits of b*c for b in A (scaled = plus) or -A (minus)."""
        w = 0
        nj, period, bs = scaled[0]
        if c < nj:  # c lies in the last factor: one product per weight
            for b in bs:
                w |= 1 << (b * c % period)
            return w
        for m in images(c, scaled):
            w |= 1 << m
        return w

    def root_scan(self, root: int, w: int) -> list[int]:
        """Build root_scans[root] = (w, survivors) from w = A*root as a
        padded set, and return survivors: the elements from root up that
        killed(root) leaves, ascending and narrowed to stabilizer minima
        once those are known."""
        dead = self.killed(root)
        survivors = list(filterfalse(dead.__contains__, range(root, self.order)))
        minima = self.minima
        if isinstance(minima, list):  # not range: some unit fixing A
            survivors = [x for x in survivors if minima[x] == x]
        self.root_scans[root] = (w, survivors)
        return survivors

    def shifts(self, c: int) -> tuple[int, ...]:
        """The move list of c: S - m for the padded bits m of A*c, largest
        first; empty when a unit fixing A maps c lower.

        No unit maps c = 1, the least nonzero element, lower, so a search
        that extends prefixes only by 1 never computes the stabilizer.
        Computing it narrows every list in root_scans to its minima.
        """
        if c > 1:
            minima = self.minima
            if minima is None:
                stab = _stabilizer(self.weights)
                if stab:
                    e = self.group.exponent
                    minima = self.minima = orbit_minima(self.group, unit_generators(stab, e))
                    for _, survivors in self.root_scans.values():
                        survivors[:] = [x for x in survivors if minima[x] == x]
                else:
                    minima = self.minima = range(self.order)
            if minima[c] != c:
                return ()
        shift = self.padding.shift
        nj, period, bs = self.plus[0]
        if c < nj:  # as in bits()
            return tuple(sorted({shift - b * c % period for b in bs}, reverse=True))
        return tuple(sorted({shift - m for m in images(c, self.plus)}, reverse=True))

    def killed(self, root: int) -> set[int]:
        """Flat indices c with a*c in -Sigma for some weight a, where
        Sigma = A*root | {0} holds root's sums with the empty one.

        a*x = t (mod n_j) is solvable iff g = gcd(a, n_j) divides t, by
        x = (t/g)*inv (mod n_j/g) plus any multiple of n_j/g.  Each
        coordinate solves a for every target t in one pass, -n marking no
        solution (the other digits add up to less than n); the multiples
        over all coordinates, a's offsets, add to flat indices without carry.
        """
        n = self.order
        coords = self.padding.coords
        cols = []  # the digits of the targets 0 and -(b*root), per coordinate
        for nj, _, _ in coords:
            root, x = divmod(root, nj)
            cols.append([0] + [b * x % nj for b in self.negated])
        dead: set[int] = set()
        for a in self.weights.residues:
            sums: list[int] = []
            offsets = [0]
            for (nj, st, _), col in zip(coords, cols):
                g = gcd(a, nj)
                if g == 1:
                    inv = pow(a, -1, nj)
                    part = [t * inv % nj * st for t in col]
                else:
                    m = nj // g
                    inv = pow(a // g, -1, m)
                    part = [t // g * inv % m * st if t % g == 0 else -n for t in col]
                    offsets = [o + q * m * st for o in offsets for q in range(g)]
                sums = list(map(add, sums, part)) if sums else part
            if len(offsets) == 1:
                dead.update(sums)
            else:
                dead.update([x + q for x in sums if x >= 0 for q in offsets])
        return dead

    def mask(self, c: int) -> int:
        """Build masks[c] = A*(-c), never 0."""
        w = self.masks[c] = self.bits(c, self.minus)
        return w

    def first(self, k: int) -> tuple[Optional[list[int]], int]:
        """Lex-least zero-sum-free multiset of size k over all roots (None
        when D_A(G) <= k), plus nodes.

        Roots are scanned in ascending order and the scan stops at the first
        root with a size-k extension, so nodes count up to and including
        that root.
        """
        nodes = 0
        for root in self.roots:
            found, n_nodes = _find_zsf(self, root, k)
            nodes += n_nodes
            if found is not None:
                return found, nodes
        return None, nodes

    def holds(self, k: int) -> bool:
        """D_A(G) <= k."""
        return self.first(k)[0] is None


def _indices_to_sequence(group: GroupSpec, indices: Iterable[int]) -> GSequence:
    return GSequence(group, tuple(index_element(group, i) for i in sorted(indices)))


class _Pool:
    """Ordered map over worker processes, open for the length of one public call.

    Runs serially when threads <= 1 or a batch holds at most one job.  The
    executor starts on the first parallel batch with min(threads, batch)
    workers and serves the rest of the call, whose batches all have that
    size: one per sweep row, or davenport-max's single batch.
    """

    def __init__(self, threads: int):
        self.threads = threads
        self._executor: Optional[ProcessPoolExecutor] = None

    def __enter__(self) -> "_Pool":
        return self

    def __exit__(self, *exc) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def map(self, worker, args: list) -> list:
        """The worker's results over args, in order."""
        if self.threads <= 1 or len(args) <= 1:
            return [worker(a) for a in args]
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=min(self.threads, len(args)))
        chunksize = max(1, len(args) // (4 * self.threads))
        return list(self._executor.map(worker, args, chunksize=chunksize))


def _find_zsf(tables: _WeightTables, root: int, k: int) -> tuple[Optional[list[int]], int]:
    """Lex-least zero-sum-free multiset of size k starting at root, plus nodes.

    Depth-first over nondecreasing extensions on an explicit stack.  A state
    (last, Sigma) that failed with r elements still to place fails for any
    r' >= r, which the fail memo records.  c is killed when masks[c] = A*(-c)
    meets Sigma, the sums with the empty one, and otherwise extends Sigma to
    Sigma | ((OR over s in moves[c] of T >> s) & mask) with T the tiled Sigma.
    Every element but the last grows Sigma, which must still miss -A*x of
    the last x, so a state prunes once more elements are still to place than
    lie outside Sigma, at the root and after every push alike.
    """
    scan = tables.root_scans.get(root)
    w = scan[0] if scan else tables.bits(root, tables.plus)
    if w & 1:
        return None, 0
    if k == 1:
        return [root], 0
    order = tables.order
    z = w | 1
    # the growth rule, as after a push
    if k - 1 > order - z.bit_count():
        return None, 0
    survivors = scan[1] if scan else tables.root_scan(root, w)
    negw = tables.masks  # A*(-c), 0 until built
    moves = tables.moves
    pad = tables.padding
    mask, spread, shift = pad.mask, pad.spread, pad.shift
    memo_limit = pad.memo_limit
    fail_at: dict[tuple[int, int], int] = {}
    nodes = 1
    chosen = [root]
    # open states as [Sigma, elements still to place, next candidate, tiled
    # Sigma or None until a candidate needs it]; the state at depth i was
    # reached by appending chosen[i]
    stack = [[z, k - 1, root, None]]
    while stack:
        state = stack[-1]
        bits, remaining, tiled = state[0], state[1], state[3]
        # read per state: shifts() may narrow the list in place
        for c in survivors[bisect_left(survivors, state[2]):]:
            if (negw[c] or tables.mask(c)) & bits:
                continue
            if remaining == 1:
                chosen.append(c)
                return chosen, nodes
            mv = moves[c]
            if mv is None:
                mv = moves[c] = tables.shifts(c)
            if not mv:  # a unit fixing A maps c lower
                continue
            if tiled is None:
                tiled = bits
                for s in spread:
                    tiled |= tiled << s
                state[3] = tiled
            nb = 0
            for s in mv:
                nb |= tiled >> s
            nb = bits | (nb & mask)
            if remaining - 1 > order - nb.bit_count():
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


def first_zero_free(
    group: GroupSpec, residues: tuple[int, ...], multisets: Iterable[Sequence[int]]
) -> Optional[int]:
    """Position of the first multiset of flat indices that is zero-sum-free
    under the weights `residues` of G, or None.

    Each multiset is walked with _find_zsf's test and step on the padded
    layout, from Sigma = {0}: x closes a weighted zero-sum after a prefix
    with Sigma, the sums with the empty one, when A*(-x) meets Sigma, and
    otherwise Sigma grows to
    Sigma | ((OR over m in A*x of T >> (S - m)) & mask), T the tiled Sigma.
    The bits of A*(-x), the kernel's masks, are kept for the call.  No step
    is kept, and none is taken by a multiset's last element, whose sums
    nothing reads.  Every
    element of A*x is moved by, so the walk reads no move list (which a
    unit fixing A leaves empty).  It builds G's padded layout, one
    2^(r-1)*|G|-bit mask, and no table, so _TABLE_BYTES does not apply.
    """
    pad = _padding(group)
    e = group.exponent
    plus = pad.scaled(residues)
    minus = pad.scaled(tuple([e - a for a in residues]))  # (e - a)*x = -a*x
    mask, spread, shift = pad.mask, pad.spread, pad.shift
    bits_of = _WeightTables.bits
    negs: dict[int, int] = {}
    for j, ms in enumerate(multisets):
        bits = 1
        last = len(ms) - 1
        for i, x in enumerate(ms):
            neg = negs.get(x)
            if neg is None:
                neg = negs[x] = bits_of(x, minus)
            if neg & bits:
                break
            if i < last:
                tiled = bits
                for s in spread:
                    tiled |= tiled << s
                nb = 0
                for m in images(x, plus):
                    nb |= tiled >> shift - m
                bits |= nb & mask
        else:
            return j
    return None


def davenport(
    group: GroupSpec,
    weights: WeightSet,
    cap: Optional[int] = None,
    threads: int = 1,
) -> DavenportResult:
    """Exact D_A(G): least k forcing a weighted zero-sum in every length-k sequence.

    Scans k = 1, 2, ... with the bounded check until no zero-sum-free multiset
    of size k exists; that k is the value and the lex-least multiset found at
    k - 1 is the witness.  nodes_explored sums the bounded-check nodes over
    the scan.  Raises CapExceededError when a zero-sum-free multiset of size
    cap exists, i.e. the value exceeds cap; the default cap |G| can never
    trigger because prefix sums of any |G|-term sequence repeat.  threads
    is accepted for a uniform API and ignored: the search is serial.
    """
    if cap is None:
        cap = group.order
    if cap < 1:
        raise ValueError("cap must be >= 1")
    start = time.perf_counter()
    witness: list[int] = []
    nodes = 0
    k = 1
    tables = _WeightTables(group, weights)
    while True:
        found, n_nodes = tables.first(k)
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
    threads: int = 1,
) -> BoundedCheckResult:
    """Decide D_A(G) <= k; on failure returns the lex-least length-k culprit.

    threads is accepted for a uniform API and ignored: the search is serial.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    found, nodes = _WeightTables(group, weights).first(k)
    if found is None:
        return BoundedCheckResult(holds=True, counterexample=None, nodes=nodes)
    return BoundedCheckResult(
        holds=False, counterexample=_indices_to_sequence(group, found), nodes=nodes
    )


def certify_dav_value(
    group: GroupSpec,
    weights: WeightSet,
    value: int,
    threads: int = 1,
) -> bool:
    """Exact equality test D_A(G) == value.

    Much cheaper than a full davenport() run when the value is predicted:
    one bounded refutation (no zero-sum-free multiset of size `value`) plus
    one bounded witness search (some zero-sum-free multiset of size
    `value` - 1), both heavily pruned by the reachable-set growth bound and
    both over one set of tables.  threads is accepted for a uniform API and
    ignored: the search is serial.
    """
    if value < 1:
        return False
    tables = _WeightTables(group, weights)
    return tables.holds(value) and (value == 1 or not tables.holds(value - 1))


def _max_dav_worker(args) -> tuple[int, tuple[int, ...]]:
    p, residues = args
    group = cyclic(p)
    r = davenport(group, WeightSet(p, residues))
    return r.value, residues


@dataclass(frozen=True)
class MaxDavenportResult:
    value: int
    argmax: WeightSet
    candidates: int
    elapsed: float


def max_davenport_over_size(p: int, k: int, threads: int = 1) -> MaxDavenportResult:
    """max over |A| = k of D_A(Z_p), with the lex-least maximizing A.

    Only dilation-orbit representatives are searched, on up to `threads`
    worker processes; D_A is constant on orbits.  The maximum always lands
    on ceil(p/k), attained by {1, ..., k}.
    """
    check_order(p)
    if not isprime(p):
        raise ValueError(f"modulus {p} must be prime")
    if not 1 <= k <= p - 1:
        raise ValueError(f"size {k} not in [1, {p - 1}]")
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
