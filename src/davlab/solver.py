"""Weighted Davenport constants by bounded search over multiset prefixes.

One kernel answers everything: does a zero-sum-free multiset of size k
exist, and if so which is the lexicographically least?  It walks
nondecreasing multisets of nonzero group elements carrying the bit-vector
set Sigma of the prefix's weighted subsequence sums, the sums with the empty
one, so 0 is always in Sigma.  Appending x closes a zero-sum exactly when
some weight multiple of x lands in -Sigma, which is one AND of Sigma against
the mask A*(-x); its bit 0 is set exactly when A*x holds 0.  Otherwise
Sigma grows to Sigma | (Sigma + A*x).  The growth rule prunes a state with r
elements still to place once |Sigma| + g*(r - 1) + m > |G|: each element but
the last grows Sigma by at least g, which is 1 in general and |A| on Z_p by
Cauchy-Davenport, and the last x needs its |A*x| >= m sums -A*x outside
Sigma, m being the least |A*x| over the nonzero x with 0 not in A*x.  A fail
memo keyed by Sigma keeps the (last element c, elements still to place r) of
the states that failed with that Sigma; an entry covers every later state
with the same Sigma whose last element is c or above and which has r or more
still to place (see _find_zsf).

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
search, memo or table beyond the masks A*(-x) and move lists of the elements
it walks: fd refutes candidates with it by the culprits of its failed
checks.  It is the one zero-sum-free walk besides the kernel.

check_dav_at_most(G, A, k) is one kernel call per root, and D_A(G) is the
first k at which it holds, so davenport() scans k = 1, 2, ... over one set
of tables, and certify_dav_value runs its two bounded checks over one
set too.  A k < D usually finds its multiset with little or no
backtracking (k - 1 nodes when none), so nearly all of a scan is the one
refutation at k = D.  Masks and move lists follow one rule (see
_WeightTables): each is built the first time the kernel reads it, the mask
of c when it first tests c and the move list of c (the shifts S - m for m
in A*c) when it first extends a prefix by c.  A root r's own sums
Sigma = A*r | {0} already kill every c with a*c in -Sigma, which a
congruence solve finds, and Sigma only grows, so every state under r scans
the ascending list of the others instead of every element and never builds
their masks; the list also leaves out the elements the stabilizer below
maps lower, and it is the one place that decides what a state may append.
A root's list is built the first time a search under it scans and kept per
table, since a list per state would cost a copy on every push.  A k = 2
search scans no list: the root's state is its only one, and the least
element from r up that the congruence solve leaves is its answer.  The
search is serial at any thread count, since its roots are scanned in order
and the first that extends ends a k; process pools run only independent
whole answers, the representatives of max_davenport_over_size and the
trials of a sweep.

Roots are the least elements of the Aut(G)-orbits of nonzero elements
(groups.canonical_roots).  An automorphism phi commutes with integer
weights, phi(a*x) = a*phi(x), so it maps zero-sum-free multisets to
zero-sum-free ones.  If phi(min M) < min M for the lex-least zero-sum-free
multiset M of some size, sorted(phi(M)) would be a lex-smaller one, so M
starts at an orbit minimum and the restriction loses neither existence nor
the lex-least witness.  On cyclic groups the orbits are the unit orbits and
the roots the divisors of n below n; on Z_p^r every nonzero element is in
one orbit, so a refutation searches the single root 1.  Roots are searched
in ascending order and a k ends at the first that extends, so when root r
is searched no zero-sum-free multiset of size k starts at an earlier root.
Then none starting at r holds an element x whose orbit minimum rho is an
earlier root: phi with phi(x) = rho would map it to one whose least element
lies below r, and mapping the least element to its orbit minimum, again and
again, ends at one that starts at an earlier root.  So every root after the
first scans only the elements whose orbit minimum is no earlier root, in the
spirit of isomorph-free generation (McKay, J. Algorithms 26, 1998); the
lex-least witness holds none of the others either, since all its elements
have orbit minima from its first element up.  Every later
element is restricted to orbit minima under the units s != 1 with s*A = A
(A's stabilizer; -1 for A = -A): since A*(s*x) = A*x, swapping an element x
of a zero-sum-free multiset for a lower s*x keeps it zero-sum-free and makes
it lex-smaller, so the lex-least multiset holds no such x.  The fail memo
stays sound: a state may still append exactly the elements of one list per
root from its last element up that Sigma leaves alive.

On G = Z_p^r with r >= 2 the root argument runs at every depth (the span
rule).  Let W be the span of the prefix m_1, ..., m_i of the lex-least M.
If an automorphism phi fixes m_1, ..., m_i and phi(m_{i+1}) < m_{i+1},
sorted(phi(M)) is a lex-smaller zero-sum-free multiset, so m_{i+1} is least
in its orbit under the automorphisms fixing the prefix pointwise.  Those fix
W pointwise and act transitively on the elements outside it (a basis of W
and x extends to a basis of G, which a linear map sends to one extending W
and y), so a state extends only by an element of W or by the least flat
index outside W.  This keeps every value, witness and culprit.  Every
weight is a unit mod p, so W is the span of Sigma: a state's list is still a
function of Sigma, and the fail memo stays sound.  The search has the one
root 1, and the last coordinate varies fastest, so after 1, p, ..., p^j the
span is the flat indices [0, p^(j+1)) and the least index outside it is
p^(j+1): the rule is a bound, and a state that has appended p^j scans root
1's survivors up to p^(j+1) (see _WeightTables).  Groups that are not
elementary abelian scan one list per root, as the rule does not apply to
them.  Z_3 + Z_9, for one, is searched without it.
"""

from __future__ import annotations

import os
import time
from bisect import bisect_left, bisect_right
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
    aut_orbit_minima,
    canonical_roots,
    check_order,
    cyclic,
    index_element,
    orbit_minima,
    unit_span,
    units_mapping,
)
from .numtheory import factorint, isprime

# The fail memo is cleared wholesale past _memo_limit(width) entries: at most
# _MEMO_LIMIT, and fewer where entries of _MEMO_BYTES in total would not hold
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
    """Fail-memo entries (c, r) one search may keep when Sigma takes `width` bits.

    The memo maps each failed Sigma to one flat tuple (c_1, r_1, c_2, r_2,
    ...).  A distinct Sigma costs about 50 bytes of dict slot, its width-bit
    int (24 + 4 per 30 bits) and the tuple's 40-byte header; an entry costs
    two tuple slots (16) and the ints c and r (28 each).  Every Sigma holds
    at least one entry, so the memo costs at most 186 bytes plus 4 per 30
    bits of Sigma per entry.  Up to width 510 the entry cap is the smaller
    bound.
    """
    per_entry = 186 + 4 * -(-width // 30)
    return min(_MEMO_LIMIT, _MEMO_BYTES // per_entry)


class _Padding:
    """One group's padded layout of reachable sets (see the module docstring).

    coords lists (n_j, st_j, P_j) for each coordinate, last first, with st_j
    the flat stride and P_j the padded one, so divmod by n_j in that order
    reads the digits of a flat index, and strides the pairs (n_j, P_j) that
    engine.scaled_weights reads; mask holds the padded bits of G's
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


_padding = lru_cache(maxsize=None)(_Padding)


@lru_cache(maxsize=None)
def _proper_divisors(n: int) -> tuple[int, ...]:
    """The divisors d of n with 1 < d < n, ascending; () for a prime n."""
    ds = [1]
    for q, t in factorint(n).items():
        ds = [d * q**i for d in ds for i in range(t + 1)]
    return tuple(sorted(ds)[1:-1])


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
    The sweep counts no nodes.  Nothing stops a running
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
    """Units generating A's stabilizer, the units s mod e with s*A = A, each
    outside the group the ones before it generate; () when only s = 1 fixes A.

    For such s, A*(s*x) = (s*A)*x = A*x, so x and s*x kill and extend every
    prefix alike.  Each s maps a weight a0 into A, so it is among the units
    solving s*a0 = a for some weight a.  a0 is a weight with the least
    gcd(a0, e), a unit where A has one, which leaves one candidate per weight.
    A candidate in the group the accepted ones generate needs no test, so
    every member of the stabilizer is either generated or accepted.  s
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
    gens: list[int] = []
    for a in rs:
        for s in units_mapping(a0, a, e):
            if (s - 1) % q or s in span:
                continue
            for b in rs:
                if s * b % e not in members:
                    break
            else:
                gens.append(s)
                span = unit_span(span, s, e)
    return tuple(gens)


def _outside_orbits(group: GroupSpec, roots: set[int], xs: list[int]) -> list[int]:
    """The elements of xs whose Aut(G)-orbit minimum is not in roots: on
    cyclic Z_n that minimum is gcd(x, n), elsewhere groups.aut_orbit_minima
    reads it, built once per group."""
    if group.rank == 1:
        n = group.order
        return [x for x in xs if gcd(x, n) not in roots]
    label = aut_orbit_minima(group)
    return [x for x in xs if label[x] not in roots]


class _WeightTables:
    """Per-(group, weights) state of the multiset search, each part built
    the first time a search can read it.  Sets are in the padded layout of
    `padding`; lists are indexed by the flat index c of an element.

    Per element:
    - masks[c] = A*(-c), built by mask() the first time the kernel tests c,
      at any level, k or root.  c dies against Sigma, the sums with the
      empty one, when A*c meets -Sigma: one AND, and as 0 is in Sigma it
      covers A*c holding 0.  A*(-c) is never empty, so 0 means not built.
    - moves[c], the shifts S - m for the padded bits m of A*c, built the
      first time the kernel extends a prefix by c.
    - minima[c], c's least image under the units s with s*A = A (see
      _stabilizer).  minima is None until the first list of the tables is
      built, which sets it once, to [] when only s = 1 fixes A; searches
      that build no list never compute the stabilizer.
    Per root r, kept as long as the tables:
    - root_kills[r] = killed(r), the c with a*c in -Sigma for Sigma =
      A*r | {0} and some a in A, found by solving a*x = t (mod n_j)
      coordinate by coordinate.  Sigma only grows, so they are dead in every
      state under r.  A k = 2 search reads it alone (see _find_zsf), and the
      k = 3 search after it solves no congruence again.
    - root_scans[r] = (scans, outs) from root_scan(r), built by the first
      search under r that scans (k >= 3, and not one that ends on A*r
      alone: r dead or too few elements left to grow Sigma).  A state at
      level j scans scans[j] and may append outs[j], the one element that
      takes its child to level j + 1.  A root has one level, scans =
      [survivors] and outs = [-1] (no such element), except root 1 under
      the span rule, which adds r - 1 shorter lists.
    Per table: the scaled weights plus (A) and minus (-A), the roots
    (groups.canonical_roots), span_prime and bound.

    root_scan is the one place that decides which elements a state may
    append, and a list never changes once built.  It keeps the elements
    from r up, ascending, except the ones its rules leave out:
    - Killed by r: only candidate tests, and their masks, as each would
      fail its mask test in every state under r.
    - Mapped lower by a unit s with s*A = A: only candidate tests.  The
      lex-least multiset holds no such c (see the module docstring), and
      A*(s*c) = A*c, so appending c or s*c makes the same child Sigma: the
      lower twin's failure is a fail-memo entry that covers the upper one.
      Nodes have fallen only where the memo was cleared between the twins
      (Z_210 with {1, -1}).  No list loses its own root, least in its
      Aut(G)-orbit, which holds its images.
    - Under a root after the first, a c whose Aut(G)-orbit minimum is a
      root before it in `roots` (_outside_orbits): nodes.  first() reaches
      a root only once every earlier one has failed at this k, and then no
      zero-sum-free multiset under it holds such a c (see the module
      docstring).  Nodes nearly always fall, but a skipped c no longer
      leaves fail-memo entries, and where another element kills and
      extends as c does (c + n/2 on Z_n with every weight even) its states
      are expanded instead of covered.
    - On G = Z_p^r with r >= 2 (span_prime = p; 0 elsewhere, and setting it
      to 0 turns the rule off), outside the span W of the prefix all but
      the least flat index (the span rule, see the module docstring):
      nodes.  From root 1 the prefix 1, p, ..., p^j spans the flat indices
      [0, p^(j+1)), so level j of root 1, for p^(j+1) < |G|, is its
      survivors up to p^(j+1) with out element p^(j+1), and the last level
      is all of them.  p^(j+1) always survives: no element outside W is
      killed, as a*c lies outside W and -Sigma inside it, and no unit maps
      it lower, as s*c lies outside W too.  Any other root, which only
      tests set on Z_p^r through `roots`, scans one level.
    No rule reads k, and a state's list is a function of its Sigma: one
    list per root, and on root 1 under the span rule the level of
    span(Sigma), every weight being a unit mod p.  That lets _find_zsf key
    its fail memo by Sigma alone and let an entry at last element c cover
    every later start.

    bound = (g, m) feeds the growth rule of every k >= 3 search, which cuts
    nodes; growth() sets it the first time one needs it, and (1, 1) is the
    rule that counts one new sum per element.  m is the room the last
    element x needs outside Sigma, its sums -A*x: |A*x| = |A mod ord(x)|,
    as a*x = b*x iff ord(x) divides a - b, and the orders are the divisors
    of exp(G), so m is read from those divisors.  g is what each other
    element adds to Sigma, which becomes Sigma + ({0} | A*x): on Z_p at
    least |A| by Cauchy-Davenport, |X + Y| >= min(p, |X| + |Y| - 1), until
    Sigma is Z_p and kills every candidate; elsewhere 1.  On Z_p both are
    |A| without a divisor.
    """

    __slots__ = (
        "group", "order", "padding", "weights", "plus", "minus", "masks", "moves",
        "roots", "root_kills", "root_scans", "minima", "span_prime", "bound",
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
        negated = tuple([e - a for a in weights.residues])  # (e - a)*x = -a*x
        self.plus = scaled_weights(pad.strides, weights.residues)
        self.minus = scaled_weights(pad.strides, negated)
        self.masks = [0] * n
        self.moves: list[Optional[tuple[int, ...]]] = [None] * n
        self.roots = canonical_roots(group)
        self.root_kills: dict[int, set[int]] = {}
        self.root_scans: dict[int, tuple[list[list[int]], list[int]]] = {}
        self.minima: Optional[list[int]] = None
        fs = group.invariant_factors
        elementary = len(fs) > 1 and fs[0] == e and isprime(e)
        self.span_prime = e if elementary else 0
        self.bound: Optional[tuple[int, int]] = None

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

    def root_scan(self, root: int) -> tuple[list[list[int]], list[int]]:
        """Build and return root_scans[root] from the survivors, the elements
        from root up that killed(root) leaves, no unit fixing A maps lower
        and, under a root after the first, whose Aut(G)-orbit minimum is no
        earlier root in `roots`, ascending: root 1 under the span rule gets
        a level per power of p, every other root one level.  The first call
        computes minima."""
        minima = self.minima
        if minima is None:
            stab = _stabilizer(self.weights)
            minima = self.minima = orbit_minima(self.group, stab) if stab else []
        dead = self.killed(root)
        survivors = list(filterfalse(dead.__contains__, range(root, self.order)))
        if minima:
            survivors = [x for x in survivors if minima[x] == x]
        earlier = self.roots[:self.roots.index(root)]
        if earlier:
            survivors = _outside_orbits(self.group, set(earlier), survivors)
        scans, outs = [], []
        p = self.span_prime
        if p and root == 1:
            out = p
            while out < self.order:
                scans.append(survivors[:bisect_right(survivors, out)])
                outs.append(out)
                out *= p
        scans.append(survivors)
        outs.append(-1)
        entry = self.root_scans[root] = (scans, outs)
        return entry

    @staticmethod
    def shifts(c: int, plus: tuple, shift: int) -> tuple[int, ...]:
        """The move list of c: S - m for the padded bits m of A*c, largest
        first, with plus the scaled weights A and shift S."""
        nj, period, bs = plus[0]
        if c < nj:  # as in bits()
            return tuple(sorted({shift - b * c % period for b in bs}, reverse=True))
        return tuple(sorted({shift - m for m in images(c, plus)}, reverse=True))

    def killed(self, root: int) -> set[int]:
        """Flat indices c with a*c in -Sigma for some weight a, where
        Sigma = A*root | {0} holds root's sums with the empty one.

        a*x = t (mod n_j) is solvable iff g = gcd(a, n_j) divides t, by
        x = (t/g)*inv (mod n_j/g) plus any multiple of n_j/g.  Each
        coordinate solves a for every target t in one pass, -n marking no
        solution (the other digits add up to less than n); the multiples
        over all coordinates, a's offsets, add to flat indices without carry.
        Kept in root_kills.
        """
        dead = self.root_kills.get(root)
        if dead is not None:
            return dead
        dead = self.root_kills[root] = set()
        n = self.order
        coords = self.padding.coords
        cols = []  # the digits of the targets 0 and -(b*root), per coordinate
        for nj, _, _ in coords:
            root, x = divmod(root, nj)
            cols.append([0] + [-b * x % nj for b in self.weights.residues])
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

    def growth(self) -> tuple[int, int]:
        """Build and return bound = (g, m) for the growth rule (see _find_zsf).

        m is the least |A*x| over nonzero x with 0 not in A*x.  a*x = b*x
        iff ord(x) divides a - b, so |A*x| = |A mod ord(x)|, and the orders
        of G's elements are the divisors of exp(G): m is the least |A mod d|
        over the divisors d > 1 of exp(G) that divide no weight, which for
        d = exp(G) is |A|.  g = |A| on Z_p (Cauchy-Davenport, see _find_zsf),
        the cyclic group whose exponent has no proper divisor, and 1
        elsewhere.
        """
        rs = self.weights.residues
        ds = _proper_divisors(self.group.exponent)
        m = len(rs)
        for d in ds:
            if m == 1:
                break
            rd = {a % d for a in rs}
            if len(rd) < m and 0 not in rd:
                m = len(rd)
        g = len(rs) if not ds and self.group.rank == 1 else 1
        self.bound = (g, m)
        return self.bound

    def mask(self, c: int) -> int:
        """Build masks[c] = A*(-c), never 0."""
        w = self.masks[c] = self.bits(c, self.minus)
        return w

    def first(self, k: int) -> tuple[Optional[list[int]], int]:
        """Lex-least zero-sum-free multiset of size k over all roots (None
        when D_A(G) <= k), plus nodes.

        Roots are scanned in ascending order and the scan stops at the first
        root with a size-k extension, so nodes count up to and including
        that root, and each root is searched only once every earlier one
        has failed, which lets it skip their orbits (see root_scan).
        """
        nodes = 0
        for root in self.roots:
            found, n_nodes = _find_zsf(self, root, k)
            nodes += n_nodes
            if found is not None:
                return found, nodes
        return None, nodes


def _indices_to_sequence(group: GroupSpec, indices: Iterable[int]) -> GSequence:
    return GSequence(group, tuple(index_element(group, i) for i in sorted(indices)))


class _Pool:
    """Ordered map over worker processes, open for the length of one public call.

    Runs serially when threads or the CPU count is at most 1, or a batch
    holds at most one job.  The executor starts on the first parallel batch
    with min(threads, CPU count, batch) workers, as it may start them all at
    once, and serves the rest of the call, whose batches all have that size:
    one per sweep row, or davenport-max's single batch.
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
        workers = min(self.threads, len(args))
        if workers > 1:  # a serial map does not ask the system for its CPUs
            workers = min(workers, os.cpu_count() or 1)
        if workers <= 1:
            return [worker(a) for a in args]
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=workers)
        chunksize = max(1, len(args) // (4 * workers))
        return list(self._executor.map(worker, args, chunksize=chunksize))


def _find_zsf(tables: _WeightTables, root: int, k: int) -> tuple[Optional[list[int]], int]:
    """Lex-least zero-sum-free multiset of size k starting at root, plus nodes.

    Under a root after the first the answer holds when, as in first(),
    every earlier root has no size-k extension: its scan list leaves out
    the orbits of those roots (see _WeightTables).

    Depth-first over nondecreasing extensions on an explicit stack.  c is
    killed when masks[c] = A*(-c) meets Sigma, the sums with the empty one,
    and otherwise extends Sigma to
    Sigma | ((OR over s in moves[c] of T >> s) & mask) with T the tiled Sigma.
    Each state scans the list of its span level, and appending that level's
    element outside the span moves its child one level up.  At k = 2 the
    root's state is the only one and killed() is exact against its Sigma,
    so the least element from root up that killed() leaves is the answer,
    found with no list, mask or stabilizer built.

    The growth rule prunes a state with r elements still to place when
    |Sigma| + g*(r - 1) + m > |G|, with (g, m) = tables.bound, at the root
    and after every push alike.  Each of the first r - 1 elements grows
    Sigma: by at least one element, since Sigma + A*x inside Sigma would put
    -A*x in Sigma and kill x, and on Z_p by at least g = |A|, since Sigma
    becomes Sigma + ({0} | A*x) and Cauchy-Davenport gives
    |X + Y| >= min(p, |X| + |Y| - 1), while a full Z_p kills everything.
    The last element x then needs its |A*x| >= m sums -A*x outside Sigma.
    A k = 2 search takes (g, m) = (1, 1) and builds no bound.

    The fail memo maps Sigma to the (last element c, elements still to
    place r) of the states with that Sigma that failed, flattened into one
    tuple (c_1, r_1, c_2, r_2, ...).  An entry covers a child (c', Sigma,
    r') with c <= c' and r <= r'.  A state's candidates are the elements of
    its scan list from c up, and the list depends on Sigma alone: one list
    per root, whatever orbits it leaves out, and under the span rule the
    level, which is span(Sigma) as every weight is a unit mod p.  So a
    later start scans a subset of the same candidates, and a state that
    fails with r elements to place fails with any r' >= r, as a
    zero-sum-free extension's prefixes are too.
    """
    w = tables.bits(root, tables.plus)
    if w & 1:
        return None, 0
    if k == 1:
        return [root], 0
    order = tables.order
    z = w | 1
    g, m = (1, 1) if k == 2 else (tables.bound or tables.growth())
    if z.bit_count() + g * (k - 2) + m > order:
        return None, 0
    if k == 2:
        dead = tables.killed(root)
        c = next(filterfalse(dead.__contains__, range(root, order)), None)
        return (None if c is None else [root, c]), 1
    scans, outs = tables.root_scans.get(root) or tables.root_scan(root)
    negw = tables.masks  # A*(-c), 0 until built
    moves = tables.moves
    pad = tables.padding
    mask, spread = pad.mask, pad.spread
    memo_limit = pad.memo_limit
    room = order - m
    fail_at: dict[int, tuple[int, ...]] = {}
    entries = 0
    nodes = 1
    chosen = [root]
    # open states as [Sigma, elements still to place, next candidate, tiled
    # Sigma or None until a candidate needs it, scan list, the one element
    # outside its span]; the state at depth i was reached by appending
    # chosen[i]
    stack = [[z, k - 1, root, None, scans[0], outs[0]]]
    while stack:
        state = stack[-1]
        bits, remaining, start, tiled, scan, out = state
        most = room - g * (remaining - 2)  # the largest Sigma a child may have
        for c in scan[bisect_left(scan, start):]:
            if (negw[c] or tables.mask(c)) & bits:
                continue
            if remaining == 1:
                chosen.append(c)
                return chosen, nodes
            mv = moves[c]
            if mv is None:
                mv = moves[c] = tables.shifts(c, tables.plus, pad.shift)
            if tiled is None:
                tiled = bits
                for s in spread:
                    tiled |= tiled << s
                state[3] = tiled
            nb = 0
            for s in mv:
                nb |= tiled >> s
            nb = bits | (nb & mask)
            if nb.bit_count() > most:
                continue
            known = fail_at.get(nb)
            if known is not None and _covered(known, c, remaining - 1):
                continue
            state[2] = c + 1
            nodes += 1
            chosen.append(c)
            if c == out:  # c leaves the span: the next level
                up = outs.index(c) + 1
                stack.append([nb, remaining - 1, c, None, scans[up], outs[up]])
            else:
                stack.append([nb, remaining - 1, c, None, scan, out])
            break
        else:
            if entries >= memo_limit:
                fail_at.clear()
                entries = 0
            entries += 1
            fail_at[bits] = fail_at.get(bits, ()) + (chosen.pop(), remaining)
            stack.pop()
    return None, nodes


def _covered(entries: tuple[int, ...], c: int, r: int) -> bool:
    """Whether a fail-memo entry (c_i, r_i) of one Sigma has c_i <= c and r_i <= r."""
    for i in range(0, len(entries), 2):
        if entries[i] <= c and entries[i + 1] <= r:
            return True
    return False


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
    The bits of A*(-x), the kernel's masks, and the move list of x, the
    kernel's shifts S - m, are kept for the call, each built the first time
    a walk reads it.  No step is kept, and none is taken by a multiset's
    last element, whose sums nothing reads.  It builds G's padded layout,
    one 2^(r-1)*|G|-bit mask, and no table, so _TABLE_BYTES does not apply.
    """
    pad = _padding(group)
    e = group.exponent
    plus = scaled_weights(pad.strides, residues)
    minus = scaled_weights(pad.strides, tuple([e - a for a in residues]))  # (e - a)*x = -a*x
    mask, spread, shift = pad.mask, pad.spread, pad.shift
    bits_of, shifts_of = _WeightTables.bits, _WeightTables.shifts
    negs: dict[int, int] = {}
    moves: dict[int, tuple[int, ...]] = {}
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
                mv = moves.get(x)
                if mv is None:
                    mv = moves[x] = shifts_of(x, plus, shift)
                tiled = bits
                for s in spread:
                    tiled |= tiled << s
                nb = 0
                for s in mv:
                    nb |= tiled >> s
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
    `value` - 1), both heavily pruned by the reachable-set growth rule and
    both over one set of tables.  threads is accepted for a uniform API and
    ignored: the search is serial.
    """
    if value < 1:
        return False
    tables = _WeightTables(group, weights)
    return tables.first(value)[0] is None and (value == 1 or tables.first(value - 1)[0] is not None)


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
