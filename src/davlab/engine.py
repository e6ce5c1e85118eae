"""Weighted subsequence-sum engine over bit-vector residue sets.

A subset of a group of order n lives in a single Python int of n bits, bit i
standing for the element with flat index i.  Translating a whole set by a
group element is then two masked shifts per nonzero coordinate of the
element, whatever the group's shape, which keeps the reachable-sum recurrence

    R_i = R_{i-1}  union  A*x_i  union  (R_{i-1} + A*x_i)

cheap up to the order limit.  reachable_sums folds it over a sequence and
has_weighted_zero_sum reads bit 0 of the fold: an implementation that shares
only images with the search kernel, kept as its independent oracle.  The
multiples A*x come from flat indices by arithmetic on digits (images), which
solver's padded layout shares through scaled_weights.  The zero-sum-free
test that fd's culprit walk runs on many multisets is solver's
first_zero_free, the search kernel's own test and step on that layout.

Weight sets are enumerated one per unit-dilation orbit by
dilation_orbit_reps, a generator with one canonicity rule for every modulus,
so a caller that stops at its first hit lists no further representatives.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import add
from typing import Iterable, Iterator

from ._record import Record
from .groups import (
    Element,
    GroupSpec,
    as_element,
    check_order,
    element_index,
    index_element,
    units_mapping,
)


class WeightSet(Record):
    """Nonempty set of weights in [1, exponent-1], stored sorted."""

    def __init__(self, exponent: int, residues: tuple[int, ...]):
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "residues", residues)
        self.__post_init__()

    # spelled out for speed, as in GroupSpec
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.exponent == other.exponent and self.residues == other.residues
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.exponent, self.residues))

    def __post_init__(self) -> None:
        if self.exponent < 2:
            raise ValueError("exponent must be >= 2")
        rs = self.residues
        if not isinstance(rs, tuple):
            object.__setattr__(self, "residues", tuple(rs))
            rs = self.residues
        if not rs:
            raise ValueError("weight set must be nonempty")
        for r in rs:
            if not isinstance(r, int) or not 1 <= r < self.exponent:
                raise ValueError(f"weight {r!r} not in [1, {self.exponent - 1}]")
        if any(a >= b for a, b in zip(rs, rs[1:])):
            raise ValueError("weights must be strictly increasing; use WeightSet.of")

    @classmethod
    def of(cls, exponent: int, values: Iterable[int]) -> "WeightSet":
        """Normalize arbitrary integers mod exponent; 0 is rejected."""
        vals = sorted({v % exponent for v in values})
        if any(v == 0 for v in vals):
            raise ValueError("weight 0 (mod exponent) is not allowed")
        return cls(exponent, tuple(vals))

    def __len__(self) -> int:
        return len(self.residues)

    def __iter__(self) -> Iterator[int]:
        return iter(self.residues)

    def __contains__(self, v: int) -> bool:
        return v in self.residues


class GSequence(Record):
    """Finite sequence over a group; order never matters for zero-sums."""

    def __init__(self, group: GroupSpec, entries: tuple[Element, ...]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "entries", entries)
        self.__post_init__()

    def __post_init__(self) -> None:
        for g in self.entries:
            if len(g) != self.group.rank:
                raise ValueError(f"entry {g!r} does not live in {self.group}")
            for a, n in zip(g, self.group.invariant_factors):
                if not 0 <= a < n:
                    raise ValueError(f"entry {g!r} out of range for {self.group}")

    @classmethod
    def of(cls, group: GroupSpec, entries: Iterable) -> "GSequence":
        return cls(group, tuple(as_element(group, e) for e in entries))

    def __len__(self) -> int:
        return len(self.entries)


def tile(block: int, period: int, copies: int) -> int:
    """copies of block at the multiples of period below copies*period.

    Built by doubling (bits of copies from the top), so it costs O(log copies)
    big-int shifts rather than one per copy or a big-int division.
    """
    acc = done = 0
    for bit in bin(copies)[2:]:
        acc |= acc << done * period
        done *= 2
        if bit == "1":
            acc = acc << period | block
            done += 1
    return acc


def scaled_weights(strides: Iterable[tuple[int, int]], bs: tuple[int, ...]) -> tuple:
    """Per coordinate (n_j, s_j) of strides, last first, the triple
    (n_j, n_j*s_j, b*s_j for b in bs): at stride s_j the digit b*x_j mod n_j
    sits at b*s_j*x_j mod n_j*s_j."""
    return tuple([(nj, nj * sj, bs if sj == 1 else tuple([b * sj for b in bs]))
                  for nj, sj in strides])


def images(i: int, scaled: tuple) -> list[int]:
    """Positions of b*x for the weights b that `scaled` (see scaled_weights)
    was built from, x the element of flat index i; with repeats, and [0] for
    x = 0."""
    pos: list[int] = []
    for nj, period, bs in scaled:
        i, d = divmod(i, nj)
        if d:
            part = [b * d % period for b in bs]
            pos = list(map(add, pos, part)) if pos else part
    return pos or [0]


class _Layout:
    """One group's translation action on flat bit sets.

    Coordinate j has stride st_j (the product of the factors after it), so
    its digit runs in blocks of st_j bits repeating with period n_j*st_j;
    comb_j has one bit at each multiple of that period.  Adding c to digit j
    lifts the digits below n_j - c by c*st_j and drops the others by
    (n_j - c)*st_j: two shifts, for cyclic groups (comb = 1) a rotation.
    """

    __slots__ = ("order", "_coords", "_ones", "_strides")

    def __init__(self, group: GroupSpec):
        n = group.order
        check_order(n)
        self.order = n
        coords = []  # (n_j, st_j, comb_j), last coordinate first
        st = 1
        for nj in reversed(group.invariant_factors):
            coords.append((nj, st, tile(1, nj * st, n // (nj * st))))
            st *= nj
        self._coords = tuple(coords)
        self._ones = sum(st for _, st, _ in coords)  # flat index of (1, ..., 1)
        self._strides = tuple([(nj, st) for nj, st, _ in coords])

    def translate(self, bits: int, idx: int) -> int:
        """Image of the set under x -> x + g where g has flat index idx."""
        if idx == 0 or bits == 0:
            return bits
        for nj, st, comb in self._coords:
            idx, c = divmod(idx, nj)
            if c:
                t = (nj - c) * st
                lo = bits & ((comb << t) - comb)
                bits = lo << c * st | (bits ^ lo) >> t
        return bits

    def negate(self, bits: int) -> int:
        """Image of the set under x -> -x.

        Reversing the bit string sends each digit x_j to n_j - 1 - x_j;
        adding (1, ..., 1) then gives -x_j.
        """
        if bits == 0:
            return 0
        rev = int(format(bits, f"0{self.order}b")[::-1], 2)
        return self.translate(rev, self._ones)


@lru_cache(maxsize=None)
def _layout(group: GroupSpec) -> _Layout:
    return _Layout(group)


def iter_bits(bits: int) -> Iterator[int]:
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class ResidueSet(Record):
    """Immutable subset of a group backed by a bit vector."""

    def __init__(self, group: GroupSpec, bits: int):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "bits", bits)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> self.group.order:
            raise ValueError("bit vector out of range for group")

    @classmethod
    def of(cls, group: GroupSpec, elems: Iterable) -> "ResidueSet":
        bits = 0
        for e in elems:
            bits |= 1 << element_index(group, as_element(group, e))
        return cls(group, bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, e) -> bool:
        return (self.bits >> element_index(self.group, as_element(self.group, e))) & 1 == 1

    def indices(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def elements(self) -> list[Element]:
        return [index_element(self.group, i) for i in self.indices()]


def _same_group(a: ResidueSet, b: ResidueSet) -> None:
    if a.group != b.group:
        raise ValueError(f"group mismatch: {a.group} vs {b.group}")


def _check_weights(group: GroupSpec, weights: WeightSet) -> None:
    if weights.exponent != group.exponent:
        raise ValueError(
            f"weight exponent {weights.exponent} does not match exp({group}) = {group.exponent}"
        )


def _seq_indices(group: GroupSpec, weights: WeightSet, seq: GSequence) -> list[int]:
    _check_weights(group, weights)
    if seq.group != group:
        raise ValueError("sequence group mismatch")
    return [element_index(group, x) for x in seq.entries]


def reachable_sums(group: GroupSpec, weights: WeightSet, seq: GSequence) -> ResidueSet:
    """All values of sum a_i x_i over nonempty subsequences and weights a_i.

    The fold R_i = R_{i-1} | A*x_i | (R_{i-1} + A*x_i) on the flat layout.
    """
    indices = _seq_indices(group, weights, seq)
    lay = _layout(group)
    plus = scaled_weights(lay._strides, weights.residues)
    bits = 0
    for i in indices:
        nxt = bits
        for m in images(i, plus):
            nxt |= 1 << m | lay.translate(bits, m)
        bits = nxt
    return ResidueSet(group, bits)


def has_weighted_zero_sum(group: GroupSpec, weights: WeightSet, seq: GSequence) -> bool:
    """True when some nonempty subsequence admits a weighted zero-sum."""
    return reachable_sums(group, weights, seq).bits & 1 == 1


# sumset, negate and quotient_set (with _Layout.negate and _same_group) feed
# no answer davlab computes.  They stay because the benchmark binds them:
# perfbench/answer.py times negate and sumset and traces quotient_set, until
# the benchmark change that starts BENCH_<n>.json moves its probes to the
# kernel's padded layout.
def sumset(s: ResidueSet, t: ResidueSet) -> ResidueSet:
    """{x + y : x in S, y in T}."""
    _same_group(s, t)
    lay = _layout(s.group)
    small, big = (s, t) if len(s) <= len(t) else (t, s)
    acc = 0
    for i in small.indices():
        acc |= lay.translate(big.bits, i)
    return ResidueSet(s.group, acc)


def negate(s: ResidueSet) -> ResidueSet:
    return ResidueSet(s.group, _layout(s.group).negate(s.bits))


def quotient_set(s: ResidueSet, t: ResidueSet) -> ResidueSet:
    """{x * y^{-1} : x in S, y in T a unit}; needs a cyclic group.

    Non-unit denominators are skipped; if T contains no unit at all the
    quotient is undefined and a ValueError is raised.
    """
    _same_group(s, t)
    group = s.group
    if not group.is_cyclic:
        raise ValueError("quotient sets are only defined over cyclic groups")
    n = group.order
    inverses = []
    for i in t.indices():
        if gcd(i, n) == 1:
            inverses.append(pow(i, -1, n))
    if not inverses:
        raise ValueError("denominator set contains no unit")
    acc = 0
    src = list(s.indices())
    for inv in inverses:
        for i in src:
            acc |= 1 << (i * inv % n)
    return ResidueSet(group, acc)


def dilation_orbit_reps(n: int, size: int) -> Iterator[tuple[int, ...]]:
    """Lexicographically ordered orbit representatives of size-k weight sets.

    Two weight sets related by a unit dilation share every zero-sum statistic,
    so searches only visit the lex-least member of each orbit.  The least
    element of x's unit orbit is gcd(x, n), so that member starts at
    g = min gcd(x, n) over the set and every later element has gcd >= g.
    Only a unit taking some x of gcd g to g can give a lower dilate; these
    units are solved once per g (for prime n, g = 1 and they are the x^-1).
    """
    if size < 1 or size > n - 1:
        return
    for g in range(1, n):
        if n % g:
            continue
        rest = [x for x in range(g + 1, n) if gcd(x, n) >= g]
        lowering: list[list[int]] = [[]] * n  # units u != 1 with u*x = g
        for x in [g, *rest]:
            lowering[x] = [u for u in units_mapping(x, g, n) if u != 1]
        for tail in combinations(rest, size - 1):
            s = (g, *tail)
            if _least_dilate(n, s, lowering):
                yield s


def _least_dilate(n: int, s: tuple[int, ...], lowering: list[list[int]]) -> bool:
    for x in s:
        for u in lowering[x]:
            if tuple(sorted(u * y % n for y in s)) < s:
                return False
    return True
