"""Finite abelian groups in invariant-factor form, with flat element indexing.

Every group is Z_{n_1} x ... x Z_{n_s} with n_1 | n_2 | ... | n_s.  Elements
are coordinate tuples; the flat index treats the last factor as the
fastest-varying digit, so in Z_2 x Z_3 the element (1, 2) has index 5.  All
bit-vector residue sets elsewhere in the package rely on this layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, groupby, product
from math import gcd, prod
from operator import mul
from typing import Iterator, Sequence

from .numtheory import factorint

Element = tuple[int, ...]

# Flat bit-vector sets over the group need |G| bits apiece; past this the
# memoized search would thrash long before correctness becomes the issue.
DEFAULT_ORDER_LIMIT = 10**6


class GroupOrderError(ValueError):
    """Requested group exceeds the order limit."""


def check_order(n: int) -> None:
    """Refuse order n past DEFAULT_ORDER_LIMIT, before anything is built over it."""
    if n > DEFAULT_ORDER_LIMIT:
        raise GroupOrderError(f"group order {n} exceeds limit {DEFAULT_ORDER_LIMIT}")


@dataclass(frozen=True)
class GroupSpec:
    """Invariant-factor chain (n_1, ..., n_s) with n_1 | n_2 | ... | n_s."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        fs = self.invariant_factors
        if not isinstance(fs, tuple):
            object.__setattr__(self, "invariant_factors", tuple(fs))
            fs = self.invariant_factors
        if not fs:
            raise ValueError("trivial group: at least one invariant factor required")
        for n in fs:
            if not isinstance(n, int) or n < 2:
                raise ValueError(f"invariant factor {n!r} is not an integer >= 2")
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors {fs} do not form a divisibility chain")

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1]

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def is_cyclic(self) -> bool:
        return len(self.invariant_factors) == 1

    def elements(self) -> Iterator[Element]:
        """All elements in flat-index order."""
        n = self.order
        return (index_element(self, i) for i in range(n))

    def __str__(self) -> str:
        return "x".join(f"Z{n}" for n in self.invariant_factors)


def cyclic(n: int) -> GroupSpec:
    return GroupSpec((n,))


def normalize_group(orders: Sequence[int]) -> GroupSpec:
    """Canonical invariant-factor form of Z_{o_1} x ... x Z_{o_r}.

    Merges the prime-power content of the given cyclic orders into a
    divisibility chain, e.g. [4, 6] -> (2, 12).
    """
    if not orders:
        raise ValueError("trivial group: need at least one cyclic order")
    for n in orders:
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"cyclic order {n!r} is not a positive integer")
    # the group order is the product of the cyclic orders: refuse before
    # factoring, which costs up to sqrt(n) trial divisions
    check_order(prod(orders))
    by_prime: dict[int, list[int]] = {}
    for n in orders:
        if n == 1:
            continue  # Z_1 contributes nothing
        for p, e in factorint(n).items():
            by_prime.setdefault(p, []).append(e)
    if not by_prime:
        raise ValueError("trivial group: all cyclic orders are 1")
    for exps in by_prime.values():
        exps.sort(reverse=True)
    depth = max(len(exps) for exps in by_prime.values())
    factors = []
    for j in range(depth):
        factors.append(prod(p ** exps[j] for p, exps in by_prime.items() if len(exps) > j))
    factors.reverse()
    return GroupSpec(tuple(factors))


def parse_group(text: str) -> GroupSpec:
    """Parse CLI group syntax: '12' or '2x4' or '3x3x9'."""
    parts = text.lower().replace("*", "x").split("x")
    try:
        orders = [int(p.strip()) for p in parts]
    except ValueError:
        raise ValueError(f"cannot parse group {text!r}: expected N or NxM...") from None
    return normalize_group(orders)


def check_element(group: GroupSpec, g: Element) -> Element:
    """Validate coordinates; raises ValueError on malformed input."""
    fs = group.invariant_factors
    if not isinstance(g, tuple) or len(g) != len(fs):
        raise ValueError(f"element {g!r} does not have {len(fs)} coordinates")
    for a, n in zip(g, fs):
        if not isinstance(a, int) or not 0 <= a < n:
            raise ValueError(f"coordinate {a!r} out of range for Z_{n}")
    return g


def as_element(group: GroupSpec, v) -> Element:
    """Coerce ints (cyclic groups) or iterables to a validated element."""
    if isinstance(v, int):
        if group.is_cyclic:
            return (v % group.invariant_factors[0],)
        raise ValueError(f"bare integer {v} is ambiguous for {group}")
    return check_element(group, tuple(v))


def element_index(group: GroupSpec, g: Element) -> int:
    i = 0
    for a, n in zip(g, group.invariant_factors):
        i = i * n + a
    return i


def index_element(group: GroupSpec, i: int) -> Element:
    coords = []
    for n in reversed(group.invariant_factors):
        i, a = divmod(i, n)
        coords.append(a)
    if i:
        raise ValueError("index out of range")
    coords.reverse()
    return tuple(coords)


def units(n: int) -> list[int]:
    return [u for u in range(1, n) if gcd(u, n) == 1]


def units_mapping(x: int, y: int, e: int) -> list[int]:
    """The units u mod e with u*x = y (mod e), ascending.

    A unit keeps g = gcd(x, e), so there are none unless gcd(y, e) = g; then
    u = (y/g)*(x/g)^-1 mod e/g, lifted to every unit among its e/g-shifts.
    """
    g = gcd(x, e)
    if gcd(y, e) != g:
        return []
    m = e // g
    base = y // g * pow(x // g, -1, m) % m
    return [u for u in range(base, e, m) if gcd(u, e) == 1]


def unit_span(span: set[int], u: int, e: int) -> set[int]:
    """The group of units mod e generated by the group `span` and the unit u."""
    out = set(span)
    x = u
    while x not in span:
        out.update([h * x % e for h in span])
        x = x * u % e
    return out


def _scaled_indices(group: GroupSpec, s: int) -> list[int]:
    """The flat index of s*x for each flat index x."""
    img = [0]
    st = group.order
    for nj in group.invariant_factors:
        st //= nj
        col = [s * d % nj * st for d in range(nj)]
        img = [b + t for b in img for t in col]
    return img


def orbit_minima(group: GroupSpec, gens: Sequence[int]) -> list[int]:
    """For each flat index, the least flat index in its orbit under the units
    gens of Z_e (the group they generate).

    Walks each orbit once, applying every generator to every element:
    O(|G| * len(gens)).  Elements are visited in ascending order, so the
    first element of an unvisited orbit is its minimum.
    """
    images = [_scaled_indices(group, s) for s in gens]
    mins = [-1] * group.order
    for i, m in enumerate(mins):
        if m < 0:
            mins[i] = i
            orbit = [i]
            for x in orbit:  # grows while it is walked
                for img in images:
                    y = img[x]
                    if mins[y] < 0:
                        mins[y] = i
                        orbit.append(y)
    return mins


@lru_cache(maxsize=None)
def canonical_roots(group: GroupSpec) -> tuple[int, ...]:
    """The least flat index of each Aut(G)-orbit of nonzero elements, ascending.

    An automorphism commutes with integer weights, phi(a*x) = a*phi(x), so it
    maps zero-sum-free multisets to zero-sum-free ones, and the lex-least one
    of any size starts at an orbit minimum: the solver branches only on these
    first elements.  x and y share an orbit iff, for every prime p dividing
    exp(G), their p-parts (x_j mod p^v_p(n_j) in each coordinate) have the
    same height sequence h(y), h(p*y), ... up to 0, where h(y) is the least
    v_p(y_j) over the nonzero coordinates (Kaplansky, Infinite Abelian
    Groups: the Ulm sequences of a finite p-group).  Padded to length
    e = v_p(exp(G)) with e, which no height reaches, the sequence of y is
    the elementwise minimum of those of its coordinates, a coordinate of
    valuation v in Z_{p^f} giving v, v + 1, ..., f - 1.  It depends on x
    only through the divisors d_j = gcd(x_j, n_j), and since the flat order
    is lexicographic the least element with given divisors is
    (d_j mod n_j)_j.  Permuting equal invariant factors is an automorphism
    that sorts their coordinates, so only tuples nondecreasing within each
    run of equal factors are visited: C(tau(n) + b - 1, b) of them for a run
    of b factors n, never the |G| elements.  For cyclic Z_n the roots are
    the divisors of n below n.
    """
    zero, _, least = _orbit_classes(group)
    return tuple(sorted(i for key, i in least.items() if key != zero))


@lru_cache(maxsize=None)
def aut_orbit_minima(group: GroupSpec) -> tuple[int, ...]:
    """For each flat index, the least flat index of its Aut(G)-orbit: 0 for
    0 and a member of canonical_roots(group) for every other element.

    The orbit of x is fixed by its divisors d_j = gcd(x_j, n_j) through the
    height sequences of canonical_roots, so the labels are read per divisor
    tuple, prod tau(n_j) <= |G| of them, and spread over the flat indices
    digit by digit.  On cyclic Z_n the label of x is gcd(x, n).
    """
    zero, seqs, least = _orbit_classes(group)
    divisors = [sorted(seq) for seq in seqs]  # per coordinate, the residues d mod n_j
    labels = [least[_height_key(zero, seqs, xs)] for xs in product(*divisors)]
    at = [0]  # per flat index, the position of its divisor tuple in labels
    for n, ds in zip(group.invariant_factors, divisors):
        pos = {d: i for i, d in enumerate(ds)}
        col = [pos[gcd(a, n) % n] for a in range(n)]
        t = len(ds)
        at = [b * t + c for b in at for c in col]
    return tuple([labels[i] for i in at])


def _height_key(zero: tuple[int, ...], seqs, xs: Sequence[int]) -> tuple[int, ...]:
    """The padded height sequences of the element with divisor residues xs,
    one per coordinate: the elementwise minimum of its coordinates' (see
    canonical_roots)."""
    return tuple(map(min, zero, *[s[x] for s, x in zip(seqs, xs)]))


@lru_cache(maxsize=None)
def _orbit_classes(group: GroupSpec) -> tuple[tuple[int, ...], tuple[dict, ...], dict]:
    """(zero, seqs, least) for the orbit rule of canonical_roots: zero is the
    padded height sequences of 0, seqs[j] maps each divisor d of n_j, as the
    residue d mod n_j, to the padded sequences of a coordinate j with
    gcd(x_j, n_j) = d, and least maps each key of _height_key to the least
    flat index with it, the orbit minimum.  Only divisor tuples
    nondecreasing within each run of equal factors are visited."""
    fs = group.invariant_factors
    tops = factorint(fs[-1])
    zero = tuple(e for e in tops.values() for _ in range(e))  # the sequences of 0
    runs = []  # per run of equal factors n: its nondecreasing residue tuples
    seqs = []  # per coordinate: residue d mod n -> padded height sequences
    for n, run in groupby(fs):
        exps = factorint(n)
        seq = {1: ()}
        for p, e in tops.items():
            f = exps.get(p, 0)
            tails = [tuple(range(v, f)) + (e,) * (e - f + v) for v in range(f + 1)]
            seq = {d * p**v: s + t for d, s in seq.items() for v, t in enumerate(tails)}
        seq = {d % n: s for d, s in seq.items()}
        b = len(list(run))
        seqs += [seq] * b
        runs.append(combinations_with_replacement(sorted(seq), b))
    strides = [prod(fs[j + 1:]) for j in range(len(fs))]
    least: dict[tuple[int, ...], int] = {}
    for parts in product(*runs):
        xs = [x for part in parts for x in part]
        key = _height_key(zero, seqs, xs)
        i = sum(map(mul, xs, strides))
        if i < least.get(key, i + 1):
            least[key] = i
    return zero, tuple(seqs), least
