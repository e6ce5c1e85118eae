"""Bundled verification suites tying each computed identity to a check.

Each suite returns a SuiteReport whose checks carry computed vs expected
values; nothing is asserted, so callers (tests, CLI) decide how to surface
failures.  The suites build every check here from values the solver modules
compute, the fd relations and the pair lemma included.  Known-formula
equalities are certified with certify_dav_value, which is two bounded
searches instead of a full exact solve.
"""

from __future__ import annotations

import time
from math import ceil, isqrt
from typing import Optional

from ._record import Record
from .constructions import (
    ConstructionError,
    complement_weight_set,
    interval_weight_set,
    singer_difference_set,
    singer_weight_set,
)
from .engine import WeightSet
from .fdsolver import FdResult, FdStatus, fd, fd_lower_bound
from .groups import (
    DEFAULT_ORDER_LIMIT,
    GroupOrderError,
    check_order,
    cyclic,
    normalize_group,
    units,
)
from .numtheory import factorint, floor_log, isprime, primerange
from .solver import certify_dav_value, davenport, max_davenport_over_size


class Check(Record):
    def __init__(self, name: str, computed: object, expected: object, ok: bool):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "computed", computed)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "ok", ok)


class SuiteReport(Record):
    def __init__(self, suite: str, checks: tuple[Check, ...], elapsed: float):
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "elapsed", elapsed)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "ok": self.ok,
            "checks": [c.as_dict() for c in self.checks],
            "elapsed": self.elapsed,
        }


def _equality_check(name: str, group, weights, expected: int) -> Check:
    ok = certify_dav_value(group, weights, expected)
    return Check(name=name, computed=expected if ok else "!= expected", expected=expected, ok=ok)


def known_formulas(max_n: int = 64) -> SuiteReport:
    """Closed-form Davenport values over Z_n for n up to max_n."""
    if max_n < 2:
        raise ValueError(f"max_n = {max_n} reaches no group: it must be >= 2")
    check_order(max_n)
    start = time.perf_counter()
    checks: list[Check] = []
    units_targets = {4, 6, 8, 9, 12, 16, 18, 24, 30, 36}
    for n in range(2, max_n + 1):
        group = cyclic(n)
        checks.append(
            _equality_check(
                f"pair {{1,{n - 1}}} mod {n}",
                group,
                WeightSet.of(n, {1, n - 1}),
                n.bit_length(),
            )
        )
        for r in range(1, min(6, n - 1) + 1):
            checks.append(
                _equality_check(
                    f"interval [1,{r}] mod {n}",
                    group,
                    WeightSet(n, tuple(range(1, r + 1))),
                    ceil(n / r),
                )
            )
        checks.append(
            _equality_check(
                f"all nonzero mod {n}", group, WeightSet(n, tuple(range(1, n))), 2
            )
        )
        if n in units_targets:
            total = sum(factorint(n).values())
            checks.append(
                _equality_check(
                    f"units mod {n}", group, WeightSet(n, units(n)), 1 + total
                )
            )
        for r in range(1, 4):
            if r < (n - 1) / 2:
                sym = tuple(range(1, r + 1)) + tuple(range(n - r, n))
                checks.append(
                    _equality_check(
                        f"symmetric [-{r},{r}] mod {n}",
                        group,
                        WeightSet(n, sym),
                        floor_log(r + 1, n) + 1,
                    )
                )
    return SuiteReport("known-formulas", tuple(checks), time.perf_counter() - start)


def singer_suite(qs: tuple[int, ...] = (2, 3, 5, 17)) -> SuiteReport:
    """Difference census, size, and ratio coverage of the Singer weight sets."""
    start = time.perf_counter()
    checks: list[Check] = []
    for q in qs:
        p = q * q + q + 1
        try:
            pds = singer_difference_set(q)
            checks.append(Check(f"difference census q={q}", "exact", "exact", True))
        except ConstructionError as exc:
            checks.append(Check(f"difference census q={q}", str(exc), "exact", False))
            continue
        rep = singer_weight_set(p)
        checks.append(
            Check(f"size q={q}", rep.size, q + 1, rep.size == q + 1 == fd_lower_bound(p, 2))
        )
        missing = rep.metrics["ratio_missing"]
        checks.append(
            Check(
                f"ratio coverage q={q}",
                f"missing {missing}" if missing else "covers",
                "covers",
                missing == 0,
            )
        )
    return SuiteReport("singer", tuple(checks), time.perf_counter() - start)


def intervals_suite(limit: int = 2000) -> SuiteReport:
    """Interval weight sets at every odd prime below the limit."""
    if limit <= 3:
        raise ValueError(f"limit = {limit} reaches no odd prime: it must be > 3")
    # the largest prime the suite would build over must pass the order check
    # before the sieve below the limit is built
    top = limit - 1
    while not isprime(top):
        top -= 1
    check_order(top)
    start = time.perf_counter()
    checks: list[Check] = []
    over_tight_bound = []
    for p in primerange(3, limit):
        rep = interval_weight_set(p)
        ok = rep.verified_bound == 2 and rep.size == 2 * isqrt(p)
        if not ok:
            checks.append(
                Check(f"interval p={p}", (rep.verified_bound, rep.size), (2, 2 * isqrt(p)), False)
            )
        if not rep.metrics["within_2sqrt_minus_1"]:
            over_tight_bound.append(p)
    checks.insert(
        0,
        Check(
            f"interval construction, odd primes < {limit}",
            f"{len(checks)} failures",
            "0 failures",
            not checks,
        ),
    )
    checks.append(
        Check(
            "sizes exceeding 2*sqrt(p) - 1 (reported, not failed)",
            len(over_tight_bound),
            "informational",
            True,
        )
    )
    return SuiteReport("intervals", tuple(checks), time.perf_counter() - start)


def _fd_label(r: FdResult):
    return r.value if r.status == FdStatus.FINITE else r.status.value


def _fd_relations(p: int, m: int, k: int) -> list[Check]:
    """Exact checks of the structural fd relations reachable from (p, m, k).

    Covers the prime-power collapse fd(Z_{p^m}) = fd(Z_p), the coprime
    product bound fd(Z_p x Z_m) <= min of the factors (when m is a prime
    different from p), and monotonicity of fd along the tower (Z_p)^i.
    """
    if not isprime(p):
        raise ValueError(f"p = {p} must be prime")
    if m < 2:  # m = 1 would only compare fd(Z_p, k) with itself
        raise ValueError(f"m = {m} reaches no relation: it must be >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    if m > floor_log(p, DEFAULT_ORDER_LIMIT):
        # p^m itself would take longer to compute than to refuse
        raise GroupOrderError(f"group order {p}^{m} exceeds limit {DEFAULT_ORDER_LIMIT}")
    base = fd(cyclic(p), k)
    power = fd(cyclic(p**m), k)
    checks = [
        Check(
            "prime-power-collapse",
            {f"fd(Z{p**m},{k})": _fd_label(power), f"fd(Z{p},{k})": _fd_label(base)},
            f"fd(Z{p**m},{k}) == fd(Z{p},{k})",
            _fd_label(power) == _fd_label(base),
        )
    ]
    if m >= 2 and m != p and isprime(m):
        other = fd(cyclic(m), k)
        product = fd(normalize_group([p, m]), k)
        checks.append(
            Check(
                "coprime-product-bound",
                {
                    f"fd(Z{p * m},{k})": _fd_label(product),
                    f"fd(Z{p},{k})": _fd_label(base),
                    f"fd(Z{m},{k})": _fd_label(other),
                },
                f"fd(Z{p * m},{k}) <= min(fd(Z{p},{k}), fd(Z{m},{k}))",
                product.as_comparable() <= min(base.as_comparable(), other.as_comparable()),
            )
        )
    tower = [fd(normalize_group([p] * i), k) for i in range(1, m + 1)]
    checks.append(
        Check(
            "elementary-tower-monotone",
            {f"fd((Z{p})^{i},{k})": _fd_label(t) for i, t in enumerate(tower, 1)},
            f"fd(Zp^1..Zp^{m}, k={k}) nondecreasing",
            all(a.as_comparable() <= b.as_comparable() for a, b in zip(tower, tower[1:])),
        )
    )
    return checks


def _relations_battery() -> list[Check]:
    """Prime-power collapses and the Klein group at k = 2, Z6 against its
    factors, and the Z2 tower at k = 4."""
    checks = []
    f9 = fd(cyclic(9), 2).value
    f3 = fd(cyclic(3), 2).value
    checks.append(Check("fd(Z9,2) = fd(Z3,2) = 2", (f9, f3), (2, 2), f9 == f3 == 2))
    f8 = fd(cyclic(8), 2).value
    f2 = fd(cyclic(2), 2).value
    checks.append(Check("fd(Z8,2) = fd(Z2,2) = 1", (f8, f2), (1, 1), f8 == f2 == 1))
    f25 = fd(cyclic(25), 2).value
    f5 = fd(cyclic(5), 2).value
    checks.append(Check("fd(Z25,2) = fd(Z5,2)", (f25, f5), "equal", f25 == f5))
    klein = normalize_group([2, 2])
    r2 = fd(klein, 2)
    r3 = fd(klein, 3)
    checks.append(
        Check(
            "fd(Z2xZ2,2) infinite, fd(Z2xZ2,3) = 1",
            (r2.status.value, r3.value),
            ("INFINITE", 1),
            r2.status.value == "INFINITE" and r3.value == 1,
        )
    )
    for kk in (2, 3):
        f6 = fd(cyclic(6), kk).as_comparable()
        bound = min(fd(cyclic(2), kk).as_comparable(), fd(cyclic(3), kk).as_comparable())
        checks.append(
            Check(f"fd(Z6,{kk}) <= min over factors", f6, f"<= {bound}", f6 <= bound)
        )
    tower = [fd(normalize_group([2] * i), 4).as_comparable() for i in (1, 2, 3)]
    checks.append(
        Check(
            "fd nondecreasing over Z2 towers, k=4",
            tower,
            "nondecreasing",
            all(a <= b for a, b in zip(tower, tower[1:])),
        )
    )
    return checks


def relations_suite(
    p: Optional[int] = None, m: Optional[int] = None, k: Optional[int] = None
) -> SuiteReport:
    """Group relations among fd values: a fixed battery, or the relations
    reachable from (p, m, k), m and k defaulting to 2.  m or k without p is
    refused: the battery would ignore them."""
    if p is None and (m is not None or k is not None):
        raise ValueError("m and k need p: without it the fixed battery runs")
    start = time.perf_counter()
    if p is None:
        checks = _relations_battery()
    else:
        checks = _fd_relations(p, 2 if m is None else m, 2 if k is None else k)
    return SuiteReport("relations", tuple(checks), time.perf_counter() - start)


def dual_max_suite(
    pairs: tuple[tuple[int, int], ...] = ((5, 2), (7, 2), (7, 3), (11, 2), (11, 3), (13, 2)),
) -> SuiteReport:
    """max over |A| = k of D_A(Z_p) equals ceil(p/k)."""
    start = time.perf_counter()
    checks: list[Check] = []
    for p, k in pairs:
        res = max_davenport_over_size(p, k)
        want = ceil(p / k)
        checks.append(Check(f"max D over |A|={k}, p={p}", res.value, want, res.value == want))
    return SuiteReport("dual-max", tuple(checks), time.perf_counter() - start)


def pair_lemma_suite(n_max: int = 40) -> SuiteReport:
    """For every n <= n_max and x in [1, n-1]: the weight set {x, n-x}
    (a singleton when x = n-x) has D <= floor(log2 n) + 1."""
    check_order(n_max)
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    start = time.perf_counter()
    violations = []  # (n, x, D, bound)
    for n in range(2, n_max + 1):
        group = cyclic(n)
        bound = n.bit_length()  # floor(log2 n) + 1
        # x and n - x give one set, solved once
        dav = {x: davenport(group, WeightSet.of(n, {x, n - x})).value for x in range(1, n // 2 + 1)}
        for x in range(1, n):
            if dav[min(x, n - x)] > bound:
                violations.append((n, x, dav[min(x, n - x)], bound))
    computed = f"{n_max * (n_max - 1) // 2} cases, {len(violations)} violations"
    if violations:
        computed += f", first (n, x, D, bound) = {violations[0]}"
    check = Check(
        f"pairs {{x, n-x}} within floor(log2 n) + 1, n <= {n_max}",
        computed,
        "0 violations",
        not violations,
    )
    return SuiteReport("pair-lemma", (check,), time.perf_counter() - start)


def complement_suite(ps: tuple[int, ...] = (13, 17, 29)) -> SuiteReport:
    """Two-term bound for the complements B_r, all r below (p-1)/4."""
    start = time.perf_counter()
    checks: list[Check] = []
    for p in ps:
        for r in range((p - 1 + 3) // 4):
            try:
                rep = complement_weight_set(p, r)
                ok = rep.verified_bound == 2
                computed = rep.verified_bound
            except ConstructionError as exc:
                ok, computed = False, str(exc)
            checks.append(Check(f"B_{r} in Z_{p}", computed, 2, ok))
    return SuiteReport("complement", tuple(checks), time.perf_counter() - start)


SUITES = {
    "known-formulas": known_formulas,
    "singer": singer_suite,
    "intervals": intervals_suite,
    "relations": relations_suite,
    "dual-max": dual_max_suite,
    "pair-lemma": pair_lemma_suite,
    "complement": complement_suite,
}
