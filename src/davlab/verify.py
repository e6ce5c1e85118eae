"""Bundled verification suites tying each computed identity to a check.

Each suite returns a SuiteReport whose checks carry computed vs expected
values; nothing is asserted, so callers (tests, CLI) decide how to surface
failures.  Known-formula equalities are certified with certify_dav_value,
which is two bounded searches instead of a full exact solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import ceil, isqrt
from typing import Optional

from .constructions import (
    ConstructionError,
    complement_weight_set,
    interval_weight_set,
    singer_difference_set,
    singer_weight_set,
)
from .engine import WeightSet
from .fdsolver import fd, fd_lower_bound, fd_relation_checks
from .groups import check_order, cyclic, normalize_group, units
from .numtheory import factorint, floor_log, isprime, primerange
from .randomlab import pair_lemma_check
from .solver import certify_dav_value, max_davenport_over_size


@dataclass(frozen=True)
class Check:
    name: str
    computed: object
    expected: object
    ok: bool


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[Check, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "computed": c.computed, "expected": c.expected, "ok": c.ok}
                for c in self.checks
            ],
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


def relations_suite(
    p: Optional[int] = None, m: Optional[int] = None, k: Optional[int] = None
) -> SuiteReport:
    """Group relations among fd values; optionally one parametrized report."""
    start = time.perf_counter()
    checks: list[Check] = []
    if p is not None:
        rel = fd_relation_checks(p, m if m is not None else 2, k if k is not None else 2)
        for c in rel.checks:
            checks.append(Check(c.name, c.details, c.relation, c.holds))
        return SuiteReport("relations", tuple(checks), time.perf_counter() - start)

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
    start = time.perf_counter()
    rep = pair_lemma_check(n_max)
    checks = (
        Check(
            f"pairs {{x, n-x}} within floor(log2 n) + 1, n <= {n_max}",
            f"{rep.cases} cases, {len(rep.violations)} violations",
            "0 violations",
            rep.ok,
        ),
    )
    return SuiteReport("pair-lemma", checks, time.perf_counter() - start)


def complement_suite(ps: tuple[int, ...] = (13, 17, 29)) -> SuiteReport:
    """Two-term bound for the complements B_r, all r below (p-1)/4."""
    start = time.perf_counter()
    checks: list[Check] = []
    for p in ps:
        for r in range((p - 1 + 3) // 4):
            if 4 * r >= p - 1:
                break
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
