"""Question batteries for the davlab benchmark and the checks on their answers.

A question is a plain dict naming one public davlab call and its arguments.
The same (workload, seed) always gives the same questions.  The seed picks
the order of the questions and, where the answer allows it, a unit u by
which each weight set is dilated: x -> u*x is an automorphism, so D_{uA}(G)
= D_A(G), the zero-sum-free multisets are the same, and the searches visit
the same number of nodes.  Every seed therefore costs the same amount of
work while handing the program different inputs.

Nothing here imports davlab.  Expected answers come from closed forms, from
plain tuple arithmetic, from an independent classifier, and (for the inverse
problem) from a table frozen from exhaustive searches; `Checker` compares the
program's serialized results against them.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from math import ceil, gcd, isqrt

WORKLOADS = ("exact", "inverse", "sweep", "certify")

# Sweep rows are one-point grids at p = 499 with a fixed trial count.
SWEEP_P = 499
SWEEP_TRIALS = 3
SWEEP_ROWS_PER_K = 50
# sweep_digest of the seed-0 battery as printed by davlab when the benchmark was added
SWEEP_SEED0_DIGEST = "530b0ce7a10ff23daeedcad10832d6b6dd7213ce1116a032174cb8ad31cf5fe3"

# fd(Z_p, 2) for the ten odd primes up to 31, as pinned by the test suite.
FD_EXPECTED = {3: 2, 5: 3, 7: 3, 11: 4, 13: 4, 17: 5, 19: 5, 23: 6, 29: 6, 31: 7}

# fd(G, k) for k = 2, 3, 4 ("inf" = INFINITE), frozen from the exhaustive
# size-by-size search.  Cyclic entries not listed are 1; the prime k = 2
# entries repeat FD_EXPECTED.  Each run rechecks every FINITE witness and
# every INFINITE claim independently (see Checker._check_fd).
FD_CYCLIC = {
    3: (2, 1, 1), 5: (3, 2, 2), 7: (3, 2, 2), 9: (2, 1, 1), 11: (4, 3, 2),
    13: (4, 3, 2), 15: (2, 1, 1), 17: (5, 3, 3), 19: (5, 3, 3), 21: (2, 1, 1),
    23: (6, 4, 3), 25: (3, 2, 2), 27: (2, 1, 1), 29: (6, 4, 3), 31: (7, 4, 3),
}
FD_NONCYCLIC = {
    (2, 2): ("inf", 1, 1), (2, 4): (1, 1, 1), (3, 3): ("inf", 2, 2),
    (2, 6): (2, 1, 1), (2, 2, 2): ("inf", "inf", 1), (4, 4): ("inf", 1, 1),
    (2, 8): (1, 1, 1), (3, 6): (1, 1, 1), (2, 2, 4): (1, 1, 1),
    (5, 5): ("inf", 3, 3), (2, 10): (3, 1, 1), (3, 9): (2, 1, 1),
    (2, 2, 2, 2): ("inf", "inf", "inf"), (6, 6): ("inf", 1, 1),
    (3, 3, 3): ("inf", "inf", 2),
}
# fd_fast_k2 at 31 agrees with FD_EXPECTED; 37 is frozen from this search.
FD_FAST_K2 = {31: 7, 37: 7}

# Rank-2 and p-group instances of the exact battery.
EXACT_NONCYCLIC = (
    (2, 2), (2, 2, 2), (2, 2, 2, 2), (3, 3), (3, 3, 3), (3, 9), (5, 5),
    (2, 4), (4, 4), (2, 6), (2, 2, 4),
)
WIDE_PM2 = (150,)
MAX_DAV_PAIRS = ((5, 2), (7, 2), (7, 3), (11, 2), (11, 3), (13, 2), (13, 3), (17, 2))
CERTIFY_MAX_N = 52
KNOWN_FORMULAS_MAX_N = 40
UNITS_TARGETS = (4, 6, 8, 9, 12, 16, 18, 24, 30, 36)


# ---------------------------------------------------------------- arithmetic


def floor_log(base: int, n: int) -> int:
    t, v = 0, base
    while v <= n:
        v *= base
        t += 1
    return t


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def big_omega(n: int) -> int:
    """Number of prime factors of n counted with multiplicity."""
    count, d = 0, 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    return count + (n > 1)


def units(n: int) -> list[int]:
    return [u for u in range(1, n) if gcd(u, n) == 1]


def dilate(u: int, weights, n: int) -> list[int]:
    return sorted({u * w % n for w in weights})


def nonzero_elements(factors) -> list[tuple[int, ...]]:
    return [e for e in itertools.product(*(range(f) for f in factors)) if any(e)]


def _step(factors, reach: set, entry, weights):
    """Weighted sums after appending entry, or None once 0 is reachable."""
    zero = (0,) * len(factors)
    mults = {tuple(a * c % f for c, f in zip(entry, factors)) for a in weights}
    if zero in mults:
        return None
    new = set(reach)
    new |= mults
    for r in reach:
        for m in mults:
            s = tuple((x + y) % f for x, y, f in zip(r, m, factors))
            if s == zero:
                return None
            new.add(s)
    return new


def is_zero_sum_free(factors, weights, entries) -> bool:
    """No nonempty subsequence has a weighted sum of 0 (plain tuple arithmetic)."""
    reach: set = set()
    for e in entries:
        reach = _step(factors, reach, tuple(e), weights)
        if reach is None:
            return False
    return True


def zsf_multiset_exists(factors, weights, length: int) -> bool:
    """Some zero-sum-free multiset of the given length exists; D_A(G) <= length iff not."""
    elems = nonzero_elements(factors)

    def extend(start: int, reach: set, remaining: int) -> bool:
        if remaining == 0:
            return True
        for i in range(start, len(elems)):
            nxt = _step(factors, reach, elems[i], weights)
            if nxt is not None and extend(i, nxt, remaining - 1):
                return True
        return False

    return extend(0, set(), length)


# ------------------------------------------------------- sweep, independently


def ratios_cover(p: int, weights) -> bool:
    """A/A = Z_p*, the criterion for D_A(Z_p) <= 2."""
    inv = [pow(b, -1, p) for b in weights]
    return len({a * ib % p for a in weights for ib in inv}) == p - 1


def trial_rng(seed: int, theta_index: int, trial_index: int) -> random.Random:
    tag = f"davlab-sweep:{seed}:{theta_index}:{trial_index}".encode()
    return random.Random(int.from_bytes(hashlib.sha256(tag).digest()[:8], "big"))


class PrimeField:
    """Discrete logs of Z_p*, so that products of sets become bit rotations."""

    def __init__(self, p: int):
        self.p = p
        m = p - 1
        factors = [q for q in range(2, m + 1) if m % q == 0 and is_prime(q)]
        g = next(g for g in range(2, p) if all(pow(g, m // q, p) != 1 for q in factors))
        self.log = [0] * p
        x = 1
        for j in range(m):
            self.log[x] = j
            x = x * g % p
        self.mask = (1 << p) - 1
        self.log_mask = (1 << m) - 1

    def dav_le3(self, weights) -> bool:
        """D_A(Z_p) <= 3, by scaling every length-3 sequence to (1, u, v).

        (1, u) is zero-sum-free iff u is outside Q = -(A/A).  For such u, v
        completes a zero-sum-free triple iff v is outside A^{-1} * -S_u with
        S_u = (A + 0) + u*(A + 0); that product is a union of rotations of
        -S_u in logarithm space.  (1, u, v) free implies (1, 1/u, v/u) free,
        so u and 1/u need only one test.
        """
        p, m, log = self.p, self.p - 1, self.log
        inv = [pow(b, -1, p) for b in weights]
        q_set = {(-a * ib) % p for a in weights for ib in inv}
        base = 1
        for a in weights:
            base |= 1 << a
        shifts = [(m - log[a]) % m for a in weights]
        for u in range(1, p):
            if u in q_set or pow(u, -1, p) < u:
                continue
            s = base
            for b in weights:
                x = b * u % p
                s |= ((base << x) | (base >> (p - x))) & self.mask
            s &= ~1
            neg_logs = 0
            while s:
                low = s & -s
                s ^= low
                neg_logs |= 1 << log[p - (low.bit_length() - 1)]
            bad = 0
            for sh in shifts:
                bad |= ((neg_logs << sh) | (neg_logs >> (m - sh))) & self.log_mask
            if bad != self.log_mask:
                return False
        return True

    def classify(self, weights, k: int) -> str:
        """LT / EQ / GT for D_A(Z_p) against k in {2, 3}; D_A >= 2 always."""
        if k == 2:
            return "EQ" if ratios_cover(self.p, weights) else "GT"
        if ratios_cover(self.p, weights):
            return "LT"
        return "EQ" if self.dav_le3(weights) else "GT"


def expected_sweep_row(field: PrimeField, k: int, theta: float, trials: int, seed: int,
                       theta_index: int = 0) -> tuple[int, int, int, int]:
    """(trials with D <= k, trials with D = k, total |A|, empty trials) of one
    sweep row, re-derived independently of the program."""
    n_le = n_eq = total = n_empty = 0
    for tr in range(trials):
        rng = trial_rng(seed, theta_index, tr)
        weights = [i for i in range(1, field.p) if rng.random() < theta]
        if not weights:
            n_empty += 1
            continue
        total += len(weights)
        cls = field.classify(weights, k)
        n_le += cls in ("LT", "EQ")
        n_eq += cls == "EQ"
    return n_le, n_eq, total, n_empty


def expected_sweep_csv(field: PrimeField, k: int, theta: float, trials: int, seed: int) -> str:
    """The CSV a one-point sweep must print."""
    n_le, n_eq, total, n_empty = expected_sweep_row(field, k, theta, trials, seed)
    return (
        "theta,p_le,p_eq,mean_size,empty,trials\n"
        f"{theta:.10g},{n_le / trials:.6f},{n_eq / trials:.6f},"
        f"{total / trials:.6f},{n_empty},{trials}\n"
    )


# ------------------------------------------------------------------ batteries


def _q(qid: str, fn: str, **kw) -> dict:
    return {"id": qid, "fn": fn, **kw}


def _exact(rng: random.Random) -> list[dict]:
    qs = []

    def unit(n):
        return rng.choice(units(n))

    # deep and narrow: long extremal sequences on small groups
    for n in range(3, 31):
        qs.append(_q(f"Z{n}:one", "davenport", group=[n], weights=[unit(n)], expect=n))
    for n in range(4, 49):
        u = unit(n)
        qs.append(
            _q(f"Z{n}:pm1", "davenport", group=[n], weights=dilate(u, (1, n - 1), n),
               expect=n.bit_length())
        )
    for r in (2, 3, 4):
        for n in range(r + 2, 41):
            u = unit(n)
            qs.append(
                _q(f"Z{n}:1..{r}", "davenport", group=[n],
                   weights=dilate(u, range(1, r + 1), n), expect=ceil(n / r))
            )
    for fs in EXACT_NONCYCLIC:
        e = fs[-1]
        order = math.prod(fs)
        name = "x".join(map(str, fs))
        # Olson / Kruyswijk: D(G) = 1 + sum(n_i - 1) for p-groups and rank 2
        qs.append(_q(f"{name}:one", "davenport", group=list(fs), weights=[unit(e)],
                     expect=1 + sum(f - 1 for f in fs)))
        if set(fs) == {3}:
            pm1 = len(fs) + 1  # {+-1} is every weight of Z_3: independence
        else:
            pm1 = order.bit_length()  # floor(log2 |G|) + 1; the witness shows >=
        qs.append(_q(f"{name}:pm1", "davenport", group=list(fs),
                     weights=dilate(unit(e), (1, e - 1), e), expect=pm1))
    # wide and shallow: D = floor(log_3 n) + 1 = 5
    for n in WIDE_PM2:
        qs.append(_q(f"Z{n}:pm2", "davenport", group=[n],
                     weights=dilate(unit(n), (1, 2, n - 2, n - 1), n), expect=5))
    for p, k in MAX_DAV_PAIRS:
        qs.append(_q(f"maxdav:{p}:{k}", "max_davenport_over_size", p=p, k=k,
                     expect=ceil(p / k)))
    return qs


def _inverse() -> list[dict]:
    qs = []
    for n in range(2, 33):
        for j, k in enumerate((2, 3, 4)):
            if (n, k) == (31, 2):
                # 3.4-6 s alone on the general path (2 CPUs, Python 3.11): one repetition
                # per run at most; fd_fast_k2(31) below enumerates the same orbits
                continue
            want = FD_CYCLIC.get(n, (1, 1, 1))[j]
            qs.append(_q(f"fd:Z{n}:{k}", "fd", group=[n], k=k, expect=want))
    for fs, values in FD_NONCYCLIC.items():
        for k, want in zip((2, 3, 4), values):
            qs.append(_q(f"fd:{'x'.join(map(str, fs))}:{k}", "fd", group=list(fs), k=k,
                         expect=want))
    for p, want in FD_FAST_K2.items():
        qs.append(_q(f"fdfast:{p}", "fd_fast_k2", p=p, expect=want))
    return qs


def sweep_grid() -> list[tuple[int, float]]:
    """(k, theta): 0.5x..1.5x the k = 2 threshold, then the k = 3 low..high range."""
    p, n = SWEEP_P, SWEEP_ROWS_PER_K
    lo2 = math.sqrt((2 * math.log(p) + 10.0) / p)
    low3 = 0.2 * math.sqrt(p) / p
    high3 = 1.5 * (9 * p * math.log(p)) ** (1 / 3) / p
    grid = [(2, lo2 * (0.5 + i / (n - 1))) for i in range(n)]
    grid += [(3, low3 + (high3 - low3) * i / (n - 1)) for i in range(n)]
    return grid


def sweep_digest(results: dict) -> str:
    """sha256 of the battery's CSV rows in grid order, from {question id: result}."""
    rows = "".join(results[f"sweep:{k}:{i}"]["csv"] for i, (k, _) in enumerate(sweep_grid()))
    return hashlib.sha256(rows.encode()).hexdigest()


def _sweep(seed: int) -> list[dict]:
    return [
        _q(f"sweep:{k}:{i}", "threshold_sweep", p=SWEEP_P, k=k, theta=theta,
           trials=SWEEP_TRIALS, seed=seed * 1000 + i)
        for i, (k, theta) in enumerate(sweep_grid())
    ]


def known_formula_instances(max_n: int) -> list[tuple[str, int, list[int], int]]:
    """The closed-form families of davlab.verify.known_formulas, re-derived."""
    out = []
    for n in range(2, max_n + 1):
        out.append((f"pair:{n}", n, [1, n - 1] if n > 2 else [1], n.bit_length()))
        for r in range(1, min(6, n - 1) + 1):
            out.append((f"interval:{n}:{r}", n, list(range(1, r + 1)), ceil(n / r)))
        out.append((f"all:{n}", n, list(range(1, n)), 2))
        if n in UNITS_TARGETS:
            out.append((f"units:{n}", n, units(n), 1 + big_omega(n)))
        for r in range(1, 4):
            if r < (n - 1) / 2:
                sym = list(range(1, r + 1)) + list(range(n - r, n))
                out.append((f"sym:{n}:{r}", n, sym, floor_log(r + 1, n) + 1))
    return out


def _certify(rng: random.Random) -> list[dict]:
    qs = []
    for i, (name, n, ws, value) in enumerate(known_formula_instances(CERTIFY_MAX_N)):
        ws = dilate(rng.choice(units(n)), ws, n)
        if i % 4 == 3:  # one in four asks a wrong value: one witness search refutes it
            qs.append(_q(f"certify:{name}:-1", "certify_dav_value", group=[n], weights=ws,
                         value=value - 1, expect=False))
        else:
            qs.append(_q(f"certify:{name}", "certify_dav_value", group=[n], weights=ws,
                         value=value, expect=True))
    qs.append(_q("verify:known_formulas", "known_formulas", max_n=KNOWN_FORMULAS_MAX_N,
                 expect={"checks": len(known_formula_instances(KNOWN_FORMULAS_MAX_N)),
                         "failures": []}))
    qs.append(_q("verify:intervals", "intervals_suite", limit=2000,
                 expect={"checks": 2, "failures": []}))
    qs.append(_q("verify:complement", "complement_suite",
                 expect={"checks": 14, "failures": []}))
    # the strict xfails: ratio coverage holds at q = 2, 3 and fails at 5, 17
    qs.append(_q("verify:singer", "singer_suite",
                 expect={"checks": 12,
                         "failures": ["ratio coverage q=5", "ratio coverage q=17"]}))
    for p in (101, 211, 499):
        qs.append(_q(f"quartic:{p}", "quartic_weight_set_auto", p=p,
                     expect={"verified_bound": 4, "verification": "exhaustive"}))
    for p in (101, 499, 997, 1999):
        qs.append(_q(f"interval:{p}", "interval_weight_set", p=p,
                     expect={"verified_bound": 2, "size": 2 * isqrt(p)}))
    for p, r in ((13, 2), (17, 3), (29, 6), (101, 20)):
        qs.append(_q(f"complement:{p}:{r}", "complement_weight_set", p=p, r=r,
                     expect={"verified_bound": 2, "size": p - 1 - 2 * r}))
    for q, bound in ((2, 2), (3, 2), (5, None), (17, None)):
        p = q * q + q + 1
        qs.append(_q(f"singer:{p}", "singer_weight_set", p=p,
                     expect={"verified_bound": bound, "size": q + 1}))
    return qs


def build(workload: str, seed: int) -> list[dict]:
    """The workload's questions for this seed, in the order they are asked."""
    rng = random.Random(f"davlab-bench:{workload}:{seed}")
    if workload == "exact":
        qs = _exact(rng)
    elif workload == "inverse":
        qs = _inverse()
    elif workload == "sweep":
        qs = _sweep(seed)
    elif workload == "certify":
        qs = _certify(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(qs)
    return qs


# ---------------------------------------------------------------- the checker


class Checker:
    """Compares serialized answers with expectations; memoizes the costly ones."""

    def __init__(self):
        self._memo: dict = {}
        self._field: PrimeField | None = None

    def check(self, q: dict, result) -> str | None:
        """None when the answer is right, else a one-line reason."""
        fn = q["fn"]
        if fn == "davenport":
            return self._check_davenport(q, result)
        if fn == "max_davenport_over_size":
            return _differ(result["value"], q["expect"])
        if fn == "fd":
            return self._check_fd(q, result)
        if fn == "fd_fast_k2":
            return self._check_fd_fast(q, result)
        if fn == "threshold_sweep":
            return _differ(result["csv"], self._sweep_csv(q))
        if fn == "certify_dav_value":
            return _differ(result, q["expect"])
        return _differ({k: result[k] for k in q["expect"]}, q["expect"])

    def _cached(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _check_davenport(self, q, result):
        bad = _differ(result["value"], q["expect"])
        if bad:
            return bad
        witness = [tuple(e) for e in result["witness"]]
        if len(witness) != q["expect"] - 1:
            return f"witness length {len(witness)} != {q['expect'] - 1}"
        key = ("zsf", tuple(q["group"]), tuple(q["weights"]), tuple(witness))
        if not self._cached(key, lambda: is_zero_sum_free(q["group"], q["weights"], witness)):
            return "witness has a weighted zero-sum"
        return None

    def _check_fd(self, q, result):
        fs, k, want = tuple(q["group"]), q["k"], q["expect"]
        if want == "inf":
            if result["status"] != "INFINITE":
                return f"status {result['status']} != INFINITE"
            full = list(range(1, fs[-1]))  # every subset of the full set has D at least as large
            key = ("inf", fs, k)
            if not self._cached(key, lambda: zsf_multiset_exists(fs, full, k)):
                return "INFINITE, but the full weight set forces D <= k"
            return None
        if result["status"] != "FINITE" or result["value"] != want:
            return f"{result['status']} {result['value']} != FINITE {want}"
        ws = result["witness"]
        if len(ws) != want:
            return f"witness size {len(ws)} != {want}"
        key = ("fd", fs, tuple(ws), k)
        if self._cached(key, lambda: zsf_multiset_exists(fs, ws, k)):
            return "witness weight set does not force D <= k"
        return None

    def _check_fd_fast(self, q, result):
        p, want = q["p"], q["expect"]
        if result["status"] != "FINITE" or result["value"] != want:
            return f"{result['status']} {result['value']} != FINITE {want}"
        ws = result["witness"]
        if len(ws) != want or not ratios_cover(p, ws):
            return "witness does not satisfy A/A = Z_p*"
        return None

    def _sweep_csv(self, q):
        if self._field is None:
            self._field = PrimeField(SWEEP_P)
        key = ("sweep", q["k"], q["theta"], q["trials"], q["seed"])
        return self._cached(
            key,
            lambda: expected_sweep_csv(self._field, q["k"], q["theta"], q["trials"], q["seed"]),
        )


def _differ(got, want) -> str | None:
    return None if got == want else f"got {got!r}, expected {want!r}"
