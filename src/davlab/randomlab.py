"""Monte Carlo experiments on theta-random weight sets.

A theta-random weight set includes each residue of [1, n-1] independently
with probability theta.  The sweep estimates how P(D_A <= k) and
P(D_A = k) move across a density grid, with per-trial seeds derived from a
fixed mixing function so results are bit-identical at any thread count.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from typing import Optional

from ._record import Record
from .engine import WeightSet
from .fdsolver import ratio_covers
from .groups import check_order, cyclic
from .numtheory import isprime
from .solver import Budget, BudgetExceededError, Meter, _Pool, check_dav_at_most


class Classification(str, Enum):
    LT = "LT"
    EQ = "EQ"
    GT = "GT"


class SweepConfig(Record):
    def __init__(
        self,
        p: int,
        k: int,
        theta_grid: tuple[float, ...],
        trials: int,
        seed: int,
        omega: float = 10.0,
    ):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "theta_grid", theta_grid)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "omega", omega)
        self.__post_init__()

    def __post_init__(self) -> None:
        # sampling alone walks all p - 1 residues per trial: refuse first
        check_order(self.p)
        if not isprime(self.p):
            raise ValueError(f"p = {self.p} must be prime")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        grid = tuple(float(t) for t in self.theta_grid)
        object.__setattr__(self, "theta_grid", grid)
        if not grid or any(not 0 < t < 1 for t in grid):
            raise ValueError("theta grid must lie strictly inside (0, 1)")
        if any(a >= b for a, b in zip(grid, grid[1:])):
            raise ValueError("theta grid must be strictly increasing")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.omega < math.inf:  # NaN fails too
            raise ValueError("omega must be finite and nonnegative")


class SweepRow(Record):
    def __init__(
        self,
        theta: float,
        empirical_p_le: float,
        empirical_p_eq: float,
        mean_size: float,
        trials_empty: int,
    ):
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "empirical_p_le", empirical_p_le)
        object.__setattr__(self, "empirical_p_eq", empirical_p_eq)
        object.__setattr__(self, "mean_size", mean_size)
        object.__setattr__(self, "trials_empty", trials_empty)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not 0 <= self.empirical_p_eq <= self.empirical_p_le <= 1:
            raise ValueError("need 0 <= p_eq <= p_le <= 1")


class SweepResult(Record):
    def __init__(
        self,
        config: SweepConfig,
        rows: tuple[SweepRow, ...],
        partial: bool,
        window: tuple[float, float],
        window_empty: bool,
        elapsed: float,
    ):
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "partial", partial)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "window_empty", window_empty)
        object.__setattr__(self, "elapsed", elapsed)

    def to_csv(self) -> str:
        lines = ["theta,p_le,p_eq,mean_size,empty,trials"]
        for r in self.rows:
            lines.append(
                f"{r.theta:.10g},{r.empirical_p_le:.6f},{r.empirical_p_eq:.6f},"
                f"{r.mean_size:.6f},{r.trials_empty},{self.config.trials}"
            )
        return "\n".join(lines) + "\n"


def trial_seed(seed: int, theta_index: int, trial_index: int) -> int:
    """Fixed mixing function for per-trial RNG seeds (parallel determinism)."""
    import hashlib

    tag = f"davlab-sweep:{seed}:{theta_index}:{trial_index}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:8], "big")


def sample_theta_random(n: int, theta: float, rng: random.Random) -> Optional[WeightSet]:
    """Each residue of [1, n-1] kept with probability theta; None when empty."""
    if not 0 < theta < 1:
        raise ValueError("theta must be in (0, 1)")
    residues = tuple(i for i in range(1, n) if rng.random() < theta)
    if not residues:
        return None
    return WeightSet(n, residues)


def classify_dav(p: int, weights, k: int) -> Classification:
    """Where D_A(Z_p) sits relative to k: LT, EQ, or GT.

    Two tests decide it, D_A <= k - 1 and D_A <= k.  A test of D_A <= 2 is
    the exact criterion A/A = Z_p* (fdsolver.ratio_covers), which costs
    |A| rotations of a (p-1)-bit set, or |A|^2 products when that is fewer
    than p; any other bound is one check_dav_at_most call.  No weight is
    0 mod p, so [1] is zero-sum-free under every A and D_A(Z_p) >= 2: the
    k - 1 test is skipped for k <= 2.
    """
    check_order(p)
    if not isprime(p):
        raise ValueError(f"p = {p} must be prime")
    if k < 1:
        raise ValueError("k must be >= 1")
    ws = weights if isinstance(weights, WeightSet) else WeightSet.of(p, weights)
    if ws.exponent != p:
        raise ValueError(f"weight exponent {ws.exponent} does not match p = {p}")
    group = cyclic(p)

    def at_most(j: int) -> bool:
        return ratio_covers(p, ws.residues) if j == 2 else check_dav_at_most(group, ws, j).holds

    if k >= 3 and at_most(k - 1):
        return Classification.LT
    if at_most(k):
        return Classification.EQ
    return Classification.GT


def theoretical_window(p: int, k: int, omega: float = 10.0) -> tuple[float, float]:
    """Density window (theta_low, theta_high) inside which D_A = k is
    expected for theta-random sets; natural logarithm throughout."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if k == 2:
        return (math.sqrt((2 * math.log(p) + omega) / p), 1.0)
    low = (3 * k * p * (math.log(p) + omega)) ** (1 / k) / p
    high = p ** (1 / (k - 1)) / (p * omega) if omega > 0 else math.inf
    return (low, high)


def _sweep_trial_worker(args) -> tuple[int, int]:
    """Returns (size, code) with code 0/1/2 for LT/EQ/GT and -1 for empty."""
    p, k, seed, theta_index, trial_index, theta = args
    rng = random.Random(trial_seed(seed, theta_index, trial_index))
    ws = sample_theta_random(p, theta, rng)
    if ws is None:
        return (0, -1)
    cls = classify_dav(p, ws, k)
    code = {Classification.LT: 0, Classification.EQ: 1, Classification.GT: 2}[cls]
    return (len(ws), code)


def threshold_sweep(
    config: SweepConfig,
    threads: int = 1,
    budget: Optional[Budget] = None,
) -> SweepResult:
    """One SweepRow per grid density, in grid order.

    Trials run on up to `threads` worker processes, serially at 1.  The
    budget's Meter is tested before each row: once it trips the result is
    partial and holds the finished rows, never a half-finished one.
    """
    meter = Meter(budget)
    window = theoretical_window(config.p, config.k, config.omega)
    rows: list[SweepRow] = []
    partial = False
    with _Pool(threads) as pool:
        for ti, theta in enumerate(config.theta_grid):
            try:
                meter.check()
            except BudgetExceededError:
                partial = True
                break
            jobs = [
                (config.p, config.k, config.seed, ti, tr, theta)
                for tr in range(config.trials)
            ]
            outcomes = pool.map(_sweep_trial_worker, jobs)
            n_le = sum(1 for _, code in outcomes if code in (0, 1))
            n_eq = sum(1 for _, code in outcomes if code == 1)
            n_empty = sum(1 for _, code in outcomes if code == -1)
            total_size = sum(size for size, _ in outcomes)
            rows.append(
                SweepRow(
                    theta=theta,
                    empirical_p_le=n_le / config.trials,
                    empirical_p_eq=n_eq / config.trials,
                    mean_size=total_size / config.trials,
                    trials_empty=n_empty,
                )
            )
    return SweepResult(
        config=config,
        rows=tuple(rows),
        partial=partial,
        window=window,
        window_empty=window[0] >= window[1],
        elapsed=meter.elapsed(),
    )
