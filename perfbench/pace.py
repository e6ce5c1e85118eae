"""Host pace: timings rescaled to a fixed reference speed of the host.

On a shared host the same Python code runs up to twice as fast at one moment
as at the next, and slow spells last from tens of milliseconds to minutes, so
a plain wall time measures the neighbours as much as the program.  While a
`Pace` is active, a SIGALRM timer interrupts this process every
`INTERVAL_S` and times one run of a fixed pure-Python loop (`ref_loop`) in
the interrupted thread: the host's speed at that moment, for this process.
`Pace.scaled(a, b)` then gives the reference seconds of the wall interval
[a, b]: each slice of it between two samples counts, per wall second, the
mean of the host's speed at its two ends, and the sampler's own loops are
left out.  The speed at a sample is `REF_NOMINAL_S` over the median loop time
of that sample and its two neighbours, which drops the one sample in twenty
that an interrupt lengthens or shortens.  On a host where the loop takes
`REF_NOMINAL_S`, scaled and wall seconds agree; when the host slows down,
both the work and the loop slow down and the scaled time stays put.  `scaled`
is called after the `with` block, when every slice has both its samples.

The loop does not touch davlab, so a change to davlab moves scaled times by
the same factor as wall times.  Use one `Pace` at a time per process: it owns
SIGALRM and the real-time interval timer while active.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REF_ITERS = 1500
# Seconds one ref_loop() takes at the reference speed: about the median on a
# 2-CPU Xeon VM with Python 3.11.  Changing it rescales every timing.
REF_NOMINAL_S = 6.0e-4
INTERVAL_S = 0.02


def ref_loop(iters: int = REF_ITERS) -> float:
    """Seconds of a fixed loop that, like the search, shifts and ORs 499-bit
    ints and fills a dict."""
    t0 = time.perf_counter()
    memo: dict[int, int] = {}
    mask = (1 << 499) - 1
    bits = mask - 12345
    for i in range(iters):
        bits = (bits << 3 | bits >> 496) & mask
        memo[bits ^ i] = i
    return time.perf_counter() - t0


def speeds(loops: list[float]) -> list[float]:
    """Reference seconds per wall second at each sample: REF_NOMINAL_S over the
    median loop of three neighbouring samples, shifted inward at the ends."""
    last = max(0, len(loops) - 3)
    return [REF_NOMINAL_S / statistics.median(loops[min(max(0, j - 1), last):][:3])
            for j in range(len(loops))]


class Pace:
    """Context manager that samples the host's speed; see the module docstring."""

    def __init__(self):
        self.starts: list[float] = []  # perf_counter at the start of each sample
        self.loops: list[float] = []  # seconds each sample's ref_loop took
        self.speeds: list[float] = []  # reference seconds per wall second, set on exit
        self._old_handler = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.starts.append(t0)
        self.loops.append(ref_loop())

    def __enter__(self) -> Pace:
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._sample()
        self.speeds = speeds(self.loops)

    def rate(self, j: int) -> float:
        """Reference seconds per wall second between samples j and j + 1."""
        if j + 1 == len(self.speeds):
            return self.speeds[j]
        return (self.speeds[j] + self.speeds[j + 1]) / 2

    def scaled(self, a: float, b: float) -> float:
        """Reference seconds of the perf_counter interval [a, b], a >= the first
        sample, without the samples taken inside it."""
        if len(self.speeds) != len(self.starts):
            raise RuntimeError("Pace.scaled is called after the with block")
        j = bisect.bisect_right(self.starts, a) - 1
        if j < 0:
            raise ValueError("interval starts before the first sample")
        total, t = 0.0, a
        while j + 1 < len(self.starts) and self.starts[j + 1] < b:
            total += (self.starts[j + 1] - t) * self.rate(j)
            t, j = self.starts[j + 1], j + 1
            total -= self.loops[j] * self.rate(j)  # the sample's own loop
        return max(0.0, total + (b - t) * self.rate(j))

    def unscaled(self, a: float, b: float) -> float:
        """Wall seconds of [a, b] without the samples taken inside it."""
        lo = bisect.bisect_right(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        return b - a - sum(self.loops[lo:hi])
