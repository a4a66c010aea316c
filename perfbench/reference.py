"""A fixed reference loop that samples how fast the machine runs right now.

The benchmark shares a few cores of a host with other machines, whose load
slows every computation here, by up to half for seconds at a time.  On a
2-vCPU VM a run of decisions and this loop, timed in turn, slowed together:
over 20-second windows the spread (quartile distance over median) of the
decisions' median time was 0.11 and that of their ratio to the loop 0.06;
for codec messages over 10-second windows it was 0.19 against 0.09.  So the
benchmark runs :func:`kernel` between its operations, every ``EVERY_S`` of
operation time, and scales each timing by ``REFERENCE_S`` over the loop's
median time around it.  The seconds it reports are seconds on a machine on
which one kernel call takes ``REFERENCE_S``; the raw seconds are in the
report too.

The loop touches no library code, so no change to the library moves it.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

REFERENCE_S = 1.5e-3  # one kernel call on the 2-vCPU VM the bounds were set on
EVERY_S = 0.05  # operation seconds between two kernel samples
WINDOW_S = 0.25  # samples this close to an operation's middle set its scale


def kernel() -> int:
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


class Clock:
    """Kernel samples taken over a run, each with the time it was taken."""

    def __init__(self) -> None:
        self.times: list[float] = []  # middle of each sample, ascending
        self.samples: list[float] = []  # seconds of each sample
        self.owed = 0.0  # operation seconds not yet followed by a sample

    def burst(self, n: int) -> None:
        for _ in range(n):
            start = perf_counter()
            kernel()
            end = perf_counter()
            self.times.append((start + end) / 2)
            self.samples.append(end - start)

    def after(self, seconds: float) -> None:
        """Called after ``seconds`` of operation: one sample for every
        ``EVERY_S`` of operation, so the samples follow the work."""
        self.owed += seconds
        n = int(self.owed / EVERY_S)
        if n:
            self.owed -= n * EVERY_S
            self.burst(n)

    def scale(self, start: float, end: float) -> float:
        """Factor from raw to reference seconds for work done from ``start``
        to ``end``: the median sample within ``WINDOW_S``, or within the
        work's own length if longer, of its middle."""
        mid, half = (start + end) / 2, max(WINDOW_S, end - start)
        lo = bisect_left(self.times, mid - half)
        hi = bisect_right(self.times, mid + half)
        near = self.samples[lo:hi] or self.samples
        return REFERENCE_S / statistics.median(near)
