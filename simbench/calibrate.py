"""Host-speed calibration: times a fixed pure-Python kernel between ops, and
scales op and set-up times to a host of nominal speed.

On a shared 2-vCPU virtual machine, host speed changes from second to second
and from hour to hour (a fixed loop took from 0.8x to 1.9x its median time),
and CPU time moves with wall time, so neither clock alone gives figures that
two runs of the same code agree on.
The kernel does the kind of work the library does (exact fractions, tuples,
dicts) and calls nothing in the library, so a change to the library moves
the scaled times fully while a change in host speed moves kernel and ops
alike.  Each op's time is divided by the host factor around it: the median
kernel time within WINDOW_S of the op, over NOMINAL_S.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

# Median kernel time on the 2-vCPU virtual machine the bounds were set on
# (Python 3.11); scaled figures are seconds on a host of that speed.
NOMINAL_S = 0.0065
INTERVAL_S = 0.1  # a kernel is timed after any op that ends this long after the last
WINDOW_S = 0.3
SETUP_KERNELS = 5


def kernel() -> int:
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    table: dict[tuple[int, int], int] = {}
    for i in range(6000):
        k = (i * 7919) % 4099
        table[(k, k >> 3)] = table.get((k, k >> 3), 0) + i
    return acc.denominator + len(table)


def time_kernel() -> tuple[float, float]:
    """(start, duration) of one kernel run, on the perf_counter clock."""
    start = perf_counter()
    kernel()
    return start, perf_counter() - start


def host_factor(durations: list[float]) -> float:
    """How much slower than nominal the host ran the kernel."""
    return statistics.median(durations) / NOMINAL_S


def scale(starts: list[float], latencies: list[float],
          kernels: list[tuple[float, float]]) -> list[float]:
    """Each op's latency over the host factor of the kernels timed within
    WINDOW_S of it (of all kernels, if none were)."""
    at = [k[0] for k in kernels]
    took = [k[1] for k in kernels]
    scaled = []
    for start, latency in zip(starts, latencies):
        lo = bisect.bisect_left(at, start - WINDOW_S)
        hi = bisect.bisect_right(at, start + latency + WINDOW_S)
        scaled.append(latency / host_factor(took[lo:hi] or took))
    return scaled
