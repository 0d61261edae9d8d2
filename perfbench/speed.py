"""Machine-speed normalisation of the benchmark's wall-clock figures.

The benchmark was tuned on a shared 2-vCPU KVM guest (Intel Xeon) whose
speed drifts with its neighbours' load: the same simulation run takes
between 1.0x and 2x its fastest time, in phases that last from seconds
to minutes, so a whole run can land in a slow phase.  Neither the median
nor the minimum of a few repeats removes that.  So while a figure is
measured, a ``SIGALRM`` timer runs a small fixed kernel every
:data:`PERIOD_S`, and every stretch of wall time is rescaled by
``(REFERENCE_S / kernel time around it) ** SENSITIVITY``.  The result is
*reference seconds*.  The time spent in the kernel itself is cut out of
every interval, and nothing in the program is touched.

The kernel walks a chain of slots scattered over an 8 MB table, so it
waits on the caches and memory the way the simulator does; its median
time per run correlated 0.86 with the run's wall time over 26
back-to-back runs of one spec (a pure-arithmetic loop: 0.75).  How
strongly the simulator follows the kernel changes with the machine's
load, though: fitted per series, run time went as the kernel time to a
power between 0.5 and 2.  Over nine series of runs (one spec repeated,
or ten seeds of one workload) the quartile distance over median of
``requests_per_s`` was 0.12-0.51 unscaled (mean 0.26); rescaling with
power 1 gave 0.06-0.34 (mean 0.17), with :data:`SENSITIVITY` = 0.5
0.05-0.26 (mean 0.15), the smallest worst case.  The table adds 8 MB to
the benchmark process, and so to ``peak_rss_mb``.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from array import array
from bisect import bisect_right
from typing import Any, List, Optional

#: int32 slots in the kernel's table (8 MB)
TABLE_SLOTS = 1 << 21
#: slots the kernel visits per run
KERNEL_STEPS = 1000
#: the kernel's time at full speed on the reference machine, as sampled
#: between simulation steps (in a tight loop its slots stay cached and it
#: runs about twice as fast)
REFERENCE_S = 150e-6
#: how strongly wall time is rescaled by the kernel's slowdown
SENSITIVITY = 0.5
#: how often the kernel runs while a probe is active
PERIOD_S = 0.02
#: kernel timings in the running median that gives each sample's speed
SMOOTHING = 5


def chain_table() -> array:
    """A table whose slots from 0 on form a chain of ``KERNEL_STEPS``
    hops, each to a far-off slot (a full-period linear congruential
    sequence modulo ``TABLE_SLOTS``)."""
    table = array("i", bytes(4 * TABLE_SLOTS))
    slot = 0
    for _ in range(KERNEL_STEPS):
        hop = (1103515245 * slot + 12345) % TABLE_SLOTS
        table[slot] = hop
        slot = hop
    return table


def kernel(table: array) -> int:
    """The fixed calibration work: follow the chain from slot 0."""
    slot = 0
    for _ in range(KERNEL_STEPS):
        slot = table[slot]
    return slot


class SpeedProbe:
    """Context manager that samples the machine's speed while it is open.

    Sample ``i`` ran the kernel over ``[starts[i], ends[i]]``.  The wall
    time between sample ``i`` and sample ``i + 1`` is scaled by sample
    ``i``'s factor (before the first sample, by the first one's)."""

    def __init__(self) -> None:
        self.table = chain_table()
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._factors: Optional[List[float]] = None
        self._previous: Any = None

    def sample(self, *_: object) -> None:
        """Run the kernel once and record when, and for how long."""
        start = time.perf_counter()
        kernel(self.table)
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self._factors = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def factors(self) -> List[float]:
        """Per sample, ``REFERENCE_S`` over the running median of the
        kernel timings centred on it, to the power ``SENSITIVITY``."""
        if self._factors is None:
            took = [end - start for start, end in zip(self.starts, self.ends)]
            half = SMOOTHING // 2
            self._factors = [
                (REFERENCE_S / statistics.median(took[max(i - half, 0) : i + half + 1]))
                ** SENSITIVITY
                for i in range(len(took))
            ]
        return self._factors

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval ``[start, end]``, with
        the kernel's own runs left out."""
        factors = self.factors()
        starts, ends = self.starts, self.ends
        total = 0.0
        # gap i runs from the end of sample i to the start of sample i + 1
        i = bisect_right(starts, start) - 1
        while True:
            lo = ends[i] if i >= 0 else -math.inf
            hi = starts[i + 1] if i + 1 < len(starts) else math.inf
            overlap = min(end, hi) - max(start, lo)
            if overlap > 0:
                total += overlap * factors[max(i, 0)]
            if hi >= end:
                return total
            i += 1

    def median_factor(self) -> float:
        """The typical speed factor while the probe was open."""
        return statistics.median(self.factors())
