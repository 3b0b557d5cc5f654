"""Host-speed sampling, so that timings can be read at a reference speed.

This benchmark runs on shared virtual machines.  Other tenants slow a
process by up to 2x for seconds to minutes at a time, which moves a
30-second median by 20-30% between runs: more than any bound a timing
could be given.  The slowdown hits every instruction, so a fixed kernel
run next to the workload slows by the same factor (within about 2% on
10-second windows, against 22% for the raw times).

``HostSpeed`` runs that kernel from a ``SIGALRM`` interval timer every
``INTERVAL_S`` while a measured region executes, on the same thread, and
records when each run started and ended.  The host factor at a sample is
its kernel time over ``KERNEL_REF_S``, a fixed scale near the kernel's
time on a lightly loaded host.  ``reference_seconds(a, b)`` is the time of the region
[a, b] without the kernel runs, each piece divided by the host factor
around it.  The kernel does not use pwsint, so a change to pwsint cannot
move it.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

_now = time.perf_counter

INTERVAL_S = 0.05
# A fixed scale: about the kernel's time on the shared 2-vCPU Intel Xeon
# virtual machine the baseline was measured on (Python 3.11, numpy 2.4)
# when lightly loaded.
KERNEL_REF_S = 5.0e-4

_A = np.array([[0.0, 1.0], [-2.0, 0.0]])


def kernel() -> float:
    """A fixed mix of interpreter work and 2-vector numpy operations."""
    x = np.array([1.0, 0.5])
    for _ in range(120):
        x = x + 1e-3 * (_A @ (0.5 * (x + x)))
    return float(x[0])


def kernel_seconds(repeat: int = 5) -> float:
    """Mean time of ``repeat`` kernel runs, measured right now."""
    t0 = _now()
    for _ in range(repeat):
        kernel()
    return (_now() - t0) / repeat


class HostSpeed:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = _now()
        kernel()
        self.starts.append(t0)
        self.ends.append(_now())

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _span(self, a: float, b: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, a), bisect.bisect_right(self.starts, b)

    def _duration(self, i: int) -> float:
        i = min(max(i, 0), len(self.starts) - 1)
        return self.ends[i] - self.starts[i]

    def factor(self, a: float, b: float) -> float:
        """Mean host factor of the samples in [a, b] and the two around it."""
        if not self.starts:
            raise RuntimeError("no host-speed samples were taken")
        lo, hi = self._span(a, b)
        durations = [self._duration(i) for i in range(lo - 1, hi + 1)]
        return sum(durations) / len(durations) / KERNEL_REF_S

    def reference_seconds(self, a: float, b: float) -> float:
        """The region's time, less kernel runs, at the reference speed.

        The samples inside [a, b] cut it into pieces.  Each piece is
        divided by the host factor of the samples at its two ends, so a
        burst of contention inside a long region is weighted by its own
        length.
        """
        if not self.starts:
            raise RuntimeError("no host-speed samples were taken")
        lo, hi = self._span(a, b)
        total, t = 0.0, a
        for i in range(lo, hi + 1):
            end = self.starts[i] if i < hi else b
            f = 0.5 * (self._duration(i - 1) + self._duration(i)) / KERNEL_REF_S
            total += (end - t) / f
            if i < hi:
                t = self.ends[i]
        return total
