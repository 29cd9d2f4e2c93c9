"""Machine-speed calibration for timings taken on a shared, noisy host.

On a host shared with other tenants, the speed of one core can drop by a
third or more for anything from a tenth of a second to minutes, which
moves every timing of a run together: over ten runs of each workload in a
row, unscaled throughput spread by 15-27% (interquartile range over
median) and unscaled latency percentiles by up to 31%.  The benchmark
therefore probes that speed every PROBE_INTERVAL_S from a timer signal
while it measures, also in the middle of a long operation.  A probe times
one run of a small fixed kernel of interpreter work, kept apart from the
program it calibrates:

- it calls no puzzlefonts code;
- it creates no object that the garbage collector tracks, so it never
  triggers a collection, and neither the program's heap nor its gc
  settings change how long it takes;
- it records the CPU time its thread got.  A probe that did not get the CPU
  for most of its run (a thread of the program took the GIL, or another
  process the core) measured contention, not host speed, and is not used;
  a run whose probes mostly did not get the CPU fails.

A measured interval is cut at the probes that ran inside it; each piece,
less the CPU time of the probe that ends it, is scaled by
REFERENCE_PROBE_S / (median of the usable probes that ended within WINDOW_S
of the piece, and at least the last one before it and the first one after
it).  A scaled time reads as the time the work would take on a host where
the kernel takes REFERENCE_PROBE_S: its best time on a 2-core Intel Xeon VM
with Python 3.11, when no other tenant loads the core.  Work that the
program does differently shows up in full; a change of host speed cancels
out.  The benchmark reports the unscaled values next to the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REFERENCE_PROBE_S = 0.00085
PROBE_INTERVAL_S = 0.05
WINDOW_S = 0.05  # host speed moves within a tenth of a second; narrow windows track it best
MIN_CPU_SHARE = 0.8
EDGE_TRIES = 20          # about 1 probe in 250 is preempted even in a quiet process


def _mix(a: int, b: int) -> int:
    return (a + b) ^ (a * 31)


def kernel() -> int:
    """Three kinds of interpreter work, since contention slows each
    differently: a tight integer loop; float math and str(); calls and bit
    sets.  Only ints, floats and strs are made, none of them gc-tracked."""
    total = 0
    for i in range(7000):
        total += (i * i) & 0xFFFF
    acc = 0.0
    for i in range(700):
        acc += (i * 0.5 * 1.0001) ** 0.5
        total += len(str(i))
    used = 0
    for i in range(1000):
        used |= 1 << (i & 63)
        total += _mix(i, used) & 7
    return total + int(acc)


class Calibrator:
    """Kernel probes over a measurement, and the scaling they imply.

    Use as a context manager around the measured code; it owns SIGALRM and
    the real-time interval timer while active.
    """

    def __init__(self):
        self.times: list[float] = []   # when each probe ended
        self.cpu: list[float] = []     # CPU time this thread spent in each probe
        self.shares: list[float] = []  # that CPU time over the probe's wall time
        self.usable_times: list[float] = []
        self.usable_probes: list[float] = []
        self._old_handler = None

    def take(self) -> bool:
        """One probe; True if it is usable."""
        c0 = time.thread_time()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        c1 = time.thread_time()
        share = (c1 - c0) / (t1 - t0)
        self.times.append(t1)
        self.cpu.append(c1 - c0)
        self.shares.append(share)
        if share >= MIN_CPU_SHARE:
            self.usable_times.append(t1)
            self.usable_probes.append(t1 - t0)
            return True
        return False

    def take_usable(self) -> None:
        """Probe until one is usable, so that a measurement starting or ending
        here is bracketed."""
        for _ in range(EDGE_TRIES):
            if self.take():
                return
        raise RuntimeError(f"no usable calibration probe in {EDGE_TRIES} tries")

    def _on_alarm(self, _signum, _frame) -> None:
        self.take()

    def __enter__(self):
        self.take_usable()
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.take_usable()

    def check(self) -> None:
        """Fail unless the probes mostly had the CPU to themselves."""
        share = statistics.median(self.shares)
        if share < MIN_CPU_SHARE:
            raise RuntimeError(f"calibration probes got {share:.0%} of the CPU (median); "
                               "another thread or process held it while they ran")

    def speed(self, start: float, end: float) -> float:
        """Median usable probe time around [start, end]."""
        times = self.usable_times
        lo = min(bisect.bisect_left(times, start - WINDOW_S),
                 bisect.bisect_right(times, start) - 1)   # the last probe before start
        hi = max(bisect.bisect_right(times, end + WINDOW_S),
                 bisect.bisect_left(times, end) + 1)      # the first probe after end
        if lo < 0 or hi > len(times):
            raise ValueError("interval is not bracketed by usable probes")
        return statistics.median(self.usable_probes[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """Reference-speed duration of [start, end], without probe time."""
        lo = bisect.bisect_right(self.times, start)   # first probe ending after start
        hi = bisect.bisect_left(self.times, end)      # first probe ending at or after end
        edges = [start, *self.times[lo:hi], end]
        total = 0.0
        for i in range(len(edges) - 1):
            piece = edges[i + 1] - edges[i]
            if lo + i < hi:  # this piece ends with a probe that ran inside the interval
                piece -= self.cpu[lo + i]
            total += piece * REFERENCE_PROBE_S / self.speed(edges[i], edges[i + 1])
        return total
