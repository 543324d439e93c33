"""Machine-speed probe, so timings survive a shared, noisy CPU.

On a virtual machine that shares its cores, the same Python code runs up
to 1.5x slower for seconds to minutes at a time, and CPU time inflates
with wall time. While the probe is active, a profiling timer interrupts
the program every ``INTERVAL_S`` of CPU time and runs a small fixed kernel
of the same kind of work (a dict and deque BFS on a grid), recording how
long it took. A measurement then divides the CPU time of the measured code
(probe time excluded) by the kernel's mean time over the same stretch and
the stretch just before it, and scales the ratio by ``REF_KERNEL_S``, the
kernel's time on an idle core. The result reads as CPU seconds on an idle
core of the reference machine. The kernel is the benchmark's own code and
does not change with the program, so a slower program still reads slower.

All times are read from the thread CPU clock: while a process CPU timer is
armed, Linux reads the process CPU clock only at tick resolution. The
benchmark is single-threaded, so the two clocks agree otherwise.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque

INTERVAL_S = 0.01
# the kernel's time when run from the timer on an idle core of a 2.0 GHz
# x86-64 virtual machine under Python 3.11
REF_KERNEL_S = 0.0003
LOOKBACK = 12  # kernel samples before a measurement that also count
WARMUP = 20  # samples taken on entry, so the first measurement has some

_W = 24
_ADJ = tuple(
    tuple(v for v in (u - 1 if u % _W else -1, u + 1 if (u + 1) % _W else -1, u - _W, u + _W)
          if 0 <= v < _W * _W)
    for u in range(_W * _W)
)


def kernel() -> int:
    dist = {0: 0}
    queue = deque((0,))
    while queue:
        u = queue.popleft()
        for v in _ADJ[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return len(dist)


class Measurement:
    """CPU time of a ``with`` block, in idle-core reference seconds."""

    def __init__(self, probe: "SpeedProbe"):
        self.probe = probe
        self.cpu_s = 0.0  # raw process CPU time, probe time excluded
        self.seconds = 0.0

    def __enter__(self):
        self._first = len(self.probe.samples)
        self._spent = self.probe.spent_s
        self._t0 = time.thread_time()
        return self

    def __exit__(self, *exc):
        probe = self.probe
        self.cpu_s = time.thread_time() - self._t0 - (probe.spent_s - self._spent)
        window = probe.samples[max(0, self._first - LOOKBACK):]
        scale = REF_KERNEL_S / statistics.fmean(window) if window else 1.0
        self.seconds = self.cpu_s * scale
        return False


class SpeedProbe:
    """Use as ``with SpeedProbe() as probe:``; outside the block, or never
    entered, measurements report raw CPU time."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.thread_time()
        kernel()
        t1 = time.thread_time()
        self.samples.append(t1 - t0)
        self.spent_s += time.thread_time() - t0

    def __enter__(self):
        for _ in range(WARMUP):
            self._tick()
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def measure(self) -> Measurement:
        return Measurement(self)
