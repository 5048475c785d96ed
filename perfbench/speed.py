"""The machine's speed, sampled while the benchmark runs.

On a shared host the speed of a vCPU moves by up to half within seconds:
a fixed loop took 7 ms, then 11 ms, for stretches of 5-20 s, and a run of
tens of seconds cannot average that out.  So the benchmark times a fixed
pure-Python kernel, independent of the program, every ``INTERVAL_S``
(from a SIGALRM handler, which also interrupts a running op) and three
times between ops, and reports each op's wall time scaled to the
reference speed: multiplied by the kernel's reference time over its
median time in and around the op, from the end of the previous op.  The handler's own time is taken out
of the op's wall time.  A change to the program moves the op's time but
not the kernel's, so it shows in full.
"""

from __future__ import annotations

import signal
import statistics
from array import array
from time import perf_counter
from typing import Dict

#: the kernel's time at the reference speed.  On a 2-vCPU 2.1 GHz Xeon
#: sandbox with Python 3.11 it took 0.64-1.4 ms, 0.8 ms at the median.
KERNEL_REFERENCE_S = 0.001
INTERVAL_S = 0.05
BRACKET_RUNS = 3


def kernel() -> int:
    """Fixed interpreter work, about 1 ms: integer arithmetic, a dict,
    tuples, hashing and a sort."""
    d: Dict[int, int] = {}
    s = 0
    for i in range(1500):
        k = (i * 7919) % 1031
        d[k] = d.get(k, 0) + i
        s += (i * i) % 97
    for k, v in sorted(d.items()):
        s ^= hash((k, v)) & 0xFFFF
    return s


class Speedometer:
    """Samples the kernel's time while installed (``with Speedometer():``)."""

    def __init__(self):
        self.samples = array("d")  # kernel times, in the order taken
        self.handler_s = 0.0  # time spent in the signal handler
        self._after = None  # where the samples after the last op start
        self._old = None

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _run_kernel(self) -> None:
        t0 = perf_counter()
        kernel()
        self.samples.append(perf_counter() - t0)

    def _sample(self, _signum, _frame) -> None:
        t0 = perf_counter()
        self._run_kernel()
        self.handler_s += perf_counter() - t0

    def bracket(self) -> int:
        """Time the kernel a few times between ops; returns the sample
        count before them, where the next op's window starts."""
        start = len(self.samples)
        for _ in range(BRACKET_RUNS):
            self._run_kernel()
        return start

    def time(self, fn):
        """Call ``fn()`` between two brackets (the one before it shared
        with the previous call); returns (result, exception or None, wall
        seconds, seconds at the reference speed)."""
        start = self.bracket() if self._after is None else self._after
        handler0 = self.handler_s
        result, error = None, None
        t0 = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # the caller decides what a raise means
            error = exc
        wall = perf_counter() - t0 - (self.handler_s - handler0)
        self._after = self.bracket()
        return result, error, wall, self.scale(wall, start)

    def scale(self, wall: float, start: int) -> float:
        """``wall`` at the reference speed, from the samples since ``start``."""
        return wall * KERNEL_REFERENCE_S / statistics.median(self.samples[start:])
