"""Host-speed sampling: scales measured seconds to a fixed reference speed.

The benchmark's host is a few vCPUs of a shared machine whose speed changes
in phases: a fixed pure-Python loop runs about 40% faster or slower for
stretches of seconds to minutes, with the process on the CPU the whole time
(its CPU time tracks its wall time). Those phases, not the program, decide
most of a raw wall time's run-to-run spread.

``Pace`` measures the phase while the program runs. A ``SIGALRM`` timer
interrupts the main thread every ``interval`` seconds, between two Python
bytecodes, and runs ``kernel``, a fixed mix of interpreter work and small
matrix products like the engine's. The kernel's CPU time (``thread_time``,
so waiting for a CPU that the program's own workers hold does not count as
a slow host) is one speed sample. ``Pace.scaled`` turns a measured interval
into seconds at the reference speed: the interval minus the samples' own
cost, times the mean of ``REFERENCE_CPU_S / sample`` over the samples taken
in it and at its two ends. The kernel is the benchmark's own code, so a
change to the program does not move it.
"""
from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from time import perf_counter, thread_time

import numpy as np

# a round value near the kernel's CPU time on the reference box (2-vCPU Intel
# Xeon VM, Python 3.11.7, numpy 2.4.6); it fixes the unit, not the spread
REFERENCE_CPU_S = 0.003

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((32, 64))
_W = _rng.standard_normal((64, 64)) * 0.1


def kernel() -> int:
    s = 0
    for i in range(30000):
        s += i % 7
    for _ in range(60):
        y = np.maximum(_X @ _W, 0.0)
        _X.T @ y
    return s


class Pace:
    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.at: list[float] = []    # wall clock at the start of each sample
        self.cpu: list[float] = []   # the kernel's CPU seconds
        self.cost: list[float] = []  # the sample's wall seconds, taken from the program
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # the timer fired inside an explicit sample
            return
        self._busy = True
        started = perf_counter()
        cpu = thread_time()
        kernel()
        self.cpu.append(thread_time() - cpu)
        self.at.append(started)
        self.cost.append(perf_counter() - started)
        self._busy = False

    def __enter__(self) -> Pace:
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def mark(self) -> float:
        """Take a sample now and return the time after it: an interval's start."""
        self.sample()
        return perf_counter()

    def end(self) -> float:
        """The time now, then a sample: an interval's end."""
        now = perf_counter()
        self.sample()
        return now

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """(raw seconds, seconds at the reference speed) of an interval.

        ``start`` comes from ``mark`` and ``end`` from ``end``, so a sample
        lies at each end. Raw seconds exclude the samples taken inside.
        """
        first = bisect_left(self.at, start)  # the first sample inside
        last = bisect_left(self.at, end)     # the one ``end`` took
        speed = statistics.fmean(REFERENCE_CPU_S / c for c in self.cpu[first - 1:last + 1])
        raw = end - start - sum(self.cost[first:last])
        return raw, raw * speed
