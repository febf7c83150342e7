"""Interpreter speed, sampled next to and during the measured work.

On the 2-vCPU shared host this benchmark was written on, the interpreter's
speed drifts by 20 % and more within seconds, so raw times of identical work
moved by 10-17 % between runs.  A `Speedometer` times a short slice of fixed
reference work (Fraction arithmetic, tuple and dict traffic, like the
library's own) every PERIOD_S of wall time from SIGALRM, and whenever its
owner asks.  A run's time is then multiplied by NOMINAL_SLICE_S over the mean
slice time from just before the run to just after it, so a five-second case
is scaled by the speed sampled during it.  Time spent in timer slices is taken
out of the run's time.  The slices use no code of the library, so a change to
the library cannot move them.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.1
SLICE_ITERATIONS = 250
NOMINAL_SLICE_S = 0.001  # about the median slice time on the host above


def calibration_slice() -> float:
    """Seconds taken by one slice of reference work."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, SLICE_ITERATIONS):
        acc += Fraction(3, i % 97 + 1)
        table[(i, i % 7)] = (i * i) % 101
        table[(i % 13, i)] = table.get((i - 1, (i - 1) % 7), 0) + 1
    return time.perf_counter() - t0


def scale_of(slices) -> float:
    """Factor that takes times measured next to `slices` to reference speed."""
    return NOMINAL_SLICE_S / statistics.mean(slices)


class Speedometer:
    """Slice samples taken from a SIGALRM timer while the context is open,
    and on request; see the module docstring."""

    def __init__(self):
        self.samples = []
        self.stolen = 0.0  # wall seconds spent in timer-driven slices
        self.stolen_cpu = 0.0  # and CPU seconds
        self._busy = False

    def sample(self):
        if self._busy:
            return
        self._busy = True
        try:
            self.samples.append(calibration_slice())
        finally:
            self._busy = False

    def _on_alarm(self, _signum, _frame):
        c0 = time.process_time()
        t0 = time.perf_counter()
        self.sample()
        self.stolen += time.perf_counter() - t0
        self.stolen_cpu += time.process_time() - c0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def run(self, fn):
        """Call fn(); returns (its result, seconds, CPU seconds, scale), with
        timer slices taken out of both times.  A slice is taken after the
        call, which is also the slice before the next one."""
        first = len(self.samples) - 1
        stolen, stolen_cpu = self.stolen, self.stolen_cpu
        c0 = time.process_time()
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0 - (self.stolen - stolen)
        cpu = time.process_time() - c0 - (self.stolen_cpu - stolen_cpu)
        self.sample()
        return result, seconds, cpu, scale_of(self.samples[first:])
