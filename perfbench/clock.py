"""Solve times corrected for the host's speed at the moment they were taken.

On a shared host the same solve can take twice as long from one minute to
the next (CPU time tracks wall time, so it is the processor that is slower,
not the process that waits).  ``SpeedClock.time`` runs a fixed calibration
kernel just before and just after the call and, from a timer signal, every
``PERIOD_S`` seconds during it.  The call's wall time, minus the time spent
in those samples, is divided by the mean kernel duration and multiplied by
``REFERENCE_S``: the result reads as seconds at the reference speed.

The kernel is the solver's kind of work, Fraction arithmetic in Python lists,
but none of its code, so a faster solver does not make the kernel faster.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter
from typing import Callable, Tuple

# Median kernel duration on the 2-vCPU host (Python 3.11) where the baseline
# in BASELINE.md was measured.
REFERENCE_S = 0.004
PERIOD_S = 0.2

_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(6)]
           for i in range(6)]


def kernel() -> float:
    """Seconds for 10 exact eliminations of a fixed 6x6 rational matrix."""
    t0 = perf_counter()
    for _ in range(10):
        a = [row[:] for row in _MATRIX]
        for k in range(len(a)):
            piv = next(r for r in range(k, len(a)) if a[r][k] != 0)
            a[k], a[piv] = a[piv], a[k]
            for r in range(k + 1, len(a)):
                f = a[r][k] / a[k][k]
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return perf_counter() - t0


class SpeedClock:
    """Times calls in wall seconds and in seconds at the reference speed."""

    def __init__(self):
        self._samples = []
        self._stolen = 0.0

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        self._samples.append(kernel())
        self._stolen += perf_counter() - t0

    def time(self, fn: Callable, *args) -> Tuple[object, float, float]:
        """(fn(*args), wall seconds, seconds at the reference speed)."""
        self._samples = [kernel()]
        self._stolen = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = perf_counter()
        try:
            out = fn(*args)
        finally:
            t1 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = t1 - t0 - self._stolen
        self._samples.append(kernel())
        speed = sum(self._samples) / len(self._samples)
        return out, wall, wall * REFERENCE_S / speed
