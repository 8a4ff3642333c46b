"""Calibrated timing.

On a shared machine the speed of one CPU drifts by up to a factor of two
within seconds, so raw wall times of the same work differ more between
runs than the changes the benchmark must resolve.  Each timed interval is
therefore bracketed by a fixed pure-Python calibration loop, and reported
as the time it would have taken on a CPU that runs the loop in
NOMINAL_S:

    calibrated = measured * NOMINAL_S / mean(loop time before, loop time after)

The loop does the same kind of work as the library (small tuples, strings,
dicts and a sort), so both slow down together when the CPU does.  It does
not touch the library, so a change to the library moves the measured time
and leaves the loop's time alone.
"""

from __future__ import annotations

import time
from statistics import median

# The loop's time on a 2-vCPU x86-64 VM at its usual (slower) speed.
NOMINAL_S = 0.002
REPEATS = 3


def _loop() -> int:
    d = {}
    for i in range(3000):
        key = (i % 97, str(i))
        d[key] = [i, key]
    return len(sorted(d, key=lambda k: k[1]))


def calibrate() -> float:
    """Seconds the calibration loop takes now (median of a few runs)."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return median(times)


def scale(seconds: float, before: float, after: float) -> float:
    """Convert a measured interval to calibrated seconds, given the loop
    times taken just before and just after it."""
    return seconds * NOMINAL_S * 2 / (before + after)


class Timer:
    """Calibrated time of one block:

        with Timer() as t:
            work()
        t.seconds    # calibrated
    """

    def __enter__(self) -> "Timer":
        self._before = calibrate()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        raw = time.perf_counter() - self._start
        self.seconds = scale(raw, self._before, calibrate())
