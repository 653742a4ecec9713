"""Machine-speed meter.

The speed of each of the benchmark machine's CPUs drifts by up to a factor
of two within a second and from minute to minute (other tenants share the
physical cores), which would swamp the differences the benchmark must
resolve.  While a run is timed, a SIGALRM handler in the main thread runs
a fixed pure-Python probe loop every ``INTERVAL_S``, so it always measures
the CPU that the timed code is running on at that moment.  A time between
two instants is then reported as

    (wall time - probe time inside it) * REFERENCE_S / median probe time

using the probes from ``WINDOW_S`` before to ``WINDOW_S`` after the
interval (the median ignores a probe that the kernel preempted): seconds on a machine whose probe loop takes ``REFERENCE_S``.
The probe is benchmark code and never changes with ``src/qso``.  The
module imports nothing heavy, so that set-up probes can load it first.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.02
PROBE_LOOP = 5_000
REFERENCE_S = 2.2e-4   # probe time on the reference machine (bench/README.md)
WINDOW_S = 0.25


class SpeedMeter:
    """Context manager that probes CPU speed while it is active."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._total = [0.0]     # _total[k] = sum of the first k durations
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOP):
            x += i
        seconds = time.perf_counter() - start
        self.starts.append(start)
        self.durations.append(seconds)
        self._total.append(self._total[-1] + seconds)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` (``perf_counter`` values) less
        the probes run inside, at reference speed."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        own = self._total[last] - self._total[first]
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_left(self.starts, end + WINDOW_S)
        return scale(end - start - own, self.durations[lo:hi])

    def total(self) -> float:
        return self._total[-1]


def scale(seconds: float, probes) -> float:
    """``seconds`` at reference speed, given the probe times that
    accompanied it (unscaled when there are none)."""
    if not probes:
        return seconds
    ordered = sorted(probes)
    middle = len(ordered) // 2
    typical = ordered[middle] if len(ordered) % 2 else 0.5 * (ordered[middle - 1] + ordered[middle])
    return seconds * REFERENCE_S / typical
