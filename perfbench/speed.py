"""Sample the machine's speed while measured work runs.

A shared virtual machine changes speed by up to a quarter within seconds
(CPU time moves with wall time, so it is not scheduling; see README.md).
``SpeedProbe`` times a fixed piece of pure-Python work (an integer loop and
a float, list and dict loop, so that it slows with the machine roughly as
qlab's own mix does) every PROBE_INTERVAL_S from a SIGALRM handler, which
runs between bytecodes of the main thread: the probe interleaves with the
work instead of competing with it for the core, and its samples tell how
fast the machine ran at each moment of the work.  ``run.py`` scales
measured times to the speed at which the probe takes ``NOMINAL_PROBE_S``.

    python3 perfbench/speed.py SRC_DIR

measures set-up: it imports qlab from SRC_DIR under the probe and prints
the ``time.perf_counter()`` at the end of the import, the median probe
duration and the probe time spent before that end.  This module imports
nothing beyond ``signal``, ``sys`` and ``time``, so that it adds next to
nothing to the set-up it measures.
"""

from __future__ import annotations

import signal
import sys
import time

PROBE_INTERVAL_S = 0.01
#: probe duration at the nominal speed that scaled times refer to
NOMINAL_PROBE_S = 1.5e-4


class SpeedProbe:
    """Context manager collecting (start, duration) probe samples."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.inside_s = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        s = 0
        for i in range(1000):
            s += i * i % 7
        acc, seen, xs = 0.0, {}, []
        for i in range(250):
            x = i * 0.37
            acc += x * x / (1.0 + x)
            seen[i & 31] = acc
            xs.append(x)
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # probe time spent inside the measured work, to be taken out of it
        self.inside_s = sum(self.durations)
        if not self.durations:  # work shorter than one interval
            self._tick(None, None)

    def median(self) -> float:
        ordered = sorted(self.durations)
        return ordered[len(ordered) // 2]


if __name__ == "__main__":
    with SpeedProbe() as probe:
        sys.path.insert(0, sys.argv[1])
        import qlab  # noqa: F401
        end = time.perf_counter()
    inside = sum(d for t, d in zip(probe.starts, probe.durations) if t < end)
    print(repr(end), repr(probe.median()), repr(inside))
