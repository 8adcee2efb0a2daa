"""Speed of the machine, measured by a fixed exact-arithmetic computation.

On a shared, unpinned machine the speed a process gets drifts by tens of
percent over minutes with other tenants' load, and flips between a fast and
a slow state (about 13 and 25 ms for ``burst()``) for seconds at a time,
with no steal time to show for it.  The computation is Gauss-Jordan
elimination over ``fractions.Fraction``, the arithmetic tvartop spends its
time in; it is benchmark code, so a change to tvartop does not move it.

- Set-up: each set-up process times ``burst()`` right after setting up, and
  the benchmark scales the set-up time by ``NOMINAL_S`` / burst time: the
  time it would have taken at the machine's usual speed.
- Requests: a ``Probe`` samples the speed from inside the busy process
  itself, so a sample sees the state the program's own work is running in.
  A speed sample taken between requests does not: a process that has just
  been idle runs in the slow state for a while, so such a sample depends on
  how long the last request took.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# About the median burst time on the 2-core sandbox the benchmark was written on.
NOMINAL_S = 0.02
_SIZE = 7
_REPEATS = 12
# A probe sample is one elimination; it is taken every PROBE_INTERVAL_S of
# the process's CPU time (about 2% of it).
PROBE_NOMINAL_S = NOMINAL_S / _REPEATS
PROBE_INTERVAL_S = 0.1


def _eliminate(n, shift):
    rows = [[Fraction(1, i + j + shift) for j in range(n)] + [Fraction(i + 1)]
            for i in range(n)]
    for c in range(n):
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(n):
            if r != c:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return rows[-1][-1]


def burst():
    """Seconds taken by the fixed reference computation.

    The cyclic garbage collector is paused, so the time does not depend on
    how many objects the calling process holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for k in range(_REPEATS):
            _eliminate(_SIZE, 1 + k % 3)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Probe:
    """Speed samples taken inside the calling process while it works.

    Every ``PROBE_INTERVAL_S`` of the process's CPU time (``ITIMER_PROF``)
    a SIGPROF handler times one elimination, between two bytecodes of
    whatever the process is running.  Samples are evenly spaced in CPU
    time, so ``speed`` of them is the CPU-time-weighted speed.  Their time
    is part of the caller's wall time; ``take`` returns it so the caller
    can subtract it.  A forked child inherits the handler but not the
    timer, so it samples only if it starts a probe of its own.
    """

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _eliminate(_SIZE, 1 + len(self.samples) % 3)
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def take(self):
        """The samples taken since the last call."""
        out, self.samples = self.samples, []
        return out


def speed(samples):
    """Share of the nominal speed over the time the samples cover: the mean
    of ``PROBE_NOMINAL_S`` / sample, so a stretch of work done at half speed
    counts as half as much nominal time."""
    return statistics.fmean(PROBE_NOMINAL_S / s for s in samples)
