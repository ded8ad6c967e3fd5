"""Wall-clock timing scaled to a reference machine speed.

The benchmark shares its machine with other tenants, which slow every
computation down by up to 1.5-1.8 times for a minute or more at a time.
No statistic over one run removes that: a whole run can fall inside a slow
spell.  So each timed call is bracketed by a fixed calibration computation
that does not touch kreinact (small complex eigensolves through numpy and a
dictionary loop, the same kinds of work as the package's), repeated every
``TICK_S`` while the call runs, and the call's wall time is multiplied by
``REFERENCE_S / probe``, stretch by stretch.  Measured side by side
on the 2-core reference machine, raw ``verify`` times moved between 140
and 270 ms while their ratio to the probe stayed within 41-51.

The figures reported are therefore seconds at the reference speed, where
one probe takes ``REFERENCE_S``.  Raw wall times (the probes' own time
left out) are kept next to them in each run's result file.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Time of one probe on the reference machine (2-core virtual machine, Python 3.11.7,
#: numpy 2.4.6, one BLAS thread) when no other tenant slows it down.
REFERENCE_S = 3.4e-3

#: Interval between the probes taken while a call runs.
TICK_S = 0.5

# Bound at import, so that the tracer's counting wrapper never times itself.
_EIGVALS = np.linalg.eigvals
_RNG = np.random.default_rng(0)
_MATRICES = _RNG.standard_normal((200, 4, 4)) + 1j * _RNG.standard_normal((200, 4, 4))


def _calibration() -> float:
    t0 = time.perf_counter()
    for matrix in _MATRICES:
        _EIGVALS(matrix)
    counts: dict = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - t0


def probe() -> float:
    """Fastest of three calibration computations, in seconds."""
    return min(_calibration() for _ in range(3))


class Clock:
    """Times calls in reference seconds; keeps the raw wall times too.

    A call is bracketed by probes, and while it runs an interval timer
    probes again every ``TICK_S`` seconds (in a ``SIGALRM`` handler, in
    this thread), so that a slow spell that starts or ends inside a long
    call is seen where it happens.  Each stretch of the call between two
    probes is scaled by the mean of their speeds; the probes' own time is
    left out of the call's time.  A call whose work runs in another
    process is timed with ``ticks=False``: the probes around it only.
    """

    def __init__(self):
        self.raw: list = []
        self._ticks: list = []
        self._active = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if self._active:
            start = time.perf_counter()
            seconds = probe()
            self._ticks.append((start, time.perf_counter(), seconds))

    def time(self, fn, *args, ticks: bool = True):
        """``(fn(*args), seconds at the reference speed)``."""
        before = probe()
        self._ticks = []
        t0 = time.perf_counter()
        self._active = ticks
        if ticks:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            result = fn(*args)
        finally:
            if ticks:
                signal.setitimer(signal.ITIMER_REAL, 0)
            self._active = False
            t1 = time.perf_counter()
        marks = [(t0, t0, before), *self._ticks, (t1, t1, probe())]
        elapsed = scaled = 0.0
        for (_, end, seconds), (start, _, next_seconds) in zip(marks, marks[1:]):
            elapsed += start - end
            scaled += (start - end) * 2.0 * REFERENCE_S / (seconds + next_seconds)
        self.raw.append(elapsed)
        return result, scaled
