"""Machine-speed calibration of the timed passes.

On a shared virtual machine the processor's speed shifts by 20-50 % for
seconds to minutes at a time, whatever runs on it, so a pass's wall time
moves with the neighbours' load as much as with the program.  While the
untraced passes run, ``Calibrator`` times a fixed pure-Python loop every
``PERIOD_S`` of the process's CPU time (from a SIGVTALRM handler, so it also
samples inside long library calls).  ``calibrated`` scales each stretch of
work between two samples by ``NOMINAL_S`` over the loop's time around it:
the result is the pass's time on a machine on which the loop takes
``NOMINAL_S``.  The loop's own time is kept out of every measured interval.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

# About the loop's time on the unloaded 2-vCPU Xeon VM (Python 3.11) the
# benchmark was written on, so calibrated times read close to wall times
# there.  It is a fixed unit; changing it rescales every calibrated time.
NOMINAL_S = 0.002
PERIOD_S = 0.1
REPEATS = 100
TABLE = [[(3 * a + 5 * b + a * b) % 17 for b in range(17)] for a in range(17)]


def reference_loop() -> int:
    """Lookups in a 17 x 17 table and small-integer arithmetic, as in the
    library's loops over Cayley tables.  It creates no container object, so
    it never sets off the garbage collector: its time does not depend on
    how many objects the library holds when it is sampled."""
    t = TABLE
    acc = 0
    for _ in range(REPEATS):
        for a in range(17):
            row = t[a]
            for b in range(17):
                acc = t[row[b]][(acc + a) % 17]
    return acc


class Calibrator:
    """Loop samples (start, end) in time order, and the loop time spent."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._old = None

    def sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = perf_counter()
            reference_loop()
            t1 = perf_counter()
        finally:
            self._busy = False
        self.starts.append(t0)
        self.ends.append(t1)
        self.times.append(t1 - t0)
        self.spent += t1 - t0

    def install(self) -> None:
        self._old = signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._old)

    def _loop_time_before(self, k: int) -> float:
        """Median loop time of the two samples before sample ``k`` and the
        two from it on (one slow sample does not move it)."""
        return statistics.median(self.times[max(0, k - 2):k + 2])

    def calibrated(self, t0: float, t1: float) -> float:
        """Calibrated seconds of work in [t0, t1], samples left out.
        Needs at least one sample."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        total, a = 0.0, t0
        for k in range(i, j + 1):
            b = self.starts[k] if k < j else t1
            total += (b - a) * NOMINAL_S / self._loop_time_before(k)
            if k < j:
                a = self.ends[k]
        return total
