"""The machine's speed during a run, from a fixed piece of reference work.

On a shared host the speed of a pure-Python loop drifts by 20-60% over
minutes, from load outside the process, and a slow period moves every time
in the runs it covers.  Medians over passes remove the noise within a run;
they cannot remove a slow period that lasts the whole run.  So each run also
times ``reference_work`` at even intervals of its own CPU time, inside the
answers as well as between them, and reports each answer's time scaled to
the speed at which the reference work takes ``REFERENCE_S``:
``reported = measured * REFERENCE_S / median(reference times)``, over the
reference samples taken during the answer, or the ``NEAREST`` samples
nearest to it if it held fewer; a set-up, by every sample of the run.
The time spent in reference work is taken out of the answers it interrupted.

The reference work is the benchmark's own code and does the kind of work
gbgeom does (exact arithmetic on dictionaries of exponent tuples), so a
change to gbgeom cannot change it, while a slow period of the machine slows
both alike.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# Median time of one reference_work() on the 2-vCPU Xeon VM (2.1 GHz) that
# perfbench/BASELINE.json was measured on, when the machine was quiet.
REFERENCE_S = 0.0031
# While the sampler runs, one reference sample is taken every this many
# seconds of the process's CPU time: about 5% of a run.
SAMPLE_EVERY_S = 0.05
# An answer that held fewer reference samples is scaled by this many samples
# nearest to it in time.
NEAREST = 10

_BASE = {
    (2, 0, 1): Fraction(3, 7), (1, 1, 0): Fraction(-5, 2), (0, 2, 1): Fraction(11, 3),
    (1, 0, 0): Fraction(-1, 9), (0, 1, 1): Fraction(4, 5), (0, 0, 2): Fraction(-13, 6),
    (0, 0, 0): Fraction(7, 4),
}


def _product(p: dict, q: dict, degree: int) -> dict:
    out: dict = {}
    for (a, b, c), s in p.items():
        for (d, e, f), t in q.items():
            m = (a + d, b + e, c + f)
            if m[0] + m[1] + m[2] <= degree:
                out[m] = out.get(m, 0) + s * t
    return {m: v for m, v in sorted(out.items(), reverse=True) if v}


def reference_work() -> int:
    """Powers of a sparse polynomial over Q, truncated by degree."""
    power = _BASE
    for _ in range(3):
        power = _product(power, _BASE, 7)
    return len(power)


class Meter:
    """Reference samples taken during one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        # When each sample ended, in perf_counter seconds, in sample order.
        self.at: list[float] = []
        # Seconds spent in reference work so far.
        self.busy = 0.0

    def sample(self, count: int = 1) -> None:
        """Time the reference work, without the garbage collector.

        A collection started inside it would scan the heap of the answer it
        interrupted, which the reference work does not depend on.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                start = time.perf_counter()
                reference_work()
                end = time.perf_counter()
                elapsed = end - start
                self.samples.append(elapsed)
                self.at.append(end)
                self.busy += elapsed
        finally:
            if collecting:
                gc.enable()

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        """Sample every ``SAMPLE_EVERY_S`` of CPU time, whatever is running."""
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def factor(self) -> float:
        """The factor for the whole run, from every sample."""
        return REFERENCE_S / statistics.median(self.samples)

    def factor_for(self, start: float, end: float) -> float:
        """What a time measured from ``start`` to ``end`` is multiplied by."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.at)):
            if hi == len(self.at) or (lo > 0 and start - self.at[lo - 1] <= self.at[hi] - end):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / statistics.median(self.samples[lo:hi])
