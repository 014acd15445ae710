"""Machine-speed probe: a fixed reference computation interleaved with the workload.

The small virtual machines this benchmark runs on change speed by up to a
factor of two over minutes, as neighbours load the host; a pure-Python
loop timed for 40 s had 5-second medians from 20 to 31 ms.  That drift is
slower than one run, so no median inside a run removes it.  It slows the
reference below as much as the workload, so each reported time is scaled by
NOMINAL_S over the reference's mean time measured alongside it: a time in
seconds at the speed where the reference takes NOMINAL_S.

The reference is benchmark code, not package code, so a change to the
package cannot move it.  It does the kinds of work the package does:
big-integer square roots, Fraction arithmetic and decimal strings.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from math import isqrt
from time import perf_counter

#: seconds the reference takes at nominal speed, about the fastest state of
#: the 2-vCPU virtual machine the first numbers were recorded on
NOMINAL_S = 0.0006

#: wall-clock seconds between two reference runs inside a measured pass
PERIOD_S = 0.05


def reference() -> int:
    """Fixed work of the kinds the package does; about a millisecond."""
    acc = Fraction(0)
    for i in range(1, 200):
        r = isqrt(i * 10**30 + 12345)
        acc += Fraction(r % 97, i)
        str(r)
    return acc.numerator


def time_reference() -> float:
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


class Probe:
    """Runs the reference every PERIOD_S seconds from SIGALRM while active.

    `times` keeps the time of each reference run and `seconds` their sum,
    which the caller subtracts from what it measures.  An inactive probe
    records nothing.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.seconds = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t = time_reference()
        self.times.append(t)
        self.seconds += t

    def __enter__(self) -> Probe:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scale(reference_s: float) -> float:
    """Factor that turns a time measured where the reference took reference_s to nominal speed."""
    return NOMINAL_S / reference_s


def scaled_now(elapsed: float, repeats: int = 9) -> float:
    """elapsed, just measured, scaled by the median of reference runs made right after it."""
    return elapsed * scale(statistics.median(time_reference() for _ in range(repeats)))
