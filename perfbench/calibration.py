"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of one core drifts by 20-30% over periods
of seconds, and a run's whole timing moves with it. A fixed
pure-Python loop, with the same kind of work as the solver's inner
loops (Fraction arithmetic, small dict updates) and no call into
`ssg`, is timed right before every operation. The operation's time is
then scaled by REFERENCE_S / (loop time). The result reads as the time
the operation would take on a machine where the loop takes REFERENCE_S,
which is about its time on the 2-core x86-64 virtual machine the
benchmark was tuned on. Measured on identical inputs there, the scaled pass time varied by 2%
(interquartile range over median) where the raw one varied by 33%.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 1.75e-3


def _loop() -> Fraction:
    acc = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(1, 200):
        f = Fraction(i, i + 7)
        acc += f * f - Fraction(1, i)
        counts[i % 31] = counts.get(i % 31, 0) + i
    return acc


def speed_factor() -> float:
    """REFERENCE_S over the loop's time now: multiply a time measured
    right after this call by it to get reference-machine time."""
    t0 = perf_counter()
    _loop()
    return REFERENCE_S / (perf_counter() - t0)
