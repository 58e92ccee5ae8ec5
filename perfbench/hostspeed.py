"""Host-speed normalization of measured durations.

The benchmark runs on shared hosts whose speed drifts: on the 2-CPU host
this benchmark was built on, one fixed pure-Python loop took anywhere
from 0.17 s to 0.33 s within the same minute, and a sweep's median host
time moved from 115 ms to 200 ms over twenty minutes with no change to
the program.  A raw host time therefore says as much about the
neighbours as about the program.

:class:`HostSpeed` brackets each timed unit with a *reference slice* --
a fixed amount of interpreter-bound work that belongs to the benchmark,
not to the program -- and scales the unit's duration by
``REFERENCE_SECONDS / (mean of the slices on either side)``.  A scaled
duration is the unit's host time on a host where one reference slice
takes exactly :data:`REFERENCE_SECONDS`.  A change to the program moves
the unit and not the slice, so it moves the scaled duration by the same
factor as the raw one; a change in host speed moves both and cancels.
Raw durations are kept alongside and written to the result file.
"""

from __future__ import annotations

import statistics
import time

__all__ = ["REFERENCE_SECONDS", "reference_slice", "HostSpeed"]

#: Nominal duration of one reference slice; scaled durations are host
#: times on a host where a slice takes exactly this long.
REFERENCE_SECONDS = 0.001

#: Loop iterations of one slice (about 1 ms on the host above).
_ITERATIONS = 3000


def _step(acc: int, i: int) -> int:
    return ((acc ^ (acc << 5)) + i) & 0xFFFFFFFF


def reference_slice() -> float:
    """Run one reference slice; returns its host duration in seconds.

    Integer arithmetic, calls and dict stores, like the interpreter-
    bound program; it allocates nothing the garbage collector tracks,
    so it never triggers a collection.
    """
    table = {}
    acc = 0x12345678
    start = time.perf_counter()
    for i in range(_ITERATIONS):
        acc = _step(acc, i)
        table[acc & 1023] = i
    return time.perf_counter() - start


class HostSpeed:
    """Chained reference slices around timed units.

    Call :meth:`mark` right before a unit (or a run of back-to-back
    units) and :meth:`factor` right after each unit; multiply the
    unit's raw duration by the factor.  ``slices`` reference slices are
    run at each point and their median used, which steadies the factor
    for long units.
    """

    def __init__(self, slices: int):
        self.slices = slices
        self._previous = self._measure()

    def _measure(self) -> float:
        return statistics.median(reference_slice()
                                 for _ in range(self.slices))

    def mark(self) -> None:
        """Measure host speed just before a unit starts."""
        self._previous = self._measure()

    def factor(self) -> float:
        """Measure host speed just after a unit ends; returns the factor
        that scales the unit's raw duration.  The slice also serves as
        the *before* measurement of the next back-to-back unit."""
        current = self._measure()
        factor = REFERENCE_SECONDS / ((self._previous + current) / 2.0)
        self._previous = current
        return factor
