"""Host-speed calibration: every reported time is scaled to one reference speed.

The small shared machines this benchmark runs on change speed by up to 1.7x
for tens of seconds at a time, with CPU time equal to wall time and no
steal, so the drift is the machine's, not the scheduler's.  Medians within a
run cannot remove a slow phase that lasts the whole run.  So a fixed loop of
plain Python (``reference_loop``: dicts keyed by exponent tuples, int and
Fraction arithmetic, a sort; the kinds of work the package does, but none of
its code) is timed in short slices between queries.  A time's speed factor
is the median time of the ``NEAREST`` slices on either side of it over
``NOMINAL_SLICE_S``, and the reported time is the measured one divided by
that factor: what it would have taken at the reference speed.  The loop never calls weightcalc,
so a change to the package moves scaled times as it moves measured ones;
measured times and factors stay in the result file.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

#: Slice time at the reference speed: the median slice on a 2-core virtual
#: machine (x86-64, Python 3.11.7).  Any constant would do; this one keeps
#: scaled times close to the times measured there.
NOMINAL_SLICE_S = 0.0022
#: A loop samples the speed when this long has passed since its last slice.
CADENCE_S = 0.1
#: A timed interval's factor comes from this many slices on either side of it.
NEAREST = 4


def reference_loop() -> int:
    """Fixed work that no change to the package can make faster or slower."""
    terms: dict[tuple, int] = {}
    for i in range(2800):
        key = (i % 7, i % 5, (i * 3) % 11)
        terms[key] = terms.get(key, 0) + i * i - 3 * i
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 5)
    ordered = sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    return len(ordered) + acc.denominator % 7


def slice_s() -> float:
    """Seconds one run of the reference loop takes, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Speed samples of this process, and the factor of any interval."""

    def __init__(self) -> None:
        slice_s()  # the first slice pays for warming up; it is not kept
        self.times: list[float] = []
        self.factors: list[float] = []
        self.last = float("-inf")

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            factor = slice_s() / NOMINAL_SLICE_S
            self.times.append(time.perf_counter())
            self.factors.append(factor)
        self.last = time.perf_counter()

    def tick(self) -> None:
        """Sample once if ``CADENCE_S`` has passed since the last slice."""
        if time.perf_counter() - self.last >= CADENCE_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Median factor of the ``NEAREST`` slices before ``start`` and after ``end``."""
        lo = bisect.bisect_right(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        near = self.factors[max(0, lo - NEAREST):lo] + self.factors[hi:hi + NEAREST]
        return statistics.median(near or self.factors)

    def summary(self) -> dict:
        return {"slices": len(self.factors), "nominal_slice_s": NOMINAL_SLICE_S,
                "factor_median": statistics.median(self.factors),
                "factor_min": min(self.factors), "factor_max": max(self.factors)}
