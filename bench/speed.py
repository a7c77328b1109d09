"""Machine-speed probe that corrects timings for contention on a shared host.

On a shared virtual machine the speed of a core can drift by a third over
minutes, which swamps the differences the benchmark is meant to resolve.
Each timed sample is therefore bracketed by two probes, a fixed pure-Python
loop, and scaled by ``REFERENCE_S`` over their mean: a corrected time reads
in seconds at the speed where one probe takes ``REFERENCE_S``.  A slower
program still reads slower, because the probe does not run its code.
"""

import statistics
import time

# About one probe's time on an uncontended core of a 2-core Xeon VM (Python 3.11).
REFERENCE_S = 0.006


def probe() -> float:
    """Median seconds of five runs of a fixed integer loop."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def corrected(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two probes, at the reference speed."""
    return seconds * 2.0 * REFERENCE_S / (before + after)
