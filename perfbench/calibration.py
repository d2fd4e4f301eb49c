"""Machine-speed calibration: a fixed kernel timed between requests.

On a shared machine the speed a process gets drifts by tens of percent
over seconds and minutes, and request times drift with it.  The kernel
below does not touch hyperquad: a pure-Python integer loop and short
numpy convolutions, the two kinds of work the library's hot paths do.
run.py divides each request time by the kernel time measured around it
and multiplies by REFERENCE_S, giving times at a fixed reference speed.

Import this module only after the timed set-up, since it imports numpy.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# kernel time at the reference speed: a typical time on the 2-vCPU
# Intel Xeon virtual machine that defined the benchmark
REFERENCE_S = 0.0004


def _kernel() -> int:
    s = 0
    for i in range(4000):
        s = (s * 31 + i) % 1000003
    a = np.arange(64, dtype=np.int64)
    for _ in range(30):
        a = np.convolve(a, a[:8])[:64] % 7
    return s + int(a[0])


def measure(repeats: int = 3) -> float:
    """Median time of `repeats` runs of the kernel, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(times: list[float], gaps: list[float], window: int = 3) -> list[float]:
    """Times at the reference speed.

    gaps[i] is the kernel time measured just before times[i] and gaps[i+1]
    the one just after, so len(gaps) == len(times) + 1.  Each time is
    scaled by the median kernel time over `window` gaps on either side,
    which smooths the noise of single kernel timings.
    """
    if len(gaps) != len(times) + 1:
        raise ValueError("need one calibration before and after every request")
    out = []
    for i, t in enumerate(times):
        local = statistics.median(gaps[max(0, i + 1 - window): i + 1 + window])
        out.append(t * REFERENCE_S / local)
    return out
