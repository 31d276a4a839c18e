"""Reference kernels that gauge how fast the host runs at the moment.

On a shared host the core the benchmark runs on slows down by up to 2x, for
seconds to minutes at a time, when another tenant keeps its sibling busy; an
interpreter loop, numpy sampling and ``ecoc``'s own commands all slow by
about the same factor (1.8x to 2.2x on a 2-vCPU x86 VM).  The kernels here
are the benchmark's own code, so no change to ``ecoc`` can move them, and
their best times over a run say how fast the host was during it.

The worker calls ``gauge()`` before the first operation and after every
one; it compares the kernels' times with their nominal times and says how
many times slower than nominal the host runs: 1.0 on a host as fast as the
one the nominal times were taken on, about 2.0 while the sibling is busy.
``op_factors`` gives each operation the mean factor of the gauges around
it, and the end-to-end latencies are divided by it.  The slowdown comes and
goes within seconds, so a gauge a few seconds away from a long operation
is still an estimate of its own slowdown, not a measurement of it.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

_FLOATS = np.random.default_rng(0).random(600)


def _interpreter() -> float:
    """Format and parse floats: bytecode and string work, like the CLI's."""
    text = ",".join(repr(float(x)) for x in _FLOATS)
    return sum(float(t) for t in text.split(","))


def _sampling() -> int:
    """Philox draws thresholded into an int32 block, like the simulator's."""
    rng = np.random.Generator(np.random.Philox(key=7))
    return int((rng.random((512, 127)) < 0.1).astype(np.int32).sum())


def _small_arrays() -> float:
    """A Python loop over small numpy updates, like the exact kernels'."""
    a = np.zeros(128)
    a[0] = 1.0
    for _ in range(240):
        a[1:] = 0.9 * a[1:] + 0.1 * a[:-1]
        a[0] *= 0.9
    return float(a.sum())


KERNELS = {"interpreter": _interpreter, "sampling": _sampling, "small_arrays": _small_arrays}

# Best time of each kernel, in seconds, on a 2-vCPU x86 VM while its
# sibling cores were idle.
NOMINAL_S = {"interpreter": 0.66e-3, "sampling": 0.47e-3, "small_arrays": 0.65e-3}
# A gauge is taken between operations; an operation is normalised by the
# mean of the gauges taken within this many seconds of it.
WINDOW_S = 2.0


def gauge() -> tuple[float, float]:
    """(time, factor): how many times slower than nominal the kernels run
    now.  Each kernel runs three times back to back and counts its faster
    timed call, the first call having warmed the caches the previous
    operation left cold; the factor is the geometric mean over kernels."""
    logs = []
    for name, kernel in KERNELS.items():
        kernel()
        best = math.inf
        for _ in range(2):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        logs.append(math.log(best / NOMINAL_S[name]))
    return time.perf_counter(), math.exp(sum(logs) / len(logs))


def op_factors(records: list[dict], gauges: list[tuple[float, float]]) -> list[float]:
    """Each operation's factor: the mean of the gauges taken from WINDOW_S
    before it started to WINDOW_S after it ended.  The host switches
    between fast and slow within seconds, so an operation runs at the
    average slowdown around it, which the mean estimates and a median,
    which snaps to one of the two, does not.  There is always a gauge in
    the window, since one is taken right before and right after each
    operation."""
    times = [t for t, _ in gauges]
    out = []
    for r in records:
        lo = bisect.bisect_left(times, r["start"] - WINDOW_S)
        hi = bisect.bisect_right(times, r["end"] + WINDOW_S)
        out.append(statistics.fmean(f for _, f in gauges[lo:hi]))
    return out
