"""Helpers shared by the timing tools: interleaved best-of timing,
inclusive quartiles and right-aligned tables.

fold_floor.py and sampler_floor.py time with best() and print with
aligned(), op_shares.py prints with aligned(), and cold_start.py and
bench_pairs.py take their spreads with quartiles(); no other tool imports
it.  The tools import it by name, which resolves when a tool runs as a
script (its own directory leads sys.path) and under pytest, whose
pythonpath lists tools/.  Standard library only.
"""

from __future__ import annotations

import statistics
import time


def best(*fns, repeat: int) -> list[float]:
    """The best time of repeat runs of each fn, the fns run in turn, so
    that a change in the host's speed falls on all of them alike."""
    times = [[] for _ in fns]
    for _ in range(repeat):
        for fn, fn_times in zip(fns, times):
            start = time.perf_counter()
            fn()
            fn_times.append(time.perf_counter() - start)
    return [min(t) for t in times]


def quartiles(values: list[float]) -> tuple[float, float]:
    """(q1, q3) of values, inclusive; a single value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def aligned(rows: list[tuple[str, ...]]) -> str:
    """Rows of cells as lines, each column right-aligned to its widest cell
    and the columns two spaces apart."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in rows)
