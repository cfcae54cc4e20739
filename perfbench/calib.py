"""Timing: drift correction around blocks of ops, and the percentile rule.

The host's speed drifts between and within processes (identical
``optimize_caps`` work has taken 1.6 s and 2.7 s in two processes), and
CPU seconds drift together with wall seconds, so neither repeats within
a tenth.  The kernel below does the kinds of work the program does -
interpreter-bound scalar steps, small-array numpy calls and 2001-element
array arithmetic - and lives in the benchmark, so a change to the
program never changes it.  An op's time is scaled by
``NOMINAL_S / (kernel time around its block)``, which reports it in
"kernel-nominal" seconds: what it would have taken on a host running
the kernel in ``NOMINAL_S``.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Median kernel time on the reference host (2 CPUs, Python 3.11, numpy 2.4).
NOMINAL_S = 0.57e-3
SLICE_S = 0.02
MIN_OPS = 100          # so that at least ten ops lie beyond the 90th percentile

_T = np.linspace(0.0, 1.0, 2001)


def kernel() -> float:
    acc, x = 0.0, 0.3
    for i in range(250):                      # interpreter-bound scalar work
        x = 3.7 * x * (1.0 - x)
        acc += math.sqrt(x + i) / (1.0 + x)
    y = np.array([1.0, 0.0])
    for _ in range(30):                       # small-array calls, as in an RK4 step
        k = np.asarray(np.array([y[1], 1.0 / y[0] ** 3 - 0.25 * y[0]]), dtype=float)
        y = y + 0.01 * k
    for j in range(6):                        # 2001-element arithmetic and Simpson sums
        b = 1.0 + (j + 1.0) * _T**3 * (10.0 - 15.0 * _T + 6.0 * _T * _T)
        w = 1.0 / b**4 - _T / b
        acc += 4.0 * float(w[1:-1:2].sum()) + 2.0 * float(w[2:-1:2].sum())
    return acc + float(y[0])


def slice_time(min_reps: int = 5) -> float:
    """Median kernel time over one calibration slice of about SLICE_S."""
    times = []
    stop = time.perf_counter() + SLICE_S
    while len(times) < min_reps or time.perf_counter() < stop:
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: ceil(q n) of the n values are <= it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Blocks:
    """Groups op timings into blocks bracketed by calibration slices.

    ``on_close(factor)`` is called as each block closes, before the next
    op starts, so a tracer can give the block's spans its factor.
    """

    def __init__(self, block_s: float = 0.25, on_close=None):
        self.block_s = block_s
        self.on_close = on_close
        self.factors: list[float] = []
        self.corrected: list[float] = []
        self.raw: list[float] = []
        self._pending: list[float] = []
        self._before = slice_time()
        self._started = time.perf_counter()

    def add(self, seconds: float) -> None:
        """Record one op's raw time; close the block once it is long enough."""
        self._pending.append(seconds)
        if time.perf_counter() - self._started >= self.block_s:
            self.close()

    def close(self) -> float | None:
        """Calibrate after the open block and scale its ops; returns its factor."""
        if not self._pending:
            return None
        after = slice_time()
        factor = NOMINAL_S / (0.5 * (self._before + after))
        self.factors.append(factor)
        self.raw.extend(self._pending)
        self.corrected.extend(t * factor for t in self._pending)
        self._pending = []
        self._before = after
        if self.on_close is not None:
            self.on_close(factor)
        self._started = time.perf_counter()
        return factor
