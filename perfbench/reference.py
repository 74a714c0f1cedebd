"""Fixed reference work, timed next to every op to gauge the machine's speed.

On a shared host one vCPU's speed drifts by tens of percent from one stretch
of seconds or minutes to the next, as other tenants' load on the same cores
comes and goes.  The drift slows the program and any other code alike, so
the runner times a fixed slice of this module's own work after each op and
scales each op's time by ``NOMINAL_S[kind]`` over the median slice time of
the ops around it.  A scaled time reads as the op's time on the machine the
benchmark was defined on, in a stretch where one slice took exactly the
nominal time.

The reference is benchmark code that calls nothing in walkwait, so a change
to the program moves the scaled times as much as it moves the raw ones.
There are two kinds, matched to what dominates each workload's ops:
``scalar`` is interpreted float arithmetic with small method calls, like
the optimizer's rate scan and the adaptive quadrature; ``vector`` is numpy
sampling and elementwise arithmetic on MC-chunk-sized arrays.  Set-up is
gauged alike, by ``import`` work: each set-up probe is paired with a fresh
interpreter that imports numpy alone (``probe_setup.py reference``), and
the set-up time is scaled by ``NOMINAL_S["import"]`` over that pair's time.
"""

from __future__ import annotations

import bisect
import math
import statistics

KIND = {"decide": "scalar", "curves": "scalar", "verify": "vector"}
# Typical time of one slice, and of the numpy import, on a quiet 2-vCPU
# Intel Xeon with Python 3.11.7 and numpy 2.4.6, the machine the benchmark
# was defined on.
NOMINAL_S = {"scalar": 2.0e-3, "vector": 1.0e-3, "import": 0.075}
SCAN_POINTS = 1700  # per scalar slice
VECTOR_SIZE = 1 << 16  # the MC simulator's chunk size


class _Piecewise:
    """A normalised piecewise-linear density with a jump, in plain Python."""

    TS = (0.0, 1.0, 2.5, 4.0, 4.0, 7.0, 9.0, 12.0)
    YS = (0.2, 0.5, 0.1, 0.3, 0.05, 0.4, 0.2, 0.1)

    def __init__(self):
        cum = [0.0]
        for i in range(1, len(self.TS)):
            cum.append(cum[-1] + 0.5 * (self.YS[i - 1] + self.YS[i]) * (self.TS[i] - self.TS[i - 1]))
        self.cum, self.total = cum, cum[-1]

    def density(self, t: float) -> float:
        i = bisect.bisect_right(self.TS, t) - 1
        if i < 0 or i >= len(self.TS) - 1:
            return 0.0
        a, b = self.TS[i], self.TS[i + 1]
        u = (t - a) / (b - a)
        return (self.YS[i] + u * (self.YS[i + 1] - self.YS[i])) / self.total

    def cdf(self, t: float) -> float:
        i = bisect.bisect_right(self.TS, t) - 1
        if i < 0:
            return 0.0
        if i >= len(self.TS) - 1:
            return 1.0
        a, b = self.TS[i], self.TS[i + 1]
        y = self.YS[i] + (t - a) / (b - a) * (self.YS[i + 1] - self.YS[i])
        return (self.cum[i] + 0.5 * (self.YS[i] + y) * (t - a)) / self.total


def scalar_slice() -> float:
    """Scan the hazard rate of a piecewise density, point by point."""
    model = _Piecewise()
    acc = 0.0
    for k in range(1, SCAN_POINTS):
        t = 12.0 * k / SCAN_POINTS
        survival = 1.0 - model.cdf(t)
        if survival > 1e-15:
            acc += model.density(t) / survival - 0.1
        acc += math.exp(-t) * 1e-3
    return acc


def vector_slice_factory():
    """A vector slice with its own generator; numpy is imported here, not
    at module import, so the set-up probe can load this module before its
    clock starts."""
    import numpy as np

    rng = np.random.default_rng(0)

    def vector_slice() -> float:
        u = rng.random(VECTOR_SIZE)
        x = -np.log1p(-u) * 3.0
        return float(np.where(x < 2.0, x + 1.0, 0.5 * x).sum())

    return vector_slice


def work(workload: str):
    """The slice function and its nominal seconds for `workload`."""
    kind = KIND[workload]
    fn = scalar_slice if kind == "scalar" else vector_slice_factory()
    return fn, NOMINAL_S[kind]


def scale_factors(slice_s: list[float], nominal_s: float, half_window: int) -> list[float]:
    """Per op, nominal_s over the median slice time of the ops within
    `half_window` of it in the same pass."""
    return [nominal_s / statistics.median(slice_s[max(0, i - half_window):i + half_window + 1])
            for i in range(len(slice_s))]
