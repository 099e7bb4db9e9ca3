"""Calibration kernel: a fixed piece of work that measures the vCPU's speed.

The shared machine's vCPUs drift in speed by tens of percent over tens of
seconds, and the drift shows in CPU time as well as in wall time.  The
workload processes time this kernel on each vCPU they use, right before
and right after every command batch, and scale the batch's wall time by
``REFERENCE_S`` over the kernel's time.  The scaled time reads as the wall
time the batch would have taken at the speed the baselines were measured
at, and a drift that slows kernel and batch alike cancels out.

The kernel imports nothing from ``twohop_aloha``, so no change to the
package can change it.  It mixes what the workloads spend their time on:
interpreted Python loops (the CLI's Pareto filter), scalar calls into
scipy (the Poisson truncation) and bulk numpy over arrays of a few hundred
kilobytes (the simulators).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import stats

#: median kernel time on the machine the baselines were measured on: a
#: 2-vCPU shared host, Python 3.11.7, numpy 2.4.6, scipy 1.17.1
REFERENCE_S = 0.026
#: kernel repeats per calibration; the calibration is their median
REPEATS = 3


def kernel() -> float:
    """One pass of the fixed work; returns a checksum so nothing is skipped."""
    acc = 0.0
    # interpreted loop over tuples, as in a Pareto filter
    pts = [((i * 37) % 101 / 101.0, (i * 61) % 103 / 103.0) for i in range(360)]
    for p in pts:
        acc += sum(1 for q in pts if q[0] >= p[0] and q[1] >= p[1])
    # scalar scipy.stats calls, as in Poisson truncation
    for n in range(120):
        acc += stats.poisson.sf(n % 40, 12.5)
    # small-array numpy calls in a loop, as in the fading decoder
    gains = np.abs(np.random.default_rng(7).normal(size=(512, 3, 4)))
    for m in gains:
        p = m * m
        best = int(np.argmax(p.sum(axis=0)))
        acc += float(p[:, best].max() / (p.sum() - p[:, best].sum() + 1.0))
    # bulk numpy: draws, comparisons, reductions
    rng = np.random.default_rng(20240607)
    for _ in range(24):
        u = rng.random(40_000)
        acc += np.count_nonzero(u < 0.3) + float(np.sum(np.exp(-u)))
    return acc


def calibrate() -> float:
    """Median wall time of ``REPEATS`` kernel passes on the current vCPU."""
    kernel()  # warm caches after a command or a move to another vCPU
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
