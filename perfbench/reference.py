"""A fixed computation, independent of the lab, that gauges the host's speed.

The benchmark's host runs the same code up to ~1.7x slower for minutes
at a time, pure-Python and numpy code alike, and even for timed units
of a millisecond (see NOTES.md), so no statistic of raw seconds repeats
from run to run. Every pass and every set-up probe is therefore timed
next to this computation, and its times are reported in *reference
seconds*: measured seconds x REFERENCE_S / the reference's seconds
measured beside them. On a quiet host a reference second is about a
second; a change to the lab moves reference seconds as it moves
seconds, since the computation does not touch the lab.
"""

from __future__ import annotations

import time

import numpy as np

# about the fastest time of one ``_compute`` on the baseline host (Intel
# Xeon, 2.0 GHz, 2 vCPUs, numpy 2.4.6, Python 3.11); only a scale, it must
# not change
REFERENCE_S = 0.015
REPEATS = 3

_rng = np.random.default_rng(0)
_POINTS = _rng.standard_normal(8192)
_NODES = np.linspace(-5.0, 5.0, 512)
_VALUES = np.sin(_NODES)
_WALK = _rng.standard_normal(1 << 18)


def _compute() -> tuple[float, int, int]:
    """Small-array numpy, a longer numpy scan, an integer loop, formatting:
    the kinds of work the workloads are made of."""
    total = 0.0
    for _ in range(20):
        looked_up = np.interp(_POINTS, _NODES, _VALUES)
        total += float(np.sum(looked_up * looked_up))
    total += float(np.cumsum(_WALK)[-1])
    squares = 0
    for i in range(60000):
        squares += i * i
    text = ",".join("%.6g" % (0.5 * v) for v in range(3000))
    return total, squares, len(text)


def reference_seconds() -> float:
    """Fastest of ``REPEATS`` timed runs of the reference computation."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        _compute()
        best = min(best, time.perf_counter() - started)
    return best
