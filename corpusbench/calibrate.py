"""Host-speed calibration.

A shared host's speed drifts.  On a 2-core 2.1 GHz Xeon virtual machine
shared with other tenants, one fixed verify call took anywhere from
11.8 to 20.6 ms over four minutes, in slow phases lasting tens of
seconds, which no run of a few seconds can average out.  The time of
this fixed piece of exact arithmetic, run between verify calls, tracks
that drift: over the same four minutes the ratio of the two times
stayed within 3.0 to 3.3 (10-second medians).  Every time the benchmark
reports is scaled by (REFERENCE_S / median reference time near the
measurement) ** ELASTICITY, so it reads as the time on the host at the
speed it had when REFERENCE_S was taken.  The code here is fixed, so
changes to hornsafe cannot move it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

# median of reference_seconds() on an unloaded 2.1 GHz Xeon core, Python 3.11
REFERENCE_S = 0.0037
# The reference slows more than hornsafe when the host does: between the
# fast and the slow state, hornsafe's times went as the reference's to
# the power 0.72 (refine-rahft passes), 0.79 (interpreter start-up) and
# about 0.9 (absint passes).  Scaling by the plain ratio overcorrected.
ELASTICITY = 0.8


def _eliminate() -> None:
    rng = random.Random(0)
    n = 10
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)] for _ in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]


def reference_seconds() -> float:
    """Wall time of one run of the fixed reference computation.  The
    cyclic collector is off meanwhile, so the heap that hornsafe left
    behind cannot change what the reference costs."""
    gc.disable()
    try:
        start = time.perf_counter()
        _eliminate()
        return time.perf_counter() - start
    finally:
        gc.enable()


def scale(samples: list[float]) -> float:
    """The factor that maps times measured alongside these reference
    samples onto the reference host speed."""
    return (REFERENCE_S / statistics.median(samples)) ** ELASTICITY
