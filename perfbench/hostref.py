"""A fixed reference workload that measures how fast the host is right now.

On a shared host the same operation's time moves by 30-40% over minutes,
while the program stays the same.  The loop times this reference between
operations, in the same process, and an operation's host-adjusted time is
its wall time scaled by `NOMINAL_S / (reference time around it)`: the time
it would take on a host where the reference takes `NOMINAL_S`.  A change to
the program moves the operation's time and leaves the reference alone, so
it shows in full; a slow phase of the host moves both and divides out.

The reference mixes the two kinds of work the program does: interpreted
Python loops and numpy calls on arrays of a few dozen elements.  It never
imports the package.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# the reference's median time on the host the figures in README.md come
# from (a 2-vCPU Xeon VM at 2.1 GHz); a fixed scale, not a measurement
NOMINAL_S = 0.005

_START = np.linspace(0.05, 1.0, 48)


def reference() -> float:
    """Wall time of one fixed chunk of Python and small-array numpy work."""
    t0 = perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    v = _START.copy()
    for _ in range(300):
        g = np.exp(-v) - v
        v = np.maximum(v + 0.01 * g, 0.0)
        v /= v.sum()
    return perf_counter() - t0
