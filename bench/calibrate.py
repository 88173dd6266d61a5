"""A fixed amount of pure-Python work whose run time gauges machine speed.

The benchmark runs :func:`measure` between its invocations, at a fixed
share of the run's time.  The machine it was sized on is shared: bursts from
other tenants make one 25 ms piece of work vary by a factor of two, and the
speed over whole minutes drifts by a third.  This work shares no code with
abelianaut; :func:`speed` turns its median time in a run into the factor
that the run's workload times are scaled by.  The work mixes what the
workloads do: small-int arithmetic, ``Fraction`` reduction, tuple sorting
and dict stores.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Median of measure() on the machine the bounds were set on (2 vCPUs of a
# shared Xeon, Python 3.11).  Only a scale: it makes the scaled times read
# as seconds on that machine.
NOMINAL_S = 0.2

# Interference slows this work more than it slows the workloads.  Over 50
# runs of the three workloads on that machine, log(workload time) rose 0.5 to
# 0.8 times as fast as log(median calibration time) (0.97 correlation on
# atlas), and this exponent left the smallest spread across runs.
SENSITIVITY = 0.65


def work(n: int = 125_000) -> int:
    seen = {}
    for k in range(1, n):
        key = tuple(sorted((k % 7 + 1, k % 3 + 1, k % 5 + 1)))
        r = Fraction(k * k + 1, k % 97 + 2)
        seen[key, r.denominator] = r
    return len(seen)


def measure() -> float:
    """Seconds that :func:`work` takes now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def speed(samples: list[float]) -> float:
    """Factor that scales a run's times to the nominal machine."""
    return (NOMINAL_S / statistics.median(samples)) ** SENSITIVITY
