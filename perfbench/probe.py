"""Machine-speed probe used to scale measured times to a nominal speed.

The 2-core VM this benchmark was built on runs the same code up to 1.5x
slower for stretches of 5-15 s while its host is busy; its CPU time slows as
well, so a CPU clock does not exclude it.  ``speed_probe`` times a fixed mix of
interpreter and small-array NumPy work, the kind an op does, and slows with
the machine.  A time ``t`` measured next to a probe ``p`` is reported as
``t * PROBE_NOMINAL_S / p``.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# speed_probe's seconds on the reference machine (2-core Xeon VM, Python
# 3.11.7, NumPy 2.4.6) while its host was quiet
PROBE_NOMINAL_S = 0.6e-3

_X = np.linspace(0.0, 1.0, 1000)


def speed_probe(repeats: int = 3) -> float:
    """Seconds for the fixed probe work; the fastest of a few repeats."""
    best = math.inf
    for _ in range(repeats):
        t0 = perf_counter()
        acc = 0.0
        for i in range(1500):
            acc += math.sqrt(i + acc % 7.0)
        y = _X
        for _ in range(30):
            y = np.cumsum(np.sin(y)) / 1000.0 + acc * 1e-12
        best = min(best, perf_counter() - t0)
    return best


def scale(seconds: float, probe_s: float) -> float:
    """``seconds`` at the nominal machine speed."""
    return seconds * PROBE_NOMINAL_S / probe_s
