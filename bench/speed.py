"""A fixed probe of interpreter speed.

This machine's speed swings by up to 40 % over a few seconds when other
programs share its cores.  Timings are scaled by the ratio of REFERENCE_S to
the probe's time measured next to them, which turns them into seconds at the
reference speed and cancels most of the swing.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# probe time at the reference speed (a 2-core x86-64 VM with Python 3.11,
# when no neighbour loads its cores); only the scale of the results uses it
REFERENCE_S = 0.0012


def probe() -> float:
    """Seconds taken by a fixed piece of exact-rational and dict work, the
    same kind of work the kernel does."""
    t0 = perf_counter()
    x, d = Fraction(1, 3), {}
    for i in range(150):
        x = (x * 7 + Fraction(1, i % 13 + 2)) % 5
        d[i % 17] = x.numerator % 11
    return perf_counter() - t0


def factors(probes: list) -> list:
    """Speed factor for the interval between probes i and i + 1: the
    reference time over the median of the six probes centred on it."""
    out = []
    for i in range(len(probes) - 1):
        window = probes[max(0, i - 2):i + 4]
        out.append(REFERENCE_S / statistics.median(window))
    return out
