"""Fixed reference work that scales the benchmark's timings.

The host's speed drifts by tens of percent over a minute, which moves every
timing of a run together.  After each operation the benchmark times one pass
of ``reference_work``, a fixed mix of Python integer work, ``Fraction``
arithmetic and NumPy ``exp`` over a 200 x 200 array that uses nothing from
octorail, and reports its timings scaled by ``REFERENCE_S`` over the median
of those passes.  It runs in the benchmark's own process, right after each
operation, so that it sees the same speed as the work it scales.
"""

import time
from fractions import Fraction

import numpy as np

#: Median time of one pass on the host where the figures in README.md were
#: taken: scaled timings are seconds on a host this fast.
REFERENCE_S = 0.022

_ARRAY = np.linspace(-3, 3, 200 * 200).reshape(200, 200)


def reference_work():
    acc, table = 0, {}
    for i in range(60000):
        acc += (i * 7) % 13
        table[i & 255] = acc
    total = Fraction(0)
    for i in range(1, 2500):
        total += Fraction(i % 7, i % 11 + 1)
    for k in range(30):
        np.exp(-(_ARRAY - k * 0.01) ** 2).sum()


def reference_seconds():
    """Seconds of one pass of the reference work."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start
