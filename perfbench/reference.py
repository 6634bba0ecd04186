"""Fixed reference work that measures the speed of the machine.

The speed of a shared machine drifts by tens of percent within minutes, and
CPU time drifts with wall time, so a time taken at one moment cannot be
compared with one taken an hour later.  A kernel uses no starwedge code and
so cannot change with the program; timing it next to a measurement and
dividing by it takes the drift out.

Interpreted work, numpy work on large arrays and imports do not slow down
by the same share when the machine does, so each measurement is divided by
work of its own kind:

- the ``python`` kernel (Fraction arithmetic, dicts, small sorts) for the
  passes of the algebra and verify workloads;
- the ``numpy`` kernel (complex exponentials over a 16 MB array, the shape
  of the quadrature's panels) for the passes of the spectrum workload;
- importing ``IMPORTS``, the program's third-party dependencies, in a fresh
  interpreter, for the set-up time.  When the program stops importing one
  of them at start-up, its set-up time falls and the reference does not.
"""

from __future__ import annotations

import time
from fractions import Fraction

IMPORTS = ("numpy", "click")
# Set-up time is reported in seconds on a machine where a fresh interpreter
# imports IMPORTS in this time (its median on a 2.1 GHz Xeon vCPU with
# Python 3.11 and numpy 2.4).
NOMINAL_IMPORT_S = 0.135


def kernel() -> int:
    """Fixed work: Fraction arithmetic, dict updates and small sorts (about 20 ms)."""
    acc = 0
    table: dict[tuple[int, int], int] = {}
    for i in range(4000):
        q = Fraction(i % 97 + 1, i % 89 + 1) + Fraction(1, 3)
        key = (i % 251, i % 7)
        table[key] = table.get(key, 0) + q.numerator
        acc += len(sorted((i % 5, i % 3, i % 11)))
    return acc + len(table)


def numpy_kernel() -> complex:
    """Fixed work: complex exponentials over 2**20 points (about 45 ms, 48 MB at its peak)."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 1 << 20) * (0.3 - 2.0j)
    return complex(np.exp(x).sum())


KERNELS = {"python": kernel, "numpy": numpy_kernel}


def mean_seconds(name: str, min_runs: int, min_seconds: float) -> float:
    """Mean wall time of a kernel, run at least ``min_runs`` times and ``min_seconds`` long."""
    fn = KERNELS[name]
    runs = 0
    t0 = time.perf_counter()
    while runs < min_runs or time.perf_counter() - t0 < min_seconds:
        fn()
        runs += 1
    return (time.perf_counter() - t0) / runs
