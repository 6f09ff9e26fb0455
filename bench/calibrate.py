"""Machine-speed calibration kernels.

Shared 2-vCPU hosts run the same code up to twice as slowly for spells of
seconds to minutes.  Spells that long shift a 30-second run's medians as a
whole, which no amount of work per run averages out.  The benchmark therefore
runs a short fixed kernel between jobs and scales each job's wall time by
``nominal / kernel time`` (mean of the kernels just before and after it),
the job time at the speed where the kernel takes its nominal time.

Each workload uses the kernel closest to its dominant layer, because the
slow spells slow interpreted rational arithmetic (about 1.9x) more than
large numpy array kernels (about 1.4x).
The kernels use only the standard library and numpy, never polyaspec, so a
change to the program cannot move them.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

__all__ = ["KERNELS", "kernel_seconds"]


def fraction_kernel() -> int:
    """Rational power-and-compare loop, like the exact Polya sweep."""
    hits = 0
    for k in range(1, 1200):
        lam = Fraction(k * k + 3, 7)
        hits += lam ** 3 * 4 >= 1296 * k * k
    return hits


_VALUES = np.linspace(1.0, 4000.0, 8000)
_MULTS = np.ones(8000, np.int64)


def counting_kernel() -> int:
    """Per-point searchsorted and prefix sums, like count_right scans."""
    total = 0
    for lam in np.linspace(1.0, 4000.0, 1300):
        total += int(_MULTS[:np.searchsorted(_VALUES, lam, side="right")].sum())
    return total


_RIESZ_VALUES = np.linspace(0.0, 1000.0, 6000)
_RIESZ_MULTS = np.ones(6000)


def matmul_kernel() -> float:
    """Half a chunk of gaps**gamma @ multiplicities, like riesz_mean_many:
    arrays of the same size, so memory traffic slows it the same way."""
    lams = np.linspace(100.0, 1000.0, 256)
    gaps = np.maximum(lams[:, None] - _RIESZ_VALUES[None, :], 0.0)
    return float(((gaps ** 1.5) @ _RIESZ_MULTS).sum())


KERNELS = {"fraction": fraction_kernel, "counting": counting_kernel, "matmul": matmul_kernel}


def kernel_seconds(name: str) -> float:
    kernel = KERNELS[name]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
