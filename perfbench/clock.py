"""Wall times scaled to a reference machine speed.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x within minutes. Raw wall times of the same code then differ by 30%
between runs. So the benchmark times a fixed calibration kernel next to the
program's calls and scales each stretch of calls by ``reference / kernel
time``: the time the calls would take on a machine where the kernel takes
its reference time. The kernel times around a stretch set its scale, so the
scale follows the drift as it happens.

Each kernel is the benchmark's own work, not the program's, so a change to
the program moves the scaled times but not the scale. ``compute_kernel``
mixes elementwise numpy work on grid-sized arrays, a cumulative sum and an
interpreted loop, like the program's hot path; it scales the workloads'
calls. run.py scales set-up time by a kernel of its own, a fresh interpreter
importing the third-party modules the program imports. The references are
the kernels' times on a quiet 2-vCPU Xeon VM. Raw wall times are reported
beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

import numpy as np

COMPUTE_REFERENCE_S = 0.0036  # one pass of compute_kernel at reference speed
PASSES = 5
SMOOTHING = 3
_GRID = np.linspace(-8.0, 8.0, 2049)
_MEANS = np.linspace(-1.0, 1.0, 8)[:, None]


def _pass() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(12):
        z = (_GRID - _MEANS) * 0.75
        acc += float(np.cumsum(np.exp(-0.5 * z * z), axis=1)[:, -1].sum())
        for j in range(1500):
            acc += j * 0.5
    took = time.perf_counter() - t0
    if acc <= 0.0:  # keeps the work from being skipped
        raise AssertionError("calibration kernel went wrong")
    return took


def compute_kernel() -> float:
    """Wall seconds of one kernel pass: the median of PASSES passes."""
    return statistics.median(_pass() for _ in range(PASSES))


class Clock:
    """Scale factors for stretches of work, from a kernel timed between them."""

    def __init__(
        self,
        kernel: Callable[[], float] = compute_kernel,
        reference_s: float = COMPUTE_REFERENCE_S,
    ) -> None:
        self.kernel = kernel
        self.reference_s = reference_s
        self.samples = [kernel()]

    def mark(self) -> None:
        """End a stretch of work: time the kernel again."""
        self.samples.append(self.kernel())

    def factors(self) -> list[float]:
        """One scale factor per stretch: the reference time over the median of
        the SMOOTHING kernel times on either side of the stretch. One kernel
        time is a snapshot of a speed that also wobbles within a second; the
        median over a few stretches follows the drift without that wobble."""
        out = []
        for i in range(len(self.samples) - 1):
            near = self.samples[max(0, i + 1 - SMOOTHING) : i + 1 + SMOOTHING]
            out.append(self.reference_s / statistics.median(near))
        return out
