"""Reference kernel that scales measured times to a nominal machine speed.

On a small shared machine the speed one process gets drifts by 20-30% over
minutes, because other tenants share its cores and caches. The benchmark
therefore times a fixed numpy kernel right before and right after each
timed block, and scales the block's time by ``NOMINAL_S`` over the mean
kernel time. A program change moves the block's time and not the kernel's,
so it shows in full; a change in machine speed moves both and cancels.
Over ten 10-second runs on a 2-vCPU Xeon, the spread of throughput
(quartile distance over median) fell from 9.7% raw to 3.7% scaled for
default training and from 18% to 11% for the grad-check grid.

The kernel mixes the three kinds of work the workloads do: a BLAS matmul,
the exp and row reduction of a softmax over a 512x512 array, and many small
matmul + tanh calls whose cost is mostly interpreter overhead.
"""

from __future__ import annotations

import time

import numpy as np

# typical kernel time on the 2-vCPU Xeon the benchmark was tuned on, so
# scaled numbers stay close to raw ones there
NOMINAL_S = 0.005


class ReferenceKernel:
    """The fixed kernel and the timing wrapper built on it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((256, 256))
        self._z = rng.standard_normal((512, 512))
        self._small = [rng.standard_normal((64, 32)) for _ in range(50)]
        self.samples: list[float] = []
        # the first runs pay for allocation and cold caches
        for _ in range(3):
            self.seconds()
        self.samples.clear()

    def _once(self) -> float:
        t0 = time.perf_counter()
        self._a @ self._a
        np.exp(self._z - self._z.max(axis=1, keepdims=True)).sum(axis=1)
        for m in self._small:
            np.tanh(m @ m.T)
        return time.perf_counter() - t0

    def seconds(self) -> float:
        """Median wall time of three back-to-back runs of the kernel."""
        elapsed = sorted(self._once() for _ in range(3))[1]
        self.samples.append(elapsed)
        return elapsed

    def timed(self, fn, *args):
        """``(result, raw seconds, seconds scaled to NOMINAL_S)`` of ``fn(*args)``."""
        before = self.seconds()
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        ref = 0.5 * (before + self.seconds())
        return result, raw, raw * NOMINAL_S / ref
