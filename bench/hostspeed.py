"""Host speed reference for the end-to-end timings.

The benchmark was defined on a shared 2-vCPU KVM guest (Intel Xeon, family
6 model 207) whose speed drifts by up to 40% over minutes. The drift is the
same for every workload, so raw medians of runs made minutes apart spread
far more than any change worth detecting. ``HostSpeed`` times a fixed kernel
between the operations of a run; its median time in the run says how fast
the host ran this process. End-to-end times are scaled to the speed at
which that median equals ``REFERENCE_MS``; set-up times use samples taken
just before each set-up, loop times samples taken after each operation,
because the host can change speed between the two. The kernel mixes the same kinds
of work as the workloads (a small GEMM, elementwise math on a 400 KB array
and a Python loop) and calls no utsf code, so no change to the program can
move it. Raw times are kept next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_MS = 2.0   # the kernel's median on the defining host in a quiet period
ROUNDS = 12


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((48, 64)).astype(np.float32)
        self.b = rng.standard_normal((64, 256)).astype(np.float32)
        self.v = rng.standard_normal(100_000).astype(np.float32)
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            h = np.tanh(self.a @ self.b)
            self.v * 0.5 + 1.0
            sum(float(x) for x in h.sum(axis=-1)[:16])
        self.samples.append(time.perf_counter() - t0)

    def kernel_ms(self) -> float:
        return 1000.0 * statistics.median(self.samples)

    def scale(self) -> float:
        """Multiply a measured time by this to get it at the reference speed."""
        return REFERENCE_MS / self.kernel_ms()
