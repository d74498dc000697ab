"""How fast the machine runs right now, from a fixed reference computation.

On the shared two-vCPU machine this benchmark was built on, the same round
of work took anywhere from 8.3 to 16.2 s over minutes, as the load of other
tenants came and went; within one run the speed still moved by 10-15% over
a few seconds. Timed chunks of a fixed kernel run between the jobs of each
round. The kernel does the same kind of work as the program (short numpy
calls on arrays of 19-257 elements, driven from Python) and shares no code
with it, so a change to the program cannot move it. Over a 110 s record,
means of 25 workload chunks moved between 0.13 and 0.23 s while their
ratio to the interleaved reference chunks stayed within 11.4-12.9.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's time at the reference speed: its median over a 60 s record on
# the machine the figures in README.md were measured on
NOMINAL_S = 0.0093


class SpeedProbe:
    """Runs reference chunks and keeps their total time and count."""

    def __init__(self, enabled: bool = True):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal(193)
        self._b = rng.standard_normal(257)
        self._m = rng.standard_normal((6, 96))
        self._v = rng.standard_normal(96)
        self.enabled = enabled
        self.elapsed = 0.0
        self.count = 0

    def chunk(self) -> None:
        if not self.enabled:
            return
        a, b, m, v = self._a, self._b, self._m, self._v
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(450):
            x = a[:-2] - 2.0 * a[1:-1] + a[2:]
            y = np.convolve(a[:19], b[:19])[:19]
            z = m @ (v * v)
            w = np.expm1(2.0 * np.log1p(0.1 * v))
            u = np.where(b > 0.0, b, -b)
            acc += float(np.max(np.abs(u))) + x[3] + y[2] + z[1] + w[0]
        self.elapsed += time.perf_counter() - t0
        self.count += 1

    def mark(self) -> tuple[float, int]:
        return self.elapsed, self.count

    def factor_since(self, mark: tuple[float, int]) -> float:
        """Nominal over measured time of the chunks run since `mark` (1 if none)."""
        if self.count == mark[1]:
            return 1.0
        return NOMINAL_S * (self.count - mark[1]) / (self.elapsed - mark[0])
