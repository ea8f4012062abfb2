"""Host-speed calibration for the benchmark's timings.

On a shared 2-vCPU host, whole runs of identical code slow by up to 2x
for minutes at a time, and CPU time slows with wall time, so neither
longer runs nor another clock makes the figures steady.  A run therefore
times a fixed pure-Python kernel between ops and scales the op times it
reports by ``REFERENCE_MS / mean(kernel ms)``: times read as on a host
whose kernel takes :data:`REFERENCE_MS`.  The mean, not the median, of
the kernel samples sets the factor: slowdowns come in bursts, and ops
pay for a burst in proportion to its length, as the mean does.  The
kernel is this file's own code, so no change to the program under test
can move it; the unscaled figures and the factor are printed alongside.
"""

from __future__ import annotations

import time

#: Kernel time on the 2-vCPU host the bounds were set on, under its
#: usual load (the scale reported times read in).
REFERENCE_MS = 2.0

#: Minimum op time between two kernel samples, bounding their cost to a
#: few percent of a run.
SAMPLE_EVERY_S = 0.05


def _kernel() -> int:
    table = {}
    total = 0
    for i in range(15000):
        total += (i * i) % 7
        table[i & 255] = total
    return total


class HostSpeed:
    """Kernel samples taken through a run."""

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        self.spent_s = 0.0
        self._last = time.perf_counter()

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            started = time.perf_counter()
            _kernel()
            elapsed = time.perf_counter() - started
            self.samples_ms.append(1e3 * elapsed)
            self.spent_s += elapsed
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Sample once if :data:`SAMPLE_EVERY_S` passed since the last."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Multiply a measured time by this to report it."""
        return REFERENCE_MS * len(self.samples_ms) / sum(self.samples_ms)
