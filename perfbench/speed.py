"""Host speed reference: times are reported at a fixed reference speed.

The shared host this benchmark was built on switches between two speeds
about 2x apart, each held for roughly 5-20 s (measured: the same campaign
call took 76-158 ms within one 100 s series, with no CPU steal reported).
No run length averages that out.  So the timed loop runs a fixed
reference unit, which uses no svineq code, between operations at most
every ``EVERY_S`` seconds, and each measured time is multiplied by
``NOMINAL_S / r``, where ``r`` is the median time of the two reference
units on each side of the measurement.  A reported
time is the time the operation would take on a host running the
reference unit in ``NOMINAL_S``; raw times are printed alongside.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time

import numpy as np

# The reference unit's median time on the 2-vCPU host that set the
# bounds, in its faster state.
NOMINAL_S = 1.0e-3
EVERY_S = 0.03

# Bound before any tracer patches numpy.linalg, so reference units never
# show up as LAPACK spans.
_eigvalsh = np.linalg.eigvalsh
_idx = np.arange(64).reshape(8, 8)
_A = (_idx % 7 - 3.0) + 1j * (_idx.T % 5 - 2.0)
_B = np.kron(_A, np.eye(4)) / 8.0  # 32 x 32


def reference_unit() -> float:
    """About 1 ms of the mix svineq runs: small LAPACK calls, a mid-size
    product, float and tuple churn in Python, and JSON text."""
    total = 0.0
    for k in range(16):
        m = _A * (1.0 + 0.01 * k)
        h = (m + m.conj().T) / 2.0
        w = _eigvalsh(h)
        total += float(np.linalg.norm(h @ h)) + sum(float(x) for x in w)
        json.loads(json.dumps({"k": k, "w": [[float(x), 0.0] for x in w]}))
    g = _B @ _B.conj().T
    return total + float(_eigvalsh((g + g.conj().T) / 2.0)[0])


class SpeedReference:
    """Reference-unit samples over time, and the scale they imply."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self._next = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_unit()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2.0)
        self.durations.append(t1 - t0)
        self._next = t1 + EVERY_S

    def maybe_sample(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def scale(self, t: float) -> float:
        """NOMINAL_S over the median of the two reference units on each side of ``t``."""
        k = bisect.bisect_left(self.times, t)
        return NOMINAL_S / statistics.median(self.durations[max(0, k - 2):k + 2])
