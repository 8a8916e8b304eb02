"""The speed of a shared host, measured with a fixed reference kernel.

On a vCPU shared with other tenants the same work takes up to three times
as long for tens of seconds at a time, and process CPU time rises with
wall time, so neither clock shows the program's own cost.  Every kind of
code slows alike, though: a pure-Python loop, a LAPACK eigensolve and an
einsum slow by the same factor.  So the benchmark times ``kernel``, which
never calls densem, between operations, and scales each operation's wall
time by ``REFERENCE_S / (mean kernel time around that operation)``.  The
scaled time is what the operation takes when the kernel takes
``REFERENCE_S``, as it does in the host's fastest periods.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

# About the kernel's median time, run alone in a loop, in the fastest
# periods seen on one vCPU of a shared Intel Xeon at 2.0 GHz (numpy with
# OpenBLAS, one BLAS thread).  It only sets the scale of the reported
# times; comparisons between commits do not depend on it.
REFERENCE_S = 0.3e-3
INTERVAL_S = 0.025  # one sample per this much time, taken between operations
BURST = 32  # the most samples taken at once, after a long operation
WINDOW_S = 0.25  # samples this close to an operation give its local speed

_rng = np.random.default_rng(0)
_M = _rng.standard_normal((16, 16))
_SPD = _M @ _M.T
_T = _rng.standard_normal((8, 8, 8))


def kernel() -> None:
    """About 0.3 ms of interpreter, LAPACK and einsum work."""
    total = 0
    for i in range(1500):
        total += i * i % 7
    for _ in range(3):
        np.linalg.eigh(_SPD)
    np.einsum("abc,cde,bd->ae", _T, _T, _SPD[:8, :8], optimize=False)


class SpeedProbe:
    """Kernel samples ``(start, seconds)`` taken between operations."""

    def __init__(self, clock=perf_counter, kernel=kernel):
        self.clock = clock
        self.kernel = kernel
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> float:
        """Time the second of two kernel runs, so that what the operation
        before left in the caches does not change the sample."""
        self.kernel()
        start = self.clock()
        self.kernel()
        seconds = self.clock() - start
        self.samples.append((start, seconds))
        return seconds

    def maybe_sample(self) -> None:
        """One sample per INTERVAL_S since the last sample, at most BURST."""
        if not self.samples:
            self.sample()
            return
        due = int((self.clock() - sum(self.samples[-1])) / INTERVAL_S)
        for _ in range(min(due, BURST)):
            self.sample()

    def scaled(self, spans: list[tuple[float, float]]) -> list[float]:
        """Each ``(start, end)`` wall time times REFERENCE_S over the mean
        kernel time of the samples within WINDOW_S of it, or of the nearest
        samples when none is that close."""
        starts = [t for t, _ in self.samples]
        out = []
        for start, end in spans:
            lo = bisect.bisect_left(starts, start - WINDOW_S)
            hi = bisect.bisect_right(starts, end + WINDOW_S)
            if lo == hi:
                lo, hi = max(lo - 1, 0), min(lo + 1, len(starts))
            out.append((end - start) * REFERENCE_S / statistics.fmean(s for _, s in self.samples[lo:hi]))
        return out
