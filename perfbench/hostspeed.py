"""Host-speed probe: a fixed reference kernel timed between evaluations.

The benchmark host is a share of a larger machine whose speed drifts by
+-30% over seconds to minutes (a fixed ``run_gate`` ranged 0.14-0.30 s in
one four-minute window, with CPU time tracking wall time).  A run's raw
timings therefore say as much about the host as about the program.  The
probe times a fixed kernel of numpy/scipy calls, which does not touch the
library, at evaluation boundaries at most every INTERVAL_S; ``factor()`` is
the kernel's nominal time over its median time around a given interval, and
the run's timings are multiplied by it: seconds at the nominal host speed.

Each workload names the kernel that mirrors the operations it spends its
time in, because the host's drift does not slow every kind of work alike:

- ``small``: ``expm`` of 9- and 27-dimensional complex matrices plus
  interpreter work (``paper_small``);
- ``dense``: ``eigh`` of 108- and 324-dimensional Hermitian matrices and the
  eigenvector products that rebuild the exponential (``routing_large``).

Window by window, ``small`` tracked a dim-9 ``run_gate`` with correlation
0.75-0.9 and ``dense`` tracked the 108/324-dimensional gates with 0.8-0.9.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
import scipy.linalg

# Median kernel time on the benchmark's reference host (2-vCPU Xeon VM, one
# BLAS thread) in its fast phase.  Only a scale: the normalised timings of
# two commits compare the same way whatever values these have.
NOMINAL_S = {"small": 0.005, "dense": 0.040}
INTERVAL_S = 0.5  # least time between samples taken at evaluation boundaries
# Samples that started this close to an interval describe the host during it;
# the drift's fast swings last a few seconds.
MARGIN_S = 2.0


def _hermitian(rng: np.random.Generator, d: int, scale: float) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (a + a.conj().T)


class HostSpeed:
    def __init__(self, kernel: str):
        rng = np.random.default_rng(12345)
        if kernel == "small":
            self._expm = [-1j * _hermitian(rng, 9, 0.3)] * 60 + [-1j * _hermitian(rng, 27, 0.1)] * 16
            self.kernel = self._small
        else:
            self._eigh = [_hermitian(rng, 108, 1.0), _hermitian(rng, 324, 1.0)]
            self.kernel = self._dense
        self.nominal_s = NOMINAL_S[kernel]
        self.samples: list[float] = []  # seconds per kernel run
        self.starts: list[float] = []  # perf_counter() at the start of each run
        self.spent = 0.0  # seconds spent in the kernel so far
        self._next = 0.0
        self.kernel()  # first-call costs stay out of the samples

    def _small(self) -> float:
        acc = 0.0
        for a in self._expm:
            acc += scipy.linalg.expm(a)[0, 0].real
        for i in range(16000):
            acc += i % 7
        return acc

    def _dense(self) -> float:
        acc = 0.0
        for h in self._eigh:
            w, v = np.linalg.eigh(h)
            acc += ((v * np.exp(-1j * w)) @ v.conj().T)[0, 0].real
        return acc

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.starts.append(t0)
        self.spent += dt
        self._next = t0 + dt + INTERVAL_S

    def maybe_sample(self) -> None:
        """Time the kernel if INTERVAL_S has passed since the last sample."""
        if time.perf_counter() >= self._next:
            self.sample()

    def factor(self, t0: float | None = None, t1: float | None = None) -> float:
        """Nominal over median kernel time, over the samples that started
        within MARGIN_S of [t0, t1] (all samples if none did or no interval
        is given)."""
        picked = self.samples
        if t0 is not None:
            lo = bisect.bisect_left(self.starts, t0 - MARGIN_S)
            hi = bisect.bisect_right(self.starts, t1 + MARGIN_S)
            picked = self.samples[lo:hi] or self.samples
        return self.nominal_s / statistics.median(picked)
