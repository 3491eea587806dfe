"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of a vCPU drifts for minutes at a time: a fixed
loop that calls no system service ran up to 1.4x slower in one minute than
in the next, with no steal time reported, so neither the CPU time nor the
fastest of many repetitions stays put between runs.  The drift slows the
benchmark's calls and a fixed probe alike, so it largely cancels in their
ratio.

``HostClock.scaled`` times a call and also times a fixed calibration probe
right before and right after it.  The probe calls nothing of fkpf, so no
change to the program moves it.  A call's scaled time is its wall time times
the probe's nominal time over the mean of the two probes around it: the
seconds the call would take on the reference host.

The drift does not slow all code alike.  Interpreted Python and small
in-cache numpy and LAPACK calls slowed by about 1.4x, a dense eigh of order
640 by about 1.25x.  So there are two probes, and each workload takes the
one that is closer to its own work:

``interp``
    an interpreted loop, a vectorised numpy call and small eigh calls: for
    the per-path workloads, whose cost is Python and small arrays.
``dense``
    the same work at half the size, plus one dense eigh of order 640: for
    the workloads whose cost is large dense linear algebra.
"""

from __future__ import annotations

import time

import numpy as np

# each probe's median time on the reference host, a 2-vCPU x86_64 VM (Intel
# Xeon, 2.0 GHz) with one BLAS thread
NOMINAL_S = {"interp": 0.1, "dense": 0.135}


class HostClock:
    """Times calls and scales them by the probes around each call."""

    def __init__(self, kind: str = "interp"):
        self.kind = kind
        self.nominal = NOMINAL_S[kind]
        rng = np.random.default_rng(0)
        small = rng.standard_normal((160, 160))
        self._small = small + small.T
        self._vec = rng.standard_normal(200_000)
        if kind == "dense":
            large = rng.standard_normal((640, 640))
            self._large = large + large.T
        self._last = None
        # the component times of every probe, for the report
        self.probes = []

    def probe(self):
        """Wall time of the fixed calibration work, about the nominal time."""
        rounds = 2 if self.kind == "interp" else 1
        marks = [time.perf_counter()]
        acc = 0
        for j in range(150_000 * rounds):
            acc += j * j % 7
        marks.append(time.perf_counter())
        for _ in range(40 * rounds):
            np.exp(self._vec).sum()
        marks.append(time.perf_counter())
        for _ in range(5 * rounds):
            np.linalg.eigh(self._small)
        marks.append(time.perf_counter())
        if self.kind == "dense":
            np.linalg.eigh(self._large)
            marks.append(time.perf_counter())
        self.probes.append([b - a for a, b in zip(marks, marks[1:])])
        return marks[-1] - marks[0]

    def scaled(self, fn):
        """Call fn(); return (wall time, scaled time, fn's result).

        The probe after one call is the probe before the next.
        """
        before = self.probe() if self._last is None else self._last
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        self._last = self.probe()
        return wall, wall * 2.0 * self.nominal / (before + self._last), result
