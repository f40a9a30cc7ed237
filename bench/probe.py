"""Samples how fast the machine runs while the benchmark's timed code runs.

On a shared host the same pass of a workload can take 1.5x longer from one
second to the next.  The slowdown is invisible from inside the guest: no
steal time is reported and process CPU time tracks wall time.  So while a
block runs, a timer signal interrupts it every ``INTERVAL_S`` and times a
fixed probe kernel of small numpy calls, the operation mix that dominates
etslam's hot loops.  ``speed()`` is the mean of ``NOMINAL_S`` over the probe
times: 1.0 when the machine runs at nominal speed, 0.7 when it runs 30%
slower.  Wall seconds times speed are reference seconds, which stay steady
while the host's speed drifts.  The probe does not touch etslam, so a change
to etslam cannot move it.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

# the probe kernel's time on an unloaded 2-core x86-64 VM (its fastest
# observed time); it only scales reference seconds
NOMINAL_S = 50e-6
INTERVAL_S = 0.01
KERNEL_OPS = 25


class SpeedProbe:
    def __init__(self):
        self._v = np.linspace(-1.0, 1.0, 128)
        self.samples: list[float] = []

    def _sample(self, signum=None, frame=None):
        v = self._v
        t = time.perf_counter()
        for j in range(KERNEL_OPS):
            v[np.argmin(v - j * 1e-3)]
        self.samples.append(time.perf_counter() - t)

    @contextlib.contextmanager
    def sampling(self):
        """Sample the machine's speed for the duration of the block."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            if not self.samples:  # a block shorter than one interval
                self._sample()

    def speed(self) -> float:
        """Mean speed over the last block's samples; 1.0 is nominal."""
        return statistics.fmean(NOMINAL_S / m for m in self.samples)
