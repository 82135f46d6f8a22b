"""Speed probe: samples how fast the machine runs while a pass runs.

The benchmark host is shared, and its speed drifts by tens of percent over
minutes, so the raw pass time of one run can differ from the next by more
than any useful regression bound. Every ``INTERVAL_S`` a SIGALRM handler
times a fixed reference chunk made of the kinds of work the workloads do:
interpreted Python, small dense solves and a 192x192 LU factorization. A
pass time divided by the median chunk time of that same pass cancels most
of the drift. The chunk's own time is kept apart so it can be taken out of
the pass time.
"""

from __future__ import annotations

import signal
import time

import numpy as np
import scipy.linalg

INTERVAL_S = 0.05


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((32, 32)) + 32 * np.eye(32)
        self._rhs = self._small[0].copy()
        self._medium = rng.standard_normal((192, 192)) + 192 * np.eye(192)
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def _chunk(self) -> int:
        s = 0
        for i in range(3000):
            s += i * i
        for _ in range(10):
            np.linalg.solve(self._small, self._rhs)
        scipy.linalg.lu_factor(self._medium)
        return s

    def _sample(self, signum, frame) -> None:
        w, c = time.perf_counter(), time.process_time()
        self._chunk()
        self.wall.append(time.perf_counter() - w)
        self.cpu.append(time.process_time() - c)

    def __enter__(self) -> "SpeedProbe":
        self.wall, self.cpu = [], []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
