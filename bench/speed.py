"""Machine-speed factors from fixed reference work timed next to each measurement.

On a shared host the same code runs up to about twice as slow for tens of
seconds at a time, as other tenants contend for the core, and a run-length
median cannot remove a slow spell that covers the whole run.  Fixed
reference work of the benchmark's own slows down with it, so each timing is
divided by the reference's slowdown measured just before and just after it,
and the figures read as seconds at the reference's nominal speed.  The
references are independent of ``vrpplan``: a change to the program moves the
figures, a change of the host's speed does not.

The three kinds of timed work slow down differently, so each has its own
reference:

``scalar``   Python-level float math, ``np.interp`` and small allocations
             (the pricing path, the oracles): the checker's closed forms on a
             fixed model.
``array``    whole-array numpy passes over units x hours (dispatch): clipping
             and summing a 30 x 8760 array.
``process``  a fresh interpreter (start-up, imports, page faults), which slows
             down far less than the scalar kernel: a fresh interpreter that
             imports numpy.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

import checker
import inputs

# Reference durations in the fast state of a 2-core Xeon host at 2.1 GHz.
NOMINAL_S = {"scalar": 0.0020, "array": 0.0011, "process": 0.14}
PROCESS_CODE = "import numpy"
REPEATS = 3


class Speed:
    def __init__(self, env: dict):
        self.env = env
        self.model = checker.Model(inputs.random_accepted(np.random.default_rng(0), "tab-f"))
        self.qs = [float(q) for q in np.linspace(self.model.q_init, 0.9 * self.model.hi, 400)]
        rng = np.random.default_rng(0)
        self.generation = rng.random((30, 8760))
        self.below = rng.random((30, 1))
        self.buffer = np.empty_like(self.generation)

    def _scalar(self) -> None:
        for q in self.qs:
            self.model.revenue(q)
            self.model.cost(q)

    def _array(self) -> None:
        # Into a preallocated buffer: a fresh 2 MB array would be served by
        # mmap or by the heap depending on what the process freed before,
        # and time the allocator's state instead of the host's speed.
        for _ in range(3):
            np.subtract(self.generation, self.below, out=self.buffer)
            np.clip(self.buffer, 0.0, 0.5, out=self.buffer)
            self.buffer.sum()

    def _process(self) -> None:
        subprocess.run([sys.executable, "-c", PROCESS_CODE], env=self.env, check=True, capture_output=True)

    def factor(self, kind: str) -> float:
        """Current slowdown of the ``kind`` reference relative to nominal (1.0)."""
        work = {"scalar": self._scalar, "array": self._array, "process": self._process}[kind]
        samples = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            work()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples) / NOMINAL_S[kind]

    def normalize(self, seconds: float, before: float, kind: str) -> float:
        """Seconds measured after ``before = factor(kind)``, at nominal speed."""
        return seconds / (0.5 * (before + self.factor(kind)))
