"""Timing in seconds at a fixed reference host speed.

On a shared host (a 2-vCPU cloud VM, say) the same work can run up to
50% slower for seconds to minutes at a time, and process CPU time slows
with it. A ``HostClock`` therefore runs a fixed reference kernel, owned by the
benchmark and independent of ``ostflow``, right before and right after
every timed step, and scales the step's wall time by the kernel's
nominal time over its mean measured time in a window around the step.
A host slowdown that lasts longer than a step slows the step and the
kernel alike and cancels; a faster program still reads faster in the
same proportion.

Four kernels, each for the work it tracked best in trials on a shared
2-vCPU Xeon:

- ``large``: numpy on 3.2 MB arrays (``maximum``, ``stack``,
  matrix-vector product), like the solver's merge. It times the
  ``exact-*`` solves.
- ``small``: the same calls on 190 KB arrays, so that interpreter and
  call overhead weigh more, as in the metaheuristics. It times every
  ``headline-cell`` step.
- ``scalar``: pure-Python heap, dict and float work. It times set-up,
  which starts before numpy is imported.
- ``process``: a fresh interpreter that imports numpy, like a CLI step.
  It times the ``cli-chain`` chains.

A scaled time is wall seconds at the host speed where the kernel takes its
nominal time; the raw wall times go to the report beside it.
"""

from __future__ import annotations

import heapq
import math
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass


class _LargeKernel:
    """numpy on 3.2 MB arrays, past a core's L2 cache like the solver's
    larger stacks. The arrays are allocated once, so that a reading adds
    a fixed 9.6 MB to the process, never a transient that could set its
    peak RSS.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.rows = np.empty((100, 4000))
        self.other = np.empty((100, 4000))
        self.out = np.empty((100, 4000))
        self.weights = np.empty(4000)

    def __call__(self) -> None:
        np = self.np
        rng = np.random.default_rng(0)
        rng.random(out=self.rows)
        rng.random(out=self.other)
        rng.random(out=self.weights)
        for _ in range(8):
            np.maximum(self.rows, self.other, out=self.out) @ self.weights
            np.stack([self.rows[i] for i in range(100)], out=self.out)


def _small_kernel() -> None:
    import numpy as np

    rng = np.random.default_rng(0)
    rows = rng.random((60, 400))
    other = rng.random((60, 400))
    weights = rng.random(400)
    for _ in range(100):
        np.maximum(rows, other) @ weights
        np.stack([rows[i] for i in range(60)])


def _scalar_kernel() -> None:
    rng = random.Random(0)
    heap: list[tuple[float, int]] = []
    for i in range(7000):
        heapq.heappush(heap, (rng.random(), i))
    seen: dict[int, float] = {}
    total = 0.0
    while heap:
        key, i = heapq.heappop(heap)
        seen[i] = key
        total += key * key
    for i in range(14000):
        total += seen[i % 7000] * i


def _process_kernel() -> None:
    # No timeout: ``wait`` with one polls in sleeps of up to 50 ms, and
    # the reading would come in steps of that size.
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


# kernel -> (makes the kernel, runs per reading, nominal seconds per run)
KERNELS = {
    "large": (_LargeKernel, 5, 0.010),
    "small": (lambda: _small_kernel, 5, 0.010),
    "scalar": (lambda: _scalar_kernel, 7, 0.010),
    "process": (lambda: _process_kernel, 1, 0.200),
}


# A reading that ended this recently before a step counts as its "before".
REUSE_S = 0.05
# Readings taken up to this long before or after a step set its scale.
WINDOW_S = 4.0


@dataclass(frozen=True)
class Step:
    """One timed step: wall-clock start and end on its clock."""

    clock: "HostClock"
    start: float
    end: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def scaled_s(self) -> float:
        """Wall time scaled to the nominal kernel speed around the step.

        Call once the run's readings are taken: readings after the step
        count too.
        """
        return self.wall_s * self.clock.scale(self.start, self.end)


class HostClock:
    """Times steps between reference-kernel readings.

    ``time(fn)`` takes a reading unless one just ended, runs ``fn``, takes
    a reading and returns ``(result, Step)``. A step's scale is the
    nominal kernel time over the mean of the readings within
    ``WINDOW_S`` of it: one reading samples the host for a few tens of
    milliseconds, while a step runs for seconds.
    """

    def __init__(self, kernel: str):
        make, self.reps, self.nominal_s = KERNELS[kernel]
        self.kernel = make()
        self.name = kernel
        self.readings: list[tuple[float, float]] = []   # (mid-time, s per kernel run)
        self._last_end = -math.inf

    def reading(self) -> None:
        """Mean wall time of ``reps`` kernel runs, stamped with its mid-time."""
        started = time.perf_counter()
        for _ in range(self.reps):
            self.kernel()
        self._last_end = time.perf_counter()
        self.readings.append(((started + self._last_end) / 2, (self._last_end - started) / self.reps))

    def time(self, fn):
        if time.perf_counter() - self._last_end > REUSE_S:
            self.reading()
        started = time.perf_counter()
        result = fn()
        step = Step(self, started, time.perf_counter())
        self.reading()
        return result, step

    def scale(self, start: float, end: float) -> float:
        near = [v for t, v in self.readings if start - WINDOW_S <= t <= end + WINDOW_S]
        return self.nominal_s / statistics.fmean(near)
