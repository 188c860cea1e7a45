"""Calibration: reports times as if the host ran at a fixed speed.

The benchmark's host is a shared VM whose speed moves by up to 25 % for
seconds at a time, in CPU time as much as in wall time.  A fixed piece of
reference work that calls no smilegeo code is timed right before and right
after each measured interval, and the interval is multiplied by
``nominal_ms`` over the median of those samples.  A change to smilegeo
cannot move the reference work, so its gains pass through unscaled.

There are two references, because one does not fit both kinds of interval:

* ``Kernel`` (numpy and pure-Python work, in process) for ops run in the
  benchmark's process.  It cut the quartile spread of one unchanged op over
  1.5 s windows from 13 % to 3.4 %.
* ``ReferenceProcess`` (a fresh interpreter importing numpy) for cold
  processes and imports.  Scaling cold CLI runs by the in-process kernel
  raised their coefficient of variation from 0.11 to 0.19; scaling them by
  a fresh importing interpreter lowered it to 0.08.
"""
from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time


def process_ms(argv) -> float:
    """Wall time of one process run to exit, in ms."""
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, capture_output=True, timeout=120)
    return (time.perf_counter() - t0) * 1e3


class Kernel:
    """About equal parts of 2001-point array work, one-element array calls
    (numpy's per-call overhead) and interpreted Python, as in the workloads."""

    nominal_ms = 1.5  # by definition; about its uncontended time on the VM used

    def __init__(self):
        import numpy as np  # here, not at import: run.py times the set-up without it
        from scipy.special import ndtr

        self._np, self._ndtr = np, ndtr
        self._x = np.linspace(-4.0, 4.0, 2001)
        self.sample()  # the first runs pay for their own warm-up

    def _run(self) -> float:
        np = self._np
        y = self._x
        for _ in range(10):
            y = self._ndtr(y) * np.exp(-0.5 * y * y) + np.log1p(np.abs(y)) - 0.3
        z = np.array([0.3])
        for _ in range(150):
            z = np.exp(-np.abs(z)) + 0.1
        s = 0.0
        for i in range(2500):
            s += math.sqrt(i + s * 1e-9)
        return s + float(y[0]) + float(z[0])

    def sample(self) -> list[float]:
        samples = []
        for _ in range(2):
            t0 = time.perf_counter()
            self._run()
            samples.append((time.perf_counter() - t0) * 1e3)
        return samples


class ReferenceProcess:
    """A fresh interpreter that imports numpy, run to exit."""

    nominal_ms = 200.0  # by definition; about its uncontended time on the VM used
    argv = (sys.executable, "-c", "import numpy")

    def sample(self) -> list[float]:
        return [process_ms(self.argv)]


def factor(reference, before: list[float], after: list[float]) -> float:
    """Scale for an interval measured between two sets of reference samples."""
    return reference.nominal_ms / statistics.median(before + after)
