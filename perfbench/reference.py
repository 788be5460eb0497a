"""Reference seconds: measured seconds scaled by the machine's current speed.

On a shared machine the speed of the same code drifts by a quarter or more
over tens of seconds, as neighbours come and go; CPU time drifts with it.
The benchmark therefore runs this fixed kernel between measurements and
reports every time in reference seconds (set-up time is scaled by a
reference import instead, see below):

    measured seconds * REFERENCE_S / (mean kernel seconds just before and after)

The kernel does the kind of work braidphase does: a Python loop of small
numpy operations (row rotations, reductions, a Kronecker product), on fixed
data, and it never calls braidphase, so no change to the package moves it.
REFERENCE_S is the kernel's median time on the machine the bounds were set
on (see perfbench/README.md), so reference seconds read close to seconds
there. Changing the kernel or REFERENCE_S redefines every time metric.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.025

# Start-up time is mostly numpy's import: loading shared libraries, which the
# kernel above does not exercise. Set-up is therefore scaled by a fresh
# interpreter that imports numpy alone, spawned next to each set-up probe;
# REFERENCE_IMPORT_S is that reference import's time on the same machine.
REFERENCE_IMPORT_S = 0.17
REFERENCE_IMPORT = "import time, numpy; print(time.perf_counter())"

_MATRIX = np.add.outer(np.arange(16.0), np.arange(16.0)) / 32.0
_COS, _SIN = np.cos(0.1), np.sin(0.1)


def kernel_seconds() -> float:
    """Wall seconds of one run of the reference kernel."""
    t = _MATRIX.copy()
    acc = 0.0
    start = time.perf_counter()
    for _ in range(300):
        for p in range(0, 15, 3):
            rp, rq = t[p].copy(), t[p + 1].copy()
            t[p] = _COS * rp - _SIN * rq
            t[p + 1] = _SIN * rp + _COS * rq
            acc += float(np.sum(np.abs(t[p])))
        t = np.kron(np.eye(1), t)
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):  # keeps the work observable; never true
        raise ArithmeticError("reference kernel diverged")
    return elapsed


class Clock:
    """Turns measured seconds into reference seconds.

    Call ``scale()`` right after each measurement: it samples the kernel (the
    median of ``runs`` runs) and returns the factor for the measurement
    between that sample and the previous one. Without a baseline sample the
    first factor rests on the sample after the measurement alone, so nothing
    runs before a first measurement that must find the process cold.
    """

    def __init__(self, baseline: bool = True, runs: int = 1):
        self._runs = runs
        self._last = None
        self.kernel_s: list = []
        if baseline:
            kernel_seconds()  # first run pays numpy's first-call costs
            self._last = self._sample()

    def _sample(self) -> float:
        sample = statistics.median(kernel_seconds() for _ in range(self._runs))
        self.kernel_s.append(sample)
        return sample

    def scale(self) -> float:
        now = self._sample()
        before = now if self._last is None else self._last
        self._last = now
        return REFERENCE_S / ((before + now) / 2)
