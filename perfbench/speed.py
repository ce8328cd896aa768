"""Machine speed, probed between the case executions of a run.

On a shared virtual machine the same single-threaded code runs up to a
third faster or slower from one minute to the next, with no other process
of the run involved (measured on a 2-core VM: a fixed eigendecomposition
loop moved between 6.6k and 9.2k calls/s within a minute).  Runs made at
different machine speeds are made comparable by timing a fixed numpy probe
between case executions, made of the operations cppc spends its time in:
small symmetric eigendecompositions in a Python loop, dense matrix-vector
products and a least-squares solve.  A case time divided by the slowdown
probed around it (``workloads.run_loop``) is that time at the reference
speed; raw times are reported next to it.
"""

from __future__ import annotations

import time

import numpy as np

#: Median time of one probe on the reference machine (a 2-core VM, numpy
#: 2.4 with single-threaded OpenBLAS).  Only fixes the unit of "seconds at
#: the reference speed"; it cancels out of every comparison between runs.
REF_PROBE_S = 0.28


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._blocks = [(lambda g: g + g.T)(rng.standard_normal((10, 10))) for _ in range(40)]
        self._matrix = rng.standard_normal((600, 1400))
        self._vector = rng.standard_normal(1400)
        self._lsq = rng.standard_normal((240, 160))
        self._rhs = rng.standard_normal(240)

    def _kernel(self) -> float:
        acc = 0.0
        for _ in range(40):
            for block in self._blocks:
                w, v = np.linalg.eigh(block)
                acc += float(((v * np.maximum(w, 0.0)) @ v.T)[0, 0])
            for _ in range(10):
                acc += float((self._matrix.T @ (self._matrix @ self._vector))[0])
        sol, *_ = np.linalg.lstsq(self._lsq, self._rhs, rcond=None)
        return acc + float(sol[0])

    def slowdown(self) -> float:
        """Time of one probe relative to the reference machine (> 1: slower)."""
        start = time.perf_counter()
        self._kernel()
        return (time.perf_counter() - start) / REF_PROBE_S
