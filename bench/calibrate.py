"""Machine-speed probe: a fixed kernel timed right before and after each run.

On a shared host the same work can take 30% more or less time from one
minute to the next, while the process is on the CPU the whole time (it is
not descheduled; the core itself gets slower). run.py scales each run's
times by NOMINAL_S over this kernel's time measured around that run, so a
run is reported as it would have taken at the probe's nominal speed.

The kernel is the benchmark's own code, not qinitopt's, so no change to the
program moves it. It does what the simulator's hot loops do: single-qubit
rotations on a batch of 4-qubit complex states through strided numpy views,
and a Jacobi-style sweep of scalar Python arithmetic and column updates.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

# About the kernel's time on the 2-vCPU x86-64 VM the benchmark was written
# on; it only sets the scale of the reported times.
NOMINAL_S = 0.025
BURSTS = 5


def kernel(reps: int = 50) -> float:
    rng = np.random.default_rng(12345)
    state = rng.standard_normal((64, 16)) + 1j * rng.standard_normal((64, 16))
    base = rng.standard_normal((12, 12))
    base = base + base.T
    norm = 0.0
    for rep in range(reps):
        for qubit in range(4):
            view = state.reshape(64, 16 >> (qubit + 1), 2, 1 << qubit)
            c, s = math.cos(0.1 * rep + qubit), math.sin(0.1 * rep + qubit)
            a0 = view[:, :, 0, :].copy()
            a1 = view[:, :, 1, :]
            view[:, :, 0, :] = c * a0 - 1j * s * a1
            view[:, :, 1, :] = c * a1 - 1j * s * a0
        norm += float(np.vdot(state, state).real)
        a = base.copy()
        for p in range(11):
            for q in range(p + 1, 12):
                t = 0.5 * (a[q, q] - a[p, p]) / (a[p, q] or 1.0)
                c = 1.0 / math.sqrt(1.0 + t * t)
                col = a[:, p].copy()
                a[:, p] = c * col - t * c * a[:, q]
    return norm


def probe_s() -> float:
    """Median time of BURSTS kernel calls, in seconds."""
    times = []
    for _ in range(BURSTS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
