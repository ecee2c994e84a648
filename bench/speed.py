"""The machine's speed, from a fixed piece of work that is not drfrontier's.

The shared VM this benchmark was built on runs the same work up to 1.5x
slower for stretches of seconds to minutes, whole runs included, because of
load outside the VM.  A run times `kernel()` before every op and every
set-up and divides its times by the run's slowdown, the mean kernel time
over REFERENCE_S.  The kernel mixes what the workloads spend their time on:
interpreted Python, many small numpy calls, Dirichlet draws and a dense
eigendecomposition.  No drfrontier change can make it faster or slower, so
a change to the program moves the adjusted times as it moves the wall
times.

    OPENBLAS_NUM_THREADS=1 python3 bench/speed.py    # kernel times here, as a run sees them
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Mean kernel time, in seconds, on the machine of BASELINE.md in its fast
# state.  Adjusted times are seconds on that machine in that state.
REFERENCE_S = 0.013

_A = np.random.default_rng(7).random((30, 30))
_A = _A + _A.T
_B = np.random.default_rng(8).random((160, 160))
_B = _B @ _B.T


def kernel() -> float:
    """Seconds one fixed piece of work takes, about 13 to 20 ms on that machine."""
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    w = np.full(30, 1.0 / 30)
    for _ in range(500):
        w = w * (_A @ w)
        w /= w.sum()
    W = np.random.default_rng(0).dirichlet(np.ones(30), size=2000)
    np.einsum("ij,jk,ik->i", W, _A, W)
    np.linalg.eigh(_B)
    return time.perf_counter() - start


def slowdown(samples) -> float:
    """The run's slowdown: mean kernel time over REFERENCE_S.

    The mean, like the mean latency of an op's repeats, moves in proportion
    to the share of the run spent in the slow state; the median jumps from
    one state's time to the other's.
    """
    return statistics.fmean(samples) / REFERENCE_S


if __name__ == "__main__":
    times = sorted(kernel() for _ in range(200))
    print(f"kernel: min {times[0]:.5f} s  median {times[100]:.5f} s"
          f"  mean {statistics.fmean(times):.5f} s")
