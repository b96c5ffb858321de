"""Fixed calibration task: measures how fast the host runs right now.

On a workload marked ``calibrated`` (see workloads.py), the benchmark runs
this script as a process of its own before and after every scene build and
timed operation, and scales their wall times by the ratio of
``REFERENCE_S`` to the lower quartile of the calibration times (see
run.py). On a shared host whose speed drifts with other tenants' load, the
calibration slows down with such a workload, so the ratio cancels the
drift.

The task mirrors what the geopolsar CLI spends its time on for a small
scene: interpreter start and ``import numpy``, a Python loop over small 3x3
complex matrix calls (as in the cluster merge), and array arithmetic over a
batch of 3x3 matrices (as in the per-pixel stages). Its work is fixed; it
depends on nothing in the checkout but this file, so a change to the
program never changes it.
"""

import numpy as np

# lower quartile of this task's wall times, spawn to reap, on a quiet 2-vCPU
# Intel Xeon VM at 2.1 GHz; scaled times are seconds at that host speed
REFERENCE_S = 0.35
SMALL_CALLS = 6000
BULK_PIXELS = 1 << 16
BULK_REPEATS = 4


def hermitian_batch(rng, n):
    a = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
    return a @ np.conj(np.swapaxes(a, 1, 2)) + 3.0 * np.eye(3)


def main():
    rng = np.random.default_rng(12345)
    small = hermitian_batch(rng, 16)
    total = 0.0
    for i in range(SMALL_CALLS):
        a, b = small[i % 16], small[(i + 5) % 16]
        _, logdet = np.linalg.slogdet(a)
        total += logdet + np.einsum("ij,ji->", np.linalg.inv(a), b).real
    pixels = hermitian_batch(rng, BULK_PIXELS)
    inverses = np.linalg.inv(small)
    for _ in range(BULK_REPEATS):
        total += np.einsum("kij,pji->pk", inverses, pixels).real.sum()
    if not np.isfinite(total):
        raise SystemExit("calibration produced a non-finite sum")


if __name__ == "__main__":
    main()
