"""Machine-speed calibration for the gated time metrics.

The machines this benchmark runs on are shared. The same fixed piece
of Python changes speed by 20-40 % over minutes, and by up to 10x for
a second at a time. That is far more than the bounds the benchmark
gates on. ``calibrate()`` runs a fixed slice of the kinds of work
floorspace does and returns its wall time: an interpreter-bound loop,
small numpy operations on frame-sized arrays, and a matrix-vector
product. The workloads take slices between their timed operations.
The median slice of a run measures the machine's speed during that
run. The gated times are scaled by ``REFERENCE_S / median slice``:
they are the times the run would have taken on a machine where a
slice takes ``REFERENCE_S``. The raw figures are printed as well.

The calibration does not touch floorspace, so a change to the program
cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.020  # median calibration slice on a 2-core Intel Xeon (2.1 GHz)

_A = np.random.default_rng(0).random((5000, 45))
_V = np.random.default_rng(1).random(45)


def calibrate() -> float:
    """Wall seconds of one fixed calibration slice (about 15 ms)."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(60000):
        table[i & 255] = acc
        acc += (i * 31) % 7
    x = np.arange(160.0)
    for _ in range(600):
        x = np.clip(x * 1.0001, -5.0, 5e5)
    for _ in range(80):
        _A @ _V
    return time.perf_counter() - t0
