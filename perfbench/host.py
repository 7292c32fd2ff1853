"""Host-speed reference for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by 20% and more over
minutes.  host_kernel() times a fixed mix of work that runs no gaussprop
code, so no change to the program can move it.  A timing divided by
host_kernel() / HOST_KERNEL_REF_S, measured in the same interpreter at about
the same moment, is scaled to the reference host's speed, and most of the
drift cancels.
"""

import time

# host_kernel() on the 2-vCPU Xeon (2.1 GHz) the bounds were set on
HOST_KERNEL_REF_S = 0.14


def host_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter, small-call and array work."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for k in range(1_500_000):
        total += k * k
    for i in range(3000):
        key = np.array([7, i], dtype=np.uint64)
        np.random.Generator(np.random.Philox(key=key)).standard_normal(8)
    a = np.arange(400_000.0)
    for _ in range(20):
        a = np.sqrt(a + 1.0)
    return time.perf_counter() - start
