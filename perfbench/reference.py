"""Fixed reference work that tracks the machine's speed, independent of elsakit.

On a shared machine the speed of one core drifts by 20-40% over seconds to
minutes, and process CPU time drifts with it, so raw request latencies of
two runs of the same code differ by that much. Timed next to each request,
a fixed mix of the same kinds of work (small BLAS products in a Python
loop, a medium product, an elementwise ReLU sum, pure bytecode) slows down
with it. Scaling each latency by REF_MS over the local reference time gives
the latency at reference speed, which is what two runs can compare.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

# One Reference.ms() run on a 2-core x86_64 VM (Python 3.11, numpy 2.4,
# OpenBLAS on 1 thread) in its fast phase. Timings scaled by it read as
# milliseconds on that machine.
REF_MS = 1.8


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.normal(size=(48, 48))
        self._medium = rng.normal(size=(160, 160))
        self._points = rng.normal(size=(600, 1))
        self._knots = np.linspace(0.0, 1.0, 128)

    def ms(self) -> float:
        """Run the reference work once; return its wall time in milliseconds."""
        t0 = perf_counter_ns()
        x = self._small
        for _ in range(50):
            x = (x @ self._small) * 1e-2 + self._small
        for _ in range(2):
            self._medium @ self._medium
        np.maximum(0.0, 0.5 * (self._points - self._knots)).sum(axis=-1)
        s = 0
        for i in range(12000):
            s += i * i
        return (perf_counter_ns() - t0) / 1e6


def speed_factors(ref_ms) -> np.ndarray:
    """REF_MS over the local reference time of each request.

    ref_ms[i] and ref_ms[i + 1] are the reference runs just before and just
    after request i. The local time is the mean of that pair, taken as a
    median over the request and its two neighbours.
    """
    ref = np.asarray(ref_ms, dtype=np.float64)
    bracket = (ref[:-1] + ref[1:]) / 2
    local = np.array([np.median(bracket[max(0, i - 1): i + 2]) for i in range(len(bracket))])
    return REF_MS / local
