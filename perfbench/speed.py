"""Speed probe: corrects timings for how fast the CPU runs at the moment.

On a shared host the same pass can take 1.5-2x longer for a minute at a
time, because other tenants load the physical core this process runs on. A
probe on the other CPU does not see it (the two CPUs' speeds correlate at
about 0.2), so the probe runs on the same CPU, in the same thread: a
``SIGALRM`` every ``PERIOD_S`` interrupts the workload between two bytecodes
and times a fixed kernel of interpreter work, small numpy calls and small
LAPACK solves, the mix the package itself runs. A timed interval then
counts each stretch of workload between two samples at ``REFERENCE_S`` over
the mean kernel time of the two samples around it, and leaves the kernel's
own time out. The result is the interval's length on a CPU that runs the
kernel in ``REFERENCE_S``, about what it takes on a quiet 2.1 GHz Xeon core.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

#: Seconds between two samples, and the kernel time that counts as speed 1.
PERIOD_S = 0.02
REFERENCE_S = 0.4e-3

_rng = np.random.default_rng(20161024)
_A = _rng.standard_normal((6, 6))
_B = _rng.standard_normal((36, 36)) + 10.0 * np.eye(36)
_b = _rng.standard_normal(36)
_I6 = np.eye(6)


def kernel() -> None:
    """Fixed work whose time measures the CPU's current speed: interpreter
    work, small numpy calls and small LAPACK solves, as the package runs."""
    d: dict = {}
    for i in range(400):
        d[i % 7] = d.get(i % 7, 0.0) + i * 0.5
    "".join(str(i) for i in range(100)).split("1")
    for _ in range(3):
        m = _A @ _A.T + _I6
        np.linalg.eigvals(m[:4, :4])
        np.kron(_I6, _A)
        np.abs(m).max()
        np.linalg.solve(_B, _b)
        np.linalg.eigvals(_B[:12, :12])


def kernel_s() -> float:
    """Median time of 101 kernels, timed here and now."""
    times = []
    for _ in range(101):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Probe:
    """Samples the kernel while installed (``with probe: ...``); ``normalize``
    is called after the probe has stopped, so every interval has a sample
    after it."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def __enter__(self):
        kernel()  # first call outside the timed intervals
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalize(self, start: float, end: float) -> float:
        """Length of [start, end] at speed 1, without the samples inside it."""
        starts, durations = self.starts, self.durations
        if not starts:
            raise RuntimeError("the speed probe took no sample")
        first = bisect.bisect_left(starts, start)   # first sample inside
        last = bisect.bisect_left(starts, end)      # first sample after
        # Sample indices around each stretch: the sample before the interval,
        # those inside it, and the one after it, clamped to the samples taken.
        around = [max(first - 1, 0), *range(first, last), min(last, len(starts) - 1)]
        edges = [start]
        for i in range(first, last):
            edges += [starts[i], starts[i] + durations[i]]
        edges.append(end)
        total = 0.0
        for j in range(len(around) - 1):
            speed = 2.0 * REFERENCE_S / (durations[around[j]] + durations[around[j + 1]])
            total += (edges[2 * j + 1] - edges[2 * j]) * speed
        return total
