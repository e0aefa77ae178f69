"""Machine-speed sampler, so timings on a shared machine compare across runs.

On a shared 2-core x86_64 virtual machine (Python 3.11, numpy 2.4) the speed of the
same code swings by about 25% between windows of a few seconds, as other
tenants come and go; a 30 s run then lands anywhere in that range.  The
sampler runs a fixed kernel (small dense linear algebra and interpreter
work, like the package's inner loops) every ``INTERVAL`` seconds from a
``SIGALRM`` handler and records how long it took.  Each stretch of an
operation's time is divided by the kernel time of the nearest sample, times
``REFERENCE_S``, which reports the operation at one reference machine speed:
the time it would have taken on a machine where the kernel takes
``REFERENCE_S``.  Scaling each operation, not the run, keeps a median of
operations from jumping between a fast and a slow cluster.

The kernel is benchmark code and does not call the package, so a change to
the package moves the scaled timings exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
from time import perf_counter

import numpy as np
import scipy.linalg

#: seconds between samples
INTERVAL = 0.2

#: kernel time that defines the reference machine speed (seconds)
REFERENCE_S = 0.0025

_STATE = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
_GENERATOR = np.array(
    [[0.9, 0.1, 0.05, 0.0], [0.1, 0.8, 0.0, 0.02], [0.0, 0.03, 0.7, 0.1], [0.01, 0.0, 0.1, 0.95]],
    dtype=complex,
)


def kernel() -> float:
    """Fixed work in the proportions of the package's hot loops: 4x4 ``eig``,
    ``inv`` and ``kron`` as in generator extraction, and 2x2 ``eigvalsh``
    with interpreter work as in state validation.

    The slow windows of a shared machine slow these numpy and LAPACK calls
    far more than pure interpreter work, so a kernel of pure Python would
    not track them.
    """
    total = 0.0
    for _ in range(12):
        values, right = scipy.linalg.eig(_GENERATOR)
        total += float(np.abs(np.linalg.inv(right) @ right).max())
        total += float(np.kron(_GENERATOR[:2, :2], _GENERATOR[2:, 2:]).real.sum())
    for k in range(70):
        b = _STATE @ _STATE.conj().T
        total += float(np.linalg.eigvalsh(0.5 * (b + b.conj().T)).min())
        record = {"index": k, "total": total}
        total += record["index"] * 1e-12
    return total


class SpeedSampler:
    """Context manager sampling the kernel time while it is active."""

    def __init__(self):
        self.times = []
        self.samples = []
        self._edges = []

    def __enter__(self):
        kernel()  # first calls pay one-time set-up inside numpy and scipy
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        started = perf_counter()
        kernel()
        self.samples.append(perf_counter() - started)
        self.times.append(started)

    @contextlib.contextmanager
    def paused(self):
        """Stop sampling while a measured child process runs, then take one
        sample.  A kernel run beside the child would compete with it for the
        cores and read the contention, not the machine's speed."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            self._sample(signal.SIGALRM, None)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def scaled(self, start: float, end: float) -> float:
        """The interval ``[start, end]`` of ``perf_counter`` time at reference
        speed: the integral of ``dt / slowdown(t)``, where the slowdown is the
        kernel time over ``REFERENCE_S`` of the nearest sample in time."""
        if not self.samples:
            self._sample(signal.SIGALRM, None)
        if len(self._edges) != len(self.times) - 1:
            self._edges = [(a + b) / 2 for a, b in zip(self.times, self.times[1:])]
        edges = self._edges
        total, position = 0.0, start
        for k in range(bisect.bisect_right(edges, start), bisect.bisect_right(edges, end) + 1):
            stop = min(end, edges[k]) if k < len(edges) else end
            total += (stop - position) * REFERENCE_S / self.samples[k]
            position = stop
        return total
