"""Measure how fast the host runs while a pass runs, to cancel its swings.

On a shared host the same operation can take twice as long from one
quarter-minute to the next.  While an untraced pass runs, `Sampler` times
a fixed reference kernel every 0.25 s of wall time, from a SIGALRM
handler, so the samples also fall inside long operations (but not while
other threads run).  Between two
samples, the pass's own work time divided by the mean of the two kernel
times is that stretch counted in kernel runs; their sum is the pass's
calibrated wall time.  The kernel's own time is left out of every latency.

The kernel mixes the two kinds of work coulscat does: a Python loop over
small NumPy arrays (like the Legendre recurrence) and NumPy reductions over
L+1-long rows (like the series reduction).  It calls NumPy only, never
coulscat, so a change to the program cannot change it.
"""

import signal
import threading
import time

import numpy as np

INTERVAL_S = 0.25

_ROWS = np.linspace(0.0, 1.0, 32 * 6001).reshape(32, 6001)
_KERN = np.cos(np.arange(6001.0))


def kernel() -> float:
    x = np.full(4, 0.3)
    p0 = np.ones(4)
    p1 = x.copy()
    for l in range(1, 800):
        p0, p1 = p1, ((2 * l + 1) * x * p1 - l * p0) / (l + 1)
    total = float(p1.sum())
    for _ in range(4):
        total += float(np.sum(_ROWS * _KERN[None, :], axis=1).sum())
    return total


class Sampler:
    """Times `kernel` at the start, every INTERVAL_S, and at the end."""

    def __init__(self):
        self.samples = []  # (start, seconds) of each kernel run
        self.kernel_s = 0.0  # total kernel time so far

    def _sample(self, _signum=None, _frame=None) -> None:
        if threading.active_count() > 1:
            # the sweep's pool threads would compete with the kernel for the
            # cores; the samples around the sweep stand for it
            return
        start = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - start
        self.samples.append((start, seconds))
        self.kernel_s += seconds

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def clock(self) -> float:
        """perf_counter minus the kernel time so far (the pass's own work time)."""
        while True:  # retry if a sample lands between the two reads
            kernel_s = self.kernel_s
            now = time.perf_counter()
            if kernel_s == self.kernel_s:
                return now - kernel_s

    def calibrated(self) -> float:
        """Work time between the first and last sample, in kernel runs."""
        return sum((s1 - s0 - c0) / (0.5 * (c0 + c1))
                   for (s0, c0), (s1, c1) in zip(self.samples, self.samples[1:]))
