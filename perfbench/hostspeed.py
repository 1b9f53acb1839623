"""Host-speed reference: a fixed kernel timed throughout a worker.

A shared host runs the same code up to twice as slow for seconds to
minutes at a time, and process CPU time slows with it.  Every so often a
SIGALRM handler in the worker runs a fixed reference kernel, which uses
no clebschflow code, twice (the first pass refills the caches the
program evicted) and records how long the second pass took.  A time
measured over an interval is then reported with the handler's own time
taken out, scaled by the kernel's reference time over its mean time
inside that interval: the time the program would have taken on a host
that runs the kernel in exactly its reference time.

The slowdowns differ by resource, so each workload names the kernel that
does the kind of work its timed steps do (see workloads.py):

- ``interpreter``: an ``eval`` of a profile string, small numpy
  stencils, an FFT and Python float loops, for steps bound by the
  interpreter and small-array numpy calls;
- ``dense``: a dense LU solve of order 512, for steps bound by dense
  linear algebra on matrices that spill out of the L2 cache.
"""

from __future__ import annotations

import functools
import signal
import time

import numpy as np

MIN_SAMPLES = 3

_X = np.linspace(0.0, 8.0, 64, endpoint=False)
_NAMES = {"__builtins__": {}, "cos": np.cos, "sin": np.sin, "exp": np.exp,
          "pi": np.pi, "x": _X}
_PROFILE = "1 + 0.5*cos(2*pi*(x - 0.3)/8) + exp(-sin(pi*x/8)**2)"


def interpreter_kernel() -> float:
    total = 0.0
    for _ in range(7):
        y = eval(_PROFILE, _NAMES)  # noqa: S307
        z = np.roll(y, 1) - 2.0 * y + np.roll(y, -1)
        total += float(np.abs(np.fft.rfft(z)).sum())
        total += sum(float(v) for v in y[:16])
    return total


@functools.cache
def _dense_system():
    rng = np.random.default_rng(0)
    return rng.standard_normal((512, 512)) + 512 * np.eye(512), np.ones(512)


def dense_kernel() -> float:
    return float(np.linalg.solve(*_dense_system()).sum())


#: name -> (kernel, seconds between samples, reference seconds).  The
#: reference times are close to the kernels' medians on the 2-vCPU Xeon
#: VM the benchmark's bounds were set on; the intervals keep the
#: handler below about 3 % of the worker's time.
KERNELS = {
    "interpreter": (interpreter_kernel, 0.04, 8e-4),
    "dense": (dense_kernel, 0.4, 6e-3),
}


class HostSpeed:
    """Samples one reference kernel between ``start`` and ``stop``."""

    def __init__(self, kernel: str):
        self.kernel, self.interval, self.reference = KERNELS[kernel]
        self.samples = []  # (perf_counter at start, timed kernel seconds)
        self.spent = []  # (perf_counter at start, seconds) spent here

    def _tick(self, signum, frame):
        began = time.perf_counter()
        self.kernel()
        timed = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.samples.append((began, end - timed))
        self.spent.append((began, end - began))
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def start(self):
        began = time.perf_counter()
        self.kernel()  # first-call costs are not host speed
        self.spent.append((began, time.perf_counter() - began))
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def busy(self, start: float, end: float) -> float:
        """Seconds in [start, end) not spent in this class."""
        return end - start - sum(d for s, d in self.spent if start <= s < end)

    def normalized(self, start: float, end: float):
        """``busy(start, end)`` at the reference host speed.  An interval
        holding fewer than ``MIN_SAMPLES`` samples uses the samples
        nearest its middle; None when there are none at all."""
        inside = [d for s, d in self.samples if start <= s < end]
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2.0
            inside = [d for _, d in sorted(
                self.samples, key=lambda s: abs(s[0] - middle))[:MIN_SAMPLES]]
        if not inside:
            return None
        return self.busy(start, end) * self.reference * len(inside) / sum(inside)
