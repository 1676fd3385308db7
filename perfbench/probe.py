"""The speed probe: a fixed chunk of reference work, timed while the program runs.

The host this benchmark runs on changes speed by tens of percent over
seconds to minutes, as other tenants come and go.  :class:`SpeedProbe` runs
a small chunk of fixed work from a ``SIGALRM`` handler every
:data:`PERIOD` seconds of a repetition and times it, so it measures the
host's speed during that very repetition.  A repetition's time in units of
the chunk's mean time (``wall_ref``) then moves with the program, and far
less with the host.  The chunk mixes scalar ``math`` in the interpreter,
like the pure-Python sampler kernels, with small-array numpy calls, like the
grid and summary code; it takes 1-2 ms on a 2-vCPU Xeon VM, so the probe
costs about 4% of a repetition, and :attr:`SpeedProbe.busy` lets the
caller take that time out of what it measures.

The handler runs between bytecodes of the main thread, never inside a C
call, and touches nothing of the program's.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PERIOD = 0.04

_X = np.linspace(0.01, 1.0, 64)


def _scalar_math(n: int) -> float:
    s = 0.0
    for i in range(1, n):
        x = i * 1e-4
        s += math.log1p(x) * math.exp(-x) + math.sqrt(x)
    return s


def _small_arrays(n: int) -> float:
    s = 0.0
    for _ in range(n):
        s += float(np.sum(np.exp(-_X) * np.log1p(_X)))
    return s


def chunk() -> None:
    """The reference work: about half scalar math, half numpy calls."""
    _scalar_math(3000)
    _small_arrays(100)


class SpeedProbe:
    """Times :func:`chunk` every :data:`PERIOD` seconds while entered."""

    def __init__(self):
        self.busy = 0.0  # seconds spent in chunks, ever
        self.samples: list[float] = []  # chunk times since the last __enter__
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        chunk()
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        self.busy += seconds

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
