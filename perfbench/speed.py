"""Host speed, measured by a fixed reference task interleaved with the work.

On a shared virtual machine the speed of this process drifts by tens of
percent within seconds, and CPU time drifts with wall time, so longer runs
and medians do not remove it.  The slowdown hits interpreter and small-numpy
work alike: a pure-Python loop and a small-array numpy loop, alternated for
90 s, slowed together (their per-window medians moved 0.6x-1.2x while their
ratio stayed within 4%).  So the benchmark times ``reference()`` before,
during and after every call into varcert and rescales the call's wall time
by ``REF_S`` over the mean reference time: each timing reads as seconds at
the speed of the machine ``REF_S`` was taken on.  The reference runs no
varcert code, so a change to varcert does not move it.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

import numpy as np

# median of reference() on a 2-vCPU x86-64 Xeon VM (Python 3.11, numpy 2,
# one BLAS thread); only a scale, so that rescaled times read as seconds
REF_S = 1.15e-3

_VEC = np.linspace(0.1, 0.8, 8)
_TERMS = ("x1", "x2", "s1", "(x1 - 0.5)")


def _task():
    x, acc, names = _VEC, 0.0, {}
    for i in range(320):
        x = np.maximum(x * 0.5 + _VEC, 0.0)
        acc += float(x[i % 8]) * 1.0001
        names[_TERMS[i % 4] + str(i % 7)] = i
    return acc + len(names)


def reference() -> float:
    """Seconds of the reference task: the faster of two repeats, GC held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = perf_counter()
            _task()
            best = min(best, perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times calls and samples the reference before, during and after each.

    During a call a SIGALRM interval timer samples the reference every
    ``interval`` seconds, from the handler, in this thread; the handler's
    own time is taken out of the call's time.  A call's factor is REF_S
    over the mean of its samples: the one before it (the previous call's
    last), those during it and the one after it.  With ``interval`` None
    only the samples around a call are taken, which leaves the spans of
    a traced run free of sampler time.
    """

    def __init__(self, interval=None):
        self.interval = interval
        if interval:
            signal.signal(signal.SIGALRM, self._sample)
        self.last = reference()
        self._refs = None
        self._spent = 0.0

    def _sample(self, signum, frame):
        if self._refs is not None:
            t0 = perf_counter()
            self._refs.append(reference())
            self._spent += perf_counter() - t0

    def time(self, fn):
        """Run ``fn()``; returns (its result, its wall seconds, its factor)."""
        self._refs, self._spent = [self.last], 0.0
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            if self.interval:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            dt = perf_counter() - t0 - self._spent
            refs, self._refs = self._refs, None
        self.last = reference()
        refs.append(self.last)
        return result, dt, REF_S * len(refs) / sum(refs)
