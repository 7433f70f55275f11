"""A fixed piece of host work that tracks how fast the host runs.

On a shared host the same code can run up to twice as slow from one
minute to the next, whatever it computes, as other tenants load the
cores it shares.  While the suite measures, a :class:`Sampler` runs
this kernel every :data:`PERIOD_S` in the measuring thread, and the
suite scales each op's wall by the median kernel wall around it (to the
power :data:`EXPONENT`), so a time it reports reads as seconds on a host
where the kernel takes :data:`REFERENCE_S`.

The kernel imitates the program's two kinds of host work: an event loop
over a heap, dicts and small objects, as in the simulator, and a loop of
numpy calls on small arrays, as in the BVH build.  It is part of the
benchmark, so a change to the program never changes it.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from contextlib import contextmanager
from typing import List, Tuple

import numpy as np

#: The kernel's median wall on the 2-CPU host the suite was calibrated
#: on (python 3.11, numpy 2.4), rounded.
REFERENCE_S = 0.020
#: The program's walls move as the kernel's wall to this power: over 90
#: runs of render-cold, replay-panel and query-cold on that host, the
#: log of a run's wall against the log of its median kernel wall had
#: slopes 0.58 to 0.70, and the scaled walls spread least at 0.7 to 0.8.
#: The small kernel slows more than the program when the host is loaded.
EXPONENT = 0.8
#: Wall time between two kernel runs of a :class:`Sampler`.
PERIOD_S = 0.25

_POINTS = np.random.default_rng(0).random((256, 3))


class _Line:
    __slots__ = ("tag", "ready", "hits")

    def __init__(self, tag: int, ready: int) -> None:
        self.tag = tag
        self.ready = ready
        self.hits = 0


def _events(steps: int = 10000) -> int:
    """A small cache simulation: a heap of timed events over a dict of
    lines."""
    lines = {}
    queue = [(0, 0)]
    done = 0
    while queue and done < steps:
        cycle, address = heapq.heappop(queue)
        tag = address % 509
        line = lines.get(tag)
        if line is None or line.tag != address:
            lines[tag] = _Line(address, cycle + 40)
        else:
            line.hits += 1
        done += 1
        heapq.heappush(queue, (cycle + 1 + address % 7,
                               (address * 31 + 17) % 4093))
        if done % 3 == 0:
            heapq.heappush(queue, (cycle + 5, (address * 13 + 1) % 4093))
    return done


def _splits(rounds: int = 240) -> float:
    """Binned-split cost evaluation on small arrays, as a BVH build
    does per node."""
    total = 0.0
    for index in range(rounds):
        points = _POINTS[index % 4 * 64:(index % 4 + 1) * 64]
        low = points.min(axis=0)
        extent = points.max(axis=0) - low
        for axis in range(3):
            bins = np.minimum(
                ((points[:, axis] - low[axis]) * (8 / extent[axis]))
                .astype(np.int64), 7)
            counts = np.bincount(bins, minlength=8)
            left = np.cumsum(counts)
            cost = left[:-1] * (len(points) - left[:-1])
            total += float(cost[int(np.argmin(cost))])
    return total


def kernel() -> float:
    """Run the kernel once and return its wall time in seconds."""
    start = time.perf_counter()
    _events()
    _splits()
    return time.perf_counter() - start


class Sampler:
    """Runs :func:`kernel` every :data:`PERIOD_S` of wall time while
    :meth:`running`, from a ``SIGALRM`` handler, so in the main thread
    between two bytecodes of whatever it is running.

    ``total`` is the wall all its kernel runs took, which callers take
    out of the walls they measure; ``on_sample(seconds)``, when set, is
    told of each run.
    """

    def __init__(self) -> None:
        #: (``time.perf_counter`` at the end of the run, its wall)
        self.samples: List[Tuple[float, float]] = []
        self.total = 0.0
        self.on_sample = None
        self._active = False

    def _tick(self, signum, frame) -> None:
        if not self._active:
            return
        self._active = False  # a tick that comes during this run skips
        try:
            seconds = kernel()
        finally:
            self._active = True
        self.samples.append((time.perf_counter(), seconds))
        self.total += seconds
        if self.on_sample is not None:
            self.on_sample(seconds)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._active = True
        try:
            yield self
        finally:
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def paused(self):
        """No kernel runs within the block; one runs just before it and
        one just after, so :meth:`around` can scale the block's wall."""
        self._tick(signal.SIGALRM, None)
        active, self._active = self._active, False
        try:
            yield
        finally:
            self._active = active
            self._tick(signal.SIGALRM, None)

    def around(self, start: float, end: float) -> float:
        """The median kernel wall from ``start - PERIOD_S`` to
        ``end + PERIOD_S``, or the run nearest to that span."""
        near = [seconds for at, seconds in self.samples
                if start - PERIOD_S <= at <= end + PERIOD_S]
        if near:
            return statistics.median(near)
        return min(self.samples,
                   key=lambda sample: min(abs(sample[0] - start),
                                          abs(sample[0] - end)))[1]
