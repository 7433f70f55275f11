"""Optional timeline sampling for the GPU model.

A :class:`TimelineSampler` snapshots per-SM occupancy (ready rays,
resident warps, outstanding prefetch-queue depth) at a fixed cycle
interval, giving a coarse time-series view of where a run spends its
cycles.  The replay engine feeds it per-unit readings (a few counter
reads per sample), and it is *observational only*: attaching one must
not change any simulation result.

When a :class:`~repro.obs.metrics.MetricRegistry` is attached, every
sample is also recorded as gauge series (aggregate and per-SM), which is
how the occupancy view reaches run reports and the Perfetto export.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class TimelineSample:
    """One snapshot of GPU occupancy."""

    cycle: int
    ready_rays: int
    resident_warps: int
    prefetch_queue_depth: int


def unit_reading(unit) -> Tuple[int, int, int]:
    """One RT unit's ``(ready rays, resident warps, prefetch-queue
    depth)``; ``unit`` exposes ``ready_total()``, ``buffer`` and
    ``prefetcher.queue_depth()``."""
    return unit.ready_total(), len(unit.buffer), unit.prefetcher.queue_depth()


@dataclass
class TimelineSampler:
    """Collects :class:`TimelineSample` every ``interval`` cycles.

    Sampling thresholds stay on the fixed grid ``0, interval,
    2*interval, ...`` even when a sample lands past a boundary (a run
    starts past it), so long runs do not accumulate phase drift and
    the sample count tracks ``cycles / interval``.

    The replay engine reads :attr:`due` and calls :meth:`record`: a
    sample due at one of its time buckets reads each unit between its
    deliveries and its step, and one due between buckets reads the
    state the last bucket left, so sampling adds no bucket.
    """

    interval: int = 64
    samples: List[TimelineSample] = field(default_factory=list)
    #: optional repro.obs MetricRegistry the samples are mirrored into.
    registry: Optional[Any] = None
    #: the next grid point at which a sample is due.
    due: int = 0

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError("sampling interval must be positive")

    def maybe_sample(self, cycle: int, units: Sequence) -> None:
        """Record a sample of ``units`` (see :func:`unit_reading`) when
        one is due at ``cycle``."""
        if cycle >= self.due:
            self.record(cycle, [unit_reading(unit) for unit in units])

    def record(
        self, cycle: int, readings: Sequence[Tuple[int, int, int]]
    ) -> None:
        """Record one sample at ``cycle`` from per-SM :func:`unit_reading`
        tuples, and move :attr:`due` to the next grid point after it."""
        # Whole intervals keep the grid anchored at multiples of interval.
        self.due += self.interval * ((cycle - self.due) // self.interval + 1)
        ready = sum(reading[0] for reading in readings)
        resident = sum(reading[1] for reading in readings)
        queued = sum(reading[2] for reading in readings)
        self.samples.append(
            TimelineSample(
                cycle=cycle,
                ready_rays=ready,
                resident_warps=resident,
                prefetch_queue_depth=queued,
            )
        )
        if self.registry is not None:
            registry = self.registry
            registry.gauge("occupancy.ready_rays").record(cycle, ready)
            registry.gauge("occupancy.resident_warps").record(cycle, resident)
            registry.gauge("prefetch.queue_depth").record(cycle, queued)
            for sm, (sm_ready, sm_resident, _) in enumerate(readings):
                registry.gauge(f"occupancy.sm{sm}.ready_rays").record(
                    cycle, sm_ready
                )
                registry.gauge(f"occupancy.sm{sm}.resident_warps").record(
                    cycle, sm_resident
                )

    def series(self, attribute: str) -> List[int]:
        """One attribute across all samples, e.g. ``series('ready_rays')``."""
        return [getattr(sample, attribute) for sample in self.samples]

    def mean(self, attribute: str) -> float:
        values = self.series(attribute)
        return sum(values) / len(values) if values else 0.0
