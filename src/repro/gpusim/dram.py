"""Partitioned DRAM timing model.

Addresses interleave across ``partitions`` chips at ``partition_stride``
granularity (256 B in the paper's GPU).  Each partition serves one line
transfer at a time: a request waits for the partition's data bus, then
takes the access latency.  Per-partition busy cycles give the DRAM
utilization statistic of Figure 1a, and per-partition request counts
expose the load imbalance Section 6.4.1 fixes with the repack stride.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..core.config import DramConfig


@dataclass
class DramStats:
    accesses: int = 0
    per_partition_accesses: List[int] = field(default_factory=list)
    per_partition_busy: List[int] = field(default_factory=list)
    total_wait_cycles: int = 0

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of partition-cycles the data buses were busy."""
        if elapsed_cycles <= 0 or not self.per_partition_busy:
            return 0.0
        busy = sum(self.per_partition_busy)
        return busy / (elapsed_cycles * len(self.per_partition_busy))

    def imbalance(self) -> float:
        """Max/mean per-partition access ratio (1.0 = perfectly balanced)."""
        counts = self.per_partition_accesses
        if not counts or sum(counts) == 0:
            return 1.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean > 0 else 1.0


class Dram:
    """The memory controller + chips, as a bus-occupancy model."""

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        self.stats = DramStats(
            per_partition_accesses=[0] * config.partitions,
            per_partition_busy=[0] * config.partitions,
        )
        self._bus_free = [0] * config.partitions
        #: optional trace bus (repro.obs); None = tracing disabled.
        self.obs = None

    def service(self, address: int, cycle: int) -> int:
        """Accept a line request at ``cycle``; returns its completion cycle.

        The request occupies its partition's bus for ``burst_cycles``
        starting when the bus frees up, then data arrives ``latency``
        cycles later.
        """
        if cycle < 0:
            raise ValueError("cycle must be non-negative")
        config = self.config
        burst = config.burst_cycles
        partition = config.partition_of(address)
        start = max(cycle, self._bus_free[partition])
        self._bus_free[partition] = start + burst
        stats = self.stats
        stats.accesses += 1
        stats.per_partition_accesses[partition] += 1
        stats.per_partition_busy[partition] += burst
        stats.total_wait_cycles += start - cycle
        if self.obs is not None:
            self.obs.emit(
                "dram.service",
                start,
                f"DRAM[{partition}]",
                dur=burst,
                args={
                    "partition": partition,
                    "address": address,
                    "wait": start - cycle,
                },
            )
        return start + burst + config.latency
