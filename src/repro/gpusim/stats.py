"""Aggregated simulation results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..prefetch.effectiveness import EffectivenessCounts
from .cache import CacheStats


@dataclass
class SimStats:
    """Everything one timing-simulation run reports.

    ``cycles`` is the headline: the paper's speedups are IPC ratios over
    a fixed frame workload, which reduces to cycle ratios here.
    """

    cycles: int = 0
    ray_count: int = 0
    warp_count: int = 0
    visits_completed: int = 0
    node_fetches: int = 0
    primitive_fetches: int = 0
    prefetches_issued: int = 0
    warp_latency_avg: float = 0.0
    busy_cycles: int = 0  # summed over RT units
    stall_cycles: int = 0  # summed over RT units (no ready ray)
    mshr_stall_cycles: int = 0  # summed over RT units (MSHRs full)
    # Memory-side aggregates.
    avg_node_demand_latency: float = 0.0
    avg_demand_latency: float = 0.0
    dram_utilization: float = 0.0
    dram_accesses: int = 0
    dram_imbalance: float = 1.0
    dram_per_partition: List[int] = field(default_factory=list)
    l2_bytes: int = 0
    l2_demand_accesses: int = 0
    l2_prefetch_accesses: int = 0
    stream_buffer_hits: int = 0
    l1: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)
    effectiveness: EffectivenessCounts = field(
        default_factory=EffectivenessCounts
    )
    voter_decisions: int = 0
    voter_accuracy: float = 0.0
    hit_max_cycles: bool = False

    @property
    def stall_fraction(self) -> float:
        """Latency-bound stalls per total non-idle unit-cycle (the
        indicator prefetching should reduce).  Bandwidth-bound cycles
        (MSHRs full) are counted in the denominator but not the
        numerator — see :attr:`mshr_stall_fraction`."""
        denominator = (
            self.busy_cycles + self.stall_cycles + self.mshr_stall_cycles
        )
        return self.stall_cycles / denominator if denominator else 0.0

    @property
    def mshr_stall_fraction(self) -> float:
        """Bandwidth-bound stalls (ready ray, L1 MSHRs full) per total
        non-idle unit-cycle."""
        denominator = (
            self.busy_cycles + self.stall_cycles + self.mshr_stall_cycles
        )
        return self.mshr_stall_cycles / denominator if denominator else 0.0

    @property
    def ipc(self) -> float:
        """Completed traversal steps per cycle (the paper's IPC proxy)."""
        return self.visits_completed / self.cycles if self.cycles else 0.0

    @property
    def l2_bandwidth(self) -> float:
        """Bytes per cycle arriving at L2."""
        return self.l2_bytes / self.cycles if self.cycles else 0.0

    def per_cycle_rates(self) -> Dict[str, float]:
        """Every headline rate, denominated by one shared cycle base.

        ``cycles`` is set exactly once per ``run()`` — after the
        trailing agenda drain (:meth:`MemorySystem.drain`) — so the rates
        here all share that denominator.  Mixing rates computed against
        different cycle bases (pre-drain DRAM utilization versus
        post-drain IPC) was the accounting bug this pins against.
        """
        return {
            "ipc": self.ipc,
            "l2_bandwidth": self.l2_bandwidth,
            "dram_utilization": self.dram_utilization,
            "stall_fraction": self.stall_fraction,
            "mshr_stall_fraction": self.mshr_stall_fraction,
        }

    def l1_breakdown(self) -> Dict[str, float]:
        """Figure 12's stacked bars: fractions of demand node accesses.

        Buckets (bottom to top in the paper's figure): hits on
        prefetch-brought lines, hits on demand-brought lines, pending
        hits, misses.
        """
        total = self.l1.demand_accesses
        if total == 0:
            return {
                "prefetch_hits": 0.0,
                "demand_hits": 0.0,
                "pending_hits": 0.0,
                "misses": 0.0,
            }
        prefetch_hits = self.l1.demand_hits_on_prefetched
        return {
            "prefetch_hits": prefetch_hits / total,
            "demand_hits": (self.l1.demand_hits - prefetch_hits) / total,
            "pending_hits": self.l1.demand_pending_hits / total,
            "misses": self.l1.demand_misses / total,
        }


#: The summable counters of :class:`CacheStats`, listed explicitly so a
#: future non-numeric field (a name, a listener, a nested object) cannot
#: silently corrupt the merge.  ``tests/test_stats_misc.py`` checks this
#: tuple stays in sync with the dataclass.
CACHE_STAT_NUMERIC_FIELDS = (
    "demand_accesses",
    "demand_hits",
    "demand_hits_on_prefetched",
    "demand_pending_hits",
    "demand_pending_on_prefetch",
    "demand_misses",
    "prefetch_accesses",
    "prefetch_hits",
    "prefetch_pending_hits",
    "prefetch_misses",
    "evictions",
    "prefetched_evicted_unused",
)


def merge_cache_stats(parts: List[CacheStats]) -> CacheStats:
    """Sum per-SM L1 stats into one aggregate (numeric fields only)."""
    merged = CacheStats()
    for part in parts:
        for name in CACHE_STAT_NUMERIC_FIELDS:
            setattr(merged, name, getattr(merged, name) + getattr(part, name))
    return merged
