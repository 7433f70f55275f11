"""Coverage for stats merging, region accounting, and misc corners."""

import pytest

from repro.core.config import CacheConfig, GpuConfig
from repro.gpusim import MemorySystem, SimStats, merge_cache_stats
from repro.gpusim.cache import CacheStats
from repro.gpusim.memsys import REGION_MAPPING, REGION_NODE, REGION_PRIMITIVE


class TestMergeCacheStats:
    def test_merges_all_counters(self):
        a = CacheStats(demand_accesses=3, demand_hits=2, prefetch_misses=1)
        b = CacheStats(demand_accesses=4, demand_misses=4, evictions=2)
        merged = merge_cache_stats([a, b])
        assert merged.demand_accesses == 7
        assert merged.demand_hits == 2
        assert merged.demand_misses == 4
        assert merged.prefetch_misses == 1
        assert merged.evictions == 2

    def test_empty_merge(self):
        merged = merge_cache_stats([])
        assert merged.accesses == 0

    def test_explicit_field_list_covers_all_numeric_fields(self):
        """The merge's explicit field tuple must track the dataclass, so
        adding a counter without listing it fails loudly here instead of
        silently dropping it from aggregates."""
        import dataclasses

        from repro.gpusim.stats import CACHE_STAT_NUMERIC_FIELDS

        numeric = {
            field.name
            for field in dataclasses.fields(CacheStats)
            if isinstance(getattr(CacheStats(), field.name), (int, float))
        }
        assert set(CACHE_STAT_NUMERIC_FIELDS) == numeric

    def test_merge_ignores_non_numeric_fields(self):
        """A non-numeric attribute on CacheStats must not break merging."""
        a = CacheStats(demand_accesses=1)
        b = CacheStats(demand_accesses=2)
        a.debug_label = "L1[0]"  # simulates a future non-numeric field
        merged = merge_cache_stats([a, b])
        assert merged.demand_accesses == 3


class TestSimStatsDerived:
    def test_zero_cycles_safe(self):
        stats = SimStats()
        assert stats.ipc == 0.0
        assert stats.l2_bandwidth == 0.0
        assert stats.stall_fraction == 0.0

    def test_l1_breakdown_zero_denominator(self):
        stats = SimStats()
        assert all(v == 0.0 for v in stats.l1_breakdown().values())


class TestRegionAccounting:
    @pytest.fixture
    def memsys(self):
        config = GpuConfig(
            n_sms=1,
            l1=CacheConfig(size_bytes=512, line_bytes=128, latency=20),
            l2=CacheConfig(size_bytes=2048, line_bytes=128,
                           associativity=2, latency=160),
        )
        return MemorySystem(config)

    def test_mapping_region_not_node_latency(self, memsys):
        mem = memsys
        mem.access(0, 0x5000, cycle=0, region=REGION_MAPPING,
                   callback=lambda c: None)
        mem.drain(0)
        assert mem.node_demand_latency.count == 0
        assert mem.all_demand_latency.count == 1

    def test_node_region_counts_both(self, memsys):
        mem = memsys
        mem.access(0, 0x5000, cycle=0, region=REGION_NODE,
                   callback=lambda c: None)
        mem.drain(0)
        assert mem.node_demand_latency.count == 1
        assert mem.all_demand_latency.count == 1

    def test_mixed_regions_accumulate(self, memsys):
        mem = memsys
        for offset, region in enumerate(
            (REGION_NODE, REGION_PRIMITIVE, REGION_MAPPING)
        ):
            mem.access(0, 0x5000 + offset * 128, cycle=0, region=region,
                       callback=lambda c: None)
        mem.drain(0)
        assert mem.node_demand_latency.count == 1
        assert mem.all_demand_latency.count == 3
