"""Unit tests for the L1 -> L2 -> DRAM request path."""

import pytest

from repro.core.config import CacheConfig, DramConfig, GpuConfig
from repro.gpusim import AccessOutcome, MemorySystem
from repro.gpusim.cache import DEMANDED


def tiny_gpu_config(**kw):
    defaults = dict(
        n_sms=2,
        l1=CacheConfig(size_bytes=512, line_bytes=128, latency=20),
        l2=CacheConfig(
            size_bytes=2048, line_bytes=128, associativity=2, latency=160
        ),
        dram=DramConfig(latency=100, partitions=4, burst_cycles=4),
    )
    defaults.update(kw)
    return GpuConfig(**defaults)


@pytest.fixture
def memsys():
    return MemorySystem(tiny_gpu_config())


def run_until(mem):
    """Flush the whole agenda; returns the last bucket's cycle."""
    return mem.drain(0)


class TestLatencies:
    def test_l1_hit_latency(self, memsys):
        mem = memsys
        # Prime the line.
        mem.access(0, 0x1000, cycle=0, callback=lambda c: None)
        run_until(mem)
        done = []
        mem.access(0, 0x1000, cycle=1000, callback=done.append)
        run_until(mem)
        assert done == [1020]  # L1 hit latency 20

    def test_l2_hit_latency(self, memsys):
        mem = memsys
        # SM 0 brings the line into L2 (and its own L1).
        mem.access(0, 0x1000, cycle=0, callback=lambda c: None)
        run_until(mem)
        # SM 1 misses L1, hits L2.
        done = []
        mem.access(1, 0x1000, cycle=1000, callback=done.append)
        run_until(mem)
        assert done == [1000 + 20 + 160]

    def test_dram_latency(self, memsys):
        mem = memsys
        done = []
        mem.access(0, 0x1000, cycle=0, callback=done.append)
        run_until(mem)
        # L1 tag 20 + L2 tag 160 + burst 4 + dram 100 = 284.
        assert done == [284]

    def test_latency_stats_recorded(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, callback=lambda c: None)
        run_until(mem)
        assert mem.node_demand_latency.count == 1
        assert mem.node_demand_latency.average == pytest.approx(284)

    def test_primitive_region_not_in_node_latency(self, memsys):
        mem = memsys
        mem.access(
            0, 0x9000, cycle=0, region="primitive", callback=lambda c: None
        )
        run_until(mem)
        assert mem.node_demand_latency.count == 0
        assert mem.all_demand_latency.count == 1


class TestMerging:
    def test_pending_demands_merge(self, memsys):
        mem = memsys
        done = []
        mem.access(0, 0x1000, cycle=0, callback=lambda c: done.append(("a", c)))
        mem.access(0, 0x1000, cycle=5, callback=lambda c: done.append(("b", c)))
        run_until(mem)
        assert len(done) == 2
        assert done[0][1] == done[1][1]  # same fill services both

    def test_cross_sm_l2_merge(self, memsys):
        mem = memsys
        done = []
        mem.access(0, 0x1000, cycle=0, callback=lambda c: done.append(0))
        mem.access(1, 0x1000, cycle=0, callback=lambda c: done.append(1))
        run_until(mem)
        assert sorted(done) == [0, 1]
        assert mem.dram.stats.accesses == 1  # one DRAM fill for both

    def test_l1s_are_private(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, callback=lambda c: None)
        run_until(mem)
        outcome = mem.access(1, 0x1000, cycle=500, callback=lambda c: None)
        assert outcome is AccessOutcome.MISS


class TestPrefetchPath:
    def test_prefetch_counts_separately(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, is_prefetch=True)
        run_until(mem)
        assert mem.l1s[0].stats.prefetch_accesses == 1
        assert mem.l2_traffic.prefetch_accesses == 1
        assert mem.l2_traffic.demand_accesses == 0

    def test_prefetch_does_not_record_demand_latency(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, is_prefetch=True)
        run_until(mem)
        assert mem.all_demand_latency.count == 0

    def test_demand_after_prefetch_hits(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, is_prefetch=True)
        run_until(mem)
        done = []
        mem.access(0, 0x1000, cycle=1000, callback=done.append)
        run_until(mem)
        assert done == [1020]
        counts = mem.finalize()
        assert counts.timely == 1

    def test_effectiveness_late_when_demand_catches_prefetch(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, is_prefetch=True)
        mem.access(0, 0x1000, cycle=5, callback=lambda c: None)
        run_until(mem)
        counts = mem.finalize()
        assert counts.late == 1

    def test_effectiveness_unused_at_finalize(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, is_prefetch=True)
        run_until(mem)
        counts = mem.finalize()
        assert counts.unused == 1

    def test_too_late_prefetch(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, callback=lambda c: None)
        run_until(mem)
        mem.access(0, 0x1000, cycle=1000, is_prefetch=True)
        run_until(mem)
        counts = mem.finalize()
        assert counts.too_late == 1


class TestPackedLineState:
    """The one-int line state and the MSHR ownership set, end to end."""

    def test_prefetch_fill_records_its_cycle_in_l1_and_l2(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, is_prefetch=True)
        run_until(mem)
        line = mem.l1s[0].line_of(0x1000)
        # DRAM lands at 20 + 160 + 4 + 100 = 284, in the L2 and the L1.
        assert mem.l2.line_state(line) == 284
        assert mem.l1s[0].line_state(line) == 284

    def test_first_demand_hit_clears_it_once(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, is_prefetch=True)
        run_until(mem)
        line = mem.l1s[0].line_of(0x1000)
        for cycle in (1000, 2000):
            mem.access(0, 0x1000, cycle=cycle, callback=lambda c: None)
            run_until(mem)
            assert mem.l1s[0].line_state(line) == DEMANDED
        assert mem.l1s[0].stats.demand_hits_on_prefetched == 1
        assert mem.finalize().timely == 1

    def test_evicting_untouched_prefetch_reaches_tracker(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, is_prefetch=True)
        run_until(mem)
        # Four demand lines fill the 4-line L1 and evict the prefetch.
        for i in range(1, 5):
            mem.access(0, 0x1000 + i * 128, cycle=1000,
                       callback=lambda c: None)
        run_until(mem)
        assert mem.l1s[0].stats.prefetched_evicted_unused == 1
        counts = mem.finalize()
        assert counts.early == 1
        assert counts.unused == 0

    def test_l1_demand_merge_takes_ownership(self, memsys):
        mem = memsys
        l1 = mem.l1s[0]
        line = l1.line_of(0x1000)
        mem.access(0, 0x1000, cycle=0, is_prefetch=True)
        assert l1.mshr_owner_is_prefetch(line) is True
        mem.access(0, 0x1000, cycle=5, callback=lambda c: None)
        assert l1.mshr_owner_is_prefetch(line) is False
        assert l1.stats.demand_pending_on_prefetch == 1
        run_until(mem)
        assert l1.line_state(line) == DEMANDED
        assert not l1._prefetch_mshrs

    def test_l2_demand_merge_takes_ownership(self, memsys):
        mem = memsys
        l2 = mem.l2
        line = l2.line_of(0x1000)
        # SM 0's prefetch misses the L2 at cycle 20; SM 1's demand
        # reaches the L2 at cycle 30, while the DRAM fill is in flight.
        mem.access(0, 0x1000, cycle=0, is_prefetch=True)
        mem.access(1, 0x1000, cycle=10, callback=lambda c: None)
        mem.flush_due(20)
        assert l2.mshr_owner_is_prefetch(line) is True
        mem.flush_due(30)
        assert l2.mshr_owner_is_prefetch(line) is False
        assert l2.stats.demand_pending_on_prefetch == 1
        run_until(mem)
        assert l2.line_state(line) == DEMANDED
        assert not l2._prefetch_mshrs
        # The L1s keep their own owners: SM 0's line is a prefetch fill.
        assert mem.l1s[0].line_state(line) >= 0
        assert mem.l1s[1].line_state(line) == DEMANDED


class TestBookkeeping:
    def test_l2_bytes_counts_all_arrivals(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, callback=lambda c: None)
        mem.access(0, 0x2000, cycle=0, is_prefetch=True)
        run_until(mem)
        assert mem.l2_traffic.total_bytes == 2 * 128

    def test_drain_complete(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, callback=lambda c: None)
        assert not mem.drain_complete()
        run_until(mem)
        assert mem.drain_complete()

    def test_can_accept_tracks_mshrs(self):
        config = tiny_gpu_config(
            l1=CacheConfig(
                size_bytes=512, line_bytes=128, latency=20, mshr_entries=1
            )
        )
        mem = MemorySystem(config)
        assert mem.can_accept(0)
        mem.access(0, 0x1000, cycle=0, callback=lambda c: None)
        assert not mem.can_accept(0)
