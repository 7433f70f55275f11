"""Unit tests for the stream-buffer prefetch destination."""

import pytest

from repro.core.config import CacheConfig, DramConfig, GpuConfig
from repro.gpusim import AccessOutcome, MemorySystem


def stream_config(**kw):
    defaults = dict(
        n_sms=1,
        prefetch_destination="stream",
        l1=CacheConfig(size_bytes=512, line_bytes=128, latency=20),
        stream_buffer=CacheConfig(size_bytes=256, line_bytes=128, latency=20),
        l2=CacheConfig(
            size_bytes=2048, line_bytes=128, associativity=2, latency=160
        ),
        dram=DramConfig(latency=100, partitions=4, burst_cycles=4),
    )
    defaults.update(kw)
    return GpuConfig(**defaults)


@pytest.fixture
def memsys():
    return MemorySystem(stream_config())


def run_until(mem):
    """Flush the whole agenda."""
    mem.drain(0)


class TestPrefetchPath:
    def test_prefetch_fills_buffer_not_l1(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, is_prefetch=True)
        run_until(mem)
        line = mem.l1s[0].line_of(0x1000)
        assert mem.stream_buffers[0].contains(line)
        assert not mem.l1s[0].contains(line)

    def test_demand_hit_migrates_to_l1(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, is_prefetch=True)
        run_until(mem)
        done = []
        mem.access(0, 0x1000, cycle=1000, callback=done.append)
        run_until(mem)
        line = mem.l1s[0].line_of(0x1000)
        assert done  # demand serviced
        assert mem.l1s[0].contains(line)
        assert not mem.stream_buffers[0].contains(line)
        assert mem.stream_buffer_hits == 1

    def test_buffer_hit_latency_below_l2(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, is_prefetch=True)
        run_until(mem)
        done = []
        mem.access(0, 0x1000, cycle=1000, callback=done.append)
        run_until(mem)
        # Transfer: L1 probe (miss) + buffer latency; far below the
        # 180-cycle L2 path.
        assert done[0] - 1000 < 100

    def test_timely_classification(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, is_prefetch=True)
        run_until(mem)
        mem.access(0, 0x1000, cycle=1000, callback=lambda c: None)
        run_until(mem)
        assert mem.finalize().timely == 1

    def test_demand_catches_inflight_prefetch(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, is_prefetch=True)
        done = []
        mem.access(0, 0x1000, cycle=5, callback=done.append)
        run_until(mem)
        assert done  # demand eventually serviced via the transfer
        line = mem.l1s[0].line_of(0x1000)
        assert mem.l1s[0].contains(line)
        counts = mem.finalize()
        assert counts.late == 1

    def test_prefetch_skips_line_already_in_l1(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, callback=lambda c: None)  # demand
        run_until(mem)
        outcome = mem.access(0, 0x1000, cycle=1000, is_prefetch=True)
        run_until(mem)
        assert outcome is AccessOutcome.HIT
        line = mem.l1s[0].line_of(0x1000)
        assert not mem.stream_buffers[0].contains(line)
        assert mem.finalize().too_late == 1

    def test_buffer_eviction_counts_early(self, memsys):
        mem = memsys
        # The 2-line buffer overflows on the third prefetch.
        for i in range(3):
            mem.access(0, 0x1000 + i * 128, cycle=0, is_prefetch=True)
        run_until(mem)
        counts = mem.finalize()
        assert counts.early == 1
        assert counts.unused == 2

    def test_prefetch_on_buffered_prefetch_is_redundant(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, is_prefetch=True)
        run_until(mem)
        outcome = mem.access(0, 0x1000, cycle=1000, is_prefetch=True)
        assert outcome is AccessOutcome.HIT
        counts = mem.finalize()
        assert counts.redundant == 1
        assert counts.unused == 1

    def test_prefetch_merging_into_buffer_fill_is_redundant(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, is_prefetch=True)
        outcome = mem.access(0, 0x1000, cycle=5, is_prefetch=True)
        assert outcome is AccessOutcome.PENDING_HIT
        run_until(mem)
        assert mem.finalize().redundant == 1

    def test_prefetch_on_inflight_demand_is_late(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, callback=lambda c: None)
        outcome = mem.access(0, 0x1000, cycle=5, is_prefetch=True)
        assert outcome is AccessOutcome.PENDING_HIT
        run_until(mem)
        assert mem.finalize().late == 1

    def test_buffer_fill_records_its_cycle(self, memsys):
        mem = memsys
        mem.access(0, 0x1000, cycle=0, is_prefetch=True)
        run_until(mem)
        line = mem.l1s[0].line_of(0x1000)
        # Buffer tag 20 + L2 tag 160 + burst 4 + DRAM 100.
        assert mem.stream_buffers[0].line_state(line) == 284

    def test_demand_miss_everywhere_goes_to_l2(self, memsys):
        mem = memsys
        done = []
        mem.access(0, 0x9000, cycle=0, callback=done.append)
        run_until(mem)
        assert done == [284]  # full L1+L2+DRAM path


class TestConfigValidation:
    def test_unknown_destination_rejected(self):
        with pytest.raises(ValueError):
            GpuConfig(prefetch_destination="l3")

    def test_line_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GpuConfig(
                stream_buffer=CacheConfig(size_bytes=256, line_bytes=64)
            )

    def test_l1_destination_has_no_buffers(self):
        mem = MemorySystem(GpuConfig())
        assert not mem.uses_stream_buffers
        assert mem.stream_buffers == []
