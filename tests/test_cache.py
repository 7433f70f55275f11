"""Unit tests for the cache tag/MSHR model."""

import pytest

from repro.core.config import CacheConfig
from repro.gpusim import AccessOutcome, Cache
from repro.gpusim.cache import DEMANDED


def tiny_cache(lines=4, assoc=0):
    return Cache(
        CacheConfig(
            size_bytes=lines * 128, line_bytes=128, associativity=assoc
        )
    )


class TestProbeOutcomes:
    def test_cold_miss(self):
        cache = tiny_cache()
        assert cache.probe(1, is_prefetch=False) is AccessOutcome.MISS
        assert cache.stats.demand_misses == 1

    def test_hit_after_fill(self):
        cache = tiny_cache()
        cache.probe(1, is_prefetch=False)
        cache.fill(1, cycle=10)
        assert cache.probe(1, is_prefetch=False) is AccessOutcome.HIT
        assert cache.stats.demand_hits == 1

    def test_pending_hit_while_in_flight(self):
        cache = tiny_cache()
        cache.probe(1, is_prefetch=False)
        outcome = cache.probe(1, is_prefetch=False)
        assert outcome is AccessOutcome.PENDING_HIT
        assert cache.stats.demand_pending_hits == 1

    def test_fill_returns_all_waiters(self):
        cache = tiny_cache()
        seen = []
        cache.probe(1, is_prefetch=False, waiter=lambda c: seen.append("a"))
        cache.probe(1, is_prefetch=False, waiter=lambda c: seen.append("b"))
        waiters = cache.fill(1, cycle=5)
        for w in waiters:
            w(5)
        assert seen == ["a", "b"]

    def test_line_of_uses_line_bytes(self):
        cache = tiny_cache()
        assert cache.line_of(0) == 0
        assert cache.line_of(127) == 0
        assert cache.line_of(128) == 1


class TestLru:
    def test_eviction_order_is_lru(self):
        cache = tiny_cache(lines=2)
        for line in (1, 2):
            cache.probe(line, is_prefetch=False)
            cache.fill(line, cycle=0)
        cache.probe(1, is_prefetch=False)  # touch 1; 2 becomes LRU
        cache.probe(3, is_prefetch=False)
        cache.fill(3, cycle=1)
        assert cache.contains(1)
        assert not cache.contains(2)
        assert cache.contains(3)

    def test_eviction_listener_called(self):
        cache = tiny_cache(lines=1)
        evicted = []
        cache.eviction_listener = lambda line, meta: evicted.append(line)
        for line in (1, 2):
            cache.probe(line, is_prefetch=False)
            cache.fill(line, cycle=0)
        assert evicted == [1]

    def test_set_associative_isolation(self):
        # 4 lines, 2-way: lines 0 and 2 share set 0; 1 and 3 share set 1.
        cache = tiny_cache(lines=4, assoc=2)
        for line in (0, 2, 4):  # all map to set 0
            cache.probe(line, is_prefetch=False)
            cache.fill(line, cycle=0)
        assert not cache.contains(0)  # evicted by 4
        assert cache.contains(2) and cache.contains(4)
        cache.probe(1, is_prefetch=False)
        cache.fill(1, cycle=0)
        assert cache.contains(1)  # other set untouched


class TestPrefetchAttribution:
    def test_prefetch_fill_tagged(self):
        cache = tiny_cache()
        cache.probe(1, is_prefetch=True)
        cache.fill(1, cycle=0)
        assert cache.line_state(1) >= 0

    def test_prefetch_fill_records_its_cycle(self):
        cache = tiny_cache()
        cache.probe(1, is_prefetch=True)
        cache.fill(1, cycle=37)
        assert cache.line_state(1) == 37

    def test_demand_fill_is_demanded(self):
        cache = tiny_cache()
        cache.probe(1, is_prefetch=False)
        cache.fill(1, cycle=37)
        assert cache.line_state(1) == DEMANDED

    def test_demand_merge_takes_ownership(self):
        cache = tiny_cache()
        cache.probe(1, is_prefetch=True)
        assert cache.mshr_owner_is_prefetch(1) is True
        cache.probe(1, is_prefetch=False)
        assert cache.mshr_owner_is_prefetch(1) is False
        assert cache.stats.demand_pending_on_prefetch == 1
        cache.fill(1, cycle=0)
        assert cache.line_state(1) == DEMANDED

    def test_demand_hit_on_prefetched_line_counted_once(self):
        cache = tiny_cache()
        cache.probe(1, is_prefetch=True)
        cache.fill(1, cycle=0)
        cache.probe(1, is_prefetch=False)
        cache.probe(1, is_prefetch=False)
        assert cache.stats.demand_hits_on_prefetched == 1
        assert cache.stats.demand_hits == 2

    def test_first_demand_hit_clears_the_fill_cycle(self):
        cache = tiny_cache()
        cache.probe(1, is_prefetch=True)
        cache.fill(1, cycle=12)
        cache.probe(1, is_prefetch=True)  # a prefetch hit touches nothing
        assert cache.line_state(1) == 12
        cache.probe(1, is_prefetch=False)
        assert cache.line_state(1) == DEMANDED
        cache.probe(1, is_prefetch=False)
        assert cache.line_state(1) == DEMANDED
        assert cache.stats.demand_hits_on_prefetched == 1

    def test_demanded_prefetch_eviction_not_counted_unused(self):
        cache = tiny_cache(lines=1)
        evicted = []
        cache.eviction_listener = lambda line, state: evicted.append(state)
        cache.probe(1, is_prefetch=True)
        cache.fill(1, cycle=0)
        cache.probe(1, is_prefetch=False)
        cache.probe(2, is_prefetch=False)
        cache.fill(2, cycle=1)
        assert cache.stats.prefetched_evicted_unused == 0
        assert evicted == [DEMANDED]

    def test_unused_prefetched_eviction_counted(self):
        cache = tiny_cache(lines=1)
        cache.probe(1, is_prefetch=True)
        cache.fill(1, cycle=0)
        cache.probe(2, is_prefetch=False)
        cache.fill(2, cycle=1)
        assert cache.stats.prefetched_evicted_unused == 1


class TestMshr:
    def test_mshr_full_detection(self):
        config = CacheConfig(size_bytes=512, line_bytes=128, mshr_entries=2)
        cache = Cache(config)
        cache.probe(1, is_prefetch=False)
        assert not cache.mshr_full()
        cache.probe(2, is_prefetch=False)
        assert cache.mshr_full()
        cache.fill(1, cycle=0)
        assert not cache.mshr_full()

    def test_flush_rejected_with_inflight_fills(self):
        cache = tiny_cache()
        cache.probe(1, is_prefetch=False)
        with pytest.raises(RuntimeError):
            cache.flush()

    def test_flush_empties_cache(self):
        cache = tiny_cache()
        cache.probe(1, is_prefetch=False)
        cache.fill(1, cycle=0)
        cache.flush()
        assert not cache.contains(1)

    def test_flush_empties_every_set(self):
        cache = tiny_cache(lines=8, assoc=2)  # 4 sets
        for line in range(8):
            cache.probe(line, is_prefetch=line % 2 == 0)
            cache.fill(line, cycle=line)
        assert all(len(set_map) == 2 for set_map in cache._sets)
        cache.flush()
        assert all(not set_map for set_map in cache._sets)
        assert not any(cache.contains(line) for line in range(8))
        # The sets are reused, not rebuilt: a refill lands as before.
        cache.probe(5, is_prefetch=True)
        cache.fill(5, cycle=9)
        assert cache.line_state(5) == 9

    def test_fill_releases_prefetch_ownership(self):
        cache = tiny_cache()
        cache.probe(1, is_prefetch=True)
        cache.fill(1, cycle=3)
        assert cache.mshr_owner_is_prefetch(1) is None
        assert not cache._prefetch_mshrs


class TestConfigValidation:
    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=100, line_bytes=128)
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=0)

    def test_assoc_must_divide_lines(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=3 * 128, line_bytes=128, associativity=2)

    def test_fully_assoc_geometry(self):
        config = CacheConfig(size_bytes=1024, line_bytes=128, associativity=0)
        assert config.n_lines == 8
        assert config.n_sets == 1
