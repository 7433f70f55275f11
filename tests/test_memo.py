"""The one bounded memo: LRU semantics, its counters, its disk tier,
and a soak run proving the pipeline's memory stays flat under it."""

import dataclasses
import gc
import tracemalloc

import pytest

from repro import SMOKE, TREELET_PREFETCH, api
from repro.core import clear_caches, reset_build_counts
from repro.core.memo import LRU, MEMO, MEMO_CAPACITY
from repro.exec import set_artifact_cache


class FakeDisk:
    """A dict with the artifact cache's load/store shape."""

    def __init__(self):
        self.entries = {}

    def load(self, kind, key):
        return self.entries.get((kind, key))

    def store(self, kind, key, value):
        self.entries[(kind, key)] = value


class TestLRU:
    def test_kinds_share_one_bound(self):
        lru = LRU(capacity=2)
        lru.put("bvh", "a", 1)
        lru.put("traces", "a", 2)  # same key, other kind: a new entry
        lru.put("result", "b", 3)  # evicts ("bvh", "a")
        assert lru.get("bvh", "a") is None
        assert lru.get("traces", "a") == 2
        assert len(lru) == 2
        assert lru.count("evictions", "bvh") == 1
        assert lru.count("evictions") == 1

    def test_get_or_build_counts_per_kind(self):
        lru = LRU(capacity=4)
        calls = []

        def build():
            calls.append(1)
            return "value"

        assert lru.get_or_build("bvh", "k", build) == "value"
        assert lru.get_or_build("bvh", "k", build) == "value"
        assert calls == [1]
        info = lru.info()
        assert info["kinds"]["bvh"] == {
            "hits": 1, "misses": 1, "evictions": 0, "builds": 1,
            "entries": 1,
        }
        assert info["entries"] == 1 and info["capacity"] == 4
        assert info["hit_rate"] == 0.5

    def test_disk_tier_is_read_before_building(self):
        lru = LRU(capacity=4)
        disk = FakeDisk()
        disk.store("rays", "warm", "from disk")
        values = lru.get_or_build_all(
            "rays", ["warm", "cold", "warm"],
            lambda missing: [f"built {key}" for key in missing], disk,
        )
        assert values == ["from disk", "built cold", "from disk"]
        assert disk.entries[("rays", "cold")] == "built cold"
        assert lru.count("builds", "rays") == 1

    def test_batch_values_survive_their_own_eviction(self):
        lru = LRU(capacity=1)
        values = lru.get_or_build_all(
            "traces", ["a", "b", "c"], lambda missing: list(missing)
        )
        assert values == ["a", "b", "c"]
        assert len(lru) == 1

    def test_clear_by_kind(self):
        lru = LRU(capacity=4)
        lru.put("result", 1, "r")
        lru.put("bvh", 1, "b")
        lru.clear("result")
        assert lru.get("result", 1) is None
        assert lru.get("bvh", 1) == "b"
        lru.clear()
        assert len(lru) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRU(capacity=-1)


@pytest.fixture
def small_memo(monkeypatch):
    """The process memo bounded to eight entries, from a cold start."""
    set_artifact_cache(None)
    clear_caches()
    reset_build_counts()
    monkeypatch.setattr(MEMO, "capacity", 8)
    yield MEMO
    clear_caches()
    reset_build_counts()


def test_memo_capacity_is_the_bound():
    assert MEMO.capacity == MEMO_CAPACITY


def test_soak_memory_plateaus_under_the_bound(small_memo):
    """200 distinct results through an 8-entry memo: the memo never
    holds more than its bound, and memory after call 200 is what it was
    after call 50."""
    tracemalloc.start()
    try:
        for call in range(1, 201):
            technique = dataclasses.replace(
                TREELET_PREFETCH, voter_latency=call
            )
            api.run("WKND", technique, SMOKE)
            assert len(small_memo) <= small_memo.capacity
            if call == 50:
                gc.collect()
                at_50 = tracemalloc.get_traced_memory()[0]
        gc.collect()
        at_200 = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert small_memo.count("evictions") > 0
    assert abs(at_200 - at_50) <= 0.10 * at_50, (at_50, at_200)
