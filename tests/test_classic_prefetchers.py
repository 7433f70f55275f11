"""Unit tests for the MTA, stride, stream, and GHB baselines, and the
prefetch queue they share with the treelet prefetcher."""

import numpy as np
import pytest

from repro.prefetch import (
    GhbPrefetcher,
    MtaPrefetcher,
    StridePrefetcher,
    StreamPrefetcher,
    TreeletAddressMap,
    TreeletPrefetcher,
)
from repro.treelet import treelet_layout
from test_treelet_prefetcher import votes


def drain(prefetcher):
    out = []
    while True:
        request = prefetcher.pop_prefetch(0)
        if request is None:
            return [r.address for r in out]
        out.append(request)


class TestMta:
    def test_detects_repeating_stride(self):
        p = MtaPrefetcher(line_bytes=128, degree=2)
        for addr in (0, 256, 512):  # stride 256 seen twice
            p.on_demand_issue(0, addr, cycle=0)
        assert drain(p) == [768, 1024]

    def test_irregular_stream_yields_nothing(self):
        p = MtaPrefetcher()
        for addr in (0, 8192, 128, 99840, 256):
            p.on_demand_issue(0, addr, cycle=0)
        assert drain(p) == []

    def test_per_warp_isolation(self):
        p = MtaPrefetcher(degree=1)
        # Interleaved warps, each with its own clean stride.
        for i in range(3):
            p.on_demand_issue(0, i * 128, cycle=0)
            p.on_demand_issue(1, i * 512, cycle=0)
        addresses = drain(p)
        assert 3 * 128 in addresses
        assert 3 * 512 in addresses

    def test_zero_stride_ignored(self):
        p = MtaPrefetcher()
        for _ in range(5):
            p.on_demand_issue(0, 128, cycle=0)
        assert drain(p) == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MtaPrefetcher(degree=0)


class TestStride:
    def test_confirmed_stride_prefetches_next(self):
        p = StridePrefetcher(line_bytes=128)
        for addr in (0, 128, 256):
            p.on_demand_issue(0, addr, cycle=0)
        assert 384 in drain(p)

    def test_unconfirmed_stride_quiet(self):
        p = StridePrefetcher()
        p.on_demand_issue(0, 0, cycle=0)
        p.on_demand_issue(0, 128, cycle=0)  # first stride observation
        assert drain(p) == []

    def test_table_eviction_fifo(self):
        p = StridePrefetcher(table_size=1)
        p.on_demand_issue(0, 0, cycle=0)
        p.on_demand_issue(1, 0, cycle=0)  # evicts warp 0's entry
        p.on_demand_issue(0, 128, cycle=0)
        p.on_demand_issue(0, 256, cycle=0)
        # Warp 0 restarted from scratch: only one stride observation since.
        assert drain(p) == []


class TestStream:
    def test_prefetches_next_lines(self):
        p = StreamPrefetcher(line_bytes=128, depth=2)
        p.on_demand_issue(0, 0, cycle=0)
        assert drain(p) == [128, 256]

    def test_recent_window_dedupes(self):
        p = StreamPrefetcher(line_bytes=128, depth=1)
        p.on_demand_issue(0, 0, cycle=0)
        p.on_demand_issue(0, 0, cycle=1)
        assert drain(p) == [128]  # second request deduplicated

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            StreamPrefetcher(depth=0)


class TestGhb:
    def test_temporal_correlation_replay(self):
        p = GhbPrefetcher(line_bytes=128, width=2)
        pattern = [0, 512, 1024, 2048]
        for addr in pattern:
            p.on_demand_issue(0, addr, cycle=0)
        drain(p)
        # Revisit the head of the pattern: followers should be prefetched.
        p.on_demand_issue(0, 0, cycle=0)
        assert drain(p) == [512, 1024]

    def test_no_repeat_no_prefetch(self):
        p = GhbPrefetcher()
        for addr in (0, 512, 1024):
            p.on_demand_issue(0, addr, cycle=0)
        assert drain(p) == []

    def test_history_eviction(self):
        p = GhbPrefetcher(history=2, width=1)
        for addr in (0, 512, 1024):  # 0 falls out of the 2-entry history
            p.on_demand_issue(0, addr, cycle=0)
        p.on_demand_issue(0, 0, cycle=0)
        # The index entry for 0 was evicted, so no replay.
        assert drain(p) == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GhbPrefetcher(history=1)


def _treelet_feed(decomposition):
    """Two treelet decisions into a two-entry queue."""
    layout = treelet_layout(decomposition)
    p = TreeletPrefetcher(
        TreeletAddressMap(decomposition, layout, 128), queue_limit=2
    )
    big = np.argsort(-decomposition.sizes, kind="stable").tolist()
    p.on_cycle(0, votes(p, {big[0]: 5}), version=1)
    p.on_cycle(100, votes(p, {big[1]: 5}), version=2)
    return p


def _history_feed(prefetcher, addresses):
    for address in addresses:
        prefetcher.on_demand_issue(0, address, cycle=0)
    return prefetcher


#: prefetcher -> (a feed that overflows its queue, the counts it gives:
#: enqueued, dropped, then drained addresses).
QUEUE_CASES = {
    "mta": (lambda _d: _history_feed(
        MtaPrefetcher(degree=2, queue_limit=3), range(0, 1280, 256)),
        3, 3, [768, 1024, 1024]),
    "stride": (lambda _d: _history_feed(
        StridePrefetcher(queue_limit=2), range(0, 640, 128)),
        2, 1, [384, 512]),
    "stream": (lambda _d: _history_feed(
        StreamPrefetcher(depth=2, queue_limit=3), (0, 1280, 2560)),
        3, 3, [128, 256, 1408]),
    "ghb": (lambda _d: _history_feed(
        GhbPrefetcher(width=2, queue_limit=2),
        [line * 128 for line in (0, 1, 2, 3, 0, 1, 2, 3)]),
        2, 6, [128, 256]),
    "treelet": (_treelet_feed, 2, 6, [0x10000000, 0x10000080]),
}


class TestBaseQueue:
    """Every prefetcher queues through the base class's one bounded
    queue: the drops and ``requests_*`` counts of an overflowing feed."""

    @pytest.mark.parametrize("kind", sorted(QUEUE_CASES))
    def test_queue_limit_drops_and_counts(self, kind, decomposition):
        feed, enqueued, dropped, addresses = QUEUE_CASES[kind]
        p = feed(decomposition)
        assert p.queue_depth() == p.queue_limit == enqueued
        assert p.stats.requests_enqueued == enqueued
        assert p.stats.requests_dropped == dropped
        assert p.stats.requests_issued == 0
        assert drain_at(p, 10_000) == addresses
        assert p.stats.requests_issued == enqueued
        assert p.queue_depth() == 0

    def test_stream_drops_leave_the_recent_window(self):
        p = _history_feed(StreamPrefetcher(depth=2, queue_limit=1), (0,))
        drain(p)
        p.on_demand_issue(0, 0, cycle=0)  # 128 is recent, 256 was dropped
        assert drain(p) == [256]
        assert (p.stats.requests_enqueued, p.stats.requests_dropped) == (2, 1)

    def test_queue_limit_validation(self):
        for cls in (MtaPrefetcher, StridePrefetcher, StreamPrefetcher,
                    GhbPrefetcher):
            with pytest.raises(ValueError):
                cls(queue_limit=0)


def drain_at(prefetcher, cycle):
    out = []
    while True:
        request = prefetcher.pop_prefetch(cycle)
        if request is None:
            return out
        out.append(request.address)
