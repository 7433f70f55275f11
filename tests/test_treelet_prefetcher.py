"""Unit tests for the treelet prefetcher and its address map."""

import dataclasses

import pytest

from repro.bvh import dfs_layout
from repro.prefetch import (
    MajorityVoter,
    PrefetchHeuristic,
    TreeletAddressMap,
    TreeletPrefetcher,
)
from repro.treelet import build_mapping_table, treelet_layout
from test_voter import StubWarp, tally_of


def votes(prefetcher, *counts):
    """Stub warps holding ``counts``, with ``prefetcher``'s tally set to
    their merged votes, as the RT unit keeps it."""
    warps = [StubWarp(c) for c in counts]
    prefetcher.tally = tally_of(warps)
    return warps


@pytest.fixture
def address_map(decomposition):
    layout = treelet_layout(decomposition)
    return TreeletAddressMap(decomposition, layout, line_bytes=128)


def drain(prefetcher, cycle=10_000):
    out = []
    while True:
        request = prefetcher.pop_prefetch(cycle)
        if request is None:
            return out
        out.append(request)


class TestAddressMap:
    def test_full_treelet_lines(self, decomposition, address_map):
        treelet = int(decomposition.sizes.argmax())
        lines = address_map.prefetch_lines(treelet, 1.0)
        # 8 nodes x 64B over 128B lines -> at most 4 distinct lines.
        assert 1 <= len(lines) <= 4
        assert all(addr % 128 == 0 for addr in lines)

    def test_fraction_prefix(self, decomposition, address_map):
        treelet = int(decomposition.sizes.argmax())
        full = address_map.prefetch_lines(treelet, 1.0)
        half = address_map.prefetch_lines(treelet, 0.5)
        assert half == full[: len(half)]

    def test_zero_fraction_empty(self, address_map):
        assert address_map.prefetch_lines(0, 0.0) == []

    def test_caching_returns_same_list(self, address_map):
        assert address_map.prefetch_lines(0, 1.0) is address_map.prefetch_lines(
            0, 1.0
        )

    def test_mapping_lines_require_table(self, address_map):
        assert address_map.mapping_lines(0) == []

    def test_mapping_lines_with_table(self, small_bvh, decomposition):
        layout = dfs_layout(small_bvh)
        table = build_mapping_table(decomposition, layout)
        amap = TreeletAddressMap(decomposition, layout, 128, table)
        lines = amap.mapping_lines(0)
        assert lines
        assert all(addr % 128 == 0 for addr in lines)


class TestDecisionFlow:
    def test_always_prefetches_winner(self, address_map):
        prefetcher = TreeletPrefetcher(address_map)
        prefetcher.on_cycle(0, votes(prefetcher, {0: 5}), version=1)
        requests = drain(prefetcher)
        assert requests
        assert prefetcher.last_prefetched_treelet == 0
        expected = address_map.prefetch_lines(0, 1.0)
        assert [r.address for r in requests] == expected

    def test_never_same_treelet_twice_in_a_row(self, address_map):
        prefetcher = TreeletPrefetcher(address_map)
        prefetcher.on_cycle(0, votes(prefetcher, {0: 5}), version=1)
        drain(prefetcher)
        prefetcher.on_cycle(1, votes(prefetcher, {0: 5}), version=2)
        assert drain(prefetcher) == []

    def test_alternating_treelets_both_prefetched(self, address_map):
        prefetcher = TreeletPrefetcher(address_map)
        prefetcher.on_cycle(0, votes(prefetcher, {0: 5}), version=1)
        first = drain(prefetcher)
        prefetcher.on_cycle(1, votes(prefetcher, {1: 5}), version=2)
        second = drain(prefetcher)
        assert first and second
        assert first[0].address != second[0].address

    def test_version_gate_skips_recompute(self, address_map):
        prefetcher = TreeletPrefetcher(address_map)
        prefetcher.on_cycle(0, votes(prefetcher, {0: 5}), version=1)
        decisions_before = prefetcher.voter.stats.decisions
        prefetcher.on_cycle(1, votes(prefetcher, {0: 5}), version=1)
        assert prefetcher.voter.stats.decisions == decisions_before

    def test_popularity_threshold_blocks_low_ratio(self, address_map):
        prefetcher = TreeletPrefetcher(
            address_map,
            heuristic=PrefetchHeuristic("popularity", threshold=0.5),
        )
        # Winner holds 5 of 12 voting rays -> ratio ~0.42 < 0.5.
        prefetcher.on_cycle(
            0, votes(prefetcher, {0: 5, 1: 4, 2: 3}), version=1
        )
        assert drain(prefetcher) == []

    def test_popularity_threshold_passes_high_ratio(self, address_map):
        prefetcher = TreeletPrefetcher(
            address_map,
            heuristic=PrefetchHeuristic("popularity", threshold=0.5),
        )
        # Winner holds 9 of 12 voting rays -> ratio 0.75 >= 0.5.
        prefetcher.on_cycle(0, votes(prefetcher, {0: 9, 1: 3}), version=1)
        assert drain(prefetcher)

    def test_partial_prefetches_prefix(self, decomposition, address_map):
        treelet = int(decomposition.sizes.argmax())
        other = 1 if treelet == 0 else 0
        prefetcher = TreeletPrefetcher(
            address_map, heuristic=PrefetchHeuristic("partial")
        )
        # Winner holds half the votes -> prefetch half the treelet.
        prefetcher.on_cycle(
            0,
            votes(prefetcher, {treelet: 2, other: 1}, {other: 1}),
            version=1,
        )
        requests = drain(prefetcher)
        full = address_map.prefetch_lines(treelet, 1.0)
        half = address_map.prefetch_lines(treelet, 0.5)
        assert [r.address for r in requests] == half
        assert len(half) <= len(full)

    def test_voter_latency_delays_release(self, address_map):
        prefetcher = TreeletPrefetcher(
            address_map, voter=MajorityVoter("full", latency=32)
        )
        prefetcher.on_cycle(0, votes(prefetcher, {0: 5}), version=1)
        assert prefetcher.pop_prefetch(10) is None  # still counting
        assert prefetcher.pop_prefetch(32) is not None

    def test_decision_period_follows_latency(self, address_map):
        prefetcher = TreeletPrefetcher(
            address_map, voter=MajorityVoter("full", latency=16)
        )
        prefetcher.on_cycle(0, votes(prefetcher, {0: 5}), version=1)
        # Next decision only at cycle 16, even with new state.
        prefetcher.on_cycle(1, votes(prefetcher, {1: 9}), version=2)
        drain(prefetcher, cycle=100)
        assert prefetcher.last_prefetched_treelet == 0
        prefetcher.on_cycle(16, votes(prefetcher, {1: 9}), version=3)
        requests = drain(prefetcher, cycle=100)
        assert prefetcher.last_prefetched_treelet == 1
        assert requests

    def test_new_decision_does_not_redelay_queued_entries(self, address_map):
        """The voter-latency gate is carried per entry: a later decision
        must not push back entries whose gate has already elapsed."""
        prefetcher = TreeletPrefetcher(
            address_map, voter=MajorityVoter("full", latency=16)
        )
        # The first decision's entries release at cycle 16.
        prefetcher.on_cycle(0, votes(prefetcher, {0: 5}), version=1)
        # A fresh decision lands exactly when the first batch becomes
        # issueable; its entries release at 32, the old ones at 16.
        prefetcher.on_cycle(16, votes(prefetcher, {1: 9}), version=2)
        first_batch = drain(prefetcher, cycle=16)
        expected = address_map.prefetch_lines(0, 1.0)
        assert [r.address for r in first_batch] == expected
        # The second decision's entries stay gated until cycle 32.
        assert prefetcher.pop_prefetch(16) is None
        assert prefetcher.pop_prefetch(31) is None
        assert prefetcher.pop_prefetch(32) is not None

    def test_release_cycle_recorded_on_entries(self, address_map):
        prefetcher = TreeletPrefetcher(
            address_map, voter=MajorityVoter("full", latency=8)
        )
        prefetcher.on_cycle(4, votes(prefetcher, {0: 5}), version=1)
        requests = drain(prefetcher, cycle=1000)
        assert requests
        assert all(r.release_cycle == 12 for r in requests)

    def test_queue_limit_drops(self, decomposition, address_map):
        prefetcher = TreeletPrefetcher(address_map, queue_limit=1)
        prefetcher.on_cycle(0, votes(prefetcher, {0: 5}), version=1)
        assert prefetcher.queue_depth() <= 1
        full = address_map.prefetch_lines(0, 1.0)
        if len(full) > 1:
            assert prefetcher.stats.requests_dropped >= 1


class TestMappingModes:
    @pytest.fixture
    def dfs_map(self, small_bvh, decomposition):
        layout = dfs_layout(small_bvh)
        layout = dataclasses.replace(
            layout, node_treelet=decomposition.node_treelet
        )
        table = build_mapping_table(decomposition, layout)
        return TreeletAddressMap(decomposition, layout, 128, table)

    def test_mode_requires_table(self, address_map):
        with pytest.raises(ValueError):
            TreeletPrefetcher(address_map, mapping_mode="loose")

    def test_unknown_mode_rejected(self, dfs_map):
        with pytest.raises(ValueError):
            TreeletPrefetcher(dfs_map, mapping_mode="fuzzy")

    def test_loose_prepends_mapping_loads(self, dfs_map):
        prefetcher = TreeletPrefetcher(dfs_map, mapping_mode="loose")
        prefetcher.on_cycle(0, votes(prefetcher, {0: 5}), version=1)
        requests = drain(prefetcher)
        regions = [r.region for r in requests]
        assert regions[0] == "mapping"
        assert "node" in regions
        # All mapping loads come before any node load.
        assert regions.index("node") == len(
            [r for r in regions if r == "mapping"]
        )

    def test_strict_holds_nodes_until_table_returns(self, dfs_map):
        prefetcher = TreeletPrefetcher(dfs_map, mapping_mode="strict")
        prefetcher.on_cycle(0, votes(prefetcher, {0: 5}), version=1)
        mapping_requests = drain(prefetcher)
        assert all(r.region == "mapping" for r in mapping_requests)
        assert prefetcher.queue_depth() == 0  # node lines held back
        for request in mapping_requests:
            request.on_complete(100)  # table loads return
        node_requests = drain(prefetcher)
        assert node_requests
        assert all(r.region == "node" for r in node_requests)
