"""Unit tests for treelet decomposition statistics."""

import pytest

from repro.bvh import NODE_SIZE_BYTES
from repro.treelet import (
    bytes_wasted_by_slotting,
    compute_treelet_stats,
    form_treelets,
    size_histogram,
)


class TestTreeletStats:
    def test_counts_match_decomposition(self, small_bvh, decomposition):
        stats = compute_treelet_stats(decomposition)
        assert stats.treelet_count == decomposition.treelet_count
        assert stats.max_nodes_per_treelet == 512 // NODE_SIZE_BYTES

    def test_mean_nodes_consistent(self, small_bvh, decomposition):
        stats = compute_treelet_stats(decomposition)
        total = len(small_bvh)  # the treelets partition the nodes
        assert stats.mean_nodes == pytest.approx(
            total / decomposition.treelet_count
        )

    def test_fractions_in_unit_range(self, decomposition):
        stats = compute_treelet_stats(decomposition)
        assert 0.0 <= stats.full_fraction <= 1.0
        assert 0.0 <= stats.singleton_fraction <= 1.0
        assert 0.0 < stats.mean_occupancy <= 1.0

    def test_occupancy_matches_decomposition(self, decomposition):
        stats = compute_treelet_stats(decomposition)
        assert stats.mean_occupancy == pytest.approx(
            decomposition.occupancy()
        )

    def test_root_treelet_starts_at_depth_zero(self, decomposition):
        stats = compute_treelet_stats(decomposition)
        assert stats.mean_root_depth >= 0.0
        assert stats.mean_depth_span >= 1.0

    def test_singleton_decomposition(self, small_bvh):
        singles = form_treelets(small_bvh, NODE_SIZE_BYTES)
        stats = compute_treelet_stats(singles)
        assert stats.singleton_fraction == 1.0
        assert stats.mean_occupancy == 1.0
        assert stats.mean_depth_span == 1.0


class TestHistogramAndWaste:
    def test_histogram_sums_to_count(self, decomposition):
        histogram = size_histogram(decomposition)
        assert sum(histogram.values()) == decomposition.treelet_count
        cap = decomposition.max_nodes_per_treelet
        assert all(1 <= size <= cap for size in histogram)

    def test_wasted_bytes_formula(self, small_bvh, decomposition):
        wasted = bytes_wasted_by_slotting(decomposition)
        expected = (
            decomposition.treelet_count * decomposition.max_bytes
            - len(small_bvh) * NODE_SIZE_BYTES
        )
        assert wasted == expected
        assert wasted >= 0

    def test_no_waste_for_singletons(self, small_bvh):
        singles = form_treelets(small_bvh, NODE_SIZE_BYTES)
        assert bytes_wasted_by_slotting(singles) == 0
