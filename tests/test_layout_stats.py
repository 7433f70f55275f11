"""Unit tests for node layouts and tree statistics."""

import pytest

from repro.bvh import (
    BVH_BASE_ADDRESS,
    NODE_SIZE_BYTES,
    PRIMITIVE_SIZE_BYTES,
    compute_tree_stats,
    dfs_layout,
    nodes_per_level,
)


class TestDfsLayout:
    def test_all_nodes_have_addresses(self, small_bvh):
        layout = dfs_layout(small_bvh)
        assert len(layout.node_address) == len(small_bvh)

    def test_addresses_unique_and_aligned(self, small_bvh):
        layout = dfs_layout(small_bvh)
        addrs = layout.node_address.tolist()
        assert len(set(addrs)) == len(addrs)
        assert all(a % NODE_SIZE_BYTES == 0 for a in addrs)

    def test_root_at_base(self, small_bvh):
        layout = dfs_layout(small_bvh)
        assert layout.address_of(small_bvh.ROOT_ID) == BVH_BASE_ADDRESS

    def test_depth_first_contiguity(self, small_bvh):
        """A node's first child sits immediately after it in memory."""
        layout = dfs_layout(small_bvh)
        for node in small_bvh.nodes:
            if node.child_ids:
                first_child = node.child_ids[0]
                assert (
                    layout.address_of(first_child)
                    == layout.address_of(node.node_id) + NODE_SIZE_BYTES
                )

    def test_primitive_region_follows_nodes(self, small_bvh):
        layout = dfs_layout(small_bvh)
        assert (
            layout.primitive_base
            == BVH_BASE_ADDRESS + len(small_bvh) * NODE_SIZE_BYTES
        )
        assert layout.primitive_address(3) == (
            layout.primitive_base + 3 * PRIMITIVE_SIZE_BYTES
        )

    def test_treelet_of_defaults_to_minus_one(self, small_bvh):
        layout = dfs_layout(small_bvh)
        assert layout.treelet_of(small_bvh.ROOT_ID) == -1


class TestTreeStats:
    def test_counts_add_up(self, small_bvh):
        stats = compute_tree_stats(small_bvh)
        assert stats.node_count == len(small_bvh)
        assert stats.leaf_count == len(small_bvh.leaf_ids())
        assert stats.triangle_count == len(small_bvh.triangles)

    def test_size_includes_nodes_and_primitives(self, small_bvh):
        stats = compute_tree_stats(small_bvh)
        expected = (
            len(small_bvh) * NODE_SIZE_BYTES
            + len(small_bvh.triangles) * PRIMITIVE_SIZE_BYTES
        )
        assert stats.size_bytes == expected
        assert stats.size_mb == pytest.approx(expected / 2**20)

    def test_avg_leaf_primitives(self, small_bvh):
        stats = compute_tree_stats(small_bvh)
        total = sum(
            len(n.primitive_ids) for n in small_bvh.nodes if n.is_leaf
        )
        assert stats.avg_leaf_primitives == pytest.approx(
            total / stats.leaf_count
        )

    def test_nodes_per_level_sums_to_total(self, small_bvh):
        histogram = nodes_per_level(small_bvh)
        assert sum(histogram.values()) == len(small_bvh)
        assert histogram[0] == 1  # exactly one root


class TestSahCost:
    def test_sah_builder_beats_median(self):
        """The metric must agree that the SAH builder builds the
        cheaper tree on clustered input."""
        from repro.bvh import BuildConfig, build_wide_bvh, sah_cost
        from conftest import make_triangles

        tris = make_triangles(300, seed=13)
        sah_tree = build_wide_bvh(tris, BuildConfig(strategy="sah"))
        median_tree = build_wide_bvh(tris, BuildConfig(strategy="median"))
        assert sah_cost(sah_tree) <= sah_cost(median_tree) * 1.05

    def test_cost_positive_and_finite(self, small_bvh):
        from repro.bvh import sah_cost

        cost = sah_cost(small_bvh)
        assert cost > 0.0
        assert cost < 1e9

    def test_higher_intersection_cost_raises_total(self, small_bvh):
        from repro.bvh import sah_cost

        cheap = sah_cost(small_bvh, intersection_cost=1.0)
        expensive = sah_cost(small_bvh, intersection_cost=10.0)
        assert expensive > cheap

    def test_single_leaf_tree_cost(self):
        from repro.bvh import build_wide_bvh, sah_cost
        from conftest import make_triangles

        tris = make_triangles(2)
        bvh = build_wide_bvh(tris)
        # One leaf holding n prims at probability 1.
        if bvh.root.is_leaf:
            assert sah_cost(bvh, intersection_cost=1.5) == (
                1.5 * len(bvh.root.primitive_ids)
            )
