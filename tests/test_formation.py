"""Unit tests for treelet formation (Section 3.1)."""

import pytest

from repro.bvh import NODE_SIZE_BYTES, build_wide_bvh
from repro.treelet import form_treelets

from conftest import make_triangles, treelet_members


class TestFormationBasics:
    def test_partition_covers_all_nodes(self, small_bvh, decomposition):
        assert sorted(decomposition.members.tolist()) == list(
            range(len(small_bvh))
        )

    def test_validate_passes(self, decomposition):
        decomposition.validate()

    def test_size_cap_respected(self, decomposition):
        sizes = decomposition.sizes * NODE_SIZE_BYTES
        assert (sizes <= decomposition.max_bytes).all()

    def test_first_treelet_rooted_at_bvh_root(self, small_bvh, decomposition):
        assert decomposition.roots[0] == small_bvh.ROOT_ID

    def test_treelets_are_connected(self, small_bvh, decomposition):
        for node_ids in treelet_members(decomposition):
            for node_id in node_ids[1:]:
                assert small_bvh.node(node_id).parent_id in node_ids

    def test_bfs_order_within_treelet(self, small_bvh, decomposition):
        """Members are ordered by non-decreasing depth (upper levels first)."""
        for node_ids in treelet_members(decomposition):
            depths = [small_bvh.node(n).depth for n in node_ids]
            assert depths == sorted(depths)

    def test_minimum_size_one_node(self, small_bvh):
        dec = form_treelets(small_bvh, NODE_SIZE_BYTES)
        assert dec.treelet_count == len(small_bvh)
        dec.validate()

    def test_rejects_sub_node_size(self, small_bvh):
        with pytest.raises(ValueError):
            form_treelets(small_bvh, NODE_SIZE_BYTES - 1)

    def test_whole_tree_in_one_treelet_when_size_huge(self, small_bvh):
        dec = form_treelets(small_bvh, len(small_bvh) * NODE_SIZE_BYTES)
        assert dec.treelet_count == 1
        dec.validate()


class TestFormationShape:
    def test_upper_treelets_fuller_than_average(self):
        """Greedy formation fills upper treelets close to the cap."""
        bvh = build_wide_bvh(make_triangles(300, seed=11), branching_factor=3)
        dec = form_treelets(bvh, 512)
        cap = dec.max_nodes_per_treelet
        assert dec.sizes[0] == cap

    def test_smaller_cap_means_more_treelets(self, small_bvh):
        small = form_treelets(small_bvh, 256)
        large = form_treelets(small_bvh, 1024)
        assert small.treelet_count > large.treelet_count

    def test_child_same_treelet_bits(self, small_bvh, decomposition):
        # One bit per CSR child slot: node by node, in child order.
        bits = decomposition.child_bits().tolist()
        expected = [
            decomposition.same_treelet(node.node_id, child_id)
            for node in small_bvh.nodes
            for child_id in node.child_ids
        ]
        assert bits == expected
        assert len(bits) == sum(node.fanout for node in small_bvh.nodes)

    def test_occupancy_in_unit_range(self, decomposition):
        assert 0.0 < decomposition.occupancy() <= 1.0

    def test_same_treelet_is_reflexive(self, small_bvh, decomposition):
        assert decomposition.same_treelet(0, 0)


class TestValidationCatchesCorruption:
    def test_detects_double_membership(self, small_bvh):
        dec = form_treelets(small_bvh, 512)
        # Corrupt: overwrite treelet 1's last member with treelet 0's
        # root, so that node sits in two treelets.
        assert dec.treelet_count >= 2
        dec.members[dec.offsets[2] - 1] = dec.members[0]
        with pytest.raises(ValueError, match="in two treelets"):
            dec.validate()

    def test_detects_disagreeing_assignment(self, small_bvh):
        dec = form_treelets(small_bvh, 512)
        dec.node_treelet[dec.members[-1]] = 0
        with pytest.raises(ValueError, match="disagrees"):
            dec.validate()

    def test_detects_disconnected_treelet(self, small_bvh):
        dec = form_treelets(small_bvh, 512)
        # Swap treelet 0's root behind its second member: that member's
        # parent (the BVH root) is no longer ahead of it in the treelet.
        dec.members[[0, 1]] = dec.members[[1, 0]]
        with pytest.raises(ValueError, match="treelet 0"):
            dec.validate()

    def test_detects_oversized_treelet(self, small_bvh):
        dec = form_treelets(small_bvh, 512)
        dec.max_bytes = NODE_SIZE_BYTES  # shrink cap under existing treelets
        with pytest.raises(ValueError, match="exceeds max size"):
            dec.validate()
