"""Unit tests for treelet repacking and the mapping table (Section 4.4)."""

import pytest

from repro.bvh import NODE_SIZE_BYTES, dfs_layout
from repro.bvh.layout import BVH_BASE_ADDRESS
from repro.prefetch import TreeletAddressMap
from repro.treelet import (
    MAPPING_ENTRY_BYTES,
    build_mapping_table,
    treelet_layout,
)


class TestTreeletLayout:
    def test_slot_alignment(self, decomposition):
        layout = treelet_layout(decomposition)
        root_addrs = layout.node_address[decomposition.roots]
        assert ((root_addrs - BVH_BASE_ADDRESS)
                % decomposition.max_bytes == 0).all()

    def test_members_contiguous_within_slot(self, decomposition):
        layout = treelet_layout(decomposition)
        offsets = decomposition.offsets.tolist()
        for start, end in zip(offsets, offsets[1:]):
            members = decomposition.members[start:end].tolist()
            addrs = [layout.address_of(n) for n in members]
            assert addrs == list(
                range(addrs[0], addrs[0] + len(addrs) * NODE_SIZE_BYTES,
                      NODE_SIZE_BYTES)
            )

    def test_all_nodes_unique_addresses(self, small_bvh, decomposition):
        layout = treelet_layout(decomposition)
        addrs = set(layout.node_address.tolist())
        assert len(addrs) == len(small_bvh)

    def test_node_treelet_populated(self, small_bvh, decomposition):
        layout = treelet_layout(decomposition)
        assert layout.node_treelet is decomposition.node_treelet
        for node in small_bvh.nodes:
            assert layout.treelet_of(node.node_id) == decomposition.treelet_of(
                node.node_id
            )

    def test_stride_spreads_roots(self, decomposition):
        packed = treelet_layout(decomposition, stride_bytes=0)
        strided = treelet_layout(decomposition, stride_bytes=256)
        if decomposition.treelet_count >= 2:
            root = int(decomposition.roots[1])
            delta_packed = packed.address_of(root) - BVH_BASE_ADDRESS
            delta_strided = strided.address_of(root) - BVH_BASE_ADDRESS
            assert delta_packed == decomposition.max_bytes
            assert delta_strided == decomposition.max_bytes + 256

    def test_negative_stride_rejected(self, decomposition):
        with pytest.raises(ValueError):
            treelet_layout(decomposition, stride_bytes=-1)

    def test_prefix_addresses_fraction(self, decomposition):
        # One node a line: every member is its own prefetch line.
        layout = treelet_layout(decomposition)
        lines = TreeletAddressMap(decomposition, layout, NODE_SIZE_BYTES)
        treelet = int(decomposition.sizes.argmax())
        size = int(decomposition.sizes[treelet])
        full = lines.prefetch_lines(treelet, 1.0)
        half = lines.prefetch_lines(treelet, 0.5)
        start = int(decomposition.offsets[treelet])
        members = decomposition.members[start : start + size]
        assert full == layout.node_address[members].tolist()
        assert len(half) == max(1, round(0.5 * size))
        assert half == full[: len(half)]
        assert lines.prefetch_lines(treelet, 0.0) == []

    def test_fraction_bounds_checked(self, decomposition):
        layout = treelet_layout(decomposition)
        lines = TreeletAddressMap(decomposition, layout, NODE_SIZE_BYTES)
        for fraction in (1.5, -0.5):
            with pytest.raises(ValueError):
                lines.prefetch_lines(0, fraction)


class TestMappingTable:
    def test_size_is_4_bytes_per_node(self, small_bvh, decomposition):
        layout = dfs_layout(small_bvh)
        table = build_mapping_table(decomposition, layout)
        assert table.size_bytes == len(small_bvh) * MAPPING_ENTRY_BYTES

    def test_entries_beyond_primitive_region(self, small_bvh, decomposition):
        layout = dfs_layout(small_bvh)
        table = build_mapping_table(decomposition, layout)
        prim_end = layout.primitive_base + small_bvh.primitive_bytes()
        assert table.base_address >= prim_end

    def test_lookup_matches_decomposition(self, small_bvh, decomposition):
        layout = dfs_layout(small_bvh)
        table = build_mapping_table(decomposition, layout)
        for node in small_bvh.nodes:
            assert table.lookup(node.node_id) == decomposition.treelet_of(
                node.node_id
            )

    def test_entry_addresses_strided(self, small_bvh, decomposition):
        layout = dfs_layout(small_bvh)
        table = build_mapping_table(decomposition, layout)
        assert (
            table.entry_address(2) - table.entry_address(1)
            == MAPPING_ENTRY_BYTES
        )

    def test_out_of_range_entry_rejected(self, small_bvh, decomposition):
        layout = dfs_layout(small_bvh)
        table = build_mapping_table(decomposition, layout)
        with pytest.raises(IndexError):
            table.entry_address(len(small_bvh))

    def test_table_loads_cover_treelet_members(self, small_bvh, decomposition):
        layout = dfs_layout(small_bvh)
        table = build_mapping_table(decomposition, layout)
        addrs = table.table_load_addresses(0)
        start, end = decomposition.offsets[:2].tolist()
        assert addrs == [
            table.entry_address(node_id)
            for node_id in decomposition.members[start:end].tolist()
        ]
