"""Unit tests for wide-BVH collapse and the flat node representation."""

import numpy as np
import pytest

from repro.bvh import (
    BVHArrays,
    BuildConfig,
    FlatBVH,
    FlatNode,
    MAX_CHILDREN,
    build_binary_bvh,
    build_wide_bvh,
    collapse_to_wide,
)
from repro.bvh.soa import NODE_COLUMNS
from repro.geometry import AABB, Triangle, triangles_to_arrays

from conftest import binary_levels, make_triangles


class TestCollapse:
    @pytest.mark.parametrize("bf", [2, 3, 4, 6])
    def test_fanout_respected(self, bf):
        tris = make_triangles(60)
        bvh = build_wide_bvh(tris, branching_factor=bf)
        assert all(node.fanout <= bf for node in bvh.nodes)

    def test_invalid_branching_factor(self):
        tris = triangles_to_arrays(make_triangles(10))
        tree = build_binary_bvh(tris)
        with pytest.raises(ValueError):
            collapse_to_wide(tree, tris, branching_factor=1)
        with pytest.raises(ValueError):
            collapse_to_wide(tree, tris, branching_factor=7)

    def test_collapse_preserves_primitives(self):
        tris = make_triangles(70)
        bvh = build_wide_bvh(tris)
        leaf_ids = [
            pid
            for node in bvh.nodes
            if node.is_leaf
            for pid in node.primitive_ids
        ]
        assert sorted(leaf_ids) == sorted(t.primitive_id for t in tris)

    def test_validate_passes(self):
        bvh = build_wide_bvh(make_triangles(40))
        bvh.validate()

    def test_bfs_ids_increase_with_depth(self):
        """BFS numbering: parent ids always smaller than child ids, and
        depth is non-decreasing in id order."""
        bvh = build_wide_bvh(make_triangles(90))
        for node in bvh.nodes:
            for child_id in node.child_ids:
                assert child_id > node.node_id
        depths = [node.depth for node in bvh.nodes]
        assert depths == sorted(depths)

    def test_wide_tree_shallower_than_binary(self):
        tris = triangles_to_arrays(make_triangles(120))
        binary = build_binary_bvh(tris, BuildConfig(max_leaf_size=2))
        wide = collapse_to_wide(binary, tris, branching_factor=6)
        assert wide.depth() <= binary_levels(binary)

    def test_expands_the_largest_inner_child_first(self):
        """Each wide node's children are its binary node's, grown by
        replacing the largest inner child (the first on a tie) by its
        two children, as the object-form collapse did."""
        # A lattice of equal triangles gives equal-area siblings (ties)
        # next to a clustered soup's unequal ones.
        lattice = [
            Triangle((x, y, 0.0), (x + 0.5, y, 0.0), (x, y + 0.5, 0.0), i)
            for i, (x, y) in enumerate(
                (float(i % 8), float(i // 8)) for i in range(64)
            )
        ]
        soup = [
            Triangle(t.v0, t.v1, t.v2, 64 + t.primitive_id)
            for t in make_triangles(80)
        ]
        tris = triangles_to_arrays(lattice + soup)
        binary = build_binary_bvh(tris, BuildConfig(max_leaf_size=2))
        wide = collapse_to_wide(binary, tris, branching_factor=4)

        def area(node):
            box = AABB(tuple(binary.lo[node].tolist()),
                       tuple(binary.hi[node].tolist()))
            return box.surface_area()

        def expected(node):
            first = int(binary.left[node])
            children = [first, first + 1]
            while len(children) < 4:
                inner = [i for i, c in enumerate(children)
                         if not binary.left[c] < 0]
                if not inner:
                    break
                pick = max(inner, key=lambda i: (area(children[i]), -i))
                victim = int(binary.left[children.pop(pick)])
                children += [victim, victim + 1]
            return children

        # Wide node ids are queue positions over binary node ids.
        source = [0]
        for node in wide.nodes:
            if not node.is_leaf:
                kids = expected(source[node.node_id])
                assert len(kids) == len(node.child_ids)
                source.extend(kids)
        assert len(source) == len(wide)
        assert (wide.arrays.node_lo == binary.lo[source]).all()
        assert (wide.arrays.node_hi == binary.hi[source]).all()
        assert (wide.arrays.prim_counts == binary.prim_counts[source]).all()

    def test_single_triangle_tree(self):
        tris = make_triangles(1)
        bvh = build_wide_bvh(tris)
        assert len(bvh) == 1
        assert bvh.root.is_leaf


class TestFlatNode:
    def test_leaf_and_internal_exclusive(self):
        with pytest.raises(ValueError):
            FlatNode(
                node_id=0,
                bounds=AABB.empty(),
                child_ids=(1,),
                primitive_ids=(0,),
            )

    def test_too_many_children_rejected(self):
        with pytest.raises(ValueError):
            FlatNode(
                node_id=0,
                bounds=AABB.empty(),
                child_ids=tuple(range(1, MAX_CHILDREN + 2)),
            )


class TestFlatBVH:
    def test_node_columns_must_share_one_length(self, small_bvh):
        columns = small_bvh.arrays.columns()
        columns["parent"] = columns["parent"][:-1]
        with pytest.raises(ValueError):
            BVHArrays.from_columns(columns)

    def test_empty_node_list_rejected(self, small_bvh):
        columns = {
            name: column[:0] if name in NODE_COLUMNS else column
            for name, column in small_bvh.arrays.columns().items()
        }
        with pytest.raises(ValueError):
            FlatBVH(BVHArrays.from_columns(columns))

    def test_validate_catches_bad_parent_link(self, small_bvh):
        # Corrupt a copy of the columns.
        columns = small_bvh.arrays.columns()
        parent = columns["parent"].copy()
        victim = int(np.flatnonzero(parent > 0)[0])
        parent[victim] = 0
        columns["parent"] = parent
        with pytest.raises(ValueError):
            FlatBVH(BVHArrays.from_columns(columns)).validate()

    @pytest.mark.parametrize("column, corrupt", [
        ("depth", lambda c: c + (np.arange(len(c)) == 3)),
        ("node_hi", lambda c: c + (np.arange(len(c)) == len(c) - 1)[:, None]),
        ("prim_ids", lambda c: np.where(c == c[0], c[1], c)),
        ("child_ids", lambda c: np.where(c == c[-1], c[0], c)),
    ])
    def test_validate_catches_corrupt_columns(self, small_bvh, column,
                                              corrupt):
        small_bvh.validate()
        columns = small_bvh.arrays.columns()
        columns[column] = corrupt(columns[column])
        with pytest.raises(ValueError):
            FlatBVH(BVHArrays.from_columns(columns)).validate()

    def test_depth_counts_levels(self, small_bvh):
        assert small_bvh.depth() == 1 + max(n.depth for n in small_bvh.nodes)

    def test_leaf_plus_internal_partition(self, small_bvh):
        assert len(small_bvh.leaf_ids()) + len(small_bvh.internal_ids()) == len(
            small_bvh
        )
