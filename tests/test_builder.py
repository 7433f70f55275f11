"""Unit tests for the binary BVH builders (SAH and median)."""

import pytest

from repro.bvh import BuildConfig, build_binary_bvh
from repro.geometry import AABB, Triangle
from repro.scenes import soup

from conftest import binary_levels, make_triangles


def leaf_primitives(tree, node):
    start = int(tree.prim_offsets[node])
    return tuple(tree.prim_ids[start:start + tree.prim_counts[node]].tolist())


def leaf_primitive_ids(tree):
    """All primitive ids stored in the tree's leaves."""
    return [
        pid for node in range(len(tree)) if tree.left[node] < 0
        for pid in leaf_primitives(tree, node)
    ]


def bounds(tree, node):
    return AABB(tuple(tree.lo[node].tolist()), tuple(tree.hi[node].tolist()))


def inner_nodes(tree):
    return [node for node in range(len(tree)) if not tree.left[node] < 0]


class TestBuildConfig:
    def test_rejects_bad_leaf_size(self):
        with pytest.raises(ValueError):
            BuildConfig(max_leaf_size=0)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            BuildConfig(strategy="zorder")

    def test_rejects_tiny_bin_count(self):
        with pytest.raises(ValueError):
            BuildConfig(bin_count=1)


class TestBuildBasics:
    @pytest.mark.parametrize("strategy", ["sah", "median"])
    def test_every_triangle_in_exactly_one_leaf(self, strategy):
        tris = make_triangles(50)
        tree = build_binary_bvh(tris, BuildConfig(strategy=strategy))
        ids = leaf_primitive_ids(tree)
        assert sorted(ids) == sorted(t.primitive_id for t in tris)

    @pytest.mark.parametrize("strategy", ["sah", "median"])
    def test_leaf_size_respected(self, strategy):
        tris = make_triangles(80)
        config = BuildConfig(max_leaf_size=3, strategy=strategy)
        tree = build_binary_bvh(tris, config)
        assert tree.prim_counts.max() <= 3
        assert (tree.prim_counts[tree.left >= 0] == 0).all()

    def test_bounds_contain_children(self):
        tris = make_triangles(60)
        tree = build_binary_bvh(tris)
        for node in inner_nodes(tree):
            outer = bounds(tree, node).expanded(1e-9)
            first = int(tree.left[node])
            assert outer.contains_box(bounds(tree, first))
            assert outer.contains_box(bounds(tree, first + 1))

    def test_empty_input_gives_empty_leaf(self):
        tree = build_binary_bvh([])
        assert len(tree) == 1 and tree.left[0] < 0
        assert leaf_primitives(tree, 0) == ()
        assert bounds(tree, 0).is_empty()

    def test_single_triangle(self):
        tri = Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 42)
        tree = build_binary_bvh([tri])
        assert len(tree) == 1 and leaf_primitives(tree, 0) == (42,)

    def test_duplicate_primitive_ids_rejected(self):
        tri = Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 1)
        with pytest.raises(ValueError):
            build_binary_bvh([tri, tri])


class TestDegenerateInputs:
    def test_all_coincident_centroids_terminates(self):
        # 10 identical triangles: no spatial split exists.
        tris = [
            Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), i)
            for i in range(10)
        ]
        tree = build_binary_bvh(tris, BuildConfig(max_leaf_size=2))
        assert sorted(leaf_primitive_ids(tree)) == list(range(10))

    def test_collinear_centroids(self):
        tris = [
            Triangle(
                (float(i), 0.0, 0.0),
                (float(i) + 0.5, 0.0, 0.0),
                (float(i), 0.5, 0.0),
                i,
            )
            for i in range(16)
        ]
        tree = build_binary_bvh(tris, BuildConfig(max_leaf_size=2))
        assert sorted(leaf_primitive_ids(tree)) == list(range(16))


class TestColumns:
    def test_children_follow_their_parent(self):
        """Level-order ids: a node's two children are adjacent and come
        after it, and every node but the root is one node's child."""
        tree = build_binary_bvh(
            make_triangles(90), BuildConfig(max_leaf_size=2)
        )
        inner = inner_nodes(tree)
        firsts = [int(tree.left[node]) for node in inner]
        assert all(first > node for first, node in zip(firsts, inner))
        children = sorted(c for first in firsts for c in (first, first + 1))
        assert children == list(range(1, len(tree)))

    def test_mesh_and_triangles_build_the_same_tree(self):
        mesh = soup(120, extent=8.0, tri_size=0.4, seed=5, clusters=3)
        from_mesh = build_binary_bvh(mesh)
        from_objects = build_binary_bvh(mesh.triangles())
        for column in ("lo", "hi", "left", "prim_offsets", "prim_counts",
                       "prim_ids"):
            assert (getattr(from_mesh, column)
                    == getattr(from_objects, column)).all(), column


class TestSahQuality:
    def test_sah_no_worse_than_median_on_clusters(self):
        """SAH should produce a tree with smaller (or equal) total area."""
        tris = make_triangles(200, seed=3)

        def total_area(tree):
            return sum(
                bounds(tree, node).surface_area() for node in range(len(tree))
            )

        sah = build_binary_bvh(tris, BuildConfig(strategy="sah"))
        median = build_binary_bvh(tris, BuildConfig(strategy="median"))
        assert total_area(sah) <= total_area(median) * 1.10

    def test_node_count_bounds(self):
        tris = make_triangles(100)
        tree = build_binary_bvh(tris, BuildConfig(max_leaf_size=1))
        count = len(tree)
        # A binary tree over n leaves has between n and 2n-1 nodes.
        assert 100 <= count <= 2 * 100 - 1 + 100  # allow degenerate splits

    def test_max_depth_reasonable(self):
        tris = make_triangles(128)
        tree = build_binary_bvh(tris)
        assert binary_levels(tree) <= 64
