"""Property-based tests (hypothesis) on core data-structure invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.bvh import BuildConfig, NODE_SIZE_BYTES, build_wide_bvh, dfs_layout
from repro.core.report import geomean
from repro.geometry import AABB, Ray, Triangle, cross, dot, length, normalize, sub
from repro.traversal import (
    ray_aabb_test,
    ray_triangle_test,
    traverse_dfs,
    traverse_two_stack,
)
from repro.treelet import form_treelets, treelet_layout

finite = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
points = st.tuples(finite, finite, finite)
nonzero_dirs = points.filter(lambda v: length(v) > 1e-3)


@st.composite
def triangles_strategy(draw, min_tris=1, max_tris=40):
    n = draw(st.integers(min_tris, max_tris))
    tris = []
    for i in range(n):
        v0 = draw(points)
        e1 = draw(nonzero_dirs)
        e2 = draw(nonzero_dirs)
        v1 = (v0[0] + e1[0], v0[1] + e1[1], v0[2] + e1[2])
        v2 = (v0[0] + e2[0], v0[1] + e2[1], v0[2] + e2[2])
        tris.append(Triangle(v0, v1, v2, primitive_id=i))
    return tris


class TestVectorProperties:
    @given(points, points)
    def test_cross_orthogonal_to_inputs(self, a, b):
        c = cross(a, b)
        assert abs(dot(c, a)) <= 1e-6 * (1 + length(a) * length(b)) * 100
        assert abs(dot(c, b)) <= 1e-6 * (1 + length(a) * length(b)) * 100

    @given(nonzero_dirs)
    def test_normalize_idempotent(self, v):
        n = normalize(v)
        assert math.isclose(length(n), 1.0, rel_tol=1e-9)
        nn = normalize(n)
        assert all(abs(a - b) < 1e-9 for a, b in zip(n, nn))

    @given(points, points)
    def test_triangle_inequality(self, a, b):
        assert length(sub(a, b)) <= length(a) + length(b) + 1e-9


class TestAabbProperties:
    @given(st.lists(points, min_size=1, max_size=20))
    def test_from_points_contains_all(self, pts):
        box = AABB.from_points(pts)
        assert all(box.expanded(1e-9).contains_point(p) for p in pts)

    @given(st.lists(points, min_size=1, max_size=10),
           st.lists(points, min_size=1, max_size=10))
    def test_union_monotone_area(self, pts_a, pts_b):
        a = AABB.from_points(pts_a)
        b = AABB.from_points(pts_b)
        u = a.union(b)
        assert u.surface_area() >= max(a.surface_area(), b.surface_area()) - 1e-9

    @given(st.lists(points, min_size=2, max_size=12))
    def test_intersection_contained_in_both(self, pts):
        half = len(pts) // 2
        a = AABB.from_points(pts[:half] or pts)
        b = AABB.from_points(pts[half:] or pts)
        inter = a.intersection(b)
        if not inter.is_empty():
            assert a.expanded(1e-9).contains_box(inter)
            assert b.expanded(1e-9).contains_box(inter)


class TestIntersectionProperties:
    @given(points, nonzero_dirs, st.lists(points, min_size=2, max_size=8))
    def test_aabb_hit_interval_ordered(self, origin, direction, pts):
        box = AABB.from_points(pts)
        ray = Ray(origin=origin, direction=direction)
        overlap = ray_aabb_test(ray, box)
        if overlap is not None:
            t_enter, t_exit = overlap
            assert t_enter <= t_exit
            assert t_enter >= ray.t_min - 1e-9

    @given(points, nonzero_dirs, triangles_strategy(max_tris=1))
    def test_triangle_hit_point_on_ray(self, origin, direction, tris):
        ray = Ray(origin=origin, direction=direction)
        hit = ray_triangle_test(ray, tris[0])
        if hit is not None:
            expected = ray.at(hit.t)
            assert all(
                abs(a - b) < 1e-5 * max(1.0, abs(hit.t))
                for a, b in zip(hit.point, expected)
            )

    @given(points, nonzero_dirs, triangles_strategy(max_tris=1))
    def test_triangle_hit_inside_bounds(self, origin, direction, tris):
        tri = tris[0]
        ray = Ray(origin=origin, direction=direction)
        hit = ray_triangle_test(ray, tri)
        if hit is not None:
            assert tri.bounds().expanded(1e-4 * (1 + abs(hit.t))).contains_point(
                hit.point
            )


class TestBvhProperties:
    @settings(max_examples=25, deadline=None)
    @given(triangles_strategy())
    def test_build_covers_primitives(self, tris):
        bvh = build_wide_bvh(tris, BuildConfig(max_leaf_size=2))
        bvh.validate()  # the full invariant bundle

    @settings(max_examples=25, deadline=None)
    @given(
        triangles_strategy(),
        st.integers(1, 16),
        st.sampled_from(["bfs", "dfs", "sah"]),
    )
    def test_treelet_partition_invariants(self, tris, max_nodes, strategy):
        bvh = build_wide_bvh(tris, BuildConfig(max_leaf_size=2))
        dec = form_treelets(bvh, max_nodes * NODE_SIZE_BYTES, strategy)
        dec.validate()

    @settings(max_examples=20, deadline=None)
    @given(triangles_strategy())
    def test_layouts_are_bijections(self, tris):
        bvh = build_wide_bvh(tris, BuildConfig(max_leaf_size=2))
        dec = form_treelets(bvh, 512)
        for layout in (dfs_layout(bvh), treelet_layout(dec)):
            addresses = layout.node_address.tolist()
            assert len(set(addresses)) == len(bvh)
            assert all(a % NODE_SIZE_BYTES == 0 for a in addresses)

    @settings(max_examples=20, deadline=None)
    @given(
        triangles_strategy(),
        points,
        nonzero_dirs,
        st.sampled_from(["nearest", "lifo", "fifo"]),
    )
    def test_traversals_agree_on_closest_hit(
        self, tris, origin, direction, order
    ):
        """The paper's Algorithm 1 must be hit-equivalent to DFS under
        every deferred-treelet pop policy."""
        bvh = build_wide_bvh(tris, BuildConfig(max_leaf_size=2))
        dec = form_treelets(bvh, 512)
        ray = Ray(origin=origin, direction=direction)
        dfs_hit = traverse_dfs(ray.clone(), bvh).hit
        two_hit = traverse_two_stack(ray.clone(), bvh, dec, order).hit
        assert (dfs_hit is None) == (two_hit is None)
        if dfs_hit is not None:
            assert math.isclose(dfs_hit.t, two_hit.t, rel_tol=1e-9, abs_tol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(triangles_strategy(), points, nonzero_dirs)
    def test_dfs_visits_subset_of_tree(self, tris, origin, direction):
        bvh = build_wide_bvh(tris, BuildConfig(max_leaf_size=2))
        ray = Ray(origin=origin, direction=direction)
        trace = traverse_dfs(ray, bvh)
        ids = [v.node_id for v in trace.visits]
        assert len(ids) == len(set(ids))
        assert all(0 <= i < len(bvh) for i in ids)


class TestReportProperties:
    @given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1,
                    max_size=20))
    def test_geomean_between_min_and_max(self, values):
        g = geomean(values)
        assert min(values) - 1e-9 <= g <= max(values) + 1e-9
