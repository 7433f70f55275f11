"""Unit tests for DFS and two-stack traversal."""

import pytest

from repro.geometry import Ray
from repro.traversal import (
    DEFERRED_ORDERS,
    TraceSet,
    summarize_traces,
    traverse_dfs,
    traverse_dfs_batch,
    traverse_two_stack,
    traverse_two_stack_batch,
)
from repro.treelet import form_treelets

from conftest import center_ray


def brute_force_closest(ray, triangles):
    from repro.traversal import ray_triangle_test

    best = None
    for tri in triangles:
        hit = ray_triangle_test(ray, tri)
        if hit is not None and (best is None or hit.t < best.t):
            best = hit
    return best


class TestDfs:
    def test_finds_brute_force_closest_hit(self, sphere_bvh):
        ray = center_ray()
        trace = traverse_dfs(ray.clone(), sphere_bvh)
        brute = brute_force_closest(ray.clone(), sphere_bvh.triangles)
        assert trace.hit is not None and brute is not None
        assert trace.hit.t == pytest.approx(brute.t)
        assert trace.hit.primitive_id == brute.primitive_id

    def test_miss_leaves_no_hit(self, sphere_bvh):
        ray = Ray(origin=(10.0, 10.0, 10.0), direction=(0.0, 1.0, 0.0))
        trace = traverse_dfs(ray, sphere_bvh)
        assert trace.hit is None

    def test_visits_start_at_root(self, sphere_bvh):
        trace = traverse_dfs(center_ray(), sphere_bvh)
        assert trace.visits[0].node_id == sphere_bvh.ROOT_ID

    def test_early_termination_shrinks_t_max(self, sphere_bvh):
        ray = center_ray()
        traverse_dfs(ray, sphere_bvh)
        assert ray.t_max < float("inf")

    def test_leaf_visits_record_primitive_counts(self, sphere_bvh):
        trace = traverse_dfs(center_ray(), sphere_bvh)
        for visit in trace.visits:
            if visit.is_leaf:
                node = sphere_bvh.node(visit.node_id)
                assert visit.primitive_count == len(node.primitive_ids)

    def test_no_node_visited_twice(self, sphere_bvh):
        trace = traverse_dfs(center_ray(), sphere_bvh)
        ids = [v.node_id for v in trace.visits]
        assert len(ids) == len(set(ids))


class TestTwoStack:
    @pytest.mark.parametrize("order", DEFERRED_ORDERS)
    def test_hit_agrees_with_dfs(self, sphere_bvh, order):
        dec = form_treelets(sphere_bvh, 512)
        ray = center_ray()
        dfs_trace = traverse_dfs(ray.clone(), sphere_bvh)
        two_trace = traverse_two_stack(ray.clone(), sphere_bvh, dec, order)
        assert (dfs_trace.hit is None) == (two_trace.hit is None)
        if dfs_trace.hit is not None:
            assert two_trace.hit.t == pytest.approx(dfs_trace.hit.t)

    def test_batch_hits_agree_with_dfs(self, small_bvh, decomposition):
        rays = [
            Ray(
                origin=(0.0, 0.0, 12.0),
                direction=(0.1 * i - 0.5, 0.05 * i - 0.3, -1.0),
            )
            for i in range(24)
        ]
        dfs_traces = traverse_dfs_batch([r.clone() for r in rays], small_bvh)
        two_traces = traverse_two_stack_batch(
            [r.clone() for r in rays], small_bvh, decomposition
        )
        for a, b in zip(dfs_traces, two_traces):
            assert (a.hit is None) == (b.hit is None)
            if a.hit is not None:
                assert b.hit.t == pytest.approx(a.hit.t)

    def test_unknown_order_rejected(self, sphere_bvh):
        dec = form_treelets(sphere_bvh, 512)
        with pytest.raises(ValueError):
            traverse_two_stack(center_ray(), sphere_bvh, dec, "random")

    def test_visits_cluster_by_treelet(self, small_bvh, decomposition):
        """Two-stack traversal produces fewer treelet transitions than DFS
        (that is its entire purpose)."""

        def transitions(trace):
            tids = [
                decomposition.treelet_of(v.node_id) for v in trace.visits
            ]
            return sum(1 for a, b in zip(tids, tids[1:]) if a != b)

        rays = [
            Ray(
                origin=(0.0, 0.0, 12.0),
                direction=(0.07 * i - 0.4, 0.03 * i - 0.2, -1.0),
            )
            for i in range(32)
        ]
        dfs_total = sum(
            transitions(t)
            for t in traverse_dfs_batch([r.clone() for r in rays], small_bvh)
        )
        two_total = sum(
            transitions(t)
            for t in traverse_two_stack_batch(
                [r.clone() for r in rays], small_bvh, decomposition
            )
        )
        assert two_total <= dfs_total


class TestSummaries:
    def test_summary_aggregates(self, sphere_bvh):
        rays = [center_ray() for _ in range(4)]
        traces = traverse_dfs_batch(rays, sphere_bvh)
        summary = summarize_traces(TraceSet.from_traces(traces))
        assert summary.ray_count == 4
        assert summary.total_nodes == sum(t.nodes_visited for t in traces)
        assert summary.max_nodes == max(t.nodes_visited for t in traces)
        assert summary.hit_count == 4
        assert summary.avg_nodes_per_ray == pytest.approx(
            summary.total_nodes / 4
        )

    def test_empty_summary(self):
        summary = summarize_traces(TraceSet.from_traces([]))
        assert summary.ray_count == 0
        assert summary.avg_nodes_per_ray == 0.0
