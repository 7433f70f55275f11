"""Unit tests for the ray-coherence analysis."""

import pytest

from repro.analysis import (
    analyze_by_kind,
    analyze_group,
    treelet_transitions,
    warp_overlap,
)
from repro.geometry import Ray, RayKind
from repro.traversal import NodeVisit, RayTrace
from conftest import treelet_members


def trace_of(node_ids, ray_id=0):
    return RayTrace(
        ray_id=ray_id,
        visits=[NodeVisit(node_id=n, is_leaf=False) for n in node_ids],
    )


class TestWarpOverlap:
    def test_identical_traces_overlap_fully(self):
        traces = [trace_of([1, 2, 3], i) for i in range(4)]
        assert warp_overlap(traces, warp_size=4) == pytest.approx(1.0)

    def test_disjoint_traces_overlap_zero(self):
        traces = [trace_of([i * 10, i * 10 + 1], i) for i in range(4)]
        assert warp_overlap(traces, warp_size=4) == pytest.approx(0.0)

    def test_half_overlap(self):
        traces = [trace_of([1, 2], 0), trace_of([2, 3], 1)]
        # Jaccard of {1,2} vs {2,3} = 1/3.
        assert warp_overlap(traces, warp_size=2) == pytest.approx(1 / 3)

    def test_warp_boundary_respected(self):
        # Rays in *different* warps never compared.
        traces = [trace_of([1], 0), trace_of([1], 1)]
        assert warp_overlap(traces, warp_size=1) == 0.0

    def test_empty(self):
        assert warp_overlap([]) == 0.0


class TestTreeletTransitions:
    def test_counts_boundary_crossings(self, small_bvh, decomposition):
        # Construct a path root -> child in another treelet.
        for node in small_bvh.nodes:
            for child in node.child_ids:
                if not decomposition.same_treelet(node.node_id, child):
                    trace = trace_of([node.node_id, child])
                    assert treelet_transitions(trace, decomposition) == 1
                    return
        pytest.skip("fixture has a single treelet")

    def test_no_transition_within_treelet(self, decomposition):
        treelet = max(treelet_members(decomposition), key=len)
        if len(treelet) < 2:
            pytest.skip("all treelets are singletons")
        trace = trace_of(treelet)
        assert treelet_transitions(trace, decomposition) == 0


class TestAnalyzeGroups:
    def test_group_report_fields(self, decomposition):
        traces = [trace_of([0, 1], i) for i in range(3)]
        report = analyze_group(traces, decomposition, warp_size=3)
        assert report.ray_count == 3
        assert report.avg_nodes_per_ray == pytest.approx(2.0)
        assert 0.0 <= report.avg_warp_overlap <= 1.0

    def test_empty_group(self):
        report = analyze_group([])
        assert report.ray_count == 0

    def test_by_kind_partitions(self):
        rays = [
            Ray(origin=(0.0, 0.0, 0.0), direction=(1.0, 0.0, 0.0),
                kind=RayKind.PRIMARY),
            Ray(origin=(0.0, 0.0, 0.0), direction=(1.0, 0.0, 0.0),
                kind=RayKind.SHADOW),
        ]
        traces = [trace_of([0], rays[0].ray_id), trace_of([0, 1], rays[1].ray_id)]
        reports = analyze_by_kind(rays, traces)
        assert reports["primary"].ray_count == 1
        assert reports["shadow"].avg_nodes_per_ray == pytest.approx(2.0)

    def test_misaligned_inputs_rejected(self):
        ray = Ray(origin=(0.0, 0.0, 0.0), direction=(1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            analyze_by_kind([ray], [trace_of([0], ray.ray_id + 999)])
        with pytest.raises(ValueError):
            analyze_by_kind([ray], [])


class TestMotivationShape:
    def test_secondary_rays_less_coherent(self, small_bvh):
        """The Section 2.4 claim on a real workload: diffuse bounces
        overlap less within warps than primary rays."""
        from repro.scenes import Camera, RayGenConfig, generate_rays
        from repro.traversal import traverse_dfs_batch

        camera = Camera(position=(0.0, 4.0, 14.0), look_at=(0.0, 0.0, 0.0))
        rays = generate_rays(
            camera, small_bvh, RayGenConfig(width=8, height=8, seed=3)
        )
        traces = traverse_dfs_batch([r.clone() for r in rays], small_bvh)
        reports = analyze_by_kind(rays, traces, warp_size=32)
        if "secondary" not in reports:
            pytest.skip("no secondary rays hit")
        assert (
            reports["secondary"].avg_warp_overlap
            <= reports["primary"].avg_warp_overlap + 0.05
        )
