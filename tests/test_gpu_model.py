"""Integration-level tests for the GPU timing model."""

import pytest

from repro.bvh import dfs_layout
from repro.core.config import CacheConfig, GpuConfig
from repro.gpusim import GpuModel, SimulationLimitError
from repro.traversal import (
    TraceSet,
    traverse_dfs_batch,
    traverse_two_stack_batch,
)
from repro.treelet import treelet_layout
from repro.geometry import Ray


def tiny_config(**kw):
    defaults = dict(
        n_sms=2,
        warp_buffer_size=4,
        l1=CacheConfig(size_bytes=1024, line_bytes=128, latency=20),
        l2=CacheConfig(
            size_bytes=8 * 1024, line_bytes=128, associativity=8, latency=160
        ),
        max_cycles=500_000,
    )
    defaults.update(kw)
    return GpuConfig(**defaults)


def make_rays(n=40):
    return [
        Ray(
            origin=(0.0, 0.0, 12.0),
            direction=(0.04 * i - 0.8, 0.02 * i - 0.4, -1.0),
        )
        for i in range(n)
    ]


@pytest.fixture
def workload(small_bvh):
    traces = TraceSet.from_traces(traverse_dfs_batch(make_rays(), small_bvh))
    return traces, small_bvh, dfs_layout(small_bvh)


class TestRun:
    def test_completes_all_visits(self, workload):
        traces, bvh, layout = workload
        model = GpuModel(tiny_config())
        model.load(traces, bvh, layout)
        stats = model.run()
        expected = sum(len(t.visits) for t in traces)
        assert stats.visits_completed == expected
        assert stats.cycles > 0

    def test_deterministic(self, workload):
        traces, bvh, layout = workload
        runs = []
        for _ in range(2):
            model = GpuModel(tiny_config())
            model.load(traces, bvh, layout)
            runs.append(model.run().cycles)
        assert runs[0] == runs[1]

    def test_warp_distribution(self, workload):
        traces, bvh, layout = workload
        model = GpuModel(tiny_config())
        n_warps = model.load(traces, bvh, layout)
        nonempty = [t for t in traces if t.visits]
        assert n_warps == (len(nonempty) + 31) // 32

    def test_more_sms_is_not_slower(self, workload):
        traces, bvh, layout = workload
        cycles = {}
        for n_sms in (1, 2):
            model = GpuModel(tiny_config(n_sms=n_sms))
            model.load(traces, bvh, layout)
            cycles[n_sms] = model.run().cycles
        assert cycles[2] <= cycles[1]

    def test_latency_stats_populated(self, workload):
        traces, bvh, layout = workload
        model = GpuModel(tiny_config())
        model.load(traces, bvh, layout)
        stats = model.run()
        assert stats.avg_node_demand_latency >= 20  # at least L1 latency
        assert stats.dram_accesses > 0

    def test_bigger_l1_reduces_misses(self, workload):
        traces, bvh, layout = workload
        misses = {}
        for size in (512, 8192):
            config = tiny_config(
                l1=CacheConfig(size_bytes=size, line_bytes=128, latency=20)
            )
            model = GpuModel(config)
            model.load(traces, bvh, layout)
            misses[size] = model.run().l1.demand_misses
        assert misses[8192] <= misses[512]

    def test_max_cycles_guard(self, workload):
        traces, bvh, layout = workload
        model = GpuModel(tiny_config(max_cycles=5))
        model.load(traces, bvh, layout)
        with pytest.raises(SimulationLimitError):
            model.run()

    def test_empty_workload(self, small_bvh):
        model = GpuModel(tiny_config())
        model.load(TraceSet.from_traces([]), small_bvh, dfs_layout(small_bvh))
        stats = model.run()
        assert stats.visits_completed == 0


class TestSchedulerPolicies:
    @pytest.mark.parametrize("policy", ["baseline", "omr", "pmr"])
    def test_all_policies_complete(self, small_bvh, decomposition, policy):
        rays = make_rays()
        traces = TraceSet.from_traces(
            traverse_two_stack_batch(rays, small_bvh, decomposition)
        )
        layout = treelet_layout(decomposition)
        model = GpuModel(tiny_config(), scheduler_policy=policy)
        model.load(traces, bvh=small_bvh, layout=layout)
        stats = model.run()
        assert stats.visits_completed == sum(len(t.visits) for t in traces)


class TestIpcProxy:
    def test_ipc_definition(self, workload):
        traces, bvh, layout = workload
        model = GpuModel(tiny_config())
        model.load(traces, bvh, layout)
        stats = model.run()
        assert stats.ipc == pytest.approx(
            stats.visits_completed / stats.cycles
        )

    def test_l1_breakdown_sums_to_one(self, workload):
        traces, bvh, layout = workload
        model = GpuModel(tiny_config())
        model.load(traces, bvh, layout)
        stats = model.run()
        breakdown = stats.l1_breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0)
