"""Unit tests for the timeline sampler."""

import json
from pathlib import Path

import pytest

from conftest import golden_model
from repro.bvh import dfs_layout
from repro.core.config import CacheConfig, GpuConfig
from repro.gpusim import GpuModel, TimelineSampler
from repro.traversal import TraceSet, traverse_dfs_batch
from repro.geometry import Ray


def tiny_config():
    return GpuConfig(
        n_sms=2,
        warp_buffer_size=4,
        l1=CacheConfig(size_bytes=1024, line_bytes=128, latency=20),
        l2=CacheConfig(size_bytes=8 * 1024, line_bytes=128,
                       associativity=8, latency=160),
    )


@pytest.fixture
def workload(small_bvh):
    rays = [
        Ray(origin=(0.0, 0.0, 12.0),
            direction=(0.04 * i - 0.8, 0.02 * i - 0.4, -1.0))
        for i in range(40)
    ]
    traces = TraceSet.from_traces(traverse_dfs_batch(rays, small_bvh))
    return traces, small_bvh, dfs_layout(small_bvh)


class TestSampler:
    def test_interval_validated(self):
        with pytest.raises(ValueError):
            TimelineSampler(interval=0)

    def test_samples_collected(self, workload):
        traces, bvh, layout = workload
        sampler = TimelineSampler(interval=16)
        model = GpuModel(tiny_config(), timeline=sampler)
        model.load(traces, bvh, layout)
        stats = model.run()
        assert sampler.samples
        assert sampler.samples[0].cycle == 0
        cycles = sampler.series("cycle")
        # Strictly increasing, never oversampling the interval grid.
        assert all(b > a for a, b in zip(cycles, cycles[1:]))
        assert len(cycles) <= stats.cycles // 16 + 1
        assert cycles[-1] <= stats.cycles

    def test_observational_only(self, workload):
        """Attaching a sampler must not perturb the simulation."""
        traces, bvh, layout = workload
        plain = GpuModel(tiny_config())
        plain.load(traces, bvh, layout)
        baseline = plain.run()
        sampled = GpuModel(tiny_config(), timeline=TimelineSampler(interval=8))
        sampled.load(traces, bvh, layout)
        observed = sampled.run()
        assert observed.cycles == baseline.cycles
        assert observed.visits_completed == baseline.visits_completed
        assert observed.l1.demand_hits == baseline.l1.demand_hits

    def test_series_and_mean(self, workload):
        traces, bvh, layout = workload
        sampler = TimelineSampler(interval=32)
        model = GpuModel(tiny_config(), timeline=sampler)
        model.load(traces, bvh, layout)
        model.run()
        warps = sampler.series("resident_warps")
        assert len(warps) == len(sampler.samples)
        assert sampler.mean("resident_warps") == pytest.approx(
            sum(warps) / len(warps)
        )

    def test_empty_sampler_mean(self):
        assert TimelineSampler().mean("ready_rays") == 0.0

    def test_no_interval_drift_on_late_calls(self):
        """A call landing past the boundary must not re-phase the grid.

        The old schedule (``next = cycle + interval``) drifted: a call at
        cycle 21 with interval 16 pushed the next threshold to 37, so a
        call at cycle 32 was skipped.  The grid stays at multiples of the
        interval now.
        """
        sampler = TimelineSampler(interval=16)
        sampler.maybe_sample(0, [])
        sampler.maybe_sample(21, [])  # late past the 16 boundary
        sampler.maybe_sample(32, [])  # exactly on the next grid point
        assert sampler.series("cycle") == [0, 21, 32]

    def test_late_call_skips_missed_grid_points_once(self):
        """Jumping over several boundaries samples once, then realigns."""
        sampler = TimelineSampler(interval=10)
        sampler.maybe_sample(0, [])
        sampler.maybe_sample(35, [])  # crossed 10, 20, 30
        sampler.maybe_sample(39, [])  # before 40: no sample
        sampler.maybe_sample(40, [])
        assert sampler.series("cycle") == [0, 35, 40]

    def test_registry_gauge_fold(self):
        """Samples mirror into a MetricRegistry as gauge series."""
        from repro.obs import MetricRegistry

        class FakePrefetcher:
            def queue_depth(self):
                return 3

        class FakeUnit:
            sm_id = 0
            buffer = [object(), object()]
            prefetcher = FakePrefetcher()

            def ready_total(self):
                return 5

        registry = MetricRegistry()
        sampler = TimelineSampler(interval=4, registry=registry)
        sampler.maybe_sample(0, [FakeUnit()])
        sampler.maybe_sample(4, [FakeUnit()])
        ready = registry.gauge("occupancy.ready_rays")
        assert ready.cycles == [0, 4]
        assert ready.values == [5, 5]
        assert registry.gauge("occupancy.sm0.resident_warps").values == [2, 2]
        assert registry.gauge("prefetch.queue_depth").last == 3


TIMELINE_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "timeline_series.json").read_text()
)["series"]


class TestGoldenSeries:
    """The replay engine samples inside its one per-unit pass (a unit's
    reading is taken between its deliveries and its step) and fills grid
    points between buckets from the state the last bucket left.  The
    series must equal the ones recorded when every grid point forced a
    bucket of its own."""

    @pytest.mark.parametrize("key", sorted(TIMELINE_GOLDEN))
    def test_series_match_golden(self, key):
        case, interval = key.split("@")
        sampler = TimelineSampler(interval=int(interval))
        model, traces, bvh, layout = golden_model(case, timeline=sampler)
        model.run()
        if case.startswith("rounds/"):
            # A second round starts past a grid point the drain skipped.
            model.load(traces, bvh, layout)
            model.run()
        expected = TIMELINE_GOLDEN[key]
        for field in expected:
            assert sampler.series(field) == expected[field], field
