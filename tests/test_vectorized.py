"""Golden equality tests: vectorized packet traversal vs the scalar reference.

The vectorized backend's contract is *bit identity*, not approximate
agreement — every trace, visit sequence and hit record must equal what
the scalar reference produces, and the input rays stay as they were.
These tests pin that contract with randomized kernel inputs, the full
16-scene library and the query scenes' ray populations, lane pools of
several widths, multi-job pools, merged forests, the pipeline's own
trace generation, and end-to-end SimStats.
"""

import random
import time

import numpy as np
import pytest

from repro.core import pipeline
from repro.core.memo import MEMO
from repro.core.pipeline import (
    DEFAULT,
    SMOKE,
    TREELET_PREFETCH,
    _run_experiment,
    clear_caches,
    get_bvh,
    get_decomposition,
    get_rays,
    get_traces,
    prewarm_traces,
)
from repro.geometry import AABB, Ray, Triangle
from repro.queries.workloads import WORKLOAD_SCENE_KIND
from repro.scenes import ALL_SCENES, QUERY_SCENES, SCENE_KINDS
from repro.traversal import (
    TraceSet,
    traverse_dfs_batch,
    traverse_forest_jobs,
    traverse_two_stack_batch,
)
from repro.traversal.intersect import ray_aabb_test, ray_triangle_test
from repro.traversal import vectorized
from repro.traversal.two_stack import DEFERRED_ORDERS
from repro.traversal.vectorized import (
    LANES,
    ray_aabb_test_batch,
    ray_triangle_test_batch,
    traverse_dfs_packet,
    traverse_two_stack_packet,
)

#: Scene kind -> the query workload whose rays it answers.
_QUERY_WORKLOAD = {kind: name for name, kind in WORKLOAD_SCENE_KIND.items()}


def _workload(scene):
    """The ray population a scene is checked on: render rays for the
    library scenes, the query rays of its workload for query scenes."""
    if scene in QUERY_SCENES:
        return _QUERY_WORKLOAD[SCENE_KINDS[scene]]
    return "render"


def trace_signature(trace):
    hit = trace.hit
    return (
        trace.ray_id,
        tuple(
            (visit.node_id, visit.is_leaf, visit.primitive_count)
            for visit in trace.visits
        ),
        trace.box_tests,
        trace.primitive_tests,
        None
        if hit is None
        else (hit.t, hit.primitive_id, hit.point, hit.normal),
    )


def assert_traces_equal(vectorized, scalar):
    assert len(vectorized) == len(scalar)
    for got, want in zip(vectorized, scalar):
        assert trace_signature(got) == trace_signature(want)
    # The columns the packet driver writes are the scalar traces' columns.
    assert vectorized == TraceSet.from_traces(scalar)


def _random_rays(rng, count):
    rays = []
    for _ in range(count):
        direction = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        # Exercise the parallel-axis paths: zero out a component often.
        for axis in range(3):
            if rng.random() < 0.25:
                direction[axis] = 0.0
        if not any(direction):
            direction[2] = 1.0
        ray = Ray(
            origin=tuple(rng.uniform(-4.0, 4.0) for _ in range(3)),
            direction=tuple(direction),
        )
        if rng.random() < 0.3:
            ray.t_max = rng.uniform(0.5, 6.0)
        rays.append(ray)
    return rays


def _slab_rows(rays, boxes):
    """:func:`ray_aabb_test_batch`'s six-wide arguments for pairing
    ``rays[i]`` with ``boxes[i]``."""
    origin = np.array([ray.origin for ray in rays])
    inv = np.array([ray.inv_direction for ray in rays])
    return (
        np.hstack([origin, origin]),
        np.hstack([inv, inv]),
        np.array([ray.t_min for ray in rays]),
        np.array([ray.t_max for ray in rays]),
        np.array([box.lo + box.hi for box in boxes]),
    )


class TestKernelEquality:
    def test_aabb_batch_matches_scalar_randomized(self):
        rng = random.Random(0xA4BB)
        rays = _random_rays(rng, 400)
        boxes = []
        for ray in rays:
            if rng.random() < 0.2:
                # Box planes touching the ray origin exercise the
                # on-plane slab corner.
                base = list(ray.origin)
            else:
                base = [rng.uniform(-4.0, 4.0) for _ in range(3)]
            extent = [rng.uniform(0.0, 3.0) for _ in range(3)]
            boxes.append(
                AABB(tuple(base), tuple(b + e for b, e in zip(base, extent)))
            )
        rows = _slab_rows(rays, boxes)
        hit, t_near, t_far = ray_aabb_test_batch(*rows)
        # Into caller buffers (deeper than the rows): the same results.
        into = ray_aabb_test_batch(
            *rows, out=vectorized.slab_buffers(len(rays) + 5)
        )
        for got, want in zip(into, (hit, t_near, t_far)):
            assert np.array_equal(got, want)
        for i, (ray, box) in enumerate(zip(rays, boxes)):
            want = ray_aabb_test(ray, box)
            if want is None:
                assert not hit[i]
            else:
                assert hit[i]
                assert (t_near[i], t_far[i]) == want

    def test_triangle_batch_matches_scalar_randomized(self):
        rng = random.Random(0x731A)
        rays = _random_rays(rng, 400)
        triangles = []
        for index in range(len(rays)):
            v0 = tuple(rng.uniform(-3.0, 3.0) for _ in range(3))
            triangles.append(
                Triangle(
                    v0=v0,
                    v1=tuple(c + rng.uniform(-2.0, 2.0) for c in v0),
                    v2=tuple(c + rng.uniform(-2.0, 2.0) for c in v0),
                    primitive_id=index,
                )
            )
        origin = np.array([ray.origin for ray in rays])
        direction = np.array([ray.direction for ray in rays])
        t_min = np.array([ray.t_min for ray in rays])
        t_max = np.array([ray.t_max for ray in rays])
        v0 = np.array([tri.v0 for tri in triangles])
        edge1 = np.array(
            [np.subtract(tri.v1, tri.v0) for tri in triangles]
        )
        edge2 = np.array(
            [np.subtract(tri.v2, tri.v0) for tri in triangles]
        )
        hit, t, _u, _v = ray_triangle_test_batch(
            origin, direction, t_min, t_max, v0, edge1, edge2
        )
        hits_seen = 0
        for i, (ray, tri) in enumerate(zip(rays, triangles)):
            want = ray_triangle_test(ray, tri)
            if want is None:
                assert not hit[i]
            else:
                hits_seen += 1
                assert hit[i]
                assert t[i] == want.t
        assert hits_seen > 0  # the workload must actually exercise hits

    def test_empty_box_never_hits(self):
        ray = Ray(origin=(0.0, 0.0, -2.0), direction=(0.0, 0.0, 1.0))
        assert ray_aabb_test(ray, AABB.empty()) is None
        hit, _, _ = ray_aabb_test_batch(*_slab_rows([ray], [AABB.empty()]))
        assert not hit[0]


class TestSlabNanRegression:
    """0 * inf in the slab test: a ray parallel to an axis with its
    origin exactly on a slab plane must not silently pass (or fail) the
    axis through NaN comparisons."""

    @staticmethod
    def _on_plane_ray(x):
        # Parallel to the x slabs of the unit box, entering through z.
        ray = Ray(origin=(x, 0.5, -1.0), direction=(0.0, 0.0, 1.0))
        # Force the IEEE-divide convention (1/0 = inf) that produces
        # 0 * inf = NaN; safe_inverse's huge-finite clamp would mask it.
        ray.inv_direction = (float("inf"), ray.inv_direction[1],
                             ray.inv_direction[2])
        return ray

    def test_scalar_on_plane_parallel_ray_hits(self):
        box = AABB((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        for x in (0.0, 1.0):  # origin on the lo and the hi plane
            result = ray_aabb_test(self._on_plane_ray(x), box)
            assert result == (1.0, 2.0)

    def test_batch_matches_fixed_scalar_semantics(self):
        box = AABB((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        rays = [self._on_plane_ray(0.0), self._on_plane_ray(1.0)]
        hit, t_near, t_far = ray_aabb_test_batch(
            *_slab_rows(rays, [box, box])
        )
        assert hit.all()
        assert list(t_near) == [1.0, 1.0]
        assert list(t_far) == [2.0, 2.0]


@pytest.mark.parametrize("scene", ALL_SCENES + QUERY_SCENES)
class TestSceneGoldenEquality:
    """Vectorized traces are bit-identical to scalar on every library
    scene, and on the query rays of every query scene."""

    def test_dfs_traces_identical(self, scene):
        bvh = get_bvh(scene, SMOKE)
        rays = get_rays(scene, SMOKE, _workload(scene))
        scalar = traverse_dfs_batch([r.clone() for r in rays], bvh)
        vector = traverse_dfs_packet([r.clone() for r in rays], bvh)
        assert_traces_equal(vector, scalar)

    def test_two_stack_traces_identical(self, scene):
        bvh = get_bvh(scene, SMOKE)
        rays = get_rays(scene, SMOKE, _workload(scene))
        decomposition = get_decomposition(scene, SMOKE, 512)
        scalar = traverse_two_stack_batch(
            [r.clone() for r in rays], bvh, decomposition, "nearest"
        )
        vector = traverse_two_stack_packet(
            [r.clone() for r in rays], bvh, decomposition, "nearest"
        )
        assert_traces_equal(vector, scalar)


class TestPacketShapes:
    """Equality must hold whatever the lane pool's geometry: one lane,
    odd widths that refill thousands of times, a pool wider than the
    stream, multi-config job batches, and cross-scene merged forests."""

    @pytest.mark.parametrize("order", DEFERRED_ORDERS)
    @pytest.mark.parametrize("lanes", [1, 7, 4096])
    def test_orders_and_packet_sizes(self, order, lanes, monkeypatch):
        monkeypatch.setattr(vectorized, "LANES", lanes)
        bvh = get_bvh("WKND", SMOKE)
        rays = get_rays("WKND", SMOKE)
        decomposition = get_decomposition("WKND", SMOKE, 512)
        scalar = traverse_two_stack_batch(
            [r.clone() for r in rays], bvh, decomposition, order
        )
        vector = traverse_two_stack_packet(
            [r.clone() for r in rays], bvh, decomposition, order
        )
        assert_traces_equal(vector, scalar)

    def test_multi_job_packets_match_standalone(self, monkeypatch):
        monkeypatch.setattr(vectorized, "LANES", 13)
        bvh = get_bvh("BUNNY", SMOKE)
        rays = get_rays("BUNNY", SMOKE)
        decomposition = get_decomposition("BUNNY", SMOKE, 512)
        jobs = [(bvh, [r.clone() for r in rays], None, "nearest")] + [
            (bvh, [r.clone() for r in rays], decomposition, order)
            for order in DEFERRED_ORDERS
        ]
        outputs = traverse_forest_jobs(jobs)
        expected = [traverse_dfs_batch([r.clone() for r in rays], bvh)] + [
            traverse_two_stack_batch(
                [r.clone() for r in rays], bvh, decomposition, order
            )
            for order in DEFERRED_ORDERS
        ]
        for got, want in zip(outputs, expected):
            assert_traces_equal(got, want)

    @pytest.mark.parametrize("lanes", [1, 7, 4096])
    def test_forest_merges_scenes_without_cross_talk(self, lanes,
                                                     monkeypatch):
        monkeypatch.setattr(vectorized, "LANES", lanes)
        jobs = []
        expected = []
        for scene in ("WKND", "BUNNY", "SPNZA"):
            bvh = get_bvh(scene, SMOKE)
            rays = get_rays(scene, SMOKE)
            decomposition = get_decomposition(scene, SMOKE, 512)
            jobs.append((bvh, [r.clone() for r in rays], None, "nearest"))
            expected.append(
                traverse_dfs_batch([r.clone() for r in rays], bvh)
            )
            jobs.append(
                (bvh, [r.clone() for r in rays], decomposition, "lifo")
            )
            expected.append(
                traverse_two_stack_batch(
                    [r.clone() for r in rays], bvh, decomposition, "lifo"
                )
            )
            # A job without rays gets an empty trace set in its place.
            jobs.append((bvh, [], decomposition, "fifo"))
            expected.append([])
        outputs = traverse_forest_jobs(jobs)
        assert len(outputs) == len(jobs)
        for got, want in zip(outputs, expected):
            assert_traces_equal(got, want)

    def test_render_cold_forest_at_default_scale(self):
        """The pipeline's widest call at the real pool width: the seven
        render-cold scenes at default scale, DFS and every deferred
        order, in one stream of ~15k rays that refills the pool many
        times over."""
        jobs = []
        expected = []
        for scene in ("WKND", "BUNNY", "SPNZA", "CRNVL", "SHIP", "REF",
                      "CHSNT"):
            bvh = get_bvh(scene, DEFAULT)
            rays = get_rays(scene, DEFAULT)
            decomposition = get_decomposition(
                scene, DEFAULT, TREELET_PREFETCH.treelet_bytes
            )
            # The drivers leave their rays as they are: the four jobs
            # share one set of clones.
            shared = [r.clone() for r in rays]
            jobs.append((bvh, shared, None, "nearest"))
            expected.append(
                traverse_dfs_batch([r.clone() for r in rays], bvh)
            )
            for order in DEFERRED_ORDERS:
                jobs.append((bvh, shared, decomposition, order))
                expected.append(traverse_two_stack_batch(
                    [r.clone() for r in rays], bvh, decomposition, order
                ))
        assert sum(len(rays) for _, rays, _, _ in jobs) > 2 * LANES
        outputs = traverse_forest_jobs(jobs)
        for got, want in zip(outputs, expected):
            assert_traces_equal(got, want)

    def test_drivers_leave_input_rays_unchanged(self):
        """The scalar reference narrows each ray's ``t_max`` as it
        finds hits; the drivers keep the final distance in ``hit_t``
        and leave the input rays as they were."""
        bvh = get_bvh("WKND", SMOKE)
        rays = get_rays("WKND", SMOKE)
        decomposition = get_decomposition("WKND", SMOKE, 512)
        before = [r.t_max for r in rays]
        outputs = [
            traverse_dfs_packet(rays, bvh),
            traverse_two_stack_packet(rays, bvh, decomposition, "fifo"),
        ] + traverse_forest_jobs([
            (bvh, rays, None, "nearest"),
            (bvh, rays, decomposition, "lifo"),
        ])
        for traces in outputs:
            assert traces.hit_mask.any()
        assert [r.t_max for r in rays] == before
        narrowed = [r.clone() for r in rays]
        traverse_dfs_batch(narrowed, bvh)
        assert [r.t_max for r in narrowed] != before


class TestBackendEndToEnd:
    """The pipeline's trace generation (``prewarm_traces`` through
    ``traverse_forest_jobs``) against the scalar reference."""

    @staticmethod
    def _reference(scene, technique):
        bvh = get_bvh(scene, SMOKE)
        rays = [r.clone() for r in get_rays(scene, SMOKE)]
        if technique.traversal == "dfs":
            return traverse_dfs_batch(rays, bvh)
        decomposition = get_decomposition(
            scene, SMOKE, technique.treelet_bytes, technique.formation
        )
        return traverse_two_stack_batch(
            rays, bvh, decomposition, technique.deferred_order
        )

    def test_simstats_identical_across_backends(self):
        from repro.gpusim import GpuModel
        from repro.obs import simstats_to_dict

        clear_caches()
        technique = TREELET_PREFETCH
        bvh = get_bvh("WKND", SMOKE)
        decomposition = get_decomposition(
            "WKND", SMOKE, technique.treelet_bytes, technique.formation
        )
        layout = pipeline._build_layout(technique, bvh, decomposition)
        gpu = SMOKE.gpu
        model = GpuModel(
            gpu,
            scheduler_policy=technique.scheduler,
            prefetcher_factory=pipeline._prefetcher_factory(
                technique, gpu, layout, decomposition
            ),
        )
        model.load(
            TraceSet.from_traces(self._reference("WKND", technique)),
            bvh,
            layout,
        )
        reference = simstats_to_dict(model.run())
        result = _run_experiment("WKND", technique, SMOKE, use_cache=False)
        clear_caches()
        assert simstats_to_dict(result.stats) == reference

    def test_prewarm_traces_matches_get_traces(self):
        clear_caches()
        techniques = (pipeline.BASELINE, TREELET_PREFETCH)
        built = prewarm_traces(
            [("WKND", technique) for technique in techniques], SMOKE
        )
        assert built == 2
        for technique in techniques:
            args = (
                "WKND", SMOKE, technique.traversal, technique.treelet_bytes,
                technique.deferred_order, technique.formation,
            )
            warm = get_traces(*args)
            # Drop only the memoized traces: the scene's ray list (and
            # its globally-counted ray ids) must stay identical for the
            # rebuild, which get_traces does on its own.
            MEMO.clear("traces")
            cold = get_traces(*args)
            assert cold is not warm
            reference = self._reference("WKND", technique)
            assert_traces_equal(warm, reference)
            assert_traces_equal(cold, reference)
        clear_caches()


class TestTraceSpeedup:
    """The forest driver must stay well ahead of the scalar reference on
    the same runner: scalar CPU time over vectorized CPU time >= 1.5x,
    over DFS plus four L1-sized treelet budgets under each deferred
    order, on three smoke scenes."""

    SCENES = ("WKND", "BUNNY", "SPNZA")
    CONFIGS = [(None, "nearest")] + [
        (treelet_bytes, order)
        for treelet_bytes in (8192, 16384, 49152, 65536)
        for order in DEFERRED_ORDERS
    ]

    def test_forest_driver_outpaces_scalar_reference(self):
        specs = [
            (
                get_bvh(scene, SMOKE),
                get_rays(scene, SMOKE),
                None if budget is None
                else get_decomposition(scene, SMOKE, budget),
                order,
            )
            for scene in self.SCENES
            for budget, order in self.CONFIGS
        ]

        def best_of(trace, repeats=3):
            best = float("inf")
            for _ in range(repeats):
                # Traversal narrows each ray's interval: every run gets
                # fresh clones, made outside the timed region.
                jobs = [
                    (bvh, [ray.clone() for ray in rays], decomposition, order)
                    for bvh, rays, decomposition, order in specs
                ]
                start = time.process_time()
                trace(jobs)
                best = min(best, time.process_time() - start)
            return best

        def scalar(jobs):
            for bvh, rays, decomposition, order in jobs:
                if decomposition is None:
                    traverse_dfs_batch(rays, bvh)
                else:
                    traverse_two_stack_batch(rays, bvh, decomposition, order)

        best_of(traverse_forest_jobs, repeats=1)  # warm the numpy statics
        # CPU time on a shared box is still noisy: retry up to three
        # times before declaring a real regression.
        for _ in range(3):
            vectorized = best_of(traverse_forest_jobs)
            reference = best_of(scalar)
            if reference >= 1.5 * vectorized:
                break
        else:
            raise AssertionError(
                f"vectorized trace only {reference / vectorized:.2f}x the "
                f"scalar reference (floor 1.5x; vectorized="
                f"{vectorized:.4f}s scalar={reference:.4f}s)"
            )
