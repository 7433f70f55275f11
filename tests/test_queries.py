"""Tests for repro.queries: kNN + containment as ray populations.

The load-bearing guarantee is *exactness*: decoded traversal answers
must equal brute force on every generated scene, under both traversal
kinds (the packet traces equal the scalar reference's on query rays,
``tests/test_vectorized.py``).  The rest covers the generators'
geometric invariants, compiler determinism, pipeline cache keying, the
serve wire protocol, and the CLI surface.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import pipeline
from repro.core.pipeline import BASELINE, SMOKE, TREELET_PREFETCH
from repro.queries import (
    K_NEIGHBORS,
    brute_containment,
    brute_knn,
    check_scene_workload,
    compile_queries,
    decode_results,
    validate_workload,
    verify_workload,
)
from repro.scenes import (
    QUERY_SCENES,
    SCENE_KINDS,
    amr_grid_two_level,
    build_scene,
    point_cloud_uniform,
    splat_mesh,
)

WORKLOAD_FOR = {"points": "knn", "amr": "containment"}


def _workload(scene_name: str) -> str:
    return WORKLOAD_FOR[SCENE_KINDS[scene_name]]


@pytest.fixture(autouse=True)
def _fresh_pipeline():
    pipeline.clear_caches()
    yield
    pipeline.clear_caches()


class TestGenerators:
    def test_splat_aabb_is_exactly_inflated_point(self):
        points = np.array([[1.0, 2.0, 3.0], [-4.0, 0.5, 9.0]])
        mesh = splat_mesh(points, inflation=0.25, name="t")
        for pid, tri in enumerate(mesh.triangles()):
            box = tri.bounds()
            np.testing.assert_allclose(box.lo, points[pid] - 0.25)
            np.testing.assert_allclose(box.hi, points[pid] + 0.25)

    def test_splat_never_hit_by_x_rays(self):
        # The splat plane contains the x axis direction, so Möller-
        # Trumbore yields det == 0 for any +x ray: leaves enumerate
        # without early termination.
        points = np.array([[0.0, 0.0, 0.0]])
        mesh = splat_mesh(points, inflation=0.5, name="t")
        (tri,) = mesh.triangles()
        edge1 = np.subtract(tri.v1, tri.v0)
        edge2 = np.subtract(tri.v2, tri.v0)
        normal = np.cross(edge1, edge2)
        assert abs(normal[0]) < 1e-12

    def test_amr_cells_are_disjoint(self):
        geometry, _ = _amr_fixture()
        lo, hi = geometry.lo, geometry.hi
        n = len(lo)
        for a in range(n):
            for b in range(a + 1, n):
                overlaps = np.all((lo[a] < hi[b]) & (lo[b] < hi[a]))
                assert not overlaps, f"cells {a} and {b} overlap"

    def test_amr_cell_lookup_roundtrip(self):
        geometry, mesh = _amr_fixture()
        assert mesh.triangle_count == 12 * geometry.cell_count
        for cell in range(geometry.cell_count):
            assert geometry.cell_of_primitive(12 * cell) == cell
            center = (geometry.lo[cell] + geometry.hi[cell]) / 2.0
            assert geometry.containing_cell(center) == cell

    def test_point_cloud_budget_and_determinism(self):
        a = point_cloud_uniform(600, seed=3)
        b = point_cloud_uniform(600, seed=3)
        np.testing.assert_array_equal(a[1].points, b[1].points)
        assert a[0].triangle_count == a[1].count


def _amr_fixture():
    mesh, geometry = amr_grid_two_level(600, seed=11)
    return geometry, mesh


class TestCompile:
    def test_compile_is_deterministic(self):
        scene = build_scene("PTSUNI", SMOKE.scene_scale)
        a = compile_queries(scene, "knn", 32)
        b = compile_queries(scene, "knn", 32)
        np.testing.assert_array_equal(a.queries, b.queries)
        assert len(a.rays) == len(b.rays)
        for ra, rb in zip(a.rays, b.rays):
            assert ra.origin == rb.origin
            assert ra.direction == rb.direction
            assert ra.t_max == rb.t_max

    def test_knn_emits_all_rounds(self):
        scene = build_scene("PTSUNI", SMOKE.scene_scale)
        plan = compile_queries(scene, "knn", 16)
        assert plan.query_count == 16
        assert plan.ray_count == len(plan.ray_query)
        # Iterative radius expansion: more rays than queries.
        assert plan.ray_count > plan.query_count
        assert set(int(q) for q in plan.ray_query) == set(range(16))

    def test_containment_is_one_ray_per_query(self):
        scene = build_scene("AMRTWO", SMOKE.scene_scale)
        plan = compile_queries(scene, "containment", 16)
        assert plan.ray_count == plan.query_count == 16
        for ray in plan.rays:
            assert ray.direction == (1.0, 0.0, 0.0)

    def test_compile_rejects_scene_kind_mismatch(self):
        scene = build_scene("AMRTWO", SMOKE.scene_scale)
        with pytest.raises(ValueError, match="point-cloud"):
            compile_queries(scene, "knn", 8)


class TestWorkloadRegistry:
    def test_validate_accepts_known(self):
        for name in ("render", "knn", "containment"):
            assert validate_workload(name) == name

    def test_validate_suggests_near_miss(self):
        with pytest.raises(ValueError, match="did you mean 'knn'"):
            validate_workload("knnn")

    def test_scene_workload_mismatch_names_alternatives(self):
        with pytest.raises(ValueError, match="PTS"):
            check_scene_workload("AMRTWO", "knn")
        with pytest.raises(ValueError, match="AMRTWO"):
            check_scene_workload("PTSUNI", "containment")

    def test_render_allowed_everywhere(self):
        check_scene_workload("WKND", "render")
        check_scene_workload("PTSUNI", "render")


class TestExactness:
    """The headline guarantee: traversal == brute force, exactly."""

    @pytest.mark.parametrize("scene_name", QUERY_SCENES)
    def test_exact_vs_brute_force(self, scene_name):
        verification = verify_workload(
            scene_name, SMOKE, _workload(scene_name)
        )
        assert verification.exact, verification.examples

    @pytest.mark.parametrize("scene_name", QUERY_SCENES)
    def test_exact_under_treelet_traversal(self, scene_name):
        verification = verify_workload(
            scene_name, SMOKE, _workload(scene_name),
            technique=TREELET_PREFETCH,
        )
        assert verification.exact, verification.examples

    def test_decode_matches_brute_directly(self):
        # Same check without the verify_workload wrapper, to pin the
        # decode_results contract itself.
        scene_name = "PTSUNI"
        plan = pipeline.get_query_plan(scene_name, SMOKE, "knn")
        scene = pipeline.get_scene(scene_name, SMOKE)
        bvh = pipeline.get_bvh(scene_name, SMOKE)
        traces = pipeline.get_traces(
            scene_name, SMOKE, BASELINE.traversal, BASELINE.treelet_bytes,
            BASELINE.deferred_order, BASELINE.formation, workload="knn",
        )
        decoded = decode_results(plan, scene, bvh, traces)
        assert plan.k == K_NEIGHBORS
        expected = brute_knn(scene.query.points, plan.queries, plan.k)
        assert decoded == expected

    def test_brute_containment_reference(self):
        scene = build_scene("AMRTWO", SMOKE.scene_scale)
        plan = compile_queries(scene, "containment", 32)
        verdicts = brute_containment(scene.query, plan.queries)
        assert len(verdicts) == 32
        # The compiler aims ~70% of queries at cell interiors.
        assert sum(1 for v in verdicts if v >= 0) >= 16


class TestPipelineIntegration:
    def test_ray_cache_keys_workloads_separately(self):
        render_rays = pipeline.get_rays("PTSUNI", SMOKE)
        knn_rays = pipeline.get_rays("PTSUNI", SMOKE, workload="knn")
        assert len(render_rays) != len(knn_rays)
        # Stable on re-request (cached).
        assert pipeline.get_rays("PTSUNI", SMOKE, workload="knn") is knn_rays

    def test_experiment_memoizer_keys_on_workload(self):
        render = pipeline._run_experiment(
            "PTSUNI", BASELINE, SMOKE, workload="render"
        )
        knn = pipeline._run_experiment(
            "PTSUNI", BASELINE, SMOKE, workload="knn"
        )
        assert render.cycles != knn.cycles
        again = pipeline._run_experiment(
            "PTSUNI", BASELINE, SMOKE, workload="knn"
        )
        assert again.cycles == knn.cycles

    def test_experiment_rejects_workload_mismatch(self):
        with pytest.raises(ValueError, match="needs"):
            pipeline._run_experiment(
                "AMRTWO", BASELINE, SMOKE, workload="knn"
            )

    @pytest.mark.parametrize("scene_name", ["PTSUNI", "AMRTWO"])
    def test_observed_replay_matches_unobserved(self, scene_name):
        from repro.obs import Observer

        workload = _workload(scene_name)
        plain = pipeline._run_experiment(
            scene_name, TREELET_PREFETCH, SMOKE,
            use_cache=False, workload=workload,
        )
        observed = pipeline._run_experiment(
            scene_name, TREELET_PREFETCH, SMOKE,
            observer=Observer(), workload=workload,
        )
        assert dataclasses.asdict(observed.stats) == dataclasses.asdict(
            plain.stats
        )


class TestApiFacade:
    def test_run_carries_workload(self):
        from repro.api import run

        result = run("PTSCLU", TREELET_PREFETCH, SMOKE, workload="knn")
        assert result.workload == "knn"
        assert result.cycles > 0

    def test_sweep_defaults_to_query_scenes(self):
        from repro.api import sweep

        outcome = sweep(TREELET_PREFETCH, None, SMOKE, workload="knn")
        assert sorted(outcome.outcomes) == ["PTSCLU", "PTSUNI"]

    def test_run_rejects_workload_mismatch(self):
        from repro.api import run

        with pytest.raises(ValueError):
            run("WKND", TREELET_PREFETCH, SMOKE, workload="knn")


class TestServeProtocol:
    def test_normalize_run_roundtrips_workload(self):
        from repro.serve.protocol import normalize_run

        served = normalize_run({
            "schema": "repro.serve/1",
            "scene": "PTSUNI",
            "technique": "treelet-prefetch",
            "scale": "smoke",
            "workload": "knn",
        })
        assert served.request.workload == "knn"
        assert served.describe()["workload"] == "knn"
        assert served.cache_key == (served.request, False)
        assert all(len(entry) == 3 for entry in served.trace_pairs())
        assert all(job.workload == "knn" for job in served.exec_jobs())

    def test_normalize_run_defaults_to_render(self):
        from repro.serve.protocol import normalize_run

        served = normalize_run({
            "schema": "repro.serve/1",
            "scene": "WKND",
            "technique": "baseline",
            "scale": "smoke",
        })
        assert served.request.workload == "render"
        assert "workload" not in served.describe()

    def test_normalize_run_rejects_mismatch(self):
        from repro.serve.protocol import ServeError, normalize_run

        with pytest.raises(ServeError) as excinfo:
            normalize_run({
                "schema": "repro.serve/1",
                "scene": "AMRTWO",
                "technique": "baseline",
                "scale": "smoke",
                "workload": "knn",
            })
        assert excinfo.value.status == 400

    def test_normalize_sweep_defaults_scenes_by_workload(self):
        from repro.serve.protocol import normalize_sweep

        served = normalize_sweep({
            "schema": "repro.serve/1",
            "technique": "treelet-prefetch",
            "scale": "smoke",
            "workload": "containment",
        })
        assert served.scenes == ("AMRTWO",)
        assert served.request.workload == "containment"

    def test_submit_request_wire_roundtrip(self):
        from repro.serve.protocol import SubmitRequest, normalize_run

        request = SubmitRequest(
            kind="run", scene="PTSCLU", technique="baseline",
            scale="smoke", workload="knn",
        )
        wire = request.to_wire()
        assert wire["workload"] == "knn"
        assert normalize_run(wire).request.workload == "knn"
        # Default workload stays off the wire.
        assert "workload" not in SubmitRequest(
            kind="run", scene="WKND"
        ).to_wire()

    def test_request_echo_is_the_api_wire_form(self):
        from repro.serve.protocol import normalize_run

        served = normalize_run({
            "scene": "wknd",
            "technique": "treelet-prefetch,treelet_bytes=8192",
            "scale": "smoke",
            "baseline": True,
            "deadline_s": 5,
        }, {"wait": "1"})
        assert served.describe() == {
            "kind": "run",
            **served.request.to_dict(),
            "baseline": True,
            "deadline_s": 5.0,
            "wait": True,
        }
        assert served.describe()["scene"] == "WKND"
        assert served.describe()["technique"] == (
            "treelet-prefetch,treelet_bytes=8192"
        )

    def test_scenario_mix_carries_workload(self):
        from repro.serve.loadgen import RequestTemplate

        request = RequestTemplate(scene="PTSUNI", workload="knn").submit()
        wire = request.to_wire()
        assert wire["workload"] == "knn"
        assert wire["scene"] == "PTSUNI"


class TestCli:
    def test_scenes_list_includes_query_scenes(self, capsys):
        from repro.cli import main

        assert main(["scenes", "list", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        for name in QUERY_SCENES:
            assert name in out
        assert "points" in out and "amr" in out

    def test_queries_command_verifies_and_compares(self, capsys):
        from repro.cli import main

        assert main(["queries", "AMRTWO", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "EXACT match" in out
        assert "speedup" in out

    def test_run_accepts_workload_flag(self, capsys):
        from repro.cli import main

        code = main([
            "run", "PTSUNI", "--scale", "smoke", "--workload", "knn",
            "--json",
        ])
        assert code == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "knn"
        assert payload["speedup"] > 0
