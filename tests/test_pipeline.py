"""Unit tests for the core pipeline API (Technique, scales, caching)."""

import pytest

from repro import (
    BASELINE,
    SMOKE,
    TREELET_PREFETCH,
    TREELET_TRAVERSAL_ONLY,
    Technique,
    run,
)
from repro.core.config import default_config, paper_config, smoke_config
from repro.core.pipeline import (
    DEFAULT,
    SCALES,
    Scale,
    get_bvh,
    get_decomposition,
    get_rays,
    get_traces,
)
from repro.prefetch import PrefetchHeuristic


class TestTechniqueValidation:
    def test_defaults_are_baseline(self):
        assert BASELINE.traversal == "dfs"
        assert BASELINE.prefetch is None

    def test_headline_technique(self):
        assert TREELET_PREFETCH.prefetch == "treelet"
        assert TREELET_PREFETCH.scheduler == "pmr"
        assert TREELET_PREFETCH.treelet_bytes == 512

    def test_treelet_prefetch_requires_treelet_traversal(self):
        with pytest.raises(ValueError):
            Technique(traversal="dfs", prefetch="treelet")

    def test_mapping_mode_requires_dfs_layout(self):
        with pytest.raises(ValueError):
            Technique(
                traversal="treelet",
                layout="treelet",
                prefetch="treelet",
                mapping_mode="loose",
            )

    def test_stride_requires_treelet_layout(self):
        with pytest.raises(ValueError):
            Technique(layout="dfs", layout_stride=256)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            Technique(traversal="bfs")
        with pytest.raises(ValueError):
            Technique(prefetch="psychic")
        with pytest.raises(ValueError):
            Technique(deferred_order="sorted")

    def test_label_readable(self):
        label = TREELET_PREFETCH.label()
        assert "treelet" in label
        assert "PMR" in label

    def test_technique_hashable(self):
        assert hash(TREELET_PREFETCH) != hash(BASELINE)


class TestScales:
    def test_raygen_dimensions(self):
        config = SMOKE.raygen()
        assert (config.width, config.height) == (8, 8)

    def test_gpu_config_selection(self):
        assert SMOKE.gpu.n_sms == 2
        assert DEFAULT.gpu.n_sms == 4

    def test_scales_keep_their_gpus(self):
        """Each named scale replays on the GPU its name selected before
        the GPU became a field, and an unnamed scale on the default."""
        expected = {"smoke": smoke_config(), "default": default_config(),
                    "full": default_config(), "paper": paper_config()}
        assert {name: scale.gpu for name, scale in SCALES.items()} == expected
        assert Scale("q48", 1.0, 8, 6).gpu == default_config()


class TestWorkloadCaching:
    def test_bvh_cached(self):
        assert get_bvh("WKND", SMOKE) is get_bvh("WKND", SMOKE)

    def test_scene_cached(self):
        from repro.core import get_scene

        assert get_scene("WKND", SMOKE) is get_scene("WKND", SMOKE)

    def test_scene_built_once_per_scale(self, monkeypatch):
        """Deriving the BVH, rays, and traces for one (scene, scale)
        must construct the scene exactly once (regression: get_bvh and
        get_rays each built their own copy)."""
        from repro.core import clear_caches
        from repro.core import pipeline

        calls = []
        real_build = pipeline.build_scene

        def counting(name, scale):
            calls.append((name, scale))
            return real_build(name, scale)

        monkeypatch.setattr(pipeline, "build_scene", counting)
        # Cold builds only: ignore any globally activated disk cache.
        monkeypatch.setattr("repro.exec.cache._ACTIVE", None)
        clear_caches()
        get_bvh("SHIP", SMOKE)
        get_rays("SHIP", SMOKE)
        get_traces("SHIP", SMOKE, "dfs", 512)
        assert calls == [("SHIP", SMOKE.scene_scale)]
        clear_caches()

    def test_rays_cached(self):
        assert get_rays("WKND", SMOKE) is get_rays("WKND", SMOKE)

    def test_decomposition_keyed_by_size(self):
        a = get_decomposition("WKND", SMOKE, 512)
        b = get_decomposition("WKND", SMOKE, 256)
        assert a is not b

    def test_traces_keyed_by_traversal(self):
        dfs = get_traces("WKND", SMOKE, "dfs", 512)
        two = get_traces("WKND", SMOKE, "treelet", 512)
        assert dfs is not two


class TestRunExperiment:
    def test_baseline_runs(self):
        result = run("WKND", BASELINE, SMOKE)
        assert result.cycles > 0
        assert result.stats.visits_completed > 0
        assert result.treelet_count == 0

    def test_treelet_runs_have_decomposition(self):
        result = run("WKND", TREELET_PREFETCH, SMOKE)
        assert result.treelet_count > 0
        assert result.stats.prefetches_issued >= 0

    def test_result_cache_hit(self):
        a = run("WKND", BASELINE, SMOKE)
        b = run("WKND", BASELINE, SMOKE)
        assert a.experiment is b.experiment

    def test_use_cache_false_reruns(self):
        a = run("WKND", BASELINE, SMOKE)
        b = run("WKND", BASELINE, SMOKE, cache=False)
        assert a.experiment is not b.experiment
        assert a.cycles == b.cycles  # deterministic

    def test_speedup_helper(self):
        base = run("WKND", BASELINE, SMOKE)
        pref = run("WKND", TREELET_PREFETCH, SMOKE)
        assert pref.speedup_over(base) == pytest.approx(
            base.cycles / pref.cycles
        )

    def test_traversal_only_differs_from_baseline(self):
        base = run("WKND", BASELINE, SMOKE)
        trav = run("WKND", TREELET_TRAVERSAL_ONLY, SMOKE)
        assert trav.technique.prefetch is None
        assert trav.traversal.total_nodes != 0
        assert base.stats.prefetches_issued == 0

    def test_heuristic_variants_run(self):
        technique = Technique(
            traversal="treelet",
            layout="treelet",
            prefetch="treelet",
            heuristic=PrefetchHeuristic("popularity", threshold=0.25),
        )
        result = run("WKND", technique, SMOKE)
        assert result.cycles > 0

    def test_mta_prefetch_runs(self):
        result = run("WKND", Technique(prefetch="mta"), SMOKE)
        assert result.cycles > 0

    def test_mapping_modes_run(self):
        for mode in ("loose", "strict"):
            technique = Technique(
                traversal="treelet",
                layout="dfs",
                prefetch="treelet",
                mapping_mode=mode,
            )
            result = run("WKND", technique, SMOKE)
            assert result.cycles > 0

    def test_strided_layout_runs(self):
        technique = Technique(
            traversal="treelet",
            layout="treelet",
            layout_stride=256,
            prefetch="treelet",
        )
        result = run("WKND", technique, SMOKE)
        assert result.cycles > 0
