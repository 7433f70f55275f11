"""Additional pipeline/API coverage: cache clearing, formation knob,
stall accounting, and the figures CLI."""

import json

import pytest

import gc
import weakref
from dataclasses import replace

from repro import BASELINE, SMOKE, TREELET_PREFETCH, Technique, run
from repro.cli import main
from repro.core.memo import MEMO
from repro.core.pipeline import (
    clear_caches,
    get_bvh,
    prewarm_traces,
)


class TestCacheClearing:
    def test_clear_caches_drops_everything(self, monkeypatch):
        monkeypatch.setattr("repro.exec.cache._ACTIVE", None)
        clear_caches()
        prewarm_traces(
            [(scene, TREELET_PREFETCH) for scene in ("WKND", "SHIP")], SMOKE
        )
        bvh = weakref.ref(get_bvh("SHIP", SMOKE))
        run("WKND", BASELINE, SMOKE)
        kinds = MEMO.info()["kinds"]
        for kind in ("scene", "bvh", "rays", "decomposition", "traces",
                     "forest", "result"):
            assert kinds[kind]["entries"] > 0, kind
        clear_caches()
        assert len(MEMO) == 0
        # Nothing else keeps a prewarmed tree alive: not the scene
        # library, not the merged forest context.
        gc.collect()
        assert bvh() is None
        # And everything rebuilds cleanly afterwards.
        result = run("WKND", BASELINE, SMOKE)
        assert result.cycles > 0

    def test_scales_sharing_a_name_do_not_share_results(self):
        wide = replace(SMOKE, width=16, height=16)
        assert wide != SMOKE
        run("WKND", BASELINE, wide)
        memoized = run("WKND", BASELINE, SMOKE)
        fresh = run("WKND", BASELINE, SMOKE, cache=False)
        assert memoized.stats == fresh.stats

    def test_results_identical_across_cache_clear(self):
        first = run("WKND", TREELET_PREFETCH, SMOKE)
        clear_caches()
        second = run("WKND", TREELET_PREFETCH, SMOKE)
        assert first.cycles == second.cycles
        assert first.stats.prefetches_issued == second.stats.prefetches_issued


class TestFormationKnob:
    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "sah"])
    def test_formation_strategies_run(self, strategy):
        technique = Technique(
            traversal="treelet",
            layout="treelet",
            prefetch="treelet",
            formation=strategy,
        )
        result = run("SHIP", technique, SMOKE)
        assert result.cycles > 0
        assert result.treelet_count > 0

    def test_unknown_formation_rejected(self):
        with pytest.raises(ValueError):
            Technique(formation="random")


class TestStallAccounting:
    def test_busy_plus_stall_bounded_by_cycles(self):
        result = run("BUNNY", BASELINE, SMOKE)
        stats = result.stats
        n_sms = SMOKE.gpu.n_sms
        assert stats.busy_cycles + stats.stall_cycles <= stats.cycles * n_sms
        assert 0.0 <= stats.stall_fraction <= 1.0

    def test_baseline_is_latency_bound(self):
        """The paper's premise: the baseline RT unit mostly stalls."""
        result = run("BUNNY", BASELINE, SMOKE)
        assert result.stats.stall_fraction > 0.5

    def test_prefetching_reduces_stalls(self):
        base = run("BUNNY", BASELINE, SMOKE)
        pref = run("BUNNY", TREELET_PREFETCH, SMOKE)
        assert pref.stats.stall_cycles <= base.stats.stall_cycles * 1.1


class TestFiguresCli:
    def test_figures_from_custom_results(self, capsys, tmp_path):
        results = {
            "fig13_schedulers": {
                "baseline": 1.3, "omr": 1.29, "pmr": 1.31,
                "scale": "default", "recorded_at": "now",
            }
        }
        path = tmp_path / "experiments.json"
        path.write_text(json.dumps(results))
        assert main(["figures", "--results", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fig13_schedulers" in out
        assert "pmr" in out

    def test_figures_missing_file_errors(self, capsys, tmp_path):
        code = main(["figures", "--results", str(tmp_path / "none.json")])
        assert code == 1

    def test_figures_empty_results_errors(self, capsys, tmp_path):
        path = tmp_path / "experiments.json"
        path.write_text("{}")
        assert main(["figures", "--results", str(path)]) == 1
