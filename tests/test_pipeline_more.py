"""Additional pipeline/API coverage: cache clearing, formation knob,
stall accounting, and the figures CLI."""

import json

import pytest

from repro import BASELINE, SMOKE, TREELET_PREFETCH, Technique, run
from repro.cli import main
from repro.core.pipeline import (
    _BVH_CACHE,
    _RESULT_CACHE,
    clear_caches,
    get_bvh,
)


class TestCacheClearing:
    def test_clear_caches_drops_everything(self):
        get_bvh("WKND", SMOKE)
        run("WKND", BASELINE, SMOKE)
        assert _BVH_CACHE and _RESULT_CACHE
        clear_caches()
        assert not _BVH_CACHE and not _RESULT_CACHE
        # And everything rebuilds cleanly afterwards.
        result = run("WKND", BASELINE, SMOKE)
        assert result.cycles > 0

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
        n_sms = SMOKE.gpu_config().n_sms
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
