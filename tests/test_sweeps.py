"""Unit tests for the sweep helper API."""

import pytest

from repro import BASELINE, SMOKE, TREELET_PREFETCH, Technique, api
from repro.core import SweepResult

SCENES = ["WKND", "SHIP"]


@pytest.fixture(scope="module")
def sweep():
    return api.sweep(TREELET_PREFETCH, SCENES, SMOKE)


class TestRunSweep:
    def test_covers_all_scenes(self, sweep):
        assert sweep.scenes == SCENES

    def test_speedups_positive(self, sweep):
        assert all(v > 0 for v in sweep.speedups().values())

    def test_gmean_between_extremes(self, sweep):
        values = list(sweep.speedups().values())
        assert min(values) <= sweep.gmean_speedup <= max(values)

    def test_best_and_worst(self, sweep):
        speedups = sweep.speedups()
        assert speedups[sweep.best_scene()] == max(speedups.values())
        assert speedups[sweep.worst_scene()] == min(speedups.values())

    def test_latency_reduction_sign(self, sweep):
        for outcome in sweep.outcomes.values():
            assert -1.0 < outcome.latency_reduction < 1.0

    def test_power_ratio_positive(self, sweep):
        assert sweep.gmean_power_ratio > 0

    def test_baseline_vs_itself_is_one(self):
        result = api.sweep(BASELINE, ["WKND"], SMOKE, baseline=BASELINE)
        assert result.speedups()["WKND"] == pytest.approx(1.0)

    def test_empty_sweep(self):
        result = SweepResult(technique=BASELINE)
        assert result.gmean_speedup == 0.0
        assert result.best_scene() is None

    def test_empty_sweep_power_ratio_is_neutral(self):
        """An empty sweep has no power delta: the geomean over zero
        ratios must report 1.0 (same power), never 0.0 (free)."""
        result = SweepResult(technique=BASELINE)
        assert result.gmean_power_ratio == 1.0


class TestCompareTechniques:
    def test_labels_preserved(self):
        results = api.compare(
            {
                "traversal-only": Technique(
                    traversal="treelet", layout="treelet"
                ),
                "full": TREELET_PREFETCH,
            },
            ["WKND"],
            SMOKE,
        )
        assert set(results) == {"traversal-only", "full"}
        for sweep in results.values():
            assert sweep.scenes == ["WKND"]
