"""Unit tests for the figure-rendering helpers."""

import json

import pytest

from repro.analysis import (
    EXPERIMENTS,
    load_results,
    render_all,
    render_effectiveness_figure,
    render_speedup_figure,
)


@pytest.fixture
def sample_results():
    return {
        "fig13_schedulers": {
            "baseline": 1.30, "omr": 1.29, "pmr": 1.31,
            "scale": "default", "recorded_at": "now",
        },
        "fig20_effectiveness": {
            "timely": 0.3, "late": 0.2, "too_late": 0.2,
            "early": 0.1, "unused": 0.2,
            "scale": "default", "recorded_at": "now",
        },
    }


class TestRenderers:
    def test_speedup_figure_has_bars_and_paper(self, sample_results):
        out = render_speedup_figure(
            "fig13_schedulers", sample_results["fig13_schedulers"]
        )
        assert "pmr" in out
        assert "paper" in out  # comparison block present

    def test_metadata_keys_excluded(self, sample_results):
        out = render_speedup_figure(
            "fig13_schedulers", sample_results["fig13_schedulers"]
        )
        assert "recorded_at" not in out

    def test_effectiveness_stacked(self, sample_results):
        out = render_effectiveness_figure(
            sample_results["fig20_effectiveness"]
        )
        assert "timely" in out
        assert "[" in out and "]" in out

    def test_render_all_collects_blocks(self, sample_results):
        blocks = render_all(sample_results)
        assert len(blocks) == 2
        assert any("fig13" in b for b in blocks)
        assert any("fig20" in b for b in blocks)

    def test_render_all_skips_missing(self):
        assert render_all({}) == []

    def test_unknown_experiment_without_paper_values(self):
        out = render_speedup_figure("fig99_custom", {"a": 1.5})
        assert "1.500x" in out
        assert "paper" not in out


class TestLoadResults:
    def test_load_roundtrip(self, tmp_path, sample_results):
        path = tmp_path / "experiments.json"
        path.write_text(json.dumps(sample_results))
        assert load_results(path) == sample_results

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_results(tmp_path / "nope.json")

    def test_paper_values_sane(self):
        charted = [e for e in EXPERIMENTS if e.paper_values]
        assert charted
        for experiment in charted:
            assert all(v > 0 for v in experiment.paper_values.values())
