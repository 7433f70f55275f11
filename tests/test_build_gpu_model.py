"""Unit tests for the public build_gpu_model helper."""

import pytest

from repro import BASELINE, SMOKE, TREELET_PREFETCH, run
from repro.core import build_gpu_model
from repro.gpusim import TimelineSampler


class TestBuildGpuModel:
    def test_returns_loaded_model(self):
        model, traces, bvh, layout = build_gpu_model("WKND", BASELINE, SMOKE)
        assert traces
        stats = model.run()
        assert stats.visits_completed == sum(len(t.visits) for t in traces)

    def test_matches_run_experiment(self):
        reference = run("WKND", TREELET_PREFETCH, SMOKE)
        model, _, _, _ = build_gpu_model("WKND", TREELET_PREFETCH, SMOKE)
        stats = model.run()
        assert stats.cycles == reference.stats.cycles
        assert stats.prefetches_issued == reference.stats.prefetches_issued

    def test_forwards_model_kwargs(self):
        sampler = TimelineSampler(interval=16)
        model, _, _, _ = build_gpu_model(
            "WKND", BASELINE, SMOKE, timeline=sampler
        )
        model.run()
        assert model.timeline is sampler
        assert sampler.samples

    def test_respects_gpu_config_override(self):
        """The model runs on the scale's GPU, a variant's included."""
        from dataclasses import replace

        one_sm = replace(SMOKE, gpu=replace(SMOKE.gpu, n_sms=1))
        model, _, _, _ = build_gpu_model("WKND", BASELINE, one_sm)
        assert model.config is one_sm.gpu
        assert len(model.units) == 1
