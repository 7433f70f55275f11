"""Golden SimStats suite for the replay engine.

``tests/golden/replay_simstats.json`` holds the sha256 of the sorted-key
JSON of ``dataclasses.asdict(SimStats)`` for every case below.  The
digests were recorded at smoke scale while the batched event engine was
still checked against a per-cycle scalar oracle, and a case was recorded
only where the two agreed bit for bit.  Every case now replays on the
one engine and must reproduce its digest: every counter, every rate, on
every scene, scheduler policy, and prefetch technique preset.  The
``query`` cases (kNN and point containment) were recorded later, on the
one engine; ``query_cycles`` pins their cycle counts as well.

Also pinned here:

* the per-run deadlock guard (``max_cycles`` bounds one ``run()``, not
  the cumulative cycle counter, so multi-frame sessions never trip it);
* the trailing-event drain: ``stats.cycles`` equals the post-drain
  cycle base used to denominate DRAM utilization;
* cumulative semantics: statistics accumulate across ``load()``/
  ``run()`` rounds and ``run_frame`` deltas sum to the cumulative
  cycle counter.
"""

import dataclasses

import pytest

from conftest import (
    QUERY_CASES,
    REPLAY_GOLDEN,
    REPLAY_PRESETS,
    SINGLE_RUN_CASES,
    assert_golden,
    golden_model,
)
from repro.core.memo import MEMO
from repro.core.pipeline import (
    SMOKE,
    TREELET_PREFETCH,
    build_gpu_model,
    clear_caches,
)
from repro.gpusim import SimulationLimitError
from repro.scenes import ALL_SCENES


def _check(key):
    model, _, _, _ = golden_model(key)
    assert_golden(key, model.run())


class TestGoldenBitIdentity:
    @pytest.mark.parametrize("name", sorted(REPLAY_PRESETS))
    def test_preset_matrix(self, name):
        _check(f"preset/CAR/{name}")

    @pytest.mark.parametrize("scene", ALL_SCENES)
    @pytest.mark.parametrize(
        "name", ["baseline", "treelet-prefetch"]
    )
    def test_all_scenes(self, scene, name):
        _check(f"scene/{scene}/{name}")

    def test_stream_buffer_destination(self):
        _check("stream/WKND/treelet-prefetch")

    @pytest.mark.parametrize("name", ["baseline", "treelet-prefetch"])
    def test_four_sms(self, name):
        # Several DRAM misses land in one agenda bucket per cycle here.
        _check(f"sms4/CAR/{name}")

    @pytest.mark.parametrize("key", SINGLE_RUN_CASES)
    def test_one_entry_memo(self, key, monkeypatch):
        """Eviction never moves a bit: with room for one entry, every
        artifact is evicted by the next one and rebuilt on its next use."""
        monkeypatch.setattr(MEMO, "capacity", 1)
        clear_caches()
        evictions = MEMO.count("evictions")
        _check(key)
        assert MEMO.count("evictions") > evictions
        assert len(MEMO) == 1


class TestQueryGoldens:
    """The query workloads at smoke: kNN on both point clouds and AMR
    point containment, each under the baseline, treelet prefetch and
    MTA.  Besides the digest, each case pins its simulated cycles."""

    @pytest.mark.parametrize("key", QUERY_CASES)
    def test_query_case(self, key):
        model, _, _, _ = golden_model(key)
        stats = model.run()
        assert stats.cycles == REPLAY_GOLDEN["query_cycles"][key]
        assert_golden(key, stats)


def _scale(**overrides):
    """SMOKE on its GPU with ``overrides``."""
    return dataclasses.replace(
        SMOKE, gpu=dataclasses.replace(SMOKE.gpu, **overrides)
    )


class TestDeadlockGuard:
    """``max_cycles`` bounds one run, not the session."""

    def test_multi_frame_session_never_trips(self):
        # Measure one frame, then replay several frames on a model whose
        # budget covers any single frame but not their sum.  A guard
        # keyed to the cumulative counter would (wrongly) trip here.
        model, traces, bvh, layout = build_gpu_model(
            "WKND", TREELET_PREFETCH, _scale()
        )
        frame_cycles = model.run().cycles
        budget = 2 * frame_cycles
        model, traces, bvh, layout = build_gpu_model(
            "WKND", TREELET_PREFETCH, _scale(max_cycles=budget)
        )
        total = model.run().cycles
        for _ in range(3):
            delta = model.run_frame(traces, bvh, layout)
            assert 0 < delta <= budget
            total += delta
        assert total > budget  # the session really exceeded one budget
        assert model._current_cycle == total

    def test_guard_still_fires(self):
        model, _, _, _ = build_gpu_model(
            "WKND", TREELET_PREFETCH, _scale(max_cycles=5)
        )
        with pytest.raises(SimulationLimitError):
            model.run()


class TestTrailingDrain:
    """The post-run event drain sets the cycle base."""

    def test_cycle_base_consistency(self):
        model, _, _, _ = build_gpu_model(
            "WKND", TREELET_PREFETCH, _scale()
        )
        stats = model.run()
        # The drain ran to empty and advanced the cumulative counter.
        assert not model.memsys.agenda_cycles
        assert model.memsys.drain_complete()
        assert stats.cycles == model._current_cycle
        # Every rate is denominated by the drained cycle base.
        assert stats.dram_utilization == model.memsys.dram.stats.utilization(
            stats.cycles
        )
        rates = stats.per_cycle_rates()
        assert rates["ipc"] == stats.visits_completed / stats.cycles
        assert rates["l2_bandwidth"] == stats.l2_bytes / stats.cycles
        assert rates["dram_utilization"] == stats.dram_utilization


class TestCumulativeSemantics:
    """Stats accumulate across load/run rounds."""

    def test_two_rounds_accumulate(self):
        model, traces, bvh, layout = build_gpu_model(
            "WKND", TREELET_PREFETCH, _scale()
        )
        first = model.run()
        model.load(traces, bvh, layout)
        second = model.run()
        assert second.visits_completed == 2 * first.visits_completed
        assert second.ray_count == 2 * first.ray_count
        assert second.cycles > first.cycles
        assert second.cycles == model._current_cycle

    def test_two_rounds_match_golden(self):
        key = "rounds/WKND/treelet-prefetch"
        model, traces, bvh, layout = golden_model(key)
        model.run()
        model.load(traces, bvh, layout)
        assert_golden(key, model.run())

    def test_run_frame_deltas_sum_to_cycle_counter(self):
        model, traces, bvh, layout = build_gpu_model(
            "WKND", TREELET_PREFETCH, _scale()
        )
        deltas = [model.run().cycles]
        for _ in range(2):
            deltas.append(model.run_frame(traces, bvh, layout))
        assert sum(deltas) == model._current_cycle

    def test_frame_deltas_match_golden(self):
        key = "frames/WKND/treelet-prefetch"
        model, traces, bvh, layout = golden_model(key)
        deltas = [model.run().cycles] + [
            model.run_frame(traces, bvh, layout) for _ in range(2)
        ]
        assert deltas == REPLAY_GOLDEN["frame_cycles"][key]
        # A run with nothing loaded only collects the cumulative stats.
        assert_golden(key, model.run())
