"""Conservation invariants of the replay engine.

Hypothesis draws small GPU configurations (SM count, warp-buffer size,
memory ports, L1 capacity and MSHRs, prefetch destination) and pairs
each with a smoke scene and a technique preset.  Whatever the config,
every run must conserve work and requests:

* the timing model completes exactly the node visits in the traces;
* every cache access is exactly one hit, pending hit, or miss;
* every L2 miss is one DRAM access, and L2 traffic matches L2 accesses;
* every issued prefetch lands in one effectiveness class;
* every demand request gets exactly one response;
* every warp retires, and no unit accounts more cycles than elapsed;
* nothing is left in flight after ``run()``;
* each RT unit's ready-ray count equals its warps' ready counts after
  every step and every delivery, whatever the scheduler, and warps keep
  their own vote counts only for the pseudo voter.

Together with the golden digests in ``tests/test_replay_backend.py``
these are the engine's reference.
"""

import dataclasses
from unittest import mock

from hypothesis import given, settings, strategies as st

from conftest import REPLAY_PRESETS
from repro.core.config import CacheConfig
from repro.core.pipeline import SMOKE, TREELET_PREFETCH, build_gpu_model
from repro.gpusim import RTUnit

SCENES = ("WKND", "SHIP", "CAR")


@st.composite
def gpu_configs(draw):
    line_bytes = SMOKE.gpu.l1.line_bytes
    return dataclasses.replace(
        SMOKE.gpu,
        n_sms=draw(st.integers(1, 4)),
        warp_buffer_size=draw(st.integers(1, 6)),
        mem_ports=draw(st.integers(1, 4)),
        l1=CacheConfig(
            size_bytes=line_bytes * draw(st.sampled_from([4, 8, 16, 64])),
            line_bytes=line_bytes,
            latency=20,
            mshr_entries=draw(st.sampled_from([1, 2, 8, 64])),
        ),
        prefetch_destination=draw(st.sampled_from(["l1", "stream"])),
    )


def _assert_partitioned(cache_stats):
    for kind in ("demand", "prefetch"):
        parts = [
            getattr(cache_stats, f"{kind}_{outcome}")
            for outcome in ("hits", "pending_hits", "misses")
        ]
        assert getattr(cache_stats, f"{kind}_accesses") == sum(parts), kind


@settings(max_examples=100, deadline=None)
@given(
    config=gpu_configs(),
    scene=st.sampled_from(SCENES),
    preset=st.sampled_from(sorted(REPLAY_PRESETS)),
)
def test_conservation(config, scene, preset):
    model, traces, _, _ = build_gpu_model(
        scene, REPLAY_PRESETS[preset], dataclasses.replace(SMOKE, gpu=config)
    )
    stats = model.run()

    assert stats.visits_completed == sum(len(t.visits) for t in traces)

    _assert_partitioned(stats.l1)
    _assert_partitioned(stats.l2)
    assert stats.dram_accesses == (
        stats.l2.demand_misses + stats.l2.prefetch_misses
    )
    assert stats.l2_demand_accesses == stats.l2.demand_accesses
    assert stats.l2_prefetch_accesses == stats.l2.prefetch_accesses

    assert stats.effectiveness.issued == stats.prefetches_issued

    memsys = model.memsys
    assert memsys.all_demand_latency.count == (
        stats.node_fetches + stats.primitive_fetches
    )
    assert memsys.node_demand_latency.count == stats.node_fetches

    assert sum(u.stats.warps_retired for u in model.units) == stats.warp_count
    for unit in model.units:
        accounted = (
            unit.stats.busy_cycles
            + unit.stats.stall_cycles
            + unit.stats.mshr_stall_cycles
        )
        assert accounted <= stats.cycles

    assert not model.memsys.agenda_cycles
    assert memsys.drain_complete()


def _check_ready_rays(unit):
    assert unit.ready_total() == sum(w.ready_count for w in unit.buffer)
    if unit.prefetcher.voter.mode == "full":
        assert all(w.alive_treelet_counts is None for w in unit.buffer)
    else:
        assert all(w.alive_treelet_counts is not None for w in unit.buffer)


def _checked(method):
    def wrapper(unit, *args):
        result = method(unit, *args)
        _check_ready_rays(unit)
        return result

    return wrapper


@settings(max_examples=40, deadline=None)
@given(
    config=gpu_configs(),
    scene=st.sampled_from(SCENES),
    scheduler=st.sampled_from(["baseline", "omr", "pmr"]),
    voter=st.sampled_from(["full", "pseudo"]),
)
def test_ready_rays_match_the_warps(config, scene, scheduler, voter):
    technique = dataclasses.replace(
        TREELET_PREFETCH, scheduler=scheduler, voter_mode=voter
    )
    model, traces, _, _ = build_gpu_model(
        scene, technique, dataclasses.replace(SMOKE, gpu=config)
    )
    # Steps, queued deliveries, and fills' responses.
    with mock.patch.object(RTUnit, "step", _checked(RTUnit.step)), \
            mock.patch.object(
                RTUnit, "run_tests_due", _checked(RTUnit.run_tests_due)
            ), \
            mock.patch.object(RTUnit, "_respond", _checked(RTUnit._respond)):
        stats = model.run()
    assert stats.visits_completed == sum(len(t.visits) for t in traces)
    for unit in model.units:
        assert unit.ready_total() == 0
