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
* nothing is left in flight after ``run()``.

Together with the golden digests in ``tests/test_replay_backend.py``
these are the engine's reference.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from conftest import REPLAY_PRESETS
from repro.core.config import CacheConfig
from repro.core.pipeline import SMOKE, build_gpu_model

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
