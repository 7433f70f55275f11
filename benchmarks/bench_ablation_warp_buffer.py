"""Ablation (extension) — RT-unit warp buffer capacity.

The paper fixes the warp buffer at 16 warps (Table 1) and motivates
prefetching with the observation that thread-level parallelism alone
cannot hide BVH latency ("increasing thread count... comes at the cost
of area overhead").  This ablation sweeps the buffer: more resident
warps hide more latency at the baseline, shrinking — but not closing —
the prefetcher's advantage.
"""

from dataclasses import replace

from repro import BASELINE, TREELET_PREFETCH, run
from repro.core.report import geomean

from common import active_scale, bench_scenes, print_figure, record

SIZES = [4, 8, 16, 32]


def run_ablation() -> dict:
    scale = active_scale()
    scenes = bench_scenes()[:6]  # uncached configs; keep the sweep lean
    payload = {}
    rows_by_scene = {scene: [scene] for scene in scenes}
    for size in SIZES:
        gpu = replace(scale.gpu_config(), warp_buffer_size=size)
        gains = []
        base_cycles = []
        for scene in scenes:
            base = run(scene, BASELINE, scale, gpu_config=gpu)
            pref = run(scene, TREELET_PREFETCH, scale, gpu_config=gpu)
            gain = base.cycles / pref.cycles
            gains.append(gain)
            base_cycles.append(base.cycles)
            rows_by_scene[scene].append(round(gain, 3))
        payload[str(size)] = {
            "gmean_speedup": geomean(gains),
            "mean_base_cycles": sum(base_cycles) / len(base_cycles),
        }
    rows = list(rows_by_scene.values())
    rows.append(
        ["GMean"]
        + [round(payload[str(s)]["gmean_speedup"], 3) for s in SIZES]
    )
    print_figure(
        "Ablation: warp buffer capacity (prefetch speedup per size)",
        ["scene"] + [f"{s} warps" for s in SIZES],
        rows,
        "not in the paper (Table 1 fixes 16); more warps hide more "
        "latency at the baseline, so the prefetch win narrows",
    )
    record(
        "ablation_warp_buffer",
        {str(s): payload[str(s)]["gmean_speedup"] for s in SIZES},
    )
    return payload


def test_ablation_warp_buffer():
    payload = run_ablation()
    # More resident warps means a faster baseline...
    assert (
        payload["32"]["mean_base_cycles"]
        <= payload["4"]["mean_base_cycles"]
    )
    # ...and prefetching still helps at every size.
    for size in SIZES:
        assert payload[str(size)]["gmean_speedup"] > 1.0
