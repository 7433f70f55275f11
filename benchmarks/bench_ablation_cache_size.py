"""Ablation (extension) — L1 capacity vs prefetch benefit.

The paper explains WKND's flat result by its tree fitting in cache.
This ablation generalizes that explanation: sweep the L1 and watch the
treelet prefetcher's speedup shrink as trees become cache-resident —
prefetching is a latency tool, not a capacity tool.
"""

from dataclasses import replace

from repro import BASELINE, TREELET_PREFETCH, run
from repro.core.config import CacheConfig
from repro.core.report import geomean

from common import active_scale, bench_scenes, print_figure, record

L1_SIZES_KB = [2, 8, 32, 256]


def run_ablation() -> dict:
    scale = active_scale()
    scenes = bench_scenes()[:6]
    payload = {}
    rows_by_scene = {scene: [scene] for scene in scenes}
    for size_kb in L1_SIZES_KB:
        gpu = replace(
            scale.gpu_config(),
            l1=CacheConfig(size_bytes=size_kb * 1024, latency=20),
        )
        gains = []
        miss_rates = []
        for scene in scenes:
            base = run(scene, BASELINE, scale, gpu_config=gpu)
            pref = run(scene, TREELET_PREFETCH, scale, gpu_config=gpu)
            gains.append(base.cycles / pref.cycles)
            miss_rates.append(base.stats.l1_breakdown()["misses"])
            rows_by_scene[scene].append(round(gains[-1], 3))
        payload[str(size_kb)] = {
            "gmean_speedup": geomean(gains),
            "mean_base_miss_rate": sum(miss_rates) / len(miss_rates),
        }
    rows = list(rows_by_scene.values())
    rows.append(
        ["GMean"]
        + [round(payload[str(s)]["gmean_speedup"], 3) for s in L1_SIZES_KB]
    )
    print_figure(
        "Ablation: L1 capacity (prefetch speedup per size)",
        ["scene"] + [f"{s}KB" for s in L1_SIZES_KB],
        rows,
        "generalizes the paper's WKND explanation: once trees fit in "
        "L1 there is nothing left to prefetch",
    )
    record(
        "ablation_cache_size",
        {str(s): payload[str(s)]["gmean_speedup"] for s in L1_SIZES_KB},
    )
    return payload


def test_ablation_cache_size():
    payload = run_ablation()
    # Bigger L1 -> lower baseline miss rate -> smaller prefetch win.
    assert (
        payload["256"]["mean_base_miss_rate"]
        < payload["2"]["mean_base_miss_rate"]
    )
    assert (
        payload["256"]["gmean_speedup"]
        <= payload["2"]["gmean_speedup"] + 0.05
    )
