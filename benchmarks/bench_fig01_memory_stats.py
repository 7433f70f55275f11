"""Figure 1 — DRAM utilization and demand-load latency, baseline vs ours.

The paper's motivation figure: the baseline RT unit shows *low* DRAM
utilization (latency-bound, not bandwidth-bound) and high average BVH
demand-load latency; treelet prefetching raises utilization slightly and
cuts the BVH access latency by 54% on average.
"""

from repro import TREELET_PREFETCH
from repro.core.report import geomean

from common import bench_scenes, print_figure, record, run_pair


def run_fig01() -> dict:
    rows = []
    payload = {}
    latency_ratios = []
    for scene in bench_scenes():
        base, pref, _ = run_pair(scene, TREELET_PREFETCH)
        ratio = (
            pref.stats.avg_node_demand_latency
            / base.stats.avg_node_demand_latency
        )
        latency_ratios.append(ratio)
        rows.append(
            [
                scene,
                round(base.stats.dram_utilization, 4),
                round(pref.stats.dram_utilization, 4),
                round(base.stats.avg_node_demand_latency, 1),
                round(pref.stats.avg_node_demand_latency, 1),
                f"{100 * (ratio - 1):+.1f}%",
            ]
        )
        payload[scene] = {
            "dram_util_base": base.stats.dram_utilization,
            "dram_util_pref": pref.stats.dram_utilization,
            "latency_base": base.stats.avg_node_demand_latency,
            "latency_pref": pref.stats.avg_node_demand_latency,
        }
    reduction = 1.0 - geomean(latency_ratios)
    payload["gmean_latency_reduction"] = reduction
    rows.append(["GMean", "", "", "", "", f"{-100 * reduction:+.1f}%"])
    print_figure(
        "Figure 1: DRAM utilization (a) and BVH demand latency (b)",
        ["scene", "util base", "util ours", "lat base", "lat ours", "diff"],
        rows,
        "baseline DRAM utilization low (latency-bound); ours reduces "
        "BVH memory latency by 54% on average",
    )
    record("fig01_memory_stats", payload)
    return payload


def test_fig01_memory_stats():
    payload = run_fig01()
    # Prefetching must reduce average BVH demand latency overall.
    assert payload["gmean_latency_reduction"] > 0.0
