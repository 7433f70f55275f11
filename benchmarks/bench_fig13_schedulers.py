"""Figure 13 — treelet scheduler comparison (baseline / OMR / PMR).

All three schedulers land within a few points of each other; PMR edges
out slightly (paper: 32.1% vs 31.9% vs 31.8%).  The paper's conclusion
is that the scheduler modifications are not worth the hardware, which is
precisely what "all about equal" demonstrates.
"""

from dataclasses import replace

from repro import TREELET_PREFETCH
from repro.core.report import geomean

from common import bench_scenes, print_figure, record, run_pair

SCHEDULERS = ["baseline", "omr", "pmr"]


def run_fig13() -> dict:
    scenes = bench_scenes()
    payload = {}
    rows = []
    for policy in SCHEDULERS:
        technique = replace(TREELET_PREFETCH, scheduler=policy)
        speedups = {}
        for scene in scenes:
            _, _, gain = run_pair(scene, technique)
            speedups[scene] = gain
        payload[policy] = {
            "per_scene": speedups,
            "gmean": geomean(list(speedups.values())),
        }
    for scene in scenes:
        rows.append(
            [scene]
            + [round(payload[p]["per_scene"][scene], 3) for p in SCHEDULERS]
        )
    rows.append(["GMean"] + [round(payload[p]["gmean"], 3) for p in SCHEDULERS])
    print_figure(
        "Figure 13: treelet schedulers (ALWAYS heuristic, 512B treelets)",
        ["scene"] + SCHEDULERS,
        rows,
        "all within a point: PMR 1.321, baseline 1.319, OMR 1.318",
    )
    record("fig13_schedulers", {p: payload[p]["gmean"] for p in SCHEDULERS})
    return payload


def test_fig13_schedulers():
    payload = run_fig13()
    gmeans = [payload[p]["gmean"] for p in SCHEDULERS]
    # All three schedulers perform within a narrow band of each other.
    assert max(gmeans) - min(gmeans) < 0.15
    assert min(gmeans) > 1.0
