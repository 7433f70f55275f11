"""Ablation (extension) — treelet formation strategy.

The paper's future-work list includes "optimizing treelet formation
with statistical metrics".  This ablation compares the Section 3.1
breadth-first greedy fill against a depth-first fill and a
surface-area-prioritized fill, end to end (traversal + prefetching).
"""

from dataclasses import replace

from repro import TREELET_PREFETCH
from repro.core.report import geomean
from repro.treelet import FORMATION_STRATEGIES

from common import bench_scenes, print_figure, record, run_pair


def run_ablation() -> dict:
    scenes = bench_scenes()
    payload = {}
    rows = []
    for strategy in FORMATION_STRATEGIES:
        technique = replace(TREELET_PREFETCH, formation=strategy)
        speedups = {}
        for scene in scenes:
            _, _, gain = run_pair(scene, technique)
            speedups[scene] = gain
        payload[strategy] = {
            "per_scene": speedups,
            "gmean": geomean(list(speedups.values())),
        }
    for scene in scenes:
        rows.append(
            [scene]
            + [round(payload[s]["per_scene"][scene], 3)
               for s in FORMATION_STRATEGIES]
        )
    rows.append(
        ["GMean"]
        + [round(payload[s]["gmean"], 3) for s in FORMATION_STRATEGIES]
    )
    print_figure(
        "Ablation: treelet formation strategy (end-to-end speedup)",
        ["scene"] + list(FORMATION_STRATEGIES),
        rows,
        "paper future work ('statistical metrics for formation'); the "
        "paper itself uses bfs",
    )
    record(
        "ablation_formation",
        {s: payload[s]["gmean"] for s in FORMATION_STRATEGIES},
    )
    return payload


def test_ablation_formation():
    payload = run_ablation()
    # Every strategy preserves the overall win; the band stays tight
    # (formation order shifts prefetch order, not the mechanism).
    for strategy in FORMATION_STRATEGIES:
        assert payload[strategy]["gmean"] > 1.0
