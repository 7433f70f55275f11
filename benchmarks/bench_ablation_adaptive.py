"""Ablation (extension) — self-tuning adaptive throttle (Section 7.1).

The paper's related-work section suggests a self-tuning adaptive
prefetcher "could be applied to prefetch heuristics".  This ablation
implements it (a feedback controller over the popularity threshold,
driven by the live effectiveness counters) and compares it against the
static heuristics it interpolates between.
"""

from repro import Technique
from repro.core.report import geomean
from repro.prefetch import PrefetchHeuristic

from common import bench_scenes, print_figure, record, run_pair

CONFIGS = {
    "ALWAYS": Technique(
        traversal="treelet", layout="treelet", prefetch="treelet"
    ),
    "POPULARITY:0.5": Technique(
        traversal="treelet", layout="treelet", prefetch="treelet",
        heuristic=PrefetchHeuristic("popularity", threshold=0.5),
    ),
    "ADAPTIVE": Technique(
        traversal="treelet", layout="treelet", prefetch="treelet",
        adaptive=True,
    ),
}


def run_ablation() -> dict:
    scenes = bench_scenes()
    payload = {}
    rows = []
    per_config = {}
    for label, technique in CONFIGS.items():
        gains = {}
        traffic = []
        for scene in scenes:
            base, result, gain = run_pair(scene, technique)
            gains[scene] = gain
            traffic.append(
                result.stats.l2_bandwidth / base.stats.l2_bandwidth
                if base.stats.l2_bandwidth else 1.0
            )
        per_config[label] = gains
        payload[label] = {
            "gmean_speedup": geomean(list(gains.values())),
            "gmean_l2_traffic": geomean(traffic),
        }
    for scene in scenes:
        rows.append(
            [scene] + [round(per_config[l][scene], 3) for l in CONFIGS]
        )
    rows.append(
        ["GMean"]
        + [round(payload[l]["gmean_speedup"], 3) for l in CONFIGS]
    )
    rows.append(
        ["L2 traffic"]
        + [round(payload[l]["gmean_l2_traffic"], 3) for l in CONFIGS]
    )
    print_figure(
        "Ablation: adaptive throttle vs static heuristics",
        ["scene"] + list(CONFIGS),
        rows,
        "paper §7.1 suggestion ('self-tuning adaptive prefetcher... "
        "could be applied to prefetch heuristics'), not evaluated there",
    )
    record(
        "ablation_adaptive",
        {l: payload[l]["gmean_speedup"] for l in CONFIGS},
    )
    return payload


def test_ablation_adaptive():
    payload = run_ablation()
    adaptive = payload["ADAPTIVE"]
    # The controller must stay within the envelope of its endpoints'
    # traffic while retaining a win.
    assert adaptive["gmean_speedup"] > 0.95
    assert (
        adaptive["gmean_l2_traffic"]
        <= payload["ALWAYS"]["gmean_l2_traffic"] + 0.05
    )
