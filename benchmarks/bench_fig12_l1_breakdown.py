"""Figure 12 — L1 cache statistics breakdown per heuristic.

For each workload and heuristic, the stacked fractions of demand
accesses: hits on prefetch-brought lines, hits on demand-brought lines,
pending hits, and misses.  The paper's claim: ALWAYS produces a much
larger prefetch-hit share than the throttled heuristics.
"""

from repro import BASELINE, run
from bench_fig10_heuristics import HEURISTICS, technique_for
from common import active_scale, bench_scenes, print_figure, record

CONFIGS = [("Baseline", None)] + [(h.label(), h) for h in HEURISTICS]


def run_fig12() -> dict:
    scale = active_scale()
    scenes = bench_scenes()
    payload = {}
    rows = []
    for label, heuristic in CONFIGS:
        shares = {"prefetch_hits": [], "demand_hits": [],
                  "pending_hits": [], "misses": []}
        for scene in scenes:
            if heuristic is None:
                result = run(scene, BASELINE, scale)
            else:
                result = run(scene, technique_for(heuristic), scale)
            for key, value in result.stats.l1_breakdown().items():
                shares[key].append(value)
        mean = {k: sum(v) / len(v) for k, v in shares.items()}
        payload[label] = mean
        rows.append(
            [
                label,
                round(mean["prefetch_hits"], 3),
                round(mean["demand_hits"], 3),
                round(mean["pending_hits"], 3),
                round(mean["misses"], 3),
            ]
        )
    print_figure(
        "Figure 12: L1 demand-access breakdown (mean across scenes)",
        ["config", "pf hits", "demand hits", "pending", "misses"],
        rows,
        "ALWAYS shows the largest prefetch-hit share; baseline has "
        "zero prefetch hits; throttled heuristics sit between",
    )
    record("fig12_l1_breakdown", payload)
    return payload


def test_fig12_l1_breakdown():
    payload = run_fig12()
    assert payload["Baseline"]["prefetch_hits"] == 0.0
    # ALWAYS brings in more prefetch hits than the strictest throttle.
    assert (
        payload["ALWAYS"]["prefetch_hits"]
        >= payload["POPULARITY:0.75"]["prefetch_hits"]
    )
    # Prefetching reduces the demand miss share vs baseline.
    assert payload["ALWAYS"]["misses"] <= payload["Baseline"]["misses"]
