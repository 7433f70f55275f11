"""Figure 20 — prefetch effectiveness breakdown.

Classification of every issued prefetch (ALWAYS heuristic, baseline
scheduler, 512 B treelets): Timely / Late / Too Late / Early / Unused.
The paper reports 47.8% timely and a large 43.5% unused tail ("an area
for improvement").
"""

from dataclasses import replace

from repro import TREELET_PREFETCH, run

from common import active_scale, bench_scenes, print_figure, record

CONFIG = replace(TREELET_PREFETCH, scheduler="baseline")
BUCKETS = ["timely", "late", "too_late", "early", "unused"]


def run_fig20() -> dict:
    scale = active_scale()
    scenes = bench_scenes()
    payload = {}
    rows = []
    for scene in scenes:
        result = run(scene, CONFIG, scale)
        fractions = result.stats.effectiveness.fractions()
        payload[scene] = fractions
        rows.append(
            [scene] + [round(fractions[b], 3) for b in BUCKETS]
        )
    mean = {
        b: sum(payload[s][b] for s in scenes) / len(scenes) for b in BUCKETS
    }
    payload["mean"] = mean
    rows.append(["Mean"] + [round(mean[b], 3) for b in BUCKETS])
    print_figure(
        "Figure 20: prefetch effectiveness (ALWAYS, baseline scheduler)",
        ["scene"] + BUCKETS,
        rows,
        "Timely 47.8%, Unused 43.5% dominate; Late/TooLate/Early small",
    )
    record("fig20_effectiveness", mean)
    return payload


def test_fig20_effectiveness():
    payload = run_fig20()
    mean = payload["mean"]
    # Buckets are fractions of issued prefetches.
    assert abs(sum(mean.values()) - 1.0) < 1e-6
    # Timely prefetches exist; so does a non-trivial wasted tail —
    # the paper's "area for improvement".
    assert mean["timely"] > 0.05
    assert mean["unused"] + mean["early"] > 0.05
