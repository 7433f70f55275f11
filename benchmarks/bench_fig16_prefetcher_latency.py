"""Figure 16 — performance impact of prefetcher (voter) latency.

Latency L means the two-level voter needs L cycles per decision:
512 = one shared first-level table, 128 = four copies, 32 = one per
warp, 0 = ideal.  The paper finds 32 cycles costs ~1 point, 128 costs
~6.6 points, and 512 halves the benefit.
"""

from repro import Technique
from repro.core.report import geomean

from common import bench_scenes, print_figure, record, run_pair

LATENCIES = [0, 32, 128, 512]


def technique_for(latency: int) -> Technique:
    return Technique(
        traversal="treelet",
        layout="treelet",
        prefetch="treelet",
        voter_mode="pseudo",
        voter_latency=latency,
    )


def run_fig16() -> dict:
    scenes = bench_scenes()
    payload = {}
    rows = []
    for latency in LATENCIES:
        speedups = {}
        for scene in scenes:
            _, _, gain = run_pair(scene, technique_for(latency))
            speedups[scene] = gain
        payload[str(latency)] = {
            "per_scene": speedups,
            "gmean": geomean(list(speedups.values())),
        }
    for scene in scenes:
        rows.append(
            [scene]
            + [round(payload[str(l)]["per_scene"][scene], 3)
               for l in LATENCIES]
        )
    rows.append(
        ["GMean"]
        + [round(payload[str(l)]["gmean"], 3) for l in LATENCIES]
    )
    print_figure(
        "Figure 16: prefetcher decision latency sweep (pseudo voter)",
        ["scene"] + [f"{l} cyc" for l in LATENCIES],
        rows,
        "0cyc 1.319, 32cyc 1.309 (-1 point), 128cyc 1.253, 512cyc 1.17 "
        "(one shared table is insufficient)",
    )
    record(
        "fig16_prefetcher_latency",
        {str(l): payload[str(l)]["gmean"] for l in LATENCIES},
    )
    return payload


def test_fig16_prefetcher_latency():
    payload = run_fig16()
    # Speedup degrades monotonically-ish with voter latency; 512 is
    # clearly worse than ideal, while 32 stays close to ideal.
    ideal = payload["0"]["gmean"]
    assert payload["32"]["gmean"] >= ideal - 0.1
    assert payload["512"]["gmean"] <= ideal + 0.02
