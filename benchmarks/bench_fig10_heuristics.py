"""Figure 10 — prefetch heuristic comparison.

ALWAYS vs POPULARITY (0.25 / 0.5 / 0.75) vs PARTIAL, all with the
baseline scheduler.  Paper ordering: ALWAYS (31.9%) > POPULARITY (27% at
its best threshold) > PARTIAL (16%) — throttling costs timeliness more
than overfetch costs bandwidth.
"""

from repro import Technique
from repro.core.report import geomean
from repro.prefetch import PrefetchHeuristic

from common import bench_scenes, print_figure, record, run_pair

HEURISTICS = [
    PrefetchHeuristic("always"),
    PrefetchHeuristic("popularity", threshold=0.25),
    PrefetchHeuristic("popularity", threshold=0.5),
    PrefetchHeuristic("popularity", threshold=0.75),
    PrefetchHeuristic("partial"),
]


def technique_for(heuristic: PrefetchHeuristic) -> Technique:
    return Technique(
        traversal="treelet",
        layout="treelet",
        prefetch="treelet",
        heuristic=heuristic,
    )


def run_fig10() -> dict:
    payload = {}
    rows = []
    scenes = bench_scenes()
    gmeans = {}
    for heuristic in HEURISTICS:
        label = heuristic.label()
        speedups = {}
        for scene in scenes:
            _, _, gain = run_pair(scene, technique_for(heuristic))
            speedups[scene] = gain
        gmeans[label] = geomean(list(speedups.values()))
        payload[label] = {"per_scene": speedups, "gmean": gmeans[label]}
    for scene in scenes:
        rows.append(
            [scene]
            + [round(payload[h.label()]["per_scene"][scene], 3)
               for h in HEURISTICS]
        )
    rows.append(
        ["GMean"] + [round(gmeans[h.label()], 3) for h in HEURISTICS]
    )
    print_figure(
        "Figure 10: prefetch heuristics (baseline scheduler)",
        ["scene"] + [h.label() for h in HEURISTICS],
        rows,
        "ALWAYS 1.319 > POPULARITY (1.27 best) > PARTIAL 1.16",
    )
    record("fig10_heuristics", {k: v["gmean"] for k, v in payload.items()})
    return payload


def test_fig10_heuristics():
    payload = run_fig10()
    always = payload["ALWAYS"]["gmean"]
    partial = payload["PARTIAL"]["gmean"]
    # ALWAYS is the best heuristic; PARTIAL trails it.
    assert always >= partial
    assert always >= payload["POPULARITY:0.75"]["gmean"]
