"""Figure 11 — L2 bandwidth of each heuristic, normalized to no-prefetch.

POPULARITY and PARTIAL throttle prefetch traffic, so their normalized L2
bandwidth sits below ALWAYS; the paper uses this to show the heuristics
do reduce overfetch even though ALWAYS still wins on performance.
"""

from repro import BASELINE, run
from repro.core.report import geomean

from bench_fig10_heuristics import HEURISTICS, technique_for
from common import active_scale, bench_scenes, print_figure, record


def run_fig11() -> dict:
    scale = active_scale()
    scenes = bench_scenes()
    payload = {}
    rows = []
    for heuristic in HEURISTICS:
        label = heuristic.label()
        ratios = {}
        for scene in scenes:
            base = run(scene, BASELINE, scale)
            pref = run(scene, technique_for(heuristic), scale)
            # Normalized L2 bandwidth: bytes/cycle vs the baseline.
            ratios[scene] = (
                pref.stats.l2_bandwidth / base.stats.l2_bandwidth
                if base.stats.l2_bandwidth
                else 1.0
            )
        payload[label] = {
            "per_scene": ratios,
            "gmean": geomean(list(ratios.values())),
        }
    for scene in scenes:
        rows.append(
            [scene]
            + [round(payload[h.label()]["per_scene"][scene], 3)
               for h in HEURISTICS]
        )
    rows.append(
        ["GMean"]
        + [round(payload[h.label()]["gmean"], 3) for h in HEURISTICS]
    )
    print_figure(
        "Figure 11: normalized L2 bandwidth per heuristic (baseline = 1.0)",
        ["scene"] + [h.label() for h in HEURISTICS],
        rows,
        "ALWAYS highest; POPULARITY/PARTIAL successfully limit the "
        "extra L2 traffic",
    )
    record(
        "fig11_l2_bandwidth", {k: v["gmean"] for k, v in payload.items()}
    )
    return payload


def test_fig11_l2_bandwidth():
    payload = run_fig11()
    always = payload["ALWAYS"]["gmean"]
    # Throttled heuristics generate no more L2 traffic than ALWAYS.
    assert payload["POPULARITY:0.75"]["gmean"] <= always + 0.05
    assert payload["PARTIAL"]["gmean"] <= always + 0.05
