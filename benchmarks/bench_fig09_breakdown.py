"""Figure 9 — speedup breakdown: treelet traversal alone vs + prefetch.

The two-stack traversal by itself is a small slowdown (paper: -3.7%);
adding the prefetcher flips it to a large win (+35.8% over traversal
alone, +32.1% overall).  This bench uses the *baseline* scheduler, as in
the paper's figure.
"""

from dataclasses import replace

from repro import TREELET_PREFETCH, TREELET_TRAVERSAL_ONLY
from repro.core.report import geomean

from common import bench_scenes, print_figure, record, run_pair

PREFETCH_BASE_SCHED = replace(TREELET_PREFETCH, scheduler="baseline")


def run_fig09() -> dict:
    rows = []
    payload = {}
    traversal_gains = []
    total_gains = []
    for scene in bench_scenes():
        base, trav, trav_gain = run_pair(scene, TREELET_TRAVERSAL_ONLY)
        _, pref, total_gain = run_pair(scene, PREFETCH_BASE_SCHED)
        traversal_gains.append(trav_gain)
        total_gains.append(total_gain)
        rows.append(
            [
                scene,
                round(trav_gain, 3),
                round(total_gain / trav_gain, 3),
                round(total_gain, 3),
            ]
        )
        payload[scene] = {
            "traversal_only": trav_gain,
            "prefetch_extra": total_gain / trav_gain,
            "total": total_gain,
        }
    payload["gmean_traversal_only"] = geomean(traversal_gains)
    payload["gmean_total"] = geomean(total_gains)
    rows.append(
        [
            "GMean",
            round(payload["gmean_traversal_only"], 3),
            round(payload["gmean_total"] / payload["gmean_traversal_only"], 3),
            round(payload["gmean_total"], 3),
        ]
    )
    print_figure(
        "Figure 9: breakdown (ALWAYS heuristic, baseline scheduler)",
        ["scene", "traversal only", "prefetch extra", "total"],
        rows,
        "traversal alone 0.963 (a -3.7% slowdown), prefetch lifts it "
        "by +35.8% to 1.321 total",
    )
    record("fig09_breakdown", payload)
    return payload


def test_fig09_breakdown():
    payload = run_fig09()
    # Traversal alone is roughly neutral; prefetching provides the win.
    assert 0.8 < payload["gmean_traversal_only"] < 1.15
    assert payload["gmean_total"] > payload["gmean_traversal_only"]
