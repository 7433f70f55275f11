"""Figure 7 — overall speedup and power of the headline configuration.

Treelet traversal + treelet prefetching with the ALWAYS heuristic, PMR
scheduler, and 512 B treelets, against the baseline RT unit.  The paper
reports a 32.1% gmean IPC improvement at equal power; WKND (tree fits in
cache) shows no benefit.
"""

from repro import TREELET_PREFETCH
from repro.core.report import geomean

from common import (
    bench_scenes,
    print_figure,
    record,
    run_pair,
    shape_assertions_enabled,
)


def run_fig07() -> dict:
    rows = []
    payload = {}
    speedups = []
    power_ratios = []
    for scene in bench_scenes():
        base, pref, gain = run_pair(scene, TREELET_PREFETCH)
        power_ratio = pref.power.avg_power / base.power.avg_power
        speedups.append(gain)
        power_ratios.append(power_ratio)
        rows.append(
            [
                scene,
                base.cycles,
                pref.cycles,
                round(gain, 3),
                round(power_ratio, 3),
            ]
        )
        payload[scene] = {
            "speedup": gain,
            "power_ratio": power_ratio,
            "base_cycles": base.cycles,
            "pref_cycles": pref.cycles,
        }
    payload["gmean_speedup"] = geomean(speedups)
    payload["gmean_power_ratio"] = geomean(power_ratios)
    rows.append(
        ["GMean", "", "", round(payload["gmean_speedup"], 3),
         round(payload["gmean_power_ratio"], 3)]
    )
    print_figure(
        "Figure 7: overall speedup + power (ALWAYS, PMR, 512B treelets)",
        ["scene", "base cyc", "ours cyc", "speedup", "power ratio"],
        rows,
        "gmean speedup 1.321 at ~equal power; WKND ~1.0 (tree fits in "
        "cache); PARTY ~1.0",
    )
    record("fig07_overall_speedup", payload)
    return payload


def test_fig07_overall_speedup():
    payload = run_fig07()
    assert payload["gmean_speedup"] > 1.05  # a clear overall win
    if shape_assertions_enabled():
        # WKND's tree fits in cache -> ~no benefit; power stays flat.
        assert payload["WKND"]["speedup"] < 1.2
        assert 0.8 < payload["gmean_power_ratio"] < 1.25
