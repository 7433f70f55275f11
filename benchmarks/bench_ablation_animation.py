"""Ablation (extension) — frame-to-frame behavior (warm caches).

The paper evaluates single frames from cold caches; a real-time
renderer runs frame after frame of a slowly moving view.  This ablation
orbits the camera over four frames through one persistent GPU model:
warm caches shrink everyone's miss rate, and the question is whether
the prefetcher's advantage survives into steady state.
"""

from repro import BASELINE, TREELET_PREFETCH
from repro.core import AnimationConfig, run_animation
from repro.core.report import geomean

from common import active_scale, bench_scenes, print_figure, record

CONFIG = AnimationConfig(frames=4, orbit_degrees_per_frame=3.0)


def run_ablation() -> dict:
    scale = active_scale()
    scenes = bench_scenes()[:6]
    payload = {}
    rows = []
    cold_gains = []
    steady_gains = []
    for scene in scenes:
        base = run_animation(scene, BASELINE, CONFIG, scale)
        pref = run_animation(scene, TREELET_PREFETCH, CONFIG, scale)
        cold = base.first_frame / pref.first_frame
        steady = base.steady_state / pref.steady_state
        cold_gains.append(cold)
        steady_gains.append(steady)
        rows.append(
            [
                scene,
                round(cold, 3),
                round(steady, 3),
                round(base.warmup_ratio, 2),
                round(pref.warmup_ratio, 2),
            ]
        )
        payload[scene] = {"cold_frame": cold, "steady_state": steady}
    payload["gmean_cold_frame"] = geomean(cold_gains)
    payload["gmean_steady_state"] = geomean(steady_gains)
    rows.append(
        ["GMean", round(payload["gmean_cold_frame"], 3),
         round(payload["gmean_steady_state"], 3), "", ""]
    )
    print_figure(
        "Ablation: per-frame speedup over a 4-frame camera orbit",
        ["scene", "cold frame", "steady state", "base warmup", "pref warmup"],
        rows,
        "not in the paper (single cold frames there); the win must "
        "survive into the warm-cache steady state",
    )
    record(
        "ablation_animation",
        {
            "cold_frame": payload["gmean_cold_frame"],
            "steady_state": payload["gmean_steady_state"],
        },
    )
    return payload


def test_ablation_animation():
    payload = run_ablation()
    assert payload["gmean_cold_frame"] > 1.0
    assert payload["gmean_steady_state"] > 1.0
