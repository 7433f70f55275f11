"""Ablation (extension) — who benefits: coherent vs incoherent rays.

Section 2.4 attributes the irregularity of BVH accesses mostly to
secondary rays.  This ablation runs the headline configuration on a
primary-only frame and on the full primary+secondary frame: the
prefetcher should win on both, with at least comparable gains on the
incoherent population it was designed for.
"""

from dataclasses import replace

from repro import BASELINE, TREELET_PREFETCH, run
from repro.core.report import geomean

from common import active_scale, bench_scenes, print_figure, record


def run_ablation() -> dict:
    full_scale = active_scale()
    primary_scale = replace(
        full_scale, name=full_scale.name + "-primary", secondary=False
    )
    scenes = bench_scenes()[:6]
    payload = {}
    rows = []
    gains = {"primary_only": [], "with_secondary": []}
    for scene in scenes:
        gpu = full_scale.gpu_config()
        base_p = run(scene, BASELINE, primary_scale, gpu_config=gpu)
        pref_p = run(scene, TREELET_PREFETCH, primary_scale, gpu_config=gpu)
        base_f = run(scene, BASELINE, full_scale)
        pref_f = run(scene, TREELET_PREFETCH, full_scale)
        gain_p = base_p.cycles / pref_p.cycles
        gain_f = base_f.cycles / pref_f.cycles
        gains["primary_only"].append(gain_p)
        gains["with_secondary"].append(gain_f)
        rows.append([scene, round(gain_p, 3), round(gain_f, 3)])
        payload[scene] = {"primary_only": gain_p, "with_secondary": gain_f}
    payload["gmean_primary_only"] = geomean(gains["primary_only"])
    payload["gmean_with_secondary"] = geomean(gains["with_secondary"])
    rows.append(
        [
            "GMean",
            round(payload["gmean_primary_only"], 3),
            round(payload["gmean_with_secondary"], 3),
        ]
    )
    print_figure(
        "Ablation: ray population (prefetch speedup)",
        ["scene", "primary only", "primary+secondary"],
        rows,
        "not in the paper; §2.4 motivates the design with secondary-ray "
        "incoherence — the win must survive on the incoherent frame",
    )
    record(
        "ablation_ray_population",
        {
            "primary_only": payload["gmean_primary_only"],
            "with_secondary": payload["gmean_with_secondary"],
        },
    )
    return payload


def test_ablation_ray_population():
    payload = run_ablation()
    assert payload["gmean_primary_only"] > 1.0
    assert payload["gmean_with_secondary"] > 1.0
