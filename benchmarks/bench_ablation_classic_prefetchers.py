"""Ablation (extension) — classic prefetchers on BVH traversal.

Section 2.3/2.4 argues that stride, stream, and GHB prefetchers cannot
capture pointer-chasing BVH traversal; the paper only evaluates Lee et
al.'s MTA (Figure 8).  This bench completes the argument empirically by
running all four classic designs against the same baseline.
"""

from repro import TREELET_PREFETCH, Technique
from repro.core.report import geomean

from common import bench_scenes, print_figure, record, run_pair

KINDS = ["stride", "stream", "ghb", "mta"]


def run_ablation() -> dict:
    scenes = bench_scenes()
    payload = {}
    rows = []
    columns = KINDS + ["treelet"]
    gains_by_kind = {kind: {} for kind in columns}
    for scene in scenes:
        for kind in KINDS:
            _, _, gain = run_pair(scene, Technique(prefetch=kind))
            gains_by_kind[kind][scene] = gain
        _, _, ours = run_pair(scene, TREELET_PREFETCH)
        gains_by_kind["treelet"][scene] = ours
        rows.append(
            [scene]
            + [round(gains_by_kind[kind][scene], 3) for kind in columns]
        )
    for kind in columns:
        payload[kind] = geomean(list(gains_by_kind[kind].values()))
    rows.append(["GMean"] + [round(payload[kind], 3) for kind in columns])
    print_figure(
        "Ablation: classic prefetchers vs the treelet prefetcher",
        ["scene"] + columns,
        rows,
        "Section 2.4 prediction: stride/stream/GHB ineffective on "
        "pointer-chasing BVH traversal; treelet prefetching wins",
    )
    record("ablation_classic_prefetchers", payload)
    return payload


def test_ablation_classic_prefetchers():
    payload = run_ablation()
    for kind in KINDS:
        assert payload["treelet"] > payload[kind]
