"""Figure 19 — treelet size sweep: 256 / 512 / 1024 / 2048 bytes.

512 B is the paper's sweet spot (31.9%); 256 B reduces lookahead depth
(24.8%), larger treelets overfetch and thrash (29.4% / 30.4%).
"""

from repro import Technique
from repro.core.report import geomean

from common import bench_scenes, print_figure, record, run_pair

SIZES = [256, 512, 1024, 2048]


def technique_for(size: int) -> Technique:
    return Technique(
        traversal="treelet",
        layout="treelet",
        prefetch="treelet",
        treelet_bytes=size,
    )


def run_fig19() -> dict:
    scenes = bench_scenes()
    payload = {}
    rows = []
    for size in SIZES:
        speedups = {}
        for scene in scenes:
            _, _, gain = run_pair(scene, technique_for(size))
            speedups[scene] = gain
        payload[str(size)] = {
            "per_scene": speedups,
            "gmean": geomean(list(speedups.values())),
        }
    for scene in scenes:
        rows.append(
            [scene]
            + [round(payload[str(s)]["per_scene"][scene], 3) for s in SIZES]
        )
    rows.append(
        ["GMean"] + [round(payload[str(s)]["gmean"], 3) for s in SIZES]
    )
    print_figure(
        "Figure 19: maximum treelet size sweep",
        ["scene"] + [f"{s}B" for s in SIZES],
        rows,
        "512B best (1.319); 256B 1.248; 1024B 1.294; 2048B 1.304",
    )
    record(
        "fig19_treelet_sizes",
        {str(s): payload[str(s)]["gmean"] for s in SIZES},
    )
    return payload


def test_fig19_treelet_sizes():
    payload = run_fig19()
    gmeans = {s: payload[str(s)]["gmean"] for s in SIZES}
    # Every size wins over baseline, and the band is fairly tight —
    # no size should collapse the benefit.
    assert min(gmeans.values()) > 1.0
    assert max(gmeans.values()) - min(gmeans.values()) < 0.25
