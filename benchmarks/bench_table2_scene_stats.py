"""Table 2 — evaluation-scene BVH statistics.

Regenerates tree size, depth, and total treelet count (512 B treelets)
for every evaluation scene.  Absolute sizes are smaller than LumiBench's
(procedural stand-ins); the orderings — WKND smallest / ROBOT largest,
depth range, treelet counts tracking tree size — are the reproduced
shape.
"""

from repro.core.pipeline import get_bvh, get_decomposition
from repro.bvh import compute_tree_stats

from common import active_scale, bench_scenes, print_figure, record

PAPER_SIZES_MB = {
    "WKND": 0.2, "PARK": 501.9, "CAR": 1233.6, "ROBOT": 1721.3,
    "SPRNG": 164.3, "PARTY": 143.8, "FOX": 597.8, "FRST": 348.6,
    "LANDS": 279.2, "BUNNY": 12.2, "CRNVL": 37.3, "SHIP": 0.5,
    "SPNZA": 22.0, "BATH": 104.2, "REF": 37.1, "CHSNT": 25.5,
}


def run_table2() -> dict:
    scale = active_scale()
    rows = []
    payload = {}
    for scene in bench_scenes():
        bvh = get_bvh(scene, scale)
        stats = compute_tree_stats(bvh)
        decomposition = get_decomposition(scene, scale, 512)
        rows.append(
            [
                scene,
                stats.triangle_count,
                round(stats.size_mb, 3),
                stats.depth,
                decomposition.treelet_count,
                round(PAPER_SIZES_MB[scene], 1),
            ]
        )
        payload[scene] = {
            "size_mb": stats.size_mb,
            "depth": stats.depth,
            "treelets": decomposition.treelet_count,
            "paper_size_mb": PAPER_SIZES_MB[scene],
        }
    print_figure(
        "Table 2: scene BVH statistics (512B treelets)",
        ["scene", "tris", "size MB", "depth", "treelets", "paper MB"],
        rows,
        "sizes 0.2MB-1.7GB, depths 7-18, treelets 519-13.5M; "
        "same relative ordering expected here at reduced magnitude",
    )
    record("table2_scene_stats", payload)
    return payload


def test_table2_scene_stats():
    payload = run_table2()
    sizes = {scene: row["size_mb"] for scene, row in payload.items()}
    # Relative ordering of the extremes must match the paper.
    assert sizes["WKND"] == min(sizes.values())
    if "ROBOT" in sizes:
        assert sizes["ROBOT"] == max(sizes.values())
