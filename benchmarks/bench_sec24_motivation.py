"""Section 2.4 — ray-traversal prefetching challenges (motivation).

The paper's argument for a treelet-granularity prefetcher rests on ray
incoherence: "rays are usually dispatched from various locations and
cast in different directions... especially secondary and reflection
rays".  This bench quantifies it: within-warp footprint overlap and
treelet-boundary crossings per ray kind, across the scene set.
"""

from repro.analysis import analyze_by_kind
from repro.core.pipeline import get_bvh, get_decomposition, get_rays
from repro.traversal import traverse_dfs_batch

from common import active_scale, bench_scenes, print_figure, record

KINDS = ("primary", "shadow", "secondary")


def run_sec24() -> dict:
    scale = active_scale()
    rows = []
    sums = {kind: {"overlap": 0.0, "nodes": 0.0, "n": 0} for kind in KINDS}
    for scene in bench_scenes():
        bvh = get_bvh(scene, scale)
        decomposition = get_decomposition(scene, scale, 512)
        rays = get_rays(scene, scale)
        traces = traverse_dfs_batch([ray.clone() for ray in rays], bvh)
        reports = analyze_by_kind(rays, traces, decomposition)
        row = [scene]
        for kind in KINDS:
            report = reports.get(kind)
            if report is None:
                row.append("-")
                continue
            row.append(round(report.avg_warp_overlap, 3))
            sums[kind]["overlap"] += report.avg_warp_overlap
            sums[kind]["nodes"] += report.avg_nodes_per_ray
            sums[kind]["n"] += 1
        rows.append(row)
    payload = {}
    for kind in KINDS:
        n = max(1, sums[kind]["n"])
        payload[kind] = {
            "mean_warp_overlap": sums[kind]["overlap"] / n,
            "mean_nodes_per_ray": sums[kind]["nodes"] / n,
        }
    rows.append(
        ["Mean"]
        + [round(payload[kind]["mean_warp_overlap"], 3) for kind in KINDS]
    )
    print_figure(
        "Section 2.4: within-warp footprint overlap by ray kind",
        ["scene"] + [f"{kind} ovl" for kind in KINDS],
        rows,
        "qualitative claim: secondary rays 'traverse drastically "
        "different parts of the BVH tree' — lower overlap than primary",
    )
    record("sec24_motivation", payload)
    return payload


def test_sec24_motivation():
    payload = run_sec24()
    # The motivating incoherence: secondary rays overlap their
    # warp-mates less than primary rays do.
    assert (
        payload["secondary"]["mean_warp_overlap"]
        < payload["primary"]["mean_warp_overlap"]
    )
