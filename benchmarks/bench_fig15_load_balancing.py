"""Figure 15 — DRAM load balancing via a stride between treelet roots.

With 512 B treelet slots and a 256 B DRAM partition stride, packed
treelet roots land on partitions {0, 2} only; since treelets are mostly
front-loaded (partially occupied), DRAM traffic camps on half the chips.
Adding a 256 B stride (roots 768 B apart) spreads traffic over all four
partitions — a 5.7% gain in the paper.

The effect only matters when the DRAM buses carry real pressure; the
paper's GPU runs hundreds of rays per SM against four chips.  Our
scaled default config leaves DRAM mostly idle, so this experiment runs
on a DRAM-constrained variant (longer per-line bus occupancy) that
restores the paper's utilization regime — the measured quantity is the
packed-vs-strided ratio, which is config-internal.
"""

from dataclasses import replace

from repro import Technique, run
from repro.core.config import DramConfig
from repro.core.report import geomean

from common import active_scale, bench_scenes, print_figure, record

PACKED = Technique(
    traversal="treelet", layout="treelet", prefetch="treelet",
    scheduler="pmr",
)
STRIDED = Technique(
    traversal="treelet", layout="treelet", layout_stride=256,
    prefetch="treelet", scheduler="pmr",
)


def constrained_config():
    """The active scale's GPU with paper-regime DRAM pressure."""
    base = active_scale().gpu_config()
    return replace(
        base,
        dram=DramConfig(
            latency=base.dram.latency,
            partitions=base.dram.partitions,
            partition_stride=base.dram.partition_stride,
            burst_cycles=16,
        ),
    )


def run_fig15() -> dict:
    scale = active_scale()
    gpu = constrained_config()
    payload = {}
    rows = []
    ratios = []
    for scene in bench_scenes():
        packed = run(scene, PACKED, scale, gpu_config=gpu)
        strided = run(scene, STRIDED, scale, gpu_config=gpu)
        ratio = packed.cycles / strided.cycles
        ratios.append(ratio)
        rows.append(
            [
                scene,
                packed.cycles,
                strided.cycles,
                round(ratio, 3),
                round(packed.stats.dram_imbalance, 2),
                round(strided.stats.dram_imbalance, 2),
            ]
        )
        payload[scene] = {
            "stride_gain": ratio,
            "packed_imbalance": packed.stats.dram_imbalance,
            "strided_imbalance": strided.stats.dram_imbalance,
        }
    payload["gmean_strided_vs_packed"] = geomean(ratios)
    rows.append(
        ["GMean", "", "", round(payload["gmean_strided_vs_packed"], 3),
         "", ""]
    )
    print_figure(
        "Figure 15: repacked BVH +-256B inter-treelet stride "
        "(DRAM-pressured config)",
        ["scene", "packed cyc", "strided cyc", "gain",
         "imbal packed", "imbal strided"],
        rows,
        "+256B stride performs 5.7% better: 512B-apart roots camp on "
        "DRAM chips 0 and 2; 768B spacing spreads the traffic",
    )
    record(
        "fig15_load_balancing",
        {
            "gmean_strided_vs_packed": payload["gmean_strided_vs_packed"],
            "mean_packed_imbalance": sum(
                payload[s]["packed_imbalance"] for s in bench_scenes()
            ) / len(bench_scenes()),
            "mean_strided_imbalance": sum(
                payload[s]["strided_imbalance"] for s in bench_scenes()
            ) / len(bench_scenes()),
        },
    )
    return payload


def test_fig15_load_balancing():
    payload = run_fig15()
    scenes = [k for k in payload if isinstance(payload[k], dict)]
    mean_packed = sum(payload[s]["packed_imbalance"] for s in scenes) / len(scenes)
    mean_strided = sum(payload[s]["strided_imbalance"] for s in scenes) / len(scenes)
    # The stride must spread DRAM traffic (lower imbalance) and at
    # minimum not hurt performance.
    assert mean_strided <= mean_packed + 1e-9
    assert payload["gmean_strided_vs_packed"] > 0.97
