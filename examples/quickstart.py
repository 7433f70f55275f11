#!/usr/bin/env python3
"""Quickstart: reproduce the paper's headline result on one scene.

Builds the BUNNY scene, traces a frame of primary + secondary rays
through the baseline RT unit and through the treelet-prefetching RT unit
(ALWAYS heuristic, PMR scheduler, 512 B treelets), and prints the
speedup, memory latency, and prefetch effectiveness.

Run:  python examples/quickstart.py [SCENE]
"""

from __future__ import annotations

import sys

from repro import BASELINE, DEFAULT, TREELET_PREFETCH, run
from repro.core import banner, format_series


def main() -> None:
    scene = sys.argv[1] if len(sys.argv) > 1 else "BUNNY"
    print(banner(f"Treelet prefetching quickstart — scene {scene}"))

    print("\n[1/3] Baseline RT unit (DFS traversal, no prefetching)...")
    base = run(scene, BASELINE, DEFAULT)
    print(f"      {base.stats.cycles} cycles, "
          f"{base.stats.visits_completed} node visits, "
          f"avg BVH load latency {base.stats.avg_node_demand_latency:.0f} cyc")

    print("\n[2/3] Treelet traversal + treelet prefetcher (ALWAYS, PMR)...")
    pref = run(scene, TREELET_PREFETCH, DEFAULT)
    print(f"      {pref.stats.cycles} cycles, "
          f"{pref.stats.prefetches_issued} prefetch lines issued, "
          f"avg BVH load latency {pref.stats.avg_node_demand_latency:.0f} cyc")

    print("\n[3/3] Comparison")
    gain = pref.speedup_over(base)
    latency_cut = 1 - (
        pref.stats.avg_node_demand_latency / base.stats.avg_node_demand_latency
    )
    print(f"      speedup:            {gain:.3f}x  (paper gmean: 1.321x)")
    print(f"      BVH latency cut:    {100 * latency_cut:.1f}%  (paper: 54%)")
    print(f"      power ratio:        "
          f"{pref.power.avg_power / base.power.avg_power:.3f}  (paper: ~1.0)")
    print()
    print(format_series(
        "      prefetch effectiveness (fractions of issued prefetches):",
        pref.stats.effectiveness.fractions(),
    ))
    print(f"\nScene stats: {base.tree.triangle_count} triangles, "
          f"depth {base.tree.depth}, {pref.treelet_count} treelets of "
          f"<= {pref.technique.treelet_bytes} B")


if __name__ == "__main__":
    main()
