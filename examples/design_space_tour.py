#!/usr/bin/env python3
"""Design-space tour: sweep the paper's knobs on one scene.

Walks the axes of the paper's evaluation — heuristics (Fig 10),
schedulers (Fig 13), treelet sizes (Fig 19), voter latency (Fig 16), and
BVH layout options (Fig 14) — on a single scene, so the trade-offs are
visible in under a minute.

Run:  python examples/design_space_tour.py [SCENE]
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro import BASELINE, DEFAULT, TREELET_PREFETCH, Technique, run
from repro.core import banner, format_table
from repro.prefetch import PrefetchHeuristic


def evaluate(scene: str, technique: Technique):
    base = run(scene, BASELINE, DEFAULT)
    result = run(scene, technique, DEFAULT)
    return result.speedup_over(base), result


def main() -> None:
    scene = sys.argv[1] if len(sys.argv) > 1 else "SPNZA"
    print(banner(f"Design-space tour — scene {scene}"))

    print("\n-- Prefetch heuristics (paper Fig 10) --")
    rows = []
    for heuristic in [
        PrefetchHeuristic("always"),
        PrefetchHeuristic("popularity", threshold=0.25),
        PrefetchHeuristic("popularity", threshold=0.75),
        PrefetchHeuristic("partial"),
    ]:
        technique = Technique(
            traversal="treelet", layout="treelet", prefetch="treelet",
            heuristic=heuristic,
        )
        gain, result = evaluate(scene, technique)
        rows.append([heuristic.label(), round(gain, 3),
                     result.stats.prefetches_issued])
    print(format_table(["heuristic", "speedup", "prefetch lines"], rows))

    print("\n-- Warp schedulers (paper Fig 13) --")
    rows = []
    for policy in ("baseline", "omr", "pmr"):
        gain, _ = evaluate(scene, replace(TREELET_PREFETCH, scheduler=policy))
        rows.append([policy.upper(), round(gain, 3)])
    print(format_table(["scheduler", "speedup"], rows))

    print("\n-- Treelet sizes (paper Fig 19) --")
    rows = []
    for size in (256, 512, 1024, 2048):
        gain, result = evaluate(
            scene, replace(TREELET_PREFETCH, treelet_bytes=size)
        )
        rows.append([f"{size}B", round(gain, 3), result.treelet_count])
    print(format_table(["max treelet", "speedup", "treelet count"], rows))

    print("\n-- Voter latency (paper Fig 16) --")
    rows = []
    for latency in (0, 32, 128, 512):
        technique = replace(
            TREELET_PREFETCH, voter_mode="pseudo", voter_latency=latency
        )
        gain, result = evaluate(scene, technique)
        rows.append([f"{latency} cyc", round(gain, 3),
                     round(result.stats.voter_accuracy, 3)])
    print(format_table(["voter latency", "speedup", "voter accuracy"], rows))

    print("\n-- BVH layout options (paper Fig 14) --")
    rows = []
    options = {
        "repacked": Technique(traversal="treelet", layout="treelet",
                              prefetch="treelet"),
        "repacked +256B stride": Technique(
            traversal="treelet", layout="treelet", layout_stride=256,
            prefetch="treelet"),
        "mapping table (loose)": Technique(
            traversal="treelet", layout="dfs", prefetch="treelet",
            mapping_mode="loose"),
        "mapping table (strict)": Technique(
            traversal="treelet", layout="dfs", prefetch="treelet",
            mapping_mode="strict"),
    }
    for label, technique in options.items():
        gain, _ = evaluate(scene, technique)
        rows.append([label, round(gain, 3)])
    print(format_table(["layout option", "speedup"], rows))


if __name__ == "__main__":
    main()
