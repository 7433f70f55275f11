#!/usr/bin/env python3
"""Render the recorded evaluation as terminal figures.

After ``python tools/run_full_eval.py`` has populated
``results/experiments.json``, this example draws the paper's figure
shapes — heuristics, schedulers, layouts, latency and size sweeps, and
the prefetch-effectiveness breakdown — as ASCII charts with the paper's
own numbers alongside.

Run:  python examples/paper_figures.py
"""

from __future__ import annotations

import sys

from repro.analysis import default_results_path, load_results, render_all
from repro.core import banner


def main() -> int:
    path = default_results_path()
    try:
        results = load_results(path)
    except FileNotFoundError:
        print(
            f"No recorded results at {path}.\n"
            "Run `python tools/run_full_eval.py` first.",
            file=sys.stderr,
        )
        return 1
    print(banner("Treelet prefetching — recorded evaluation figures"))
    for block in render_all(results):
        print()
        print(block)
    print()
    scales = {v.get("scale", "?") for v in results.values()}
    print(f"(recorded at scale(s): {', '.join(sorted(scales))}; "
          "see EXPERIMENTS.md for the full paper-vs-measured record)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
