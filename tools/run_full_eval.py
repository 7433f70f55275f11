#!/usr/bin/env python3
"""Run the paper's experiment table and regenerate its records.

Evaluates every row of ``repro.analysis.experiments`` at one scale,
writes ``results/experiments.json`` and EXPERIMENTS.md, and exits 1
when a shape check does not hold.  Artifacts and replay results are
kept in the artifact cache (``results/cache`` unless
``REPRO_CACHE_DIR`` says otherwise; ``REPRO_CACHE=off`` disables it),
so a re-run loads them instead of replaying, the GPU variants' results
included.  Only Abl. H's animation simulates again: its frames run
through one persistent GPU model and are not stored.

Usage:  python tools/run_full_eval.py [--scale smoke|default|full]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis import evaluate, render_recorded, write_results  # noqa: E402
from repro.core.pipeline import SCALES  # noqa: E402
from repro.exec import cache_dir_from_env, set_artifact_cache  # noqa: E402
from repro.exec.cache import cache_disabled_by_env  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", choices=("smoke", "default", "full"),
                        default="default")
    args = parser.parse_args(argv)
    if not cache_disabled_by_env():
        set_artifact_cache(cache_dir_from_env() or ROOT / "results" / "cache")

    def progress(experiment, payload) -> None:
        print(f"{experiment.id:32s} {experiment.summary(payload)}",
              flush=True)

    evaluation = evaluate(SCALES[args.scale], progress=progress)
    print(f"wrote {write_results(evaluation.results)}")
    (ROOT / "EXPERIMENTS.md").write_text(render_recorded())
    print(f"wrote {ROOT / 'EXPERIMENTS.md'}")
    for name in evaluation.failures:
        print(f"check failed: {name}", file=sys.stderr)
    return 1 if evaluation.failures else 0


if __name__ == "__main__":
    sys.exit(main())
