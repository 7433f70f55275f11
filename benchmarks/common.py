"""Shared infrastructure for the per-figure benchmark harness.

Every bench regenerates one table or figure from the paper: it runs the
relevant experiment sweep, prints the rows/series the paper reports
(plus the paper's own headline number for comparison), and appends a
machine-readable record to ``results/experiments.json`` which
EXPERIMENTS.md is generated from.

Scene coverage follows the active scale (``REPRO_SCALE``):

* ``smoke``  — 4 small scenes (CI-speed sanity).
* ``default`` — 10 scenes (drops the five slowest big scenes).
* ``full``  — all 16 scenes at 32x32 rays (the paper's resolution).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro import BASELINE, Technique, scale_from_env, speedup
from repro.api import run as api_run
from repro.core import (
    ExperimentResult,
    Scale,
    format_table,
    geomean,
    prewarm_traces,
)
from repro.scenes import ALL_SCENES

RESULTS_PATH = Path(__file__).resolve().parent.parent / "results"


def enable_default_cache():
    """Activate the persistent artifact cache for the bench harness.

    Benchmarks rebuild the same scenes/BVHs/traces on every process
    start; the on-disk cache (``results/cache`` unless
    ``REPRO_CACHE_DIR`` overrides) makes repeat runs skip all of it.
    ``REPRO_CACHE=off`` disables.  Returns the active cache or None.
    """
    from repro.exec import cache_dir_from_env, set_artifact_cache
    from repro.exec.cache import cache_disabled_by_env

    if cache_disabled_by_env():
        return None
    return set_artifact_cache(
        cache_dir_from_env() or RESULTS_PATH / "cache"
    )


#: The harness caches by default — every bench process shares artifacts.
enable_default_cache()


def default_jobs() -> int:
    """Worker count for benchmark sweeps (``REPRO_JOBS``, default 1)."""
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1

_SMOKE_SCENES = ("WKND", "SHIP", "BUNNY", "SPNZA")
_DEFAULT_SCENES = (
    "WKND", "SHIP", "BUNNY", "SPNZA", "REF", "CHSNT",
    "CRNVL", "BATH", "SPRNG", "FRST",
)


def active_scale() -> Scale:
    return scale_from_env()


def bench_scenes(scale: Optional[Scale] = None) -> List[str]:
    """The scene list a bench sweeps at the active scale."""
    scale = scale or active_scale()
    if scale.name == "smoke":
        return list(_SMOKE_SCENES)
    if scale.name == "full":
        return list(ALL_SCENES)
    return list(_DEFAULT_SCENES)


def run_pair(
    scene: str, technique: Technique, scale: Optional[Scale] = None
):
    """(baseline result, technique result, speedup) for one scene."""
    scale = scale or active_scale()
    base = api_run(scene, BASELINE, scale).experiment
    cand = api_run(scene, technique, scale).experiment
    return base, cand, speedup(base, cand)


def sweep(
    technique: Technique,
    scenes: Optional[Iterable[str]] = None,
    scale: Optional[Scale] = None,
    jobs: Optional[int] = None,
) -> Dict[str, ExperimentResult]:
    scale = scale or active_scale()
    scenes = list(scenes or bench_scenes(scale))
    jobs = default_jobs() if jobs is None else jobs
    if jobs > 1 and len(scenes) > 1:
        # Fan out across workers; results land in the in-process
        # memoizer, so the comprehension below is pure lookups.
        from repro.exec import prewarm_replays

        prewarm_replays([technique], scenes, scale, jobs=jobs)
    else:
        # Serial path: batch all missing trace generation through the
        # vectorized forest driver before simulating.
        prewarm_traces([(scene, technique) for scene in scenes], scale)
    return {
        scene: api_run(scene, technique, scale).experiment
        for scene in scenes
    }


def record(experiment_id: str, payload: dict) -> None:
    """Append one experiment's outcome to results/experiments.json."""
    RESULTS_PATH.mkdir(exist_ok=True)
    path = RESULTS_PATH / "experiments.json"
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            data = {}
    payload = dict(payload)
    payload["scale"] = active_scale().name
    payload["recorded_at"] = time.strftime("%Y-%m-%d %H:%M:%S")
    data[experiment_id] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True))


def observed_run(
    scene: str, technique: Technique, scale: Optional[Scale] = None
):
    """Run one technique with a :class:`repro.obs.Observer` attached.

    Returns ``(result, observer)``; the observer carries the trace bus
    and the metric registry (latency/timeliness histograms, occupancy
    gauges) for the run.
    """
    from repro.obs import Observer

    scale = scale or active_scale()
    observer = Observer()
    result = api_run(scene, technique, scale, observer=observer).experiment
    return result, observer


def save_run_report(
    scene: str,
    technique: Technique,
    scale: Optional[Scale] = None,
    name: Optional[str] = None,
) -> dict:
    """Produce and persist ``results/reports/<name>.json`` for one run.

    The document follows the ``repro.run_report/1`` schema
    (:mod:`repro.obs.report`), so downstream tooling — including
    ``tools/run_full_eval.py --reports`` — can consume stats and
    histograms without re-running anything.
    """
    from repro.obs import build_run_report, write_run_report

    scale = scale or active_scale()
    result, observer = observed_run(scene, technique, scale)
    report = build_run_report(
        scene=scene,
        technique=technique.label(),
        scale=scale.name,
        stats=result.stats,
        observer=observer,
    )
    path = RESULTS_PATH / "reports" / f"{name or scene}.json"
    write_run_report(path, report)
    return report


def print_figure(
    title: str,
    headers: List[str],
    rows: List[List[object]],
    paper_note: str,
) -> None:
    print()
    print("=" * 72)
    print(title)
    print("-" * 72)
    print(format_table(headers, rows))
    print(f"paper: {paper_note}")
    print("=" * 72)


def gmean_row(label: str, values: List[float]) -> List[object]:
    return [label, *(["" for _ in range(0)]), geomean(values)]


def shape_assertions_enabled() -> bool:
    """Quantitative shape assertions only make sense above smoke scale.

    At smoke scale the scenes are miniatures and the GPU config is tiny,
    so per-scene anomalies (e.g. "WKND fits in cache") do not hold; the
    smoke run only verifies the harness mechanics.
    """
    return active_scale().name != "smoke"

