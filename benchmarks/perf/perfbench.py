"""Tracked performance microbenchmarks for the repro pipeline.

Four phases, each timing one stage of the evaluation pipeline in
isolation (``run_bench.py`` is the CLI driver):

* ``trace``  — trace generation: the vectorized forest driver vs the
  scalar reference over a 13-config-per-scene workload (dfs + 4 treelet
  budgets x 3 deferred orders).  This is the tentpole number: the
  committed ``BENCH_trace.json`` at default scale must show >= 5x.
* ``build``  — cold artifact construction (scene, BVH, decomposition).
* ``replay`` — trace-driven GPU-model simulation with warm artifacts.
* ``e2e``    — one full cold evaluation per scene (build + trace +
  replay), the end-user `repro.api.run` experience.

Every phase emits a ``repro.bench/1`` document::

    {"schema": "repro.bench/1", "phase": "trace", "scale": "default",
     "workload": {...}, "metrics": {"<name>": {"seconds": ...}},
     "derived": {...}, "environment": {...}}

``metrics`` values are best-of-N ``time.process_time`` seconds (CPU
time, immune to wall-clock noise from co-tenants).  ``derived`` holds
ratios and workload counts.  ``check_regression.py`` compares the
``seconds`` of each metric against a committed baseline and fails on
>2x slowdowns; the schema is append-only so old baselines keep parsing.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.memo import MEMO
from repro.core.pipeline import (
    BASELINE,
    DEFAULT,
    FULL,
    SMOKE,
    TREELET_PREFETCH,
    Scale,
    _run_experiment,
    clear_caches,
    get_bvh,
    get_decomposition,
    get_rays,
    prewarm_traces,
)
from repro.scenes import ALL_SCENES
from repro.traversal import (
    traverse_dfs_batch,
    traverse_forest_jobs,
    traverse_two_stack_batch,
)
from repro.traversal.two_stack import DEFERRED_ORDERS

SCHEMA = "repro.bench/1"
PHASES = ("trace", "build", "replay", "e2e")

_SCALES = {"smoke": SMOKE, "default": DEFAULT, "full": FULL}

#: Scene coverage per scale; small at smoke so CI stays fast.
_BENCH_SCENES = {
    "smoke": ["WKND", "BUNNY", "SPNZA"],
    "default": ["WKND", "BUNNY", "SPNZA", "CRNVL", "SHIP"],
    "full": list(ALL_SCENES),
}

#: 13 trace configurations per scene: DFS plus four cache-sized
#: treelet budgets (the paper's treelets are L1-sized, 8-64 KiB)
#: under each deferred-order policy.
TRACE_CONFIGS = [("dfs", 0, "nearest")] + [
    ("treelet", treelet_bytes, order)
    for treelet_bytes in (8192, 16384, 49152, 65536)
    for order in DEFERRED_ORDERS
]

#: Lane count per packet for the forest driver; wide packets amortize
#: the fixed per-iteration numpy dispatch across the whole workload.
TRACE_PACKET_SIZE = 8192

#: Best-of-N repeat counts per phase (overridable from the CLI).
DEFAULT_REPEATS = {"trace": 3, "build": 3, "replay": 3, "e2e": 1}


def resolve_scale(name: str) -> Scale:
    try:
        return _SCALES[name]
    except KeyError:
        known = ", ".join(_SCALES)
        raise ValueError(f"unknown bench scale {name!r} (known: {known})")


def bench_scenes(scale: Scale) -> List[str]:
    return list(_BENCH_SCENES.get(scale.name, _BENCH_SCENES["default"]))


def resolve_scenes(spec: Optional[str], scale: Scale) -> Optional[List[str]]:
    """Parse a CLI ``--scenes`` spec: ``None``/"default" -> the
    per-scale bench set (returned as None so :func:`run_phase` applies
    it), "all" -> the full scene library, otherwise a comma-separated
    list of scene names (validated against the library)."""
    if spec is None:
        return None
    name = spec.strip().lower()
    if name in ("", "default"):
        return None
    if name == "all":
        return list(ALL_SCENES)
    scenes = [item.strip().upper() for item in spec.split(",") if item.strip()]
    unknown = [scene for scene in scenes if scene not in ALL_SCENES]
    if unknown:
        raise ValueError(
            f"unknown scene(s) {', '.join(unknown)} "
            f"(known: {', '.join(ALL_SCENES)})"
        )
    return scenes


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.process_time()
        fn()
        best = min(best, time.process_time() - start)
    return best


def _best_of_wall(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-N wall-clock seconds (``time.perf_counter``).

    Used where the work fans across child processes: ``process_time``
    only meters this process's CPU, so it would not see pool workers at
    all.  Wall clock is noisier, hence still best-of-N.
    """
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _best_of_prepared(
    fn: Callable[[object], object],
    prepare: Callable[[], object],
    repeats: int,
) -> float:
    """Best-of-N where per-repeat setup runs outside the timed region."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        prepared = prepare()
        start = time.process_time()
        fn(prepared)
        best = min(best, time.process_time() - start)
    return best


def _environment() -> Dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpus": os.cpu_count() or 1,
    }


def _document(phase: str, scale: Scale, workload: dict,
              metrics: dict, derived: dict) -> dict:
    return {
        "schema": SCHEMA,
        "phase": phase,
        "scale": scale.name,
        "workload": workload,
        "metrics": metrics,
        "derived": derived,
        "environment": _environment(),
    }


def _trace_workload(scale: Scale, scenes: List[str]):
    """(bvh, rays, decomposition, order) specs with artifacts prebuilt,
    so the timed region measures trace generation only."""
    specs = []
    for scene in scenes:
        bvh = get_bvh(scene, scale)
        rays = get_rays(scene, scale)
        for traversal, treelet_bytes, order in TRACE_CONFIGS:
            decomposition = (
                get_decomposition(scene, scale, treelet_bytes)
                if traversal == "treelet"
                else None
            )
            specs.append((bvh, rays, decomposition, order))
    return specs


def bench_trace(scale: Scale, scenes: List[str], repeats: int) -> dict:
    specs = _trace_workload(scale, scenes)
    rays_total = sum(len(spec[1]) for spec in specs)

    # Traversal consumes its ray list (t_max narrows as hits land), so
    # every repeat needs fresh clones.  Cloning is identical work for
    # both backends and is not trace generation — it happens outside
    # the timed region.
    def fresh_jobs():
        return [
            (bvh, [ray.clone() for ray in rays], decomposition, order)
            for bvh, rays, decomposition, order in specs
        ]

    def run_vectorized(jobs):
        return traverse_forest_jobs(jobs, packet_size=TRACE_PACKET_SIZE)

    def run_scalar(jobs):
        outputs = []
        for bvh, cloned, decomposition, order in jobs:
            if decomposition is None:
                outputs.append(traverse_dfs_batch(cloned, bvh))
            else:
                outputs.append(
                    traverse_two_stack_batch(
                        cloned, bvh, decomposition, order
                    )
                )
        return outputs

    run_vectorized(fresh_jobs())  # warm numpy statics outside the timer
    vectorized = _best_of_prepared(run_vectorized, fresh_jobs, repeats)
    scalar = _best_of_prepared(run_scalar, fresh_jobs, repeats)
    return _document(
        "trace", scale,
        workload={
            "scenes": scenes,
            "configs_per_scene": len(TRACE_CONFIGS),
            "trace_sets": len(specs),
            "rays": rays_total,
            "packet_size": TRACE_PACKET_SIZE,
        },
        metrics={
            "trace_vectorized": {"seconds": vectorized},
            "trace_scalar": {"seconds": scalar},
        },
        derived={
            "speedup": scalar / vectorized,
            "rays_per_second_vectorized": rays_total / vectorized,
        },
    )


def bench_build(scale: Scale, scenes: List[str], repeats: int) -> dict:
    def run_cold():
        clear_caches()
        for scene in scenes:
            get_bvh(scene, scale)
            get_decomposition(scene, scale, 512)

    seconds = _best_of(run_cold, repeats)
    clear_caches()
    return _document(
        "build", scale,
        workload={"scenes": scenes},
        metrics={"build_cold": {"seconds": seconds}},
        derived={"scenes_per_second": len(scenes) / seconds},
    )


#: Worker count for the ``replay_parallel`` metric (the replay fan-out
#: across the repro.exec pool).  Capped at the host's core count: on a
#: single-core host ``prewarm_replays(jobs=1)`` degrades to the
#: in-process serial path, so the metric stays an honest "what this
#: machine gets from the fan-out" instead of timing pure
#: oversubscription overhead.  ``workload.parallel_jobs`` records the
#: value used.
PARALLEL_REPLAY_JOBS = max(1, min(4, os.cpu_count() or 1))


def bench_replay(
    scale: Scale,
    scenes: List[str],
    repeats: int,
    parallel_jobs: int = PARALLEL_REPLAY_JOBS,
) -> dict:
    """Warm-artifact replay, timed serially and per fan-out.

    ``replay_warm`` is the headline metric, and the one gated against
    the committed baseline.  Two further surfaces:

    * ``derived.per_scene`` — each scene's (baseline + treelet) replay
      timed on its own, so a regression localizes to a scene instead of
      hiding in the aggregate;
    * ``replay_serial_wall`` / ``replay_parallel`` — the same warm
      replay workload serial versus fanned across ``parallel_jobs``
      worker processes (:func:`repro.exec.prewarm_replays`), timed on
      the wall clock (worker CPU is invisible to ``process_time``);
      their ratio is ``derived.parallel_speedup``.
    """
    from repro.exec.executor import prewarm_replays

    pairs = [
        (scene, technique)
        for scene in scenes
        for technique in (BASELINE, TREELET_PREFETCH)
    ]
    prewarm_traces(pairs, scale)

    def replay(workload):
        def run_replay():
            MEMO.clear("result")
            for scene, technique in workload:
                _run_experiment(scene, technique, scale)

        return run_replay

    warm = _best_of(replay(pairs), repeats)
    per_scene = {
        scene: {
            "seconds": _best_of(
                replay([(scene, BASELINE), (scene, TREELET_PREFETCH)]),
                repeats,
            ),
        }
        for scene in scenes
    }

    def replay_serial():
        MEMO.clear("result")
        for scene, technique in pairs:
            _run_experiment(scene, technique, scale)

    def replay_parallel():
        MEMO.clear("result")
        prewarm_replays(
            [BASELINE, TREELET_PREFETCH], scenes, scale, jobs=parallel_jobs
        )

    serial_wall = _best_of_wall(replay_serial, repeats)
    parallel_wall = _best_of_wall(replay_parallel, repeats)
    return _document(
        "replay", scale,
        workload={
            "scenes": scenes,
            "experiments": len(pairs),
            "parallel_jobs": parallel_jobs,
        },
        metrics={
            "replay_warm": {"seconds": warm},
            "replay_serial_wall": {"seconds": serial_wall},
            "replay_parallel": {"seconds": parallel_wall},
        },
        derived={
            "experiments_per_second": len(pairs) / warm,
            "parallel_speedup": serial_wall / parallel_wall,
            "per_scene": per_scene,
        },
    )


def bench_e2e(scale: Scale, scenes: List[str], repeats: int) -> dict:
    def run_cold():
        clear_caches()
        for scene in scenes:
            _run_experiment(scene, TREELET_PREFETCH, scale)

    seconds = _best_of(run_cold, repeats)
    clear_caches()
    return _document(
        "e2e", scale,
        workload={"scenes": scenes},
        metrics={"e2e_cold": {"seconds": seconds}},
        derived={"scenes_per_second": len(scenes) / seconds},
    )


_PHASE_FNS = {
    "trace": bench_trace,
    "build": bench_build,
    "replay": bench_replay,
    "e2e": bench_e2e,
}


def run_phase(
    phase: str,
    scale: Scale,
    scenes: Optional[List[str]] = None,
    repeats: Optional[int] = None,
) -> dict:
    """Run one phase and return its ``repro.bench/1`` document."""
    if phase not in _PHASE_FNS:
        raise ValueError(f"unknown phase {phase!r} (known: {PHASES})")
    scenes = list(scenes) if scenes is not None else bench_scenes(scale)
    if repeats is None:
        repeats = DEFAULT_REPEATS[phase]
    return _PHASE_FNS[phase](scale, scenes, repeats)
